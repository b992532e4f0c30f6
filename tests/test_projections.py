"""Projection stats, trend classification, exceptional-direction scan."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from walkangles.projections import (MINUS, OSC, PLUS, PSI_OFFSET, UNDECIDED,
                                    ClassifierThresholds, ProjectionStats,
                                    ProjectionTracker, classify, project_series,
                                    scan_exceptional)
from walkangles.samplers import (coordinate_product, constant, linear_combination,
                                 log_tail, radial_product, rademacher, s_two_sided)
from walkangles.walk import (BLOCK, NEG_INF, ObserverBase, WalkBlock, dyadic_checkpoints,
                             run_walk)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def stats_from_series(series, u=(1.0,)):
    return project_series(np.asarray(series, dtype=float)[:, None], u)


def test_project_series_drift():
    pos = np.arange(1, 1025)[:, None] * E1
    st = project_series(pos, np.array([E1, E2]))
    assert st.directions.shape == (2, 2)
    assert np.all(st.mins[:, 0] == 0.0)
    assert np.array_equal(st.maxes[:, 0], np.array(st.checkpoints, dtype=float))
    assert np.all(st.mins[:, 1] == 0.0) and np.all(st.maxes[:, 1] == 0.0)


def test_project_series_hand_example():
    pos = np.array([[1, 1], [2, 0], [3, 1]], dtype=float)
    st = project_series(pos, E2, checkpoints=[1, 2, 3])
    assert st.mins[-1, 0] == 0.0
    assert st.maxes[-1, 0] == 1.0
    assert st.final[0] == 1.0


@pytest.mark.parametrize("checkpoints", [[-1], [64, 32, 16, 8], [0, 1], [1, 1, 2], [1.5]])
def test_project_series_rejects_unordered_checkpoints(checkpoints):
    # [-1] read the last row under the label -1, and the unordered ladder
    # classified OSC
    pos = np.arange(1, 65)[:, None] * E1
    with pytest.raises(ValueError, match="checkpoints"):
        project_series(pos, E1, checkpoints=checkpoints)


def test_classify_monotone_series():
    n = 2**14
    up = stats_from_series(np.arange(1, n + 1, dtype=float))
    assert classify(up) == [PLUS]
    down = stats_from_series(-np.arange(1, n + 1, dtype=float))
    assert classify(down) == [MINUS]


def test_classify_needs_checkpoints():
    st = stats_from_series([1.0, 2.0, 3.0], (1.0,))
    with pytest.raises(ValueError):
        classify(st, ClassifierThresholds(min_checkpoints=9))


def test_ssrw_projection_oscillates():
    # calibration example: the symmetric simple walk classifies OSC in at
    # least 90% of seeded runs at a million steps
    n = 10**6
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        series = np.cumsum(np.where(rng.random(n) < 0.5, 1.0, -1.0))
        [verdict] = classify(stats_from_series(series))
        wins += (verdict == OSC)
    assert wins >= 45


def test_linearity_min_max_mirror():
    spec = coordinate_product([rademacher(), s_two_sided(1.5)])
    tr = ProjectionTracker(directions=np.array([E1, -E1, E2, -E2]))
    run_walk(spec, 10**4, seed=12, observers=[tr])
    st = tr.stats
    assert np.array_equal(st.mins[:, 0], -st.maxes[:, 1])
    assert np.array_equal(st.maxes[:, 0], -st.mins[:, 1])


def test_s_convexity_proxy_inequality():
    # min ladder of an interpolated direction dominates the convex mix of
    # the endpoint ladders (bilinearity of the inner product)
    spec = coordinate_product([rademacher(), rademacher()])
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    for alpha in (0.25, 0.5, 0.75):
        w_raw = alpha * u + (1 - alpha) * v
        tr = ProjectionTracker(directions=np.array([u, v, w_raw]))
        run_walk(spec, 4096, seed=9, observers=[tr])
        mins = tr.stats.mins
        mix = alpha * mins[:, 0] + (1 - alpha) * mins[:, 1]
        assert np.all(mins[:, 2] >= mix - 1e-9)


def test_drift_walk_trichotomy_small():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=16)
    run_walk(spec, 10**5, seed=3, observers=[tr])
    for u, verdict in zip(tr.directions, classify(tr.stats)):
        if u[0] > 0.3:
            assert verdict == PLUS, (u, verdict)
        elif u[0] < -0.3:
            assert verdict == MINUS, (u, verdict)


def test_scan_exceptional_drift_boundary():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=64)
    run_walk(spec, 10**4, seed=11, observers=[tr])
    found = scan_exceptional(tr.stats, classify(tr.stats))
    for u in tr.stats.directions[found]:
        assert abs(u[0]) < 0.2      # only near-orthogonal directions linger


def test_scan_candidates_shrink_with_longer_runs():
    spec = coordinate_product([constant(1), rademacher()])
    shrunk = 0
    trials = 30
    for seed in range(trials):
        sizes = []
        for n in (10**4, 2 * 10**4):
            tr = ProjectionTracker(grid_m=64)
            run_walk(spec, n, seed=seed, observers=[tr])
            sizes.append(len(scan_exceptional(tr.stats, classify(tr.stats))))
        shrunk += (sizes[1] <= sizes[0])
    assert shrunk >= int(0.8 * trials)


def test_log_scale_projection_classification():
    # heavy radial walks are tracked in signed-log encoding end to end
    spec = radial_product([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                          [0.25] * 4, log_tail())
    tr = ProjectionTracker(directions=np.array([E1, E2]))
    run_walk(spec, 10**4, seed=2, observers=[tr])
    assert tr.stats.log_scale
    assert classify(tr.stats) == [OSC, OSC]


def test_tracker_csv():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=8)
    run_walk(spec, 2048, seed=1, observers=[tr])
    text = tr.to_csv(classify(tr.stats))
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].endswith("final,verdict")


def test_ladder_of_walk_halted_before_first_checkpoint():
    # at seed 2 the float walk leaves float range at step 1, so it records no
    # step and reaches no checkpoint
    spec = linear_combination([[1e300, 0.0], [0.0, 1.0]], [s_two_sided(0.01), rademacher()])
    tr = ProjectionTracker(grid_m=8)
    rec = run_walk(spec, 64, seed=2, observers=[tr])
    assert rec.overflowed and rec.checkpoints == []
    st = tr.stats
    assert st.checkpoints == []
    assert st.mins.shape == st.maxes.shape == (0, 8)
    assert len(st.mins[:, 0]) == 0
    lines = tr.to_csv(["UNDECIDED"] * 8).splitlines()
    assert lines[0] == "u_1,u_2,final,verdict" and len(lines) == 9
    # a ladder with no checkpoint holds only S_0 = 0: bounded both ways
    assert scan_exceptional(st, [UNDECIDED] * 8).tolist() == list(range(8))
    assert scan_exceptional(st, [UNDECIDED, OSC] * 4).tolist() == [0, 2, 4, 6]


# ---------------------------------------------------------------------------
# reference oracle: the scalar classifier that ``classify`` replaced, one
# direction at a time, moved here verbatim (only ``classify`` is renamed
# ``scalar_classify``)

def _psi_log_abs(psi: float) -> float:
    return NEG_INF if psi == 0.0 else abs(psi) - PSI_OFFSET


def _stabilized(values: np.ndarray) -> bool:
    """Exactly constant over the last half of the checkpoint ladder."""
    half = (len(values) + 1) // 2
    tail = values[-half:]
    return bool(np.all(tail == tail[0]))


def _grew_each(values: np.ndarray, ns: list[int], factor: float,
               log_scale: bool) -> bool:
    """Growth of at least ``factor`` per doubling over the last two checkpoint
    steps.  The final checkpoint may be a partial doubling (n need not be a
    power of two), so each step's requirement scales with log2 of its actual
    time ratio."""
    a, b, c = values[-3], values[-2], values[-1]
    w1 = math.log2(ns[-2] / ns[-3])
    w2 = math.log2(ns[-1] / ns[-2])
    need1, need2 = w1 * math.log(factor), w2 * math.log(factor)
    if log_scale:
        if min(a, b, c) <= 0:       # psi > 0 means a positive value
            return False
        return (b - a) >= need1 - 1e-12 and (c - b) >= need2 - 1e-12
    if a <= 0 or b <= 0 or c <= 0:
        return False
    return (math.log(b / a) >= need1 - 1e-12
            and math.log(c / b) >= need2 - 1e-12)


def _exceeds_scale(psi_or_value: float, threshold: float, log_scale: bool) -> bool:
    """|value| > threshold, in the right encoding."""
    if threshold <= 0:
        return True
    if log_scale:
        return _psi_log_abs(abs(psi_or_value)) > math.log(threshold)
    return abs(psi_or_value) > threshold


def scalar_classify(stats,
                    thresholds: ClassifierThresholds = ClassifierThresholds()) -> str:
    """Trend verdict for one direction's projection ladder."""
    if len(stats.checkpoints) < thresholds.min_checkpoints:
        raise ValueError(
            f"classification needs >= {thresholds.min_checkpoints} checkpoints")
    mins, maxes = stats.mins, stats.maxes
    ls = stats.log_scale
    sqrt_n = math.sqrt(stats.n_steps)
    final_floor = thresholds.final_scale * sqrt_n
    osc_floor = thresholds.osc_scale * sqrt_n

    max_big = maxes[-1] > 0 and _exceeds_scale(maxes[-1], osc_floor, ls)
    min_big = mins[-1] < 0 and _exceeds_scale(mins[-1], osc_floor, ls)

    # PLUS: floor frozen, ceiling compounding, endpoint far out on + side,
    # and the negative side negligible next to the positive one.
    cps = stats.checkpoints
    if (_stabilized(mins) and _grew_each(maxes, cps, thresholds.growth, ls)
            and stats.final > 0 and _exceeds_scale(stats.final, final_floor, ls)
            and _side_dominates(maxes[-1], mins[-1], thresholds.side_ratio, ls)):
        return PLUS
    if (_stabilized(maxes) and _grew_each(-mins, cps, thresholds.growth, ls)
            and stats.final < 0 and _exceeds_scale(stats.final, final_floor, ls)
            and _side_dominates(-mins[-1], -maxes[-1], thresholds.side_ratio, ls)):
        return MINUS
    if max_big and min_big:
        return OSC
    return UNDECIDED


def _side_dominates(big: float, small: float, ratio: float, log_scale: bool) -> bool:
    """|small| <= ratio * big, where big is the winning side's extreme (> 0)."""
    if small >= 0:      # the losing side never crossed zero
        return True
    if log_scale:
        return _psi_log_abs(-small) <= _psi_log_abs(big) + math.log(ratio)
    return -small <= ratio * big


def column(stats: ProjectionStats, i: int):
    """Direction i's ladder in the one-direction shape the reference reads."""
    return SimpleNamespace(checkpoints=stats.checkpoints, mins=stats.mins[:, i],
                           maxes=stats.maxes[:, i], final=float(stats.final[i]),
                           n_steps=stats.n_steps, log_scale=stats.log_scale)


def reference_verdicts(stats, thresholds):
    return [scalar_classify(column(stats, i), thresholds)
            for i in range(len(stats.directions))]


def reference_bounded(stats, thresholds):
    """Today's bound test of ``scan_exceptional``, one direction at a time."""
    out = []
    for i in range(len(stats.directions)):
        st = column(stats, i)
        osc_floor = thresholds.osc_scale * math.sqrt(st.n_steps)
        bounded_above = not (st.maxes[-1] > 0 and _exceeds_scale(st.maxes[-1], osc_floor, st.log_scale))
        bounded_below = not (st.mins[-1] < 0 and _exceeds_scale(st.mins[-1], osc_floor, st.log_scale))
        out.append(bounded_above or bounded_below)
    return np.array(out)


def assert_matches_reference(stats, thresholds):
    """Verdict for verdict against the scalar reference; then the scan:
    exactly the UNDECIDED directions, and the bound test on forced verdicts."""
    verdicts = classify(stats, thresholds)
    assert verdicts == reference_verdicts(stats, thresholds)
    undecided = np.flatnonzero(np.array(verdicts) == UNDECIDED)
    assert np.array_equal(scan_exceptional(stats, verdicts, thresholds), undecided)
    forced = scan_exceptional(stats, [UNDECIDED] * len(verdicts), thresholds)
    assert np.array_equal(forced, np.flatnonzero(reference_bounded(stats, thresholds)))
    return verdicts


TRACKER_SPECS = [
    coordinate_product([rademacher(), rademacher()]),
    coordinate_product([constant(1), rademacher()]),
    coordinate_product([rademacher(), s_two_sided(0.5)]),
    coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()]),
    radial_product([[1.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0],
                    [-0.5, -math.sqrt(3.0) / 2.0]], [1 / 3] * 3, log_tail()),
    radial_product([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.4, 0.2, 0.4], log_tail()),
]


def test_classify_matches_scalar_reference_on_tracker_ladders():
    # linear, d=3 and log-radial walks, including a partial last doubling
    seen = set()
    for spec in TRACKER_SPECS:
        for seed in range(4):
            for n in (64, 1000, 4096):
                tr = ProjectionTracker(grid_m=64)
                run_walk(spec, n, seed=seed, observers=[tr])
                seen.update((tr.stats.log_scale, v) for v in
                            assert_matches_reference(tr.stats, ClassifierThresholds()))
    assert {(False, v) for v in (PLUS, MINUS, OSC, UNDECIDED)} <= seen
    assert (True, OSC) in seen


def test_zero_side_ratio_on_log_walk():
    # side_ratio = 0 is accepted; the scalar reference takes math.log(0),
    # which raises, only for a direction that reaches the side test, and on
    # this walk none does
    spec = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], log_tail())
    tr = ProjectionTracker(grid_m=64)
    run_walk(spec, 256, seed=0, observers=[tr])
    assert tr.stats.log_scale
    assert_matches_reference(tr.stats, ClassifierThresholds(side_ratio=0.0))


def _psi_from_signed_log(sign: np.ndarray, log_abs: np.ndarray) -> np.ndarray:
    """The psi encoding as the tracker once computed it: the reference of the
    in-place evaluation in ``ProjectionTracker.observe``."""
    out = np.sign(sign) * (np.maximum(log_abs, -PSI_OFFSET) + PSI_OFFSET)
    return np.where((sign == 0) | (log_abs == NEG_INF), 0.0, out)


def _psi(values: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return _psi_from_signed_log(np.sign(values), np.log(np.abs(values)))


def reference_psi(dots: np.ndarray, log_norms: np.ndarray) -> np.ndarray:
    """psi of a log-scale block's projections, as the tracker once built it."""
    with np.errstate(divide="ignore"):
        log_abs = np.where(dots != 0.0,
                           log_norms[:, None] + np.log(np.abs(np.where(dots != 0, dots, 1.0))),
                           NEG_INF)
    return _psi_from_signed_log(np.sign(dots), log_abs)


class FixedDots:
    """Stands in for a block's (B x M) directions: the tracker's grid times
    its transpose is ``dots.T``, so the test sets each projection, -0.0
    included, which no BLAS product gives."""

    def __init__(self, dots: np.ndarray):
        self.dots = dots

    @property
    def T(self) -> "FixedProduct":
        return FixedProduct(self.dots.T)


class FixedProduct:
    """``grid @ FixedProduct(values)`` is a C-ordered copy of the (M x B) ``values``."""

    __array_ufunc__ = None      # ndarray @ defers to __rmatmul__

    def __init__(self, values: np.ndarray):
        self.values = values

    def __rmatmul__(self, grid: np.ndarray) -> np.ndarray:
        assert grid.shape[0] == self.values.shape[0]
        return self.values.copy()


def psi_blocks(rng, m: int):
    """(B x M) projections with +0.0 and -0.0 entries, zero rows (S = 0),
    subnormals, |v| below e**-2048, and log-norms from 1e4 to 1e300 apart."""
    for _ in range(300):
        b = int(rng.integers(1, 40))
        dots = rng.uniform(-1, 1, (b, m))
        pick = rng.random((b, m))
        dots[pick < 0.1] = 0.0
        dots[(pick >= 0.1) & (pick < 0.2)] = -0.0
        dots[(pick >= 0.2) & (pick < 0.25)] *= 1e-310
        log_norms = rng.choice([-1e300, -1e4, -3000.0, -2048.0, -5.0, 0.0, 3.0,
                                700.0, 1e4, 1e300], b)
        log_norms += rng.uniform(-1, 1, b) * (np.abs(log_norms) < 1e5)
        zero = rng.random(b) < 0.15
        dots[zero] = np.where(rng.random((int(zero.sum()), m)) < 0.5, 0.0, -0.0)
        log_norms[zero] = NEG_INF
        yield dots, log_norms


def test_log_scale_psi_matches_former_formula_bytewise():
    m = 16
    tr = ProjectionTracker(directions=np.eye(m))
    tr.begin(SimpleNamespace(dimension=m, scale_mode="log"), 10**6)
    ref_min = ref_max = np.zeros(m)
    ref_mins, ref_maxes = [], []
    n = 1
    for dots, log_norms in psi_blocks(np.random.default_rng(18), m):
        tr.observe(WalkBlock(first_n=n, dirs=FixedDots(dots), log_norms=log_norms,
                             positions=None, at_checkpoint=True))
        n += len(log_norms)
        ref = reference_psi(dots, log_norms)
        assert tr.stats.final.tobytes() == ref[-1].tobytes()
        ref_min = np.minimum(ref_min, ref.min(axis=0))
        ref_max = np.maximum(ref_max, ref.max(axis=0))
        ref_mins.append(ref_min)
        ref_maxes.append(ref_max)
    tr.finish()
    assert tr.stats.mins.tobytes() == np.array(ref_mins).tobytes()
    assert tr.stats.maxes.tobytes() == np.array(ref_maxes).tobytes()


class PieceRecorder(ObserverBase):
    def __init__(self):
        self.pieces = []

    def observe(self, block: WalkBlock) -> None:
        self.pieces.append((block.positions, block.at_checkpoint))


LADDER_SPECS = {
    "lattice-2": coordinate_product([rademacher(), s_two_sided(0.5)]),
    "lattice-3": coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()]),
    "lattice-4": coordinate_product([rademacher()] * 4),
    "float-2": linear_combination([[0.5, 0.25], [-0.125, 1.0]], [rademacher(), s_two_sided(0.7)]),
    "float-3": linear_combination([[1.0, 0.1, 0.0], [0.0, 0.3, -1.5], [0.7, 0.0, 0.2]],
                                  [rademacher(), s_two_sided(1.2), s_two_sided(0.9)]),
    "float-4": linear_combination(np.eye(4) * 0.3 + 0.1, [s_two_sided(1.5)] * 4),
}


@pytest.mark.parametrize("name", LADDER_SPECS)
def test_tracker_ladder_is_the_column_extremes(name):
    # the tracker's (M x B) values, reduced along each block, give the column
    # extremes of project_series over the same pieces, byte for byte.  Each
    # piece takes its own product: a 1-row product can differ in its last
    # bit from the same row inside a larger one, in either layout
    spec = LADDER_SPECS[name]
    assert (spec.scale_mode, spec.dimension) == (name[:-2], int(name[-1]))
    tr, rec = ProjectionTracker(grid_m=64), PieceRecorder()
    run_walk(spec, 3 * BLOCK + 1000, seed=3, observers=[tr, rec])
    lo = hi = np.zeros(len(tr.directions))
    mins, maxes = [], []
    for positions, at_checkpoint in rec.pieces:
        ref = project_series(positions, tr.directions, [len(positions)])
        lo, hi = np.minimum(lo, ref.mins[0]), np.maximum(hi, ref.maxes[0])
        if at_checkpoint:
            mins.append(lo)
            maxes.append(hi)
    assert len(mins) == len(tr.stats.checkpoints) > 10
    assert tr.stats.mins.tobytes() == np.array(mins).tobytes()
    assert tr.stats.maxes.tobytes() == np.array(maxes).tobytes()
    assert tr.stats.final.tobytes() == ref.final.tobytes()


@pytest.mark.parametrize("spec", [TRACKER_SPECS[1], TRACKER_SPECS[4]], ids=["float", "log"])
def test_final_owns_its_data(spec):
    # a view would keep the run's last (B x M) block of values alive
    tr = ProjectionTracker(grid_m=64)
    run_walk(spec, 1000, seed=0, observers=[tr])
    assert tr.stats.final.shape == (64,)
    assert tr.stats.final.base is None


def synthetic_stats(rng, m: int, log_scale: bool) -> ProjectionStats:
    """M random ladders: growing, frozen, zero and repeated tails, a partial
    last doubling, and in psi encoding values near +-2048 (|v| near 1)."""
    n = int(rng.integers(4, 5000))
    cps = dyadic_checkpoints(n)
    t = np.asarray(cps, dtype=float)[:, None]
    scale = 10.0 ** rng.uniform(-2, 2, m)
    up = scale * t ** rng.uniform(0.0, 1.6, m)
    down = -scale * rng.uniform(0, 1, m) * t ** rng.uniform(0.0, 1.6, m)
    side = rng.integers(0, 3, m)                  # 0: up wins, 1: down wins, 2: both
    frozen_down = down[len(cps) // 3] * (rng.random(m) < 0.8)   # often exactly 0
    frozen_up = up[len(cps) // 3] * (rng.random(m) < 0.2)
    maxes = np.where(side == 1, np.minimum(up, frozen_up), up)
    mins = np.where(side == 0, np.maximum(down, frozen_down), down)
    maxes = np.maximum.accumulate(maxes)
    mins = np.minimum.accumulate(mins)
    final = np.where(side == 1, mins[-1], maxes[-1]) * rng.uniform(0.0, 1.0, m)
    final[rng.random(m) < 0.1] = 0.0
    if log_scale:
        maxes, mins, final = _psi(maxes), _psi(mins), _psi(final)
        # free psi columns, not from any walk: values near 0 and +-2048,
        # positive minima, ties in every row
        free = rng.random(m) < 0.3
        raw = rng.choice([0.0, 0.5, 1.0, 2.5, 2046.0, 2047.5, 2048.0, 2049.0, 2052.0],
                         size=(2 * len(cps) + 1, m))
        raw = raw + rng.uniform(-1, 1, raw.shape) * (rng.random(raw.shape) < 0.5)
        maxes[:, free] = np.sort(np.abs(raw[:len(cps)]), axis=0)[:, free]
        mins[:, free] = np.sort(-raw[len(cps):-1], axis=0)[::-1][:, free] \
            * np.where(rng.random(m) < 0.2, -1.0, 1.0)[free]
        final[free] = (raw[-1] * rng.choice([-1.0, 1.0], m))[free]
    return ProjectionStats(directions=np.zeros((m, 1)), checkpoints=cps,
                           mins=mins, maxes=maxes, final=final, n_steps=n,
                           log_scale=log_scale)


def random_thresholds(rng) -> ClassifierThresholds:
    return ClassifierThresholds(growth=float(rng.uniform(1.05, 3.0)),
                                final_scale=float(10 ** rng.uniform(-3, 0.5)),
                                osc_scale=float(10 ** rng.uniform(-4, -0.5)),
                                side_ratio=float(10 ** rng.uniform(-3, -0.3)),
                                min_checkpoints=3)


def tie_stats(log_scale: bool) -> tuple[ProjectionStats, ClassifierThresholds]:
    """A PLUS ladder whose first growth step meets its requirement with
    equality, and a psi ladder whose losing side sits at 0 while its winning
    side's psi is below -log(side_ratio)."""
    rng = np.random.default_rng(5)
    cps = [1, 2, 4, 8]
    while True:
        growth = float(rng.uniform(1.1, 2.0))
        need = math.log2(cps[2] / cps[1]) * math.log(growth) - 1e-12
        if log_scale:
            a, b = need, 2 * need            # b - a == need exactly
            break
        b = math.exp(need)
        if math.log(b / 1.0) == need:       # an exact tie for math.log
            a = 1.0
            break
    c = 4 * b
    maxes = np.array([[a / 2], [a], [b], [c]])
    mins = np.zeros((4, 1))
    final = np.array([3000.0 if log_scale else c])
    th = ClassifierThresholds(growth=growth, final_scale=1e-3, side_ratio=1e-3)
    st = ProjectionStats(directions=np.zeros((1, 1)), checkpoints=cps, mins=mins,
                         maxes=maxes, final=final, n_steps=8, log_scale=log_scale)
    return st, th


def test_classify_matches_scalar_reference_on_synthetic_ladders():
    rng = np.random.default_rng(2024)
    seen = set()
    for trial in range(400):
        log_scale = bool(trial % 2)
        st = synthetic_stats(rng, 60, log_scale)
        verdicts = assert_matches_reference(st, random_thresholds(rng))
        seen.update((log_scale, v) for v in verdicts)
    assert seen == {(ls, v) for ls in (False, True) for v in (PLUS, MINUS, OSC, UNDECIDED)}
    for log_scale in (False, True):
        st, th = tie_stats(log_scale)
        assert assert_matches_reference(st, th) == [PLUS]
