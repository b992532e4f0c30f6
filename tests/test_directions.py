"""Cap-visit accounting, verdicts, and multi-run consensus."""
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from walkangles import directions
from walkangles.directions import (IN, OUT, UNDECIDED, CapVisitAccumulator,
                                   EstimatorConfig, _CellTable, _PRUNE_FACTOR, _TABLE_ROWS,
                                   _TABLES, _UNIT_SLACK, _group_edges, combine_runs)
from walkangles.examples import triangle_log_tail_spec
from walkangles.samplers import (coordinate_product, constant, rademacher,
                                 s_two_sided)
from walkangles.sphere import direction_grid
from walkangles.walk import BLOCK, NEG_INF, ObserverBase, WalkBlock, run_walk

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
_LN2 = math.log(2.0)
RECORDS = ("visits", "graded_max", "graded_windows", "level_totals", "level_band_hits")


def reference_levels(acc: CapVisitAccumulator, log_norms: np.ndarray) -> np.ndarray:
    """Escape level of each norm, as the floor of its ratio, one lower on a
    level edge; -1 below the lowest level and for a non-finite norm."""
    ratio = (log_norms - acc._log_r0) / _LN2
    lvl = np.floor(ratio)
    lvl = np.where(ratio == lvl, lvl - 1, lvl)
    lvl = np.where(np.isfinite(ratio), lvl, -1.0)
    return np.clip(lvl, -1, acc.config.escape_levels).astype(np.int64)


def fixed_order_dots(dirs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """E = ``((u0*g0 + u1*g1) + u2*g2) ...`` of every row u of ``dirs`` with
    every row g of ``vecs``, (B x M), one coordinate at a time."""
    dots = dirs[:, :1] * vecs[:, 0]
    for i in range(1, dirs.shape[1]):
        dots = dots + dirs[:, i:i + 1] * vecs[:, i]
    return dots


def reference_observe(acc: CapVisitAccumulator, block: WalkBlock) -> None:
    """The per-pair update that ``CapVisitAccumulator.observe`` replaced, kept
    as its oracle: a (B x M) mask of ``E > dot_min`` over every pair, a
    ``bincount`` of its (column, level) pairs, and per alpha the masked
    maximum of each column's statistics and of its qualifying windows.  The
    whole block is one piece: each (grid point, alpha) gains the bit of its
    highest qualifying window only."""
    cfg = acc.config
    n_lv = cfg.escape_levels + 1
    steps = np.arange(block.first_n, block.first_n + len(block))
    live = (block.log_norms > NEG_INF) & (steps > cfg.burn_in)
    acc.n_steps_seen += len(block)
    if not np.any(live):
        return
    dirs = block.dirs[live]
    log_norms = block.log_norms[live]
    steps = steps[live]
    bucket = reference_levels(acc, log_norms)
    above = bucket >= 0
    if np.any(above):
        acc.level_totals += np.bincount(bucket[above], minlength=n_lv)
        if acc._band_axis is not None:
            band = np.abs(fixed_order_dots(dirs, acc._band_axis[None, :])[:, 0]) \
                > cfg.band_threshold
            sel = above & band
            if np.any(sel):
                acc.level_band_hits += np.bincount(bucket[sel], minlength=n_lv)
    mask = fixed_order_dots(dirs, acc.grid) > acc._dot_min      # (B', M)
    rows, cols = np.nonzero(mask)
    if len(rows) == 0:
        return
    hit_bucket = bucket[rows]
    in_lv = hit_bucket >= 0
    if np.any(in_lv):
        flat = cols[in_lv] * n_lv + hit_bucket[in_lv]
        by_bucket = np.bincount(flat, minlength=len(acc.grid) * n_lv)
        by_bucket = by_bucket.reshape(len(acc.grid), n_lv)
        acc.visits += by_bucket[:, ::-1].cumsum(axis=1)[:, ::-1]
    log_n = np.log(steps.astype(float))
    windows = np.floor(np.log2(steps.astype(float))).astype(np.int64)
    log_kappa = math.log(cfg.kappa)
    for j, a in enumerate(cfg.alphas):
        stat = log_norms - a * log_n
        top_stat = np.where(mask, stat[:, None], NEG_INF).max(axis=0)
        np.maximum(acc.graded_max[:, j], top_stat, out=acc.graded_max[:, j])
        qual = mask & (stat > log_kappa)[:, None]
        top = np.where(qual, windows[:, None], -1).max(axis=0)
        acc.graded_windows[top >= 0, j] |= np.int64(1) << top[top >= 0]


def piece_blocks(block: WalkBlock) -> list[WalkBlock]:
    """Each checkpoint piece of ``block`` (:meth:`WalkBlock.pieces`) as a
    block of its own."""
    return [WalkBlock(first_n=block.first_n + a, dirs=block.dirs[a:b],
                      log_norms=block.log_norms[a:b], positions=None)
            for a, b in block.pieces()]


class DenseAccumulator(CapVisitAccumulator):
    """The oracle, one checkpoint piece at a time: graded windows are
    highest per piece."""

    def observe(self, block: WalkBlock) -> None:
        for piece in piece_blocks(block):
            reference_observe(self, piece)


def assert_same_records(acc: CapVisitAccumulator, ref: CapVisitAccumulator) -> None:
    for name in RECORDS:
        got, want = getattr(acc, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def record_visit(acc: CapVisitAccumulator, position, n: int) -> CapVisitAccumulator:
    """Show ``acc`` the walk at ``position`` as step ``n``, in a one-row block."""
    pos = np.asarray(position, dtype=float)
    norm = float(np.linalg.norm(pos))
    if norm == 0.0:
        block = WalkBlock(first_n=n, dirs=np.zeros((1, len(pos))),
                          log_norms=np.array([NEG_INF]), positions=pos[None, :])
    else:
        block = WalkBlock(first_n=n, dirs=pos[None, :] / norm,
                          log_norms=np.array([math.log(norm)]),
                          positions=pos[None, :])
    acc.observe(block)
    return acc


def small_config(**kw):
    base = dict(grid_m=64, cap_radius=0.3, escape_r0=10.0, escape_levels=3,
                min_top_level=1, v_min=1)
    base.update(kw)
    return EstimatorConfig(**base)


def test_origin_recorded_nowhere():
    acc = CapVisitAccumulator(small_config(), 2)
    record_visit(acc, [0.0, 0.0], 5)
    assert acc.visits.sum() == 0


def test_visit_hits_all_levels():
    # levels are 10, 20, 40, 80; a visit at norm 100 lands beyond every one
    acc = CapVisitAccumulator(small_config(), 2)
    record_visit(acc, 100.0 * E1, 3)
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    assert np.array_equal(acc.visits[e1_idx], [1, 1, 1, 1])
    # nothing accrues to the antipode
    anti = int(np.argmin(np.linalg.norm(acc.grid + E1, axis=1)))
    assert acc.visits[anti].sum() == 0


def test_below_lowest_level_ignored():
    acc = CapVisitAccumulator(small_config(), 2)
    record_visit(acc, 5.0 * E1, 2)
    assert acc.visits.sum() == 0


def test_level_edge_is_strict():
    acc = CapVisitAccumulator(small_config(), 2)
    record_visit(acc, 10.0 * E1, 1)     # norm == R_0 exactly: not beyond it
    assert acc.visits.sum() == 0
    record_visit(acc, 10.0000001 * E1, 2)
    assert acc.visits.sum() > 0


def test_cascade_invariant():
    acc = CapVisitAccumulator(small_config(), 2)
    rng = np.random.default_rng(3)
    for n in range(1, 400):
        record_visit(acc, rng.standard_normal(2) * rng.exponential(40), n)
    diffs = np.diff(acc.visits, axis=1)
    assert np.all(diffs <= 0)           # visits(u, l+1) <= visits(u, l)


def test_finalize_axis_walk():
    acc = CapVisitAccumulator(small_config(v_min=3), 2)
    for n in range(1, 200):
        record_visit(acc, float(n) * E1, n)
    est = acc.finalize()
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    anti = int(np.argmin(np.linalg.norm(acc.grid + E1, axis=1)))
    assert est.verdicts[e1_idx] == IN
    assert est.verdicts[anti] == OUT
    for p in est.in_points():
        assert np.linalg.norm(p - E1) < acc.config.cap_radius + 1e-9


def test_finalize_requires_data():
    acc = CapVisitAccumulator(small_config(), 2)
    with pytest.raises(ValueError):
        acc.finalize()


def test_no_in_without_escape():
    acc = CapVisitAccumulator(small_config(min_top_level=2), 2)
    for n in range(1, 50):
        record_visit(acc, 12.0 * E1, n)    # only level 0 ever reached
    est = acc.finalize()
    assert not np.any(est.verdicts == IN)


def test_graded_needs_two_windows():
    cfg = small_config(alphas=(0.5,), kappa=0.1)
    acc = CapVisitAccumulator(cfg, 2)
    record_visit(acc, 50.0 * E1, 2)     # window floor(log2 2) = 1
    est = acc.finalize()
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    assert not est.graded_in[e1_idx, 0]
    record_visit(acc, 80.0 * E1, 5)     # window 2: second distinct window
    est = acc.finalize()
    assert est.graded_in[e1_idx, 0]


def test_monotone_more_steps_never_flips_in_to_out():
    spec = coordinate_product([constant(1), s_two_sided(0.5)])
    cfg = small_config(escape_r0=100.0, escape_levels=4, v_min=1)
    short = CapVisitAccumulator(cfg, 2)
    run_walk(spec, 2000, seed=7, observers=[short])
    long = CapVisitAccumulator(cfg, 2)
    run_walk(spec, 8000, seed=7, observers=[long])
    vs, vl = short.finalize().verdicts, long.finalize().verdicts
    assert not np.any((vs == IN) & (vl == OUT))


def test_combine_identical_estimates():
    acc = CapVisitAccumulator(small_config(), 2)
    for n in range(1, 100):
        record_visit(acc, float(n) * E1, n)
    est = acc.finalize()
    cons = combine_runs([est] * 10)
    assert np.all(cons.agreement == 1.0)
    assert np.array_equal(cons.verdicts, est.verdicts)


def test_combine_rejects_mismatched_grids():
    a = record_visit(CapVisitAccumulator(small_config(), 2), 40.0 * E1, 1).finalize()
    b = record_visit(CapVisitAccumulator(small_config(grid_m=32), 2), 40.0 * E1, 1).finalize()
    with pytest.raises(ValueError):
        combine_runs([a, b])


def test_drift_consensus_and_agreement():
    spec = coordinate_product([constant(1), rademacher()])
    cfg = EstimatorConfig(grid_m=64, cap_radius=0.3, escape_r0=10.0,
                          escape_levels=6, min_top_level=2)
    ests = []
    for seed in range(10):
        acc = CapVisitAccumulator(cfg, 2)
        run_walk(spec, 10**4, seed=seed, observers=[acc])
        ests.append(acc.finalize())
    cons = combine_runs(ests)
    in_pts = cons.in_points()
    assert len(in_pts) >= 1
    for p in in_pts:
        assert np.linalg.norm(p - E1) < 0.45
    decided = cons.verdicts != UNDECIDED
    assert np.mean(cons.agreement[decided]) >= 0.9


def test_symmetric_walk_coverage():
    # planar symmetric finite-variance walk explores every direction; with a
    # modest escape ladder the whole grid is IN
    spec = coordinate_product([rademacher(), rademacher()])
    cfg = EstimatorConfig(grid_m=64, cap_radius=0.3, escape_r0=10.0,
                          escape_levels=3, min_top_level=1)
    acc = CapVisitAccumulator(cfg, 2)
    run_walk(spec, 10**6, seed=5, observers=[acc])
    est = acc.finalize()
    assert est.coverage_fraction() >= 0.9


def test_determinism_of_direction_set_across_seeds():
    # the direction set is non-random: consensus agreement across ten
    # independent runs stays high on decided points
    spec = coordinate_product([constant(1), s_two_sided(0.5)])
    cfg = EstimatorConfig(grid_m=64, cap_radius=0.15, escape_r0=1e3,
                          escape_levels=4, min_top_level=1)
    ests = []
    for seed in range(10):
        acc = CapVisitAccumulator(cfg, 2)
        run_walk(spec, 10**5, seed=40 + seed, observers=[acc])
        ests.append(acc.finalize())
    cons = combine_runs(ests)
    decided = cons.verdicts != UNDECIDED
    assert np.mean(cons.agreement[decided]) >= 0.8


def test_estimate_csv_shape():
    acc = CapVisitAccumulator(small_config(), 2)
    for n in range(1, 50):
        record_visit(acc, float(n) * E1, n)
    text = acc.finalize().to_csv()
    lines = text.strip().split("\n")
    assert len(lines) == 65
    header = lines[0].split(",")
    assert header[:4] == ["index", "u_1", "u_2", "verdict"]
    assert "visits_l0" in header


def test_kesten_annotation_for_d3():
    cfg = EstimatorConfig(grid_m=32, cap_radius=0.4, escape_r0=5.0,
                          escape_levels=2, min_top_level=0)
    acc = CapVisitAccumulator(cfg, 3)
    record_visit(acc, np.array([30.0, 0.0, 0.0]), 4)
    est = acc.finalize()
    # a d >= 3 estimate is its verdicts and counts, with no annotation
    hit = est.grid @ [1.0, 0.0, 0.0] > 1 - 0.4 ** 2 / 2
    assert est.top_level == 2 and hit.any()
    assert (est.visits[hit, 2] == 1).all() and est.visits[~hit].sum() == 0
    assert not hasattr(est, "notes")


def test_out_level_minus_one_reads_every_level():
    # one step at level 0 near grid point 0: out_level -1 reads levels 0..3,
    # so that point is not OUT; a bound below -1 is rejected, as its slice
    # would wrap round to the last levels only
    cfg = EstimatorConfig(grid_m=8, escape_levels=3, out_level=-1)
    acc = CapVisitAccumulator(cfg, 2)
    verdicts = record_visit(acc, 15.0 * acc.grid[0], 1).finalize().verdicts
    assert verdicts[0] == UNDECIDED and (verdicts[1:] == OUT).all()
    for bad in (-2, -3):
        with pytest.raises(ValueError, match=r"estimator\.out_level must be >= -1"):
            EstimatorConfig(grid_m=8, escape_levels=3, out_level=bad)


# -- the cell-table update against the dense reference ------------------------

def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _spread_log_norms(rng, acc: CapVisitAccumulator, n: int) -> np.ndarray:
    """Log-norms below, across and beyond the escape ladder."""
    cfg = acc.config
    return rng.uniform(math.log(cfg.escape_r0) - 1.0,
                       math.log(cfg.escape_r0) + (cfg.escape_levels + 2) * _LN2, n)


def random_block(rng, acc: CapVisitAccumulator, first_n: int) -> WalkBlock:
    d = acc.grid.shape[1]
    log_norms = _spread_log_norms(rng, acc, BLOCK)
    log_norms[rng.random(BLOCK) < 0.01] = NEG_INF          # the origin
    return WalkBlock(first_n=first_n, dirs=_unit_rows(rng, BLOCK, d),
                     log_norms=log_norms, positions=None)


def cap_edge_block(rng, acc: CapVisitAccumulator, first_n: int) -> WalkBlock:
    """Directions at angle arccos(dot_min) from a grid point and 1 ulp either
    side of it, with norms on the level edges and 1 ulp either side."""
    cfg = acc.config
    d = acc.grid.shape[1]
    g = acc.grid[rng.integers(len(acc.grid), size=BLOCK)]
    w = _unit_rows(rng, BLOCK, d)
    w -= np.sum(w * g, axis=1, keepdims=True) * g
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    theta0 = math.acos(acc._dot_min)
    theta = np.array([np.nextafter(theta0, -np.inf), theta0,
                      np.nextafter(theta0, np.inf)])[rng.integers(3, size=BLOCK)]
    dirs = np.cos(theta)[:, None] * g + np.sin(theta)[:, None] * w
    edges = np.log(cfg.escape_r0 * 2.0 ** rng.integers(cfg.escape_levels + 1, size=BLOCK))
    log_norms = np.nextafter(edges, edges + rng.integers(-1, 2, size=BLOCK))
    return WalkBlock(first_n=first_n, dirs=dirs, log_norms=log_norms, positions=None)


def disputed_rows(rng, acc: CapVisitAccumulator) -> np.ndarray:
    """Cap-edge directions on which the block's BLAS product and E disagree
    about the cap (none where the two always agree)."""
    dirs = cap_edge_block(rng, acc, 1).dirs
    split = (dirs @ acc.grid.T > acc._dot_min) != (fixed_order_dots(dirs, acc.grid) > acc._dot_min)
    return dirs[split.any(axis=1)][:BLOCK // 2]


def _product_fuses() -> bool:
    """Whether the BLAS kernel of a (BLOCK x 2) @ (2 x 64) product fuses a
    multiply and an add.  With x = 1 + 2**-30, the exact ``x*x - (1 +
    2**-29)`` is 2**-60 but 0 once ``x*x`` is rounded, and
    ``x*(1 + 2**-29) - x`` loses 2**-59 the same way; the rows take both
    products first and last, so a kernel that fuses either one differs from
    E somewhere.  Without fusion a 2-term dot has one rounding order."""
    x, y = 1.0 + 2.0 ** -30, 1.0 + 2.0 ** -29
    u = np.tile([[x, -1.0], [-1.0, x]], (BLOCK // 2, 1))
    g = np.tile([[x, y], [y, x]], (32, 1))
    return not np.array_equal(u @ g.T, fixed_order_dots(u, g))


def odd_rows_block(rng, acc: CapVisitAccumulator, first_n: int) -> WalkBlock:
    """Zero rows with finite log-norms and +inf log-norm rows among random ones."""
    block = random_block(rng, acc, first_n)
    pick = rng.random(BLOCK)
    block.dirs[pick < 0.05] = 0.0
    block.log_norms[(pick >= 0.05) & (pick < 0.1)] = np.inf
    return block


def seam_block(rng, acc: CapVisitAccumulator, first_n: int, rows: int = 1024) -> WalkBlock:
    """Directions near the bisector of grid points M - 1 and 0, whose hits
    on the d = 2 grid wrap from column M - 1 to column 0."""
    d = acc.grid.shape[1]
    mid = acc.grid[0] + acc.grid[-1]
    if not mid.any():                           # a one-point grid
        mid = acc.grid[0]
    dirs = mid / np.linalg.norm(mid) + 0.02 * rng.standard_normal((rows, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return WalkBlock(first_n=first_n, dirs=dirs, log_norms=_spread_log_norms(rng, acc, rows),
                     positions=None)


def zero_rows_block(rng, acc: CapVisitAccumulator, first_n: int, rows: int = 1024) -> WalkBlock:
    """Zero rows with finite log-norms: no hits unless ``dot_min < 0``."""
    d = acc.grid.shape[1]
    return WalkBlock(first_n=first_n, dirs=np.zeros((rows, d)),
                     log_norms=_spread_log_norms(rng, acc, rows), positions=None)


def repeat_rows(block: WalkBlock, lens: np.ndarray) -> WalkBlock:
    """Row i of ``block`` repeated ``lens[i]`` times."""
    run = np.repeat(np.arange(len(lens)), lens)
    return WalkBlock(first_n=block.first_n, dirs=block.dirs[run],
                     log_norms=block.log_norms[run], positions=None)


def plateau_block(rng, acc: CapVisitAccumulator, first_n: int) -> WalkBlock:
    """Random rows in runs of equal rows: first a run of 64, then one of each
    length 2^0 .. 2^12 among 500 runs of 1-8 rows.  Each shorter run is one
    of four kinds: equal rows; equal directions with log-norms that differ
    row by row; equal log-norms with directions that differ; or equal rows
    whose coordinate 0 is +0.0 and -0.0 by turns.  A dead row splits every
    run of 64 rows or more in the middle."""
    d = acc.grid.shape[1]
    lens = np.concatenate([[64], rng.permutation(np.concatenate(
        [2 ** np.arange(13), rng.integers(1, 9, 500)]))])
    kind = np.where(lens >= 64, 0, rng.integers(0, 4, len(lens)))
    block = repeat_rows(random_block(rng, acc, first_n), lens)
    kind = np.repeat(kind, lens)
    moved = kind == 1
    block.log_norms[moved] += rng.uniform(0.0, 1e-3, moved.sum())
    moved = kind == 2
    block.dirs[moved] += 1e-3 * rng.standard_normal((moved.sum(), d))
    signed = kind == 3
    block.dirs[signed, 0] = np.where(np.arange(signed.sum()) % 2, -0.0, 0.0)
    for rows in (moved, signed):
        block.dirs[rows] /= np.linalg.norm(block.dirs[rows], axis=1, keepdims=True)
    starts = np.concatenate([[0], lens.cumsum()[:-1]])
    block.log_norms[(starts + lens // 2)[lens >= 64]] = NEG_INF
    return block


# alphas of both signs and both zeros: the maximum of a group's statistic
# sits at its last row for a < 0 and at its first for a > 0
SIGNED_ALPHAS = (-0.5, -0.0, 0.0, 0.25, 2.0)


def straddle_block(rng, acc: CapVisitAccumulator) -> WalkBlock:
    """20 runs of 200 equal rows near grid points, at steps 2**17 - 3900 to
    2**17 + 99.  Each run's log-norm puts one alpha's statistic ``log-norm -
    a log n`` at ``log kappa`` at a step inside the run, so its rows qualify
    on one side of that step only.  The last run, the only one that reaches
    window 17, crosses 10 steps before 2**17 for a = 0.25: its qualifying
    rows are all in window 16.  For a <= 0 every row of it qualifies, and its
    top window is 17.  A dead row sits in the middle of every run."""
    d = acc.grid.shape[1]
    n_runs, size = 20, 200
    first_n = 2**17 + 100 - n_runs * size
    heads = np.arange(n_runs) * size
    alpha = rng.choice([-0.5, 0.25, 2.0], n_runs)
    crossing = first_n + heads + rng.integers(1, size - 1, n_runs)
    alpha[-1], crossing[-1] = 0.25, 2**17 - 10
    dirs = acc.grid[rng.integers(len(acc.grid), size=n_runs)] \
        + 0.05 * rng.standard_normal((n_runs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    log_norms = math.log(acc.config.kappa) + alpha * np.log(crossing.astype(float))
    block = repeat_rows(WalkBlock(first_n=first_n, dirs=dirs, log_norms=log_norms,
                                  positions=None), np.full(n_runs, size))
    block.log_norms[heads + size // 2] = NEG_INF
    return block


def one_run_block(rng, acc: CapVisitAccumulator, first_n: int,
                  log_norms: np.ndarray) -> WalkBlock:
    """A run of equal rows near grid point 0 with the given log-norms."""
    u = acc.grid[0] + 0.05 * rng.standard_normal(acc.grid.shape[1])
    return WalkBlock(first_n=first_n, dirs=np.tile(u / np.linalg.norm(u), (len(log_norms), 1)),
                     log_norms=log_norms, positions=None)


def mixed_groups(acc: CapVisitAccumulator, block: WalkBlock) -> int:
    """How many (alpha, run of equal live rows) pairs have rows on both sides
    of ``log kappa`` in the graded statistic."""
    steps = np.arange(block.first_n, block.first_n + len(block))
    live = (block.log_norms > NEG_INF) & (steps > acc.config.burn_in)
    dirs, log_norms, steps = block.dirs[live], block.log_norms[live], steps[live]
    new = np.ones(len(steps), dtype=bool)
    new[1:] = (log_norms[1:] != log_norms[:-1]) | (dirs[1:] != dirs[:-1]).any(axis=1)
    group = np.cumsum(new) - 1
    alphas = np.asarray(acc.config.alphas)[:, None]
    qual = log_norms - alphas * np.log(steps.astype(float)) > math.log(acc.config.kappa)
    hits = np.array([np.bincount(group, q, minlength=group[-1] + 1) for q in qual])
    return int(np.count_nonzero((hits > 0) & (hits < np.bincount(group))))


def head(block: WalkBlock, rows: int, first_n: int) -> WalkBlock:
    """The first ``rows`` steps of ``block``, renumbered from ``first_n``."""
    return WalkBlock(first_n=first_n, dirs=block.dirs[:rows],
                     log_norms=block.log_norms[:rows], positions=None)


VARIANTS = {
    "default": {},
    "small-cap": {"cap_radius": 0.1},
    "cap-2": {"cap_radius": 2.0},
    "wide-cap": {"cap_radius": 1.9},      # dot_min < 0
    "grid-1": {"grid_m": 1},
    "band": {"band_axis": "last"},
    "permuted": {"grid": "permuted"},     # grid rows shuffled
}


def whole_table(grid: np.ndarray, dot_min: float) -> _CellTable:
    """The cell table of ``grid`` and ``dot_min``, built to the end even
    where the table rule rejects it."""
    with mock.patch.object(directions, "_PRUNE_FACTOR", 0):
        return _CellTable(grid, dot_min)


def _accumulators(d: int, variant: str, force_table: bool, **extra):
    kw = dict(VARIANTS[variant], **extra)
    if kw.get("band_axis") == "last":
        kw["band_axis"] = tuple([0.0] * (d - 1) + [1.0])
    permuted = kw.pop("grid", None) == "permuted"
    cfg = EstimatorConfig(grid_m=kw.pop("grid_m", 64 if d == 2 else 256),
                          escape_levels=4, kappa=1.0, **kw)
    grid = None
    if permuted:
        grid = direction_grid(d, cfg.grid_m, cfg.grid_seed)
        grid = grid[np.random.default_rng(d).permutation(len(grid))]
    acc, ref = CapVisitAccumulator(cfg, d, grid=grid), DenseAccumulator(cfg, d, grid=grid)
    if force_table and acc._table is None:
        acc._table = whole_table(acc.grid, acc._dot_min)
    return acc, ref


@pytest.fixture
def tabled(monkeypatch):
    """The tested-row counts of the ``observe`` calls that take the table."""
    calls = []
    table_hits = CapVisitAccumulator._table_hits

    def counted_hits(self, dirs, bucket, piece):
        calls.append(len(dirs))
        return table_hits(self, dirs, bucket, piece)

    monkeypatch.setattr(CapVisitAccumulator, "_table_hits", counted_hits)
    return calls


def hit_mask(acc: CapVisitAccumulator, block: WalkBlock) -> np.ndarray:
    """The (rows x M) mask of ``E > dot_min``."""
    return fixed_order_dots(block.dirs, acc.grid) > acc._dot_min


@pytest.mark.parametrize("force_table", [False, True], ids=["chosen", "table"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_blocks_match_dense_reference(d, variant, force_table):
    acc, ref = _accumulators(d, variant, force_table)
    rng = np.random.default_rng(100 * d + len(variant))
    # rows on which the block's BLAS product and E disagree, and the records
    # follow E: there are such rows where the kernel fuses (x86-64 SkylakeX and
    # Haswell kernels; not Nehalem's), except on the d = 2 one-point grid,
    # (1, 0), where every dot is exact
    disputed = disputed_rows(rng, acc)
    if (d > 2 or variant != "grid-1") and _product_fuses():
        assert len(disputed) > 0
    mixed = random_block(rng, acc, 1 + 2 * BLOCK)
    mixed.dirs[:len(disputed)] = disputed
    tiny = random_block(rng, acc, 1)
    blocks = [random_block(rng, acc, 1), cap_edge_block(rng, acc, 1 + BLOCK), mixed,
              odd_rows_block(rng, acc, 1 + 3 * BLOCK), random_block(rng, acc, 3 + 5 * BLOCK),
              seam_block(rng, acc, 1 + 6 * BLOCK), zero_rows_block(rng, acc, 1 + 7 * BLOCK),
              # the first checkpoint cuts of a run: steps 1, 2-3 and 4-7
              head(tiny, 1, 1), head(tiny, 2, 2), head(tiny, 4, 4)]
    for block in blocks:
        acc.observe(block)
        ref.observe(block)
        assert_same_records(acc, ref)
    assert acc.visits.sum() > 0 and np.any(acc.graded_windows)
    # the seam block's hits wrap past column M - 1 on the d = 2 grid
    if d == 2 and variant != "permuted" and len(acc.grid) > 1:
        assert np.any(hit_mask(acc, blocks[5])[:, [0, -1]].all(axis=1))
    if acc._dot_min >= 0:
        assert not hit_mask(acc, blocks[6]).any()                        # no hits
    # runs of equal rows, decided once per run: a plateau, and its first rows
    # split by burn_in and with no alphas
    plateau = plateau_block(rng, acc, 1 + 8 * BLOCK)
    start = head(plateau, 2048, plateau.first_n)
    # runs whose rows straddle log kappa (and step 2**17) take the per-row
    # statistic on their own rows; the others take it from the row extremes
    # of log n, which a < 0 reads at the run's last row
    straddle = straddle_block(rng, acc)
    signed = _accumulators(d, variant, force_table, alphas=SIGNED_ALPHAS)
    assert mixed_groups(signed[0], straddle) > 0
    # a plateau of cap-edge rows, some of them disputed
    edge = cap_edge_block(rng, acc, 1 + 10 * BLOCK)
    edge.dirs[:len(disputed)] = disputed
    edge = repeat_rows(edge, rng.integers(1, 4, BLOCK // 4))
    for a, r, block in [
            (acc, ref, plateau),
            (*_accumulators(d, variant, force_table, burn_in=16 + 8 * BLOCK), start),
            (*_accumulators(d, variant, force_table, alphas=()), start),
            (*_accumulators(d, variant, force_table, alphas=SIGNED_ALPHAS), plateau),
            (*signed, straddle),
            # every row qualifies for a <= 0.25, and the top window is 18
            (*_accumulators(d, variant, force_table, alphas=SIGNED_ALPHAS),
             one_run_block(rng, acc, 2**18 - 100, np.full(200, 5.0))),
            # for a = +-0.0 the statistics are zeros of both signs
            (*_accumulators(d, variant, force_table, alphas=SIGNED_ALPHAS),
             one_run_block(rng, acc, 1 + 11 * BLOCK, np.array([-0.0] + [0.0] * 199))),
            (acc, ref, edge)]:
        seen = a.repeated_rows
        a.observe(block)
        r.observe(block)
        assert_same_records(a, r)
        assert a.repeated_rows > seen


def test_padded_slots_never_pass():
    # the padded edge lists of a 0.3 cap, read with cap_radius = 2 (dot_min =
    # -1), under which every pair left to E is a hit
    acc = CapVisitAccumulator(EstimatorConfig(cap_radius=2.0), 3)
    acc._table = table = _CellTable(acc.grid, 1.0 - 0.3 ** 2 / 2.0)
    m = len(acc.grid)
    assert np.any(table.table == m)                # the lists are padded with M
    # a padded slot is neither sure nor left to E, on a cell's own box ...
    c = table.cells
    slots = np.arange(table.table.shape[0])
    cell = np.stack(np.unravel_index(np.flatnonzero(table.slot >= 0), (c,) * 3), axis=1)
    sure, edge = table.split_runs(slots, -1.0 + 2.0 * cell / c, -1.0 + 2.0 * (cell + 1) / c)
    assert not sure.any() and np.array_equal(edge, table.table < m)
    # ... or on the box of any run of rows
    dirs = _unit_rows(np.random.default_rng(5), BLOCK, 3)
    dirs = dirs[np.argsort(table.cell_of(dirs), kind="stable")]
    bucket = np.arange(BLOCK) // 7 % 2                  # runs of at most 7 rows
    run_starts, rows, cols = acc._table_hits(dirs, bucket, np.zeros(BLOCK, dtype=np.int64))
    slot = table.cell_of(dirs)
    lo, hi = np.minimum.reduceat(dirs, run_starts), np.maximum.reduceat(dirs, run_starts)
    sure, edge = table.split_runs(slot[run_starts], lo, hi)
    padded = table.table[slot[run_starts]] == m
    assert padded.any() and not (sure | edge)[padded].any()
    assert cols.max() < m and rows.max() < BLOCK + len(run_starts)
    sizes = np.diff(run_starts, append=BLOCK)
    assert np.count_nonzero(rows < BLOCK) == (edge.sum(axis=1) * sizes).sum()


def listing_rule(table: _CellTable, grid: np.ndarray, dot_min: float) -> np.ndarray:
    """(tabled cells x M) mask of the grid points whose squared distance to
    the cell's box, widened by the slack s, is below ``r^2 + 4s``."""
    s, c = _UNIT_SLACK, table.cells
    m, d = grid.shape
    shell = np.flatnonzero(table.slot >= 0)
    assert np.array_equal(table.slot[shell], np.arange(len(shell)))
    edges = -1.0 + 2.0 * np.arange(c + 1) / c
    lo, hi = edges[:-1] - s, edges[1:] + s
    cell = np.unravel_index(shell, (c,) * d)
    listed = np.zeros((len(shell), m), dtype=bool)
    for a in range(0, len(shell), 2048):
        dist2 = 0.0
        for i in range(d):
            k = cell[i][a:a + 2048, None]
            gap = np.maximum(np.maximum(lo[k] - grid[:, i], grid[:, i] - hi[k]), 0.0)
            dist2 = dist2 + gap * gap
        listed[a:a + 2048] = dist2 < 2.0 - 2.0 * dot_min + 4.0 * s
    return listed


def rows_in_every_cell(table: _CellTable, rng, per_cell: int = 4) -> np.ndarray:
    """Unit rows in the boxes of the tabled cells: on the sphere between the
    box's nearest and farthest corners, near each corner, at random points
    of the box, and on a cell edge (one coordinate exactly -1 + 2k/C, the
    others rescaled)."""
    c = table.cells
    d = table.coords.shape[0]
    cell = np.stack(np.unravel_index(np.flatnonzero(table.slot >= 0), (c,) * d), axis=1)
    lo, hi = -1.0 + 2.0 * cell / c, -1.0 + 2.0 * (cell + 1) / c
    near = np.clip(0.0, lo, hi)
    far = np.where(np.abs(lo) > np.abs(hi), lo, hi)
    # |near + t (far - near)| = 1 on the segment, which lies in the box
    step = far - near
    qa, qb, qc = (step * step).sum(1), 2 * (near * step).sum(1), (near * near).sum(1) - 1.0
    t = np.clip((-qb + np.sqrt(np.maximum(qb * qb - 4 * qa * qc, 0.0))) / (2 * qa), 0.0, 1.0)
    pieces = [near + t[:, None] * step]
    corners = np.array(np.meshgrid(*[[0, 1]] * d, indexing="ij")).reshape(d, -1).T
    for corner in corners:
        box = np.where(corner, hi, lo)
        pieces.append(box + 1e-9 * rng.standard_normal(box.shape))
    for _ in range(per_cell):
        pieces.append(lo + (hi - lo) * rng.random(lo.shape))
    rows = np.concatenate(pieces)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # on a cell edge: coordinate i set to the nearest edge, the others rescaled
    pick = rows[rng.random(len(rows)) < 0.5]
    i = rng.integers(d, size=len(pick))
    at = np.arange(len(pick))
    edge = np.clip(np.round((pick[at, i] + 1.0) * c / 2.0), 1, c - 1)
    edge = -1.0 + 2.0 * edge / c
    rest = np.delete(pick.reshape(-1), at * d + i).reshape(len(pick), d - 1)
    rest *= np.sqrt((1.0 - edge * edge) / np.maximum((rest * rest).sum(1), 1e-300))[:, None]
    for j in range(d - 1):
        pick[at, j + (j >= i)] = rest[:, j]
    pick[at, i] = edge
    return np.concatenate([rows, pick])


@pytest.mark.parametrize("cap", [0.1, 0.3, 2.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_sure_points_are_hits_of_every_row_of_their_cell(d, cap):
    grid = direction_grid(d, 64 if d == 2 else 256, 0)
    dot_min = 1.0 - cap ** 2 / 2.0
    table = whole_table(grid, dot_min)
    m = len(grid)
    # sure and edge points split the listing rule's lists
    listed = listing_rule(table, grid, dot_min)
    split = np.zeros_like(listed)
    sure_cells, sure_cols = table.sure_of(np.arange(len(listed)))
    split[sure_cells, sure_cols] = True
    edge_cells, k = np.nonzero(table.table < m)
    assert not split[edge_cells, table.table[edge_cells, k]].any()
    split[edge_cells, table.table[edge_cells, k]] = True
    assert np.array_equal(split, listed)
    if d == 2:
        assert np.any(listed[:, 0] & listed[:, -1])     # caps that wrap past column M - 1
    assert np.array_equal(table.coords, np.moveaxis(
        np.vstack([grid, np.full(d, np.nan)])[table.table], 2, 0), equal_nan=True)
    # every sure point is a hit of every unit row its cell holds
    rows = rows_in_every_cell(table, np.random.default_rng(d + int(10 * cap)))
    slot = table.cell_of(rows)
    assert (slot >= 0).all()
    # rows reach every cell the sphere passes through (the others meet it
    # at a point or only within the slack)
    covered = np.zeros(len(listed), dtype=bool)
    covered[slot] = True
    c = table.cells
    cell = np.stack(np.unravel_index(np.flatnonzero(table.slot >= 0), (c,) * d), axis=1)
    lo, hi = -1.0 + 2.0 * cell / c, -1.0 + 2.0 * (cell + 1) / c
    near2 = (np.clip(0.0, lo, hi) ** 2).sum(axis=1)
    far2 = np.maximum(lo * lo, hi * hi).sum(axis=1)
    assert covered[(near2 < 1.0 - 1e-9) & (far2 > 1.0 + 1e-9)].all()
    which, cols = table.sure_of(slot)
    assert len(cols) > 0 or len(table.sure) == 0    # d = 4 cells are too wide for cap 0.1
    u, g = rows[which], grid[cols]
    dots = u[:, 0] * g[:, 0]
    for i in range(1, d):
        dots = dots + u[:, i] * g[:, i]
    assert (dots > dot_min).all()


def test_default_grids_use_the_table():
    # the rule reads the mean edge list: d = 2, M = 64 lists about 2.9 edge
    # points of 64 (7.8 with the sure ones) at cap 0.3, d = 3, M = 256 about
    # 4.8 of 256
    cfg = EstimatorConfig()
    for d, m in ((2, 64), (3, 256)):
        assert CapVisitAccumulator(replace(cfg, grid_m=m), d)._table is not None


def test_accumulators_share_grid_and_table():
    cfg = EstimatorConfig(grid_m=256)
    a, b = CapVisitAccumulator(cfg, 3), CapVisitAccumulator(cfg, 3)
    assert a.grid is b.grid and a._table is b._table
    assert isinstance(a._table, _CellTable)
    # an equal grid passed in, or an equal config, finds the same table
    assert CapVisitAccumulator(cfg, 3, grid=a.grid.copy())._table is a._table
    assert CapVisitAccumulator(EstimatorConfig(grid_m=256), 3)._table is a._table
    assert CapVisitAccumulator(EstimatorConfig(grid_m=256, cap_radius=0.2), 3)._table \
        is not a._table
    table = a._table
    for arr in (a.grid, table.slot, table.table, table.coords, table.sure, table.sure_ptr):
        assert not arr.flags.writeable


def test_nan_row_takes_the_dense_path():
    # a NaN direction is not covered by the table: no cast warning, and the
    # records are the dense path's, where a NaN row never hits
    acc, ref = _accumulators(3, "band", False)
    assert acc._table is not None
    ref._table = None
    block = random_block(np.random.default_rng(9), acc, 1)
    block.dirs[7] = np.nan
    block.dirs[8, 1] = np.nan
    assert (acc._table.cell_of(block.dirs[6:9]) == [acc._table.cell_of(block.dirs[6:7])[0],
                                                    -1, -1]).all()
    acc.observe(block)
    ref.observe(block)
    assert_same_records(acc, ref)
    assert acc.visits.sum() > 0


def test_dense_call_memory_is_bounded():
    # one call of 16,384 random rows on a 1024-point d = 2 grid with cap 1.0,
    # which takes the product (its cells list about 163 edge points, more
    # than M / 16): slices of 2**20 // M rows keep its peak under 30 MiB,
    # where a whole-block product alone takes 128 MiB
    acc = CapVisitAccumulator(EstimatorConfig(grid_m=1024, cap_radius=1.0, escape_levels=4), 2)
    assert acc._table is None
    block = random_block(np.random.default_rng(12), acc, 1)
    tracemalloc.start()
    try:
        acc.observe(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert acc.visits.sum() > 0


def sweep_block(rng, acc: CapVisitAccumulator, first_n: int, rows: int = 3 * BLOCK // 2) -> WalkBlock:
    """A slow great-circle sweep, as a walk turns once |S| is large: about
    100 rows per cell of the table.  Every 64th row has one coordinate
    exactly on a cell edge (the others rescaled), rows 5000-5999 repeat one
    row, and the log-norms climb through the escape levels with a little
    noise, so cell runs are cut by level changes too."""
    d = acc.grid.shape[1]
    a, b = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
    t = np.linspace(0.0, 2.0 * math.pi, rows)
    dirs = np.cos(t)[:, None] * a + np.sin(t)[:, None] * b
    c = acc._table.cells
    for r in range(0, rows, 64):
        i = rng.integers(d)
        edge = -1.0 + 2.0 * np.round((dirs[r, i] + 1.0) * c / 2.0) / c
        if abs(edge) < 1.0:
            rest = np.delete(dirs[r], i)
            dirs[r] = np.insert(rest * math.sqrt((1.0 - edge * edge) / (rest @ rest)), i, edge)
    dirs[5000:6000] = dirs[5000]
    cfg = acc.config
    log_norms = np.linspace(math.log(cfg.escape_r0) - 1.0,
                            math.log(cfg.escape_r0) + (cfg.escape_levels + 1) * _LN2, rows)
    log_norms += 0.01 * rng.standard_normal(rows)
    log_norms[5000:6000] = log_norms[5000]
    log_norms[rng.random(rows) < 0.002] = NEG_INF
    return WalkBlock(first_n=first_n, dirs=dirs, log_norms=log_norms, positions=None)


@pytest.mark.parametrize("alphas", [EstimatorConfig().alphas, SIGNED_ALPHAS], ids=["default", "signed"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_walk_like_blocks_match_dense_reference(d, alphas, tabled):
    rng = np.random.default_rng(40 + d)
    acc, _ = _accumulators(d, "band", False, alphas=alphas)
    block = sweep_block(rng, acc, 1 + BLOCK)
    table = acc._table
    slot = table.cell_of(block.dirs)
    assert table is not None and (slot >= 0).all()
    # long cell runs, some with sure points, and rows exactly on cell edges
    runs = 1 + np.count_nonzero(slot[1:] != slot[:-1])
    assert len(slot) / runs > 10
    assert len(table.sure_of(slot)[0]) > 0
    c = table.cells
    assert np.any((block.dirs + 1.0) * (c / 2.0) % 1.0 == 0.0)
    # burn_in past the plateau's first rows cuts a run
    for burn_in in (0, BLOCK + 5500):
        acc, ref = _accumulators(d, "band", False, alphas=alphas, burn_in=burn_in)
        acc.observe(block)
        ref.observe(block)
        assert_same_records(acc, ref)
        assert acc.repeated_rows > 0 and acc.visits.sum() > 0
    # the same walk cut into checkpoint-like pieces, two of them past the
    # plateau with one row fewer than the table's threshold and exactly
    # that many live rows
    live = np.cumsum(block.log_norms[6000:] > NEG_INF)
    under = 6001 + int(np.searchsorted(live, _TABLE_ROWS - 1))
    at = 6001 + int(np.searchsorted(live, 2 * _TABLE_ROWS - 1))
    acc, ref = _accumulators(d, "band", False, alphas=alphas)
    tabled.clear()
    for a, b in [(0, 1), (1, 3), (3, 700), (700, 5500), (5500, 6000), (6000, under),
                 (under, at), (at, len(block))]:
        piece = WalkBlock(first_n=block.first_n + a, dirs=block.dirs[a:b],
                          log_norms=block.log_norms[a:b], positions=None)
        acc.observe(piece)
        ref.observe(piece)
        assert_same_records(acc, ref)
    # the piece at the threshold takes the table and the one under it the
    # product, and so do the first pieces and the plateau (one group)
    assert tabled.count(_TABLE_ROWS) == 1 and min(tabled) == _TABLE_ROWS


def crossing_block(rng, acc: CapVisitAccumulator, first_n: int, rows: int = 4096) -> WalkBlock:
    """A slow sweep across the cap boundary of one grid point: rows at 0.9
    to 1.1 times the cap's angle from it along one great circle, at one
    level, so that a cell run holds both hits and misses of it."""
    d = acc.grid.shape[1]
    g = acc.grid[rng.integers(len(acc.grid))]
    w = rng.standard_normal(d)
    w -= (w @ g) * g
    w /= np.linalg.norm(w)
    t = np.linspace(0.9, 1.1, rows) * math.acos(acc._dot_min)
    dirs = np.cos(t)[:, None] * g + np.sin(t)[:, None] * w
    log_norms = np.full(rows, math.log(acc.config.escape_r0) + 1.5 * _LN2)
    return WalkBlock(first_n=first_n, dirs=dirs, log_norms=log_norms, positions=None)


def cell_runs(acc: CapVisitAccumulator, block: WalkBlock):
    """The rows ``observe`` tests (live, past burn_in, first of each group of
    equal rows), their table slots and levels, and the first row of each
    cell run."""
    steps = np.arange(block.first_n, block.first_n + len(block))
    live = (block.log_norms > NEG_INF) & (steps > acc.config.burn_in)
    dirs, log_norms = block.dirs[live], block.log_norms[live]
    edges = _group_edges(dirs, log_norms, np.zeros(len(dirs), dtype=np.int64))
    if edges is not None:
        dirs, log_norms = dirs[edges[:-1]], log_norms[edges[:-1]]
    slot, level = acc._table.cell_of(dirs), acc._levels_of(log_norms)
    new = np.ones(len(slot), dtype=bool)
    new[1:] = (slot[1:] != slot[:-1]) | (level[1:] != level[:-1])
    return dirs, slot, level, new.nonzero()[0]


@pytest.mark.parametrize("cap", [0.1, 0.3])
@pytest.mark.parametrize("d", [3, 4])
def test_run_boxes_are_sound_and_used(d, cap, monkeypatch):
    variant = {0.1: "small-cap", 0.3: "default"}[cap]
    axis = (0.0,) * (d - 1) + (1.0,)
    probe = _accumulators(d, variant, True, band_axis=axis)[0]
    table, m = probe._table, len(probe.grid)
    if d == 4 and cap == 0.1:
        assert len(table.sure) == 0             # no cell has a sure point
    rng = np.random.default_rng(60 + d + int(10 * cap))
    sweep = sweep_block(rng, probe, 1 + BLOCK)
    cross = crossing_block(rng, probe, 1 + 3 * BLOCK)
    # the sweep's runs are cut by level changes and hold a plateau; one run
    # of the crossing holds hits and misses of one grid point
    _, slot, level, _ = cell_runs(probe, sweep)
    assert np.any((slot[1:] == slot[:-1]) & (level[1:] != level[:-1]))
    dirs, _, _, starts = cell_runs(probe, cross)
    hits = np.add.reduceat(fixed_order_dots(dirs, probe.grid) > probe._dot_min, starts)
    assert np.any((hits > 0) & (hits < np.diff(starts, append=len(dirs))[:, None]))
    # E pairs taken, and the points the runs' boxes made sure
    seen = {"E": 0, "sure": 0}
    pair_dots, split_runs = directions._pair_dots, _CellTable.split_runs

    def counted_dots(dirs, vecs_t, rows, cols):
        seen["E"] += len(rows)
        return pair_dots(dirs, vecs_t, rows, cols)

    def counted_split(self, slots, lo, hi):
        sure, edge = split_runs(self, slots, lo, hi)
        seen["sure"] += np.count_nonzero(sure)
        return sure, edge

    monkeypatch.setattr(directions, "_pair_dots", counted_dots)
    monkeypatch.setattr(_CellTable, "split_runs", counted_split)
    listed = 0
    for burn_in, blocks in ((0, [sweep, cross]), (BLOCK + 5500, [sweep])):
        acc, ref = _accumulators(d, variant, True, band_axis=axis, burn_in=burn_in)
        assert acc._table is table
        for block in blocks:
            acc.observe(block)
            ref.observe(block)
            assert_same_records(acc, ref)
            slot = cell_runs(acc, block)[1]
            listed += np.count_nonzero(table.table[slot] < m)
        assert acc.repeated_rows > 0 and acc.visits.sum() > 0
    assert 0 < seen["E"] < listed / 2 and seen["sure"] > 0


def test_band_axis_is_normalized():
    # the band test reads the axis's direction: a scaled axis gives the same
    # records, byte for byte, and a unit axis is kept as given
    spec = coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()])
    accs = [CapVisitAccumulator(EstimatorConfig(grid_m=256, band_axis=axis), 3)
            for axis in ((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), (0, 0, 1e300))]
    run_walk(spec, 2 * BLOCK, seed=4, observers=accs)
    assert accs[0]._band_axis.tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()
    assert accs[0].level_band_hits.sum() > 0
    for acc in accs[1:]:
        assert_same_records(acc, accs[0])


def test_d2_decision_cached_as_no_table(monkeypatch):
    # a pair the rule rejects (d = 2, cap 1.0: about 10 edge points of 64)
    # and a grid that is not unit are cached as None; a rejected pair never
    # builds its padded edge table
    def unbuilt(self):
        raise AssertionError("a rejected table built its padded edge table")

    monkeypatch.setattr(_CellTable, "table", property(unbuilt))
    cfg = EstimatorConfig(grid_m=64, grid_seed=5, cap_radius=1.0)
    a, b = CapVisitAccumulator(cfg, 2), CapVisitAccumulator(cfg, 2)
    assert a.grid is b.grid
    assert a._table is None and b._table is None
    assert _TABLES[(a.grid.shape, a.grid.tobytes(), a._dot_min)] is None
    wide = CapVisitAccumulator(EstimatorConfig(), 2, grid=2.0 * a.grid)
    assert wide._table is None
    assert _TABLES[(wide.grid.shape, wide.grid.tobytes(), wide._dot_min)] is None


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_table_decision_read_while_splitting(monkeypatch, d):
    # the rule read on the edge count chunk by chunk decides as the rule read
    # on the whole split; caps up to 0.3 take a table and 1.0 and wider do
    # not, and cap 0.7 is rejected at 1.3 to 1.7 times the rule's threshold
    monkeypatch.setattr(directions, "_TABLES", {})
    for m in (64, 256):
        grid = direction_grid(d, m, 0)
        for cap in (0.1, 0.3, 0.6, 0.7, 1.0, 1.9, 2.0):
            dot_min = 1.0 - cap ** 2 / 2.0
            whole = whole_table(grid, dot_min)
            rejected = whole.mean_edges * _PRUNE_FACTOR > m
            assert (directions._table_for(grid, dot_min) is None) == rejected
            if cap == 0.7:
                assert rejected and whole.mean_edges * _PRUNE_FACTOR < 2 * m
            elif cap != 0.6:
                assert rejected == (cap > 0.3)
            if not rejected:
                kept = directions._table_for(grid, dot_min)
                assert kept.mean_edges == whole.mean_edges
                assert np.array_equal(kept.table, whole.table)
                assert np.array_equal(kept.sure_ptr, whole.sure_ptr)


def test_rejected_table_decision_memory_is_bounded(monkeypatch):
    # d = 6, M = 64, cap 1.9 is rejected on the first chunk of the split;
    # chunks of 2**20 // (M d) cells keep its (d x pairs) temporaries near
    # 8 MiB, where chunks of 2**20 // M cells peaked at 226 MiB
    monkeypatch.setattr(directions, "_TABLES", {})
    grid = direction_grid(6, 64, 0)
    tracemalloc.start()
    try:
        table = directions._table_for(grid, 1.0 - 1.9 ** 2 / 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table is None
    assert peak < 64 * 2**20


WALKS = {
    "d2-two-pole": (coordinate_product([rademacher(), s_two_sided(0.5)]),
                    {"cap_radius": 0.1}),
    "d2-default": (coordinate_product([rademacher(), s_two_sided(0.5)]), {}),
    "d3-band": (coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()]), {}),
    "d4": (coordinate_product([s_two_sided(1.5)] * 3 + [rademacher()]),
           {"band_axis": (0.0, 0.0, 0.0, 1.0)}),
    "d2-huge-float": (coordinate_product([constant(1e200), rademacher()]),
                      {"escape_r0": 1e200}),
    # heavytails-demo's log-tailed radial walk: whole runs of repeated rows
    "d2-log-radial": (triangle_log_tail_spec(), {"escape_r0": 1e3}),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walks_match_dense_reference(name):
    spec, kw = WALKS[name]
    cfg = EstimatorConfig(grid_m=64 if spec.dimension == 2 else 256, **kw)
    acc = CapVisitAccumulator(cfg, spec.dimension)
    ref = DenseAccumulator(cfg, spec.dimension)
    run_walk(spec, 3 * BLOCK, seed=11, observers=[acc, ref])
    assert_same_records(acc, ref)
    assert acc.visits.sum() > 0
    if spec.scale_mode == "log":
        assert acc.repeated_rows > 0


def test_log_tail_walk_caps_match_dense_reference_bytewise():
    # the benchmark's logradial walk: after a jump that dwarfs the scale, later
    # steps underflow and whole runs of rows repeat, so records come per group
    spec = triangle_log_tail_spec()
    for alphas in (EstimatorConfig().alphas, SIGNED_ALPHAS):
        cfg = replace(EstimatorConfig.defaults_for(spec), alphas=alphas)
        acc, ref = CapVisitAccumulator(cfg, 2), DenseAccumulator(cfg, 2)
        run_walk(spec, 2 * BLOCK, seed=0, observers=[acc, ref])
        assert_same_records(acc, ref)
        assert acc.n_steps_seen == ref.n_steps_seen == 2 * BLOCK
        assert acc.repeated_rows > 0


class BlockLog(ObserverBase):
    """The directions and log-norms of every step a walk hands its observers."""

    def __init__(self):
        self.dirs, self.log_norms = [], []

    def observe(self, block: WalkBlock) -> None:
        self.dirs.append(block.dirs.copy())
        self.log_norms.append(block.log_norms.copy())


# the benchmark's hull2d, caps3d (with the cell table) and logradial walks
CUT_WALKS = {
    "hull2d": coordinate_product([rademacher(), s_two_sided(0.5)]),
    "caps3d": coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()]),
    "logradial": triangle_log_tail_spec(),
}


@pytest.mark.parametrize("name", sorted(CUT_WALKS))
def test_records_do_not_depend_on_block_cuts(name, tabled):
    # one walk, fed in whole engine blocks and cut at random rows, so that
    # some pieces take the table and some the product; graded windows depend
    # on the cuts (see the xfail below)
    spec = CUT_WALKS[name]
    d = spec.dimension
    cfg = replace(EstimatorConfig.defaults_for(spec), band_axis=(0.0,) * (d - 1) + (1.0,))
    log = BlockLog()
    run_walk(spec, 2 * BLOCK, seed=3, observers=[log])
    dirs, log_norms = np.concatenate(log.dirs), np.concatenate(log.log_norms)
    rng = np.random.default_rng(len(name))
    cuts = rng.integers(1, 2 * BLOCK, 40)
    accs = []
    for edges in ([0, BLOCK, 2 * BLOCK],
                  np.unique(np.concatenate([[0, 2 * BLOCK], cuts, cuts + 1]))):
        acc = CapVisitAccumulator(cfg, d)
        tabled.clear()
        for a, b in zip(edges[:-1], edges[1:]):
            acc.observe(WalkBlock(first_n=a + 1, dirs=dirs[a:b], log_norms=log_norms[a:b],
                                  positions=None))
        accs.append(acc)
    whole, cut = accs
    assert whole._table is not None
    # the cut pieces lie on both sides of the threshold, except on the log
    # walk, whose blocks hold at most a few dozen groups of repeated rows
    if spec.scale_mode != "log":
        assert 0 < len(tabled) < len(edges) - 1
    for record in ("visits", "level_totals", "level_band_hits", "graded_max"):
        assert getattr(whole, record).tobytes() == getattr(cut, record).tobytes(), record
    assert whole.visits.sum() > 0 and whole.level_band_hits.sum() > 0
    if spec.scale_mode == "log":
        assert whole.repeated_rows > 0


class PieceByPiece(ObserverBase):
    """Hands each checkpoint piece of every block to ``acc`` as a block of
    its own, and counts the cuts inside blocks."""

    def __init__(self, acc: CapVisitAccumulator):
        self.acc, self.cuts = acc, 0

    def observe(self, block: WalkBlock) -> None:
        pieces = piece_blocks(block)
        self.cuts += len(pieces) - 1
        for piece in pieces:
            self.acc.observe(piece)


# (spec, estimator knobs): the benchmark's walks, a burn_in that ends inside
# the first block, a walk along (1, 0) that leaves int64 range at step 10,001
# (in its first block, after 14 checkpoints) and a cap that no table takes
DEFERRED = {
    **{name: (spec, {}) for name, spec in CUT_WALKS.items()},
    "burn-in": (CUT_WALKS["hull2d"], {"burn_in": 3000}),
    "halted": (coordinate_product([constant(2**63 // 10000), rademacher()]),
               {"band_axis": (1.0, 0.0)}),
    "no-table": (CUT_WALKS["caps3d"], {"cap_radius": 1.9}),
}


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_held_pieces_give_the_records_of_each_piece(name):
    # an engine block with checkpoint rows, decided in one pass, gives every
    # record of its pieces fed one by one as blocks of their own: graded
    # windows per checkpoint piece, and groups cut where a piece ends
    spec, kw = DEFERRED[name]
    d = spec.dimension
    cfg = replace(EstimatorConfig.defaults_for(spec),
                  **{"band_axis": (0.0,) * (d - 1) + (1.0,), **kw})
    acc = CapVisitAccumulator(cfg, d)
    one_by_one = PieceByPiece(CapVisitAccumulator(cfg, d))
    rec = run_walk(spec, 2 * BLOCK, seed=5, observers=[acc, one_by_one])
    ref = one_by_one.acc
    assert_same_records(acc, ref)
    assert acc.repeated_rows == ref.repeated_rows and acc.n_steps_seen == ref.n_steps_seen
    assert one_by_one.cuts >= 10 and acc.visits.sum() > 0 and acc.level_band_hits.sum() > 0
    w = acc.graded_windows
    assert np.any((w & (w - 1)) != 0)                   # two windows met somewhere
    assert (acc._table is None) == (name == "no-table")
    assert rec.overflowed == (name == "halted")
    if name == "logradial":
        assert acc.repeated_rows > 0
    if name == "burn-in":
        assert acc.level_totals.sum() <= 2 * BLOCK - 3000


@pytest.mark.xfail(strict=True, reason="observe keeps only the highest "
                   "qualifying window per grid point and alpha in each checkpoint piece")
def test_graded_windows_of_one_block_all_count():
    cfg = small_config(alphas=(0.5,), kappa=0.1)
    acc = CapVisitAccumulator(cfg, 2)
    dirs = np.array([E1, E1])
    acc.observe(WalkBlock(first_n=3, dirs=dirs, log_norms=np.full(2, math.log(100.0)),
                          positions=None))      # steps 3 and 4: windows 1 and 2
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    assert acc.graded_windows[e1_idx, 0] == 0b110
    assert acc.finalize().graded_in[e1_idx, 0]
