"""Walk engine: stepping, biggest-jump recursion, bound checks, records."""
import math
import warnings
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkangles import walk as walk_module
from walkangles.rng import stream
from walkangles.samplers import (RADIAL_PRODUCT, IncrementSampler, SampleBlock,
                                 coordinate_product, constant, linear_combination,
                                 log_tail, radial_product, rademacher, s_one_sided,
                                 s_two_sided, stretched_exp)
from walkangles.hull import HullTracker, SupportSketch
from walkangles.projections import ProjectionTracker
from walkangles.walk import (BLOCK, BOUND_TOL, INT_SAT_LIMIT, BoundCheckObserver,
                             ObserverBase, TrajectoryRecord, UnsupportedSpecError, WalkBlock,
                             WalkState, biggest_jump_bound_check, csv_text,
                             dyadic_checkpoints, run_walk)

# ---------------------------------------------------------------------------
# scalar reference oracle: one step at a time, the differential tests below
# check the vectorized engine against it

@dataclass(frozen=True)
class IncrementDraw:
    """A single increment: the vector, plus radial detail when applicable."""

    vector: np.ndarray | None
    xi: float | None = None
    xi_log: float | None = None
    atom_index: int | None = None


@dataclass
class OracleState(WalkState):
    """A walk state with the oracle's own halt flag: set by the step that
    would leave the int64 or float range, which the state then stops at."""

    halted: bool = False


def step(state: OracleState, draw: IncrementDraw) -> OracleState:
    """Advance one step.  Returns a new state; the input is not mutated."""
    if state.halted:
        return state
    radial = state.spec.form == RADIAL_PRODUCT
    new = replace(state)
    new.n = state.n + 1
    vector = draw.vector
    if vector is None and state.mode != "log":
        if not radial or draw.xi is None or draw.atom_index is None:
            raise ValueError("draw must carry a vector, or xi and atom_index "
                             "for a radial spec")
        vector = draw.xi * np.asarray(state.spec.atoms[draw.atom_index], dtype=float)
    if state.mode == "lattice":
        vec = [int(x) for x in vector]
        pos = [int(p) + v for p, v in zip(state.position, vec)]
        if any(abs(p) > INT_SAT_LIMIT for p in pos):
            new.halted = True
            return new
        new.position = np.array(pos, dtype=np.int64)
    elif state.mode == "float":
        new.position = state.position + np.asarray(vector, dtype=float)
        if not np.all(np.isfinite(new.position)):
            new.halted = True
            return new
    else:
        lx = float(draw.xi_log)
        atom = np.asarray(state.spec.atoms[draw.atom_index], dtype=float)
        c = max(state.scale, lx)
        mant = state.mantissa * math.exp(state.scale - c) + math.exp(lx - c) * atom
        nm = float(np.linalg.norm(mant))
        if nm > 0.0:
            new.mantissa = mant / nm
            new.scale = c + math.log(nm)
        else:
            new.mantissa = mant
            new.scale = c
    if radial:
        if state.mode == "log":
            lx = float(draw.xi_log)
            new.xi_total = np.logaddexp(state.xi_total, lx)
            if lx > state.xi_max:
                new.xi_rest = np.logaddexp(state.xi_rest, state.xi_max)
                new.xi_max = lx
                new.max_index = new.n
                new.atom_at_max = int(draw.atom_index)
            else:
                new.xi_rest = np.logaddexp(state.xi_rest, lx)
        else:
            xi = float(draw.xi)
            new.xi_total = state.xi_total + xi
            if xi > state.xi_max:
                new.xi_max = xi
                new.max_index = new.n
                new.atom_at_max = int(draw.atom_index)
            new.xi_rest = new.xi_total - new.xi_max
    return new


# ---------------------------------------------------------------------------

TWO_ATOMS = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], s_one_sided(1.0))
TRIANGLE = radial_product([[1.0, 0.0],
                           [-0.5, math.sqrt(3) / 2],
                           [-0.5, -math.sqrt(3) / 2]], [1 / 3] * 3, log_tail())
DRIFT = coordinate_product([constant(1), rademacher()])


def radial_chain(spec, draws):
    st_ = OracleState.initial(spec)
    for xi, idx in draws:
        if spec.scale_mode == "log":
            st_ = step(st_, IncrementDraw(vector=None, xi_log=math.log(xi), atom_index=idx))
        else:
            st_ = step(st_, IncrementDraw(vector=None, xi=xi, atom_index=idx))
    return st_


class Positions(ObserverBase):
    """Records every step's position, and its rest sum on radial walks."""

    def __init__(self):
        self.positions = []
        self.xi_rest = []

    def observe(self, block):
        self.positions.append(block.positions)
        self.xi_rest.append(block.xi_rest)


def test_step_vector_addition():
    spec = coordinate_product([rademacher(), rademacher()])
    st_ = OracleState.initial(spec)
    st_.position = np.array([2, 1], dtype=np.int64)
    st_.n = 3
    out = step(st_, IncrementDraw(vector=np.array([1, -1])))
    assert np.array_equal(out.position, [3, 0])
    assert out.n == 4
    assert np.array_equal(st_.position, [2, 1])   # input untouched


def test_biggest_jump_recursion_no_new_max():
    st_ = radial_chain(TWO_ATOMS, [(5.0, 0), (3.0, 1)])
    assert st_.xi_max == 5.0
    assert st_.max_index == 1
    assert st_.xi_rest == 3.0
    assert st_.xi_total == 8.0


def test_biggest_jump_recursion_new_max():
    st_ = radial_chain(TWO_ATOMS, [(5.0, 0), (9.0, 1)])
    assert st_.xi_max == 9.0
    assert st_.max_index == 2
    assert st_.xi_rest == 5.0


def test_tie_keeps_old_index():
    st_ = radial_chain(TWO_ATOMS, [(5.0, 0), (5.0, 1)])
    assert st_.max_index == 1
    assert st_.atom_at_max == 0


def test_run_walk_drift_deterministic():
    # a fully deterministic walk is genuinely d-dimensional only for d = 1
    spec = coordinate_product([constant(1)])
    rec = run_walk(spec, 10, seed=0)
    final = rec.checkpoints[-1]
    assert final.n == 10
    assert final.position[0] == 10
    other = run_walk(spec, 10, seed=99)
    assert [tuple(r.position) for r in other.checkpoints] == \
        [tuple(r.position) for r in rec.checkpoints]


def test_run_walk_replay_identical():
    spec = coordinate_product([rademacher(), s_two_sided(0.8)])

    def replay(seed):
        rec = run_walk(spec, 5000, seed=seed)
        return rec.to_csv(), rec.overflowed, rec.saturations

    assert replay(42) == replay(42)
    assert replay(42)[0] != replay(43)[0]


def test_first_coordinate_counts_steps():
    spec = coordinate_product([constant(1), s_two_sided(2.0)])
    obs = Positions()
    rec = run_walk(spec, 10**4, seed=5, observers=[obs])
    assert np.array_equal(np.concatenate(obs.positions)[:, 0],
                          np.arange(1, 10**4 + 1))
    for row in rec.checkpoints:
        assert row.position[0] == row.n


def test_bound_check_single_jump():
    st_ = radial_chain(TWO_ATOMS, [(7.0, 1)])
    chk = biggest_jump_bound_check(st_)
    assert chk.applicable
    assert chk.rho == 0.0
    assert chk.actual == 0.0
    assert chk.ok


def test_bound_check_two_jumps_hand_value():
    st_ = radial_chain(TWO_ATOMS, [(10.0, 0), (1.0, 1)])
    chk = biggest_jump_bound_check(st_)
    assert chk.rho == pytest.approx(0.1)
    assert chk.bound == pytest.approx(0.2 / 0.9)
    # ||S|| = sqrt(101); ||hat S - e1||^2 = 2 - 20/sqrt(101)
    expected = math.sqrt(2.0 - 20.0 / math.sqrt(101.0))
    assert chk.actual == pytest.approx(expected, abs=1e-12)
    assert chk.actual <= chk.bound
    assert chk.ok


def test_bound_check_wrong_spec():
    with pytest.raises(UnsupportedSpecError):
        biggest_jump_bound_check(WalkState.initial(DRIFT))


def test_bound_holds_along_log_tail_run():
    obs = BoundCheckObserver()
    run_walk(TRIANGLE, 10**4, seed=9, observers=[obs])
    assert obs.checked == 10**4
    assert obs.violations == 0
    assert obs.applicable > 0
    assert math.isfinite(obs.worst_margin) and obs.worst_margin <= BOUND_TOL


class LastRow(ObserverBase):
    """Keeps the last step's radial statistics and direction, as 1-row arrays."""

    def observe(self, block):
        self.row = (block.xi_max[-1:], block.xi_rest[-1:], block.dirs[-1:],
                    block.atom_at_max[-1:])


@pytest.mark.parametrize("spec, seed, applicable", [
    (TWO_ATOMS, 0, False), (TWO_ATOMS, 3, True), (TRIANGLE, 2, True),
], ids=["float-radial-rho-above-1", "float-radial", "log-radial"])
def test_state_bound_check_is_the_last_rows(spec, seed, applicable):
    # the per-state check and the observer share one evaluator: on a final
    # state it gives the last row's rho and bound bit for bit; the distance
    # differs only through the state's direction, taken from the 1-D norm
    last = LastRow()
    rec = run_walk(spec, 3000, seed=seed, observers=[last])
    chk = biggest_jump_bound_check(rec.final_state)
    rho, bound, actual, ok = walk_module._dominance_terms(spec, *last.row)
    assert chk.applicable == ok[0] == applicable
    assert chk.rho.hex() == rho[0].hex()
    assert chk.bound.hex() == bound[0].hex()
    assert abs(chk.actual - actual[0]) <= 1e-15
    assert chk.ok


def _oracle_draws(spec, block):
    if spec.scale_mode == "log":
        return [IncrementDraw(vector=None, xi_log=float(lx), atom_index=int(i))
                for lx, i in zip(block.xi_log, block.atom_idx)]
    if block.xi is not None:
        return [IncrementDraw(vector=None, xi=float(x), atom_index=int(i))
                for x, i in zip(block.xi, block.atom_idx)]
    return [IncrementDraw(vector=row) for row in block.vectors]


@pytest.mark.parametrize("spec, seed", [
    (coordinate_product([rademacher(), s_two_sided(0.7)]), 8),
    (coordinate_product([constant(0.5), s_two_sided(0.8)]), 4),
    (linear_combination([[1.0, 0.0], [0.6, 0.8]],
                        [s_one_sided(0.7), s_one_sided(0.7)]), 5),
    (TWO_ATOMS, 6),
    (TRIANGLE, 3),
], ids=["lattice", "float-coordinate", "float-linear", "float-radial", "log-radial"])
def test_engine_matches_scalar_oracle(spec, seed):
    n = 300
    block = IncrementSampler(spec).sample_block(stream(seed), n)
    ref = OracleState.initial(spec)
    ref_rest = []
    for draw in _oracle_draws(spec, block):
        ref = step(ref, draw)
        ref_rest.append(ref.xi_rest)
    obs = Positions()
    fin = run_walk(spec, n, seed=seed, observers=[obs]).final_state
    assert fin.mode == ref.mode == spec.scale_mode
    assert fin.n == ref.n == n
    if spec.scale_mode == "log":
        assert abs(fin.scale - ref.scale) < 1e-9
        assert np.allclose(fin.direction(), ref.direction(), atol=1e-12)
    else:
        assert np.array_equal(fin.position, ref.position)
    if spec.form == RADIAL_PRODUCT:
        # the running sums add (or logaddexp) in the oracle's order: exact
        # equality; the engine keeps the total in linear modes only
        assert fin.xi_total == (-math.inf if spec.scale_mode == "log" else ref.xi_total)
        assert fin.xi_rest == ref.xi_rest
        assert fin.xi_max == ref.xi_max
        assert np.concatenate(obs.xi_rest).tolist() == ref_rest
    assert fin.max_index == ref.max_index
    assert fin.atom_at_max == ref.atom_at_max


class _FixedIncrements:
    """Stands in for ``IncrementSampler``: hands out the given rows in order."""

    atoms = None
    saturations = SimpleNamespace(count=0)

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.int64)

    def sample_block(self, rng, size):
        out, self.rows = self.rows[:size], self.rows[size:]
        return SampleBlock(vectors=out)


_BIG = 2**62


@pytest.mark.parametrize("rows, halt", [
    # lands on +(2^63 - 1), then keeps going
    ([[_BIG, 0], [_BIG - 1, 1], [-5, 0], [5, -1], [-1, 0]], None),
    # lands on -(2^63 - 1), then keeps going
    ([[-_BIG, 0], [-_BIG + 1, 1], [5, 0], [-5, -1], [1, 0]], None),
    # lands on -2^63, which int64 holds but |p| <= 2^63 - 1 does not
    ([[1, -_BIG], [0, -_BIG], [1, 0], [0, 1]], 2),
    # crosses +2^63 mid-block; the int64 sum wraps to -2^63 + 4
    ([[1, 0], [_BIG, 0], [_BIG - 7, 0], [10, 0], [1, 0]], 4),
    # crosses -2^63 in the second coordinate; the sum wraps to 2^63 - 4
    ([[0, -_BIG], [1, -_BIG + 1], [0, -5], [1, 1]], 3),
], ids=["land-max", "land-neg-max", "land-int64-min", "cross-up", "cross-down"])
def test_lattice_halts_at_int64_boundary_like_oracle(monkeypatch, rows, halt):
    spec = coordinate_product([rademacher(), rademacher()])
    assert spec.scale_mode == "lattice"
    ref = OracleState.initial(spec)
    ref_positions = []
    for row in rows:
        ref = step(ref, IncrementDraw(vector=np.array(row, dtype=np.int64)))
        if ref.halted:
            break
        ref_positions.append(ref.position.tolist())
    assert ref.halted == (halt is not None)
    assert len(ref_positions) == (len(rows) if halt is None else halt - 1)

    monkeypatch.setattr(walk_module, "IncrementSampler",
                        lambda spec: _FixedIncrements(rows))
    obs = Positions()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_walk(spec, len(rows), seed=0, observers=[obs])
    assert rec.overflowed == ref.halted
    assert rec.final_state.n == len(ref_positions)
    assert np.concatenate(obs.positions).tolist() == ref_positions
    assert rec.final_state.position.tolist() == ref_positions[-1]


def test_radial_invariants_along_run():
    rec = run_walk(TRIANGLE, 4096, seed=21)
    prev_k, prev_t = 0, -math.inf
    for row in rec.checkpoints:
        assert row.max_index >= prev_k          # k(n) non-decreasing
        prev_k = row.max_index
        # log T = log(e^M + e^B) is a running sum of magnitudes: non-decreasing
        t = np.logaddexp(row.xi_max, row.xi_rest)
        assert t >= prev_t
        prev_t = t
    fin = rec.final_state
    # log-domain identity e^T = e^M + e^B up to float precision, with T summed
    # from the run's draws (the engine keeps no total in log mode)
    total = np.logaddexp.accumulate(
        IncrementSampler(TRIANGLE).sample_block(stream(21), 4096).xi_log)[-1]
    t = np.logaddexp(fin.xi_max, fin.xi_rest)
    assert abs(t - total) <= 1e-12 * abs(total)
    assert fin.xi_rest <= total


def test_linear_radial_total_identity_exact():
    spec = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], s_one_sided(0.8))
    rec = run_walk(spec, 2048, seed=13)
    for row in rec.checkpoints:
        assert row.xi_rest >= 0.0
    fin = rec.final_state
    assert fin.xi_total == fin.xi_max + fin.xi_rest


def test_overflow_halts_with_partial_record():
    spec = coordinate_product([constant(2**61), rademacher()])
    rec = run_walk(spec, 100, seed=1)
    assert rec.overflowed
    assert rec.checkpoints[-1].n < 100
    assert not hasattr(rec.final_state, "overflowed")   # the record's flag is the one


def test_float_overflow_halts_with_partial_record():
    spec = linear_combination([[0.5, 0.0], [0.0, 0.5]], [constant(1e308), rademacher()])
    assert spec.scale_mode == "float"
    rec = run_walk(spec, 10, seed=1)
    assert rec.overflowed
    assert rec.final_state.n == 3          # 1.5e308 is finite, 2e308 is not
    assert np.all(np.isfinite(rec.final_state.position))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_log_walk_halts_at_infinite_log_magnitude(seed):
    # at beta = 0.001 the log magnitude E**1000 passes float range in about
    # one step of eight; the walk halts before the first such step
    spec = radial_product([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [0.25, 0.25, 0.5],
                          stretched_exp(0.001))
    xi_log = IncrementSampler(spec).sample_block(stream(seed), 64).xi_log
    finite = np.isfinite(xi_log)
    assert not finite.all()
    rec = run_walk(spec, 64, seed=seed)
    assert rec.overflowed
    assert rec.final_state.n == int(np.argmin(finite))
    assert [row.n for row in rec.checkpoints] == [
        n for n in dyadic_checkpoints(64) if n <= rec.final_state.n]
    for row in rec.checkpoints:
        assert np.all(np.isfinite(row.direction))
        assert math.isfinite(row.log_norm) and math.isfinite(row.xi_max)
        assert row.xi_rest < math.inf
    assert "nan" not in rec.to_csv()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_finite_prefix_reads_every_column(d, bad):
    rows = np.arange(40.0 * d).reshape(40, d)
    assert walk_module._finite_prefix(rows) == 40
    assert walk_module._finite_prefix(rows[:, 0]) == 40
    for col in range(d):
        for at in (0, 17, 39):
            cut = rows.copy()
            cut[at, col] = bad
            cut[at + 1:, (col + 1) % d] = bad      # later rows never count
            assert walk_module._finite_prefix(cut) == at
            assert walk_module._finite_prefix(cut[:, col]) == at


def test_float_norms_past_square_overflow():
    # |S| near 1e200 squares to inf; directions, log-norms and norms stay
    # finite in the blocks, the final state and the CSV
    spec = coordinate_product([constant(1e200), rademacher()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_walk(spec, 8, seed=0)
        fin = rec.final_state
        direction, log_norm, norm = fin.direction(), fin.log_norm(), fin.norm()
        lines = rec.to_csv().splitlines()
    assert not rec.overflowed
    assert np.all(np.isfinite(direction))
    assert abs(float(np.hypot(*direction)) - 1.0) <= 1e-15
    assert log_norm == rec.checkpoints[-1].log_norm
    assert math.isfinite(norm)
    header = lines[0].split(",")
    assert header[-3:] == ["norm", "shat_1", "shat_2"]
    for line, row in zip(lines[1:], rec.checkpoints, strict=True):
        cells = [float(c) for c in line.split(",")[-3:]]
        assert math.isfinite(cells[0])
        assert abs(float(np.hypot(*cells[1:])) - 1.0) <= 1e-15
        assert math.isfinite(row.log_norm)
        assert abs(row.log_norm - math.log(row.position[0])) <= 1e-12


@pytest.mark.parametrize("spec", [
    coordinate_product([constant(1e19), rademacher()]),
    coordinate_product([rademacher(), rademacher()], drift=[1e19, 0]),
], ids=["constant", "drift"])
def test_integers_beyond_int64_run_in_float_mode(spec):
    assert spec.scale_mode == "float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_walk(spec, 10, seed=0)
    assert not rec.overflowed
    assert rec.final_state.n == 10
    assert rec.final_state.position[0] == 1e20


@pytest.mark.parametrize("spec, step", [
    (linear_combination([[4, 0], [0, 1]], [constant(2**62), rademacher()]), 2**64),
    (coordinate_product([constant(2**63 - 1024), rademacher()], drift=[2**63 - 1024, 0]),
     2**64 - 2048),
], ids=["vector-product", "drift-sum"])
def test_increments_beyond_int64_run_in_float_mode(spec, step):
    # every constant, drift and vector entry fits int64, but the increment does not
    assert spec.scale_mode == "float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run_walk(spec, 4, seed=0)
    assert not rec.overflowed
    for row in rec.checkpoints:             # n = 1, 2, 4: exact in float64
        assert int(row.position[0]) == row.n * step


def test_lattice_bound_counts_saturated_draws():
    # an S law reaches SATURATION_CAP = 2**62, so a drift of 2**62 can wrap
    near = coordinate_product([s_two_sided(1.0), rademacher()], drift=[2**62 - 1024, 0])
    over = coordinate_product([s_two_sided(1.0), rademacher()], drift=[2**62, 0])
    assert near.scale_mode == "lattice"
    assert over.scale_mode == "float"


def test_direction_norm_reconstruction():
    rec = run_walk(coordinate_product([rademacher(), s_two_sided(1.5)]),
                   10**4, seed=33)
    for row in rec.checkpoints:
        if row.log_norm == float("-inf"):
            continue
        rebuilt = row.direction * math.exp(row.log_norm)
        assert np.allclose(rebuilt, row.position.astype(float), rtol=1e-9)


def test_chord_identity_on_checkpoints():
    rec = run_walk(coordinate_product([rademacher(), rademacher()]), 4096, seed=3)
    rng = np.random.default_rng(0)
    for row in rec.checkpoints:
        if row.log_norm == float("-inf"):
            continue
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        lhs = np.linalg.norm(row.direction - u) ** 2
        rhs = 2.0 - 2.0 * float(row.direction @ u)
        assert abs(lhs - rhs) < 1e-9


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10**9))
def test_running_max_projection_lipschitz(seed):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((50, 3))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    lhs = abs(np.max(xs @ u) - np.max(xs @ v))
    assert lhs <= np.linalg.norm(u - v) + 1e-12


def test_dyadic_checkpoints():
    assert dyadic_checkpoints(10) == [1, 2, 4, 8, 10]
    assert dyadic_checkpoints(8) == [1, 2, 4, 8]
    assert dyadic_checkpoints(1) == [1]
    for n in (0, -3):
        with pytest.raises(ValueError, match=r"n_steps must be >= 1"):
            dyadic_checkpoints(n)
        with pytest.raises(ValueError, match=r"n_steps must be >= 1"):
            run_walk(coordinate_product([rademacher(), rademacher()]), n, seed=0)


class Blocks(ObserverBase):
    """Records the first step, length, checkpoint rows and pieces of every
    block seen."""

    def __init__(self):
        self.seen = []

    def observe(self, block):
        self.seen.append((block.first_n, len(block), block.checkpoints, block.pieces()))

    @property
    def marked(self) -> list[int]:
        """The checkpoint steps, in order."""
        return [first_n + row for first_n, _, rows, _ in self.seen for row in rows]


@pytest.mark.parametrize("spec, n_steps, reached", [
    (coordinate_product([rademacher(), s_two_sided(0.5)]), 1000, dyadic_checkpoints(1000)),
    # leaves int64 range at step 16, so only the checkpoints before it are reached
    (coordinate_product([constant(2**59), rademacher()]), 64, [1, 2, 4, 8]),
], ids=["full", "halted"])
def test_one_checkpoint_ladder(spec, n_steps, reached):
    # the engine's checkpoint rows, the record's rows, the projection ladder
    # and the hull series all read the one ladder of run_walk
    blocks, proj, hull = Blocks(), ProjectionTracker(grid_m=8), HullTracker()
    rec = run_walk(spec, n_steps, seed=3, observers=[blocks, proj, hull])
    assert rec.overflowed == (reached != dyadic_checkpoints(n_steps))
    assert blocks.marked == [row.n for row in rec.checkpoints] == proj.stats.checkpoints \
        == [cp.n for cp in hull.series] == reached
    assert proj.stats.mins.shape == proj.stats.maxes.shape == (len(reached), 8)
    assert hull.confinements.shape == (len(reached), 16)


def dyadic_pieces(k: int) -> list[tuple[int, int]]:
    """The pieces of a block of 2^k steps from step 1: one per doubling."""
    return [(0, 1)] + [(2**j, 2**(j + 1)) for j in range(k)]


def test_cut_structure():
    # run_walk hands its observers whole engine blocks of BLOCK steps (a
    # halted walk's last one ends at the halt), each with the rows of its
    # checkpoints; pieces() cuts a block after each of them
    spec = coordinate_product([constant(1), rademacher()])
    first = tuple(2**k - 1 for k in range(15))
    blocks = Blocks()
    run_walk(spec, 2**10, seed=0, observers=[blocks])
    assert blocks.seen == [(1, 2**10, first[:11], dyadic_pieces(10))]
    blocks = Blocks()
    run_walk(spec, 4 * BLOCK + 3, seed=0, observers=[blocks])
    assert blocks.seen == [(1, BLOCK, first, dyadic_pieces(14)),
                           (BLOCK + 1, BLOCK, (BLOCK - 1,), [(0, BLOCK)]),
                           (2 * BLOCK + 1, BLOCK, (), [(0, BLOCK)]),
                           (3 * BLOCK + 1, BLOCK, (BLOCK - 1,), [(0, BLOCK)]),
                           (4 * BLOCK + 1, 3, (2,), [(0, 3)])]
    # a halted walk, in the first block and in a later one: the last piece
    # ends at the halt, on no checkpoint
    for step, n_steps, seen in [
            (2**59, 64, [(1, 15, first[:4], dyadic_pieces(3) + [(8, 15)])]),
            (2**63 // 20000, 3 * BLOCK, [(1, BLOCK, first, dyadic_pieces(14)),
                                         (BLOCK + 1, 20000 - BLOCK, (), [(0, 20000 - BLOCK)])])]:
        blocks = Blocks()
        assert run_walk(coordinate_product([constant(step), rademacher()]), n_steps, seed=0,
                        observers=[blocks]).overflowed
        assert blocks.seen == seen
    # a block built by hand: no checkpoint row makes one piece, and a last
    # piece past the final checkpoint row ends on none
    block = WalkBlock(first_n=5, dirs=np.zeros((7, 2)), log_norms=np.zeros(7), positions=None)
    assert block.pieces() == [(0, 7)]
    assert replace(block, checkpoints=(1, 4)).pieces() == [(0, 2), (2, 5), (5, 7)]
    assert replace(block, checkpoints=(0, 6)).pieces() == [(0, 1), (1, 7)]


def piece_blocks(block: WalkBlock) -> list[WalkBlock]:
    """Each piece of ``block`` as a block of its own, with its last row as
    its checkpoint where the piece ends on one."""
    out = []
    for k, (a, b) in enumerate(block.pieces()):
        rows = {f.name: value[a:b] for f in fields(block)
                if isinstance(value := getattr(block, f.name), np.ndarray)}
        out.append(replace(block, first_n=block.first_n + a, **rows,
                           checkpoints=(b - a - 1,) if k < len(block.checkpoints) else ()))
    return out


class PieceByPiece(ObserverBase):
    """Hands each piece of every block to ``observers`` as a block of its
    own, and keeps the record's rows: the last row of each piece that ends
    on a checkpoint."""

    def __init__(self, spec, observers):
        self.spec, self.observers, self.rows = spec, observers, []

    def begin(self, spec, n_steps):
        for obs in self.observers:
            obs.begin(spec, n_steps)

    def observe(self, block):
        for piece in piece_blocks(block):
            for obs in self.observers:
                obs.observe(piece)
            if piece.checkpoints:
                radial = self.spec.form == RADIAL_PRODUCT
                self.rows.append(walk_module.CheckpointRow(
                    n=piece.first_n + len(piece) - 1,
                    position=None if piece.positions is None else piece.positions[-1],
                    direction=piece.dirs[-1], log_norm=float(piece.log_norms[-1]),
                    xi_max=float(piece.xi_max[-1]) if radial else None,
                    xi_rest=float(piece.xi_rest[-1]) if radial else None,
                    max_index=int(piece.max_index[-1]) if radial else None))


def same_bytes(a, b) -> bool:
    """Equal, with arrays (also inside dataclasses and lists) equal in dtype
    and bytes."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_bytes, a, b))
    if hasattr(a, "__dataclass_fields__") and type(a) is type(b):
        return all(same_bytes(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return type(a) is type(b) and a == b


# (spec, steps): a d = 2 lattice walk, a d = 3 walk (the hull's support
# sketch), a d = 2 float radial walk, and a walk along (1, 0) that leaves
# int64 range at step 20,000, in its second block
CHECKPOINT_WALKS = {
    "lattice-2": (coordinate_product([rademacher(), s_two_sided(0.5)]), 3 * BLOCK),
    "sketch-3": (coordinate_product([s_two_sided(1.5), s_two_sided(1.5), rademacher()]),
                 2 * BLOCK + 100),
    "float-radial": (radial_product([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]], [0.5, 0.25, 0.25],
                                    s_one_sided(0.7)), 2 * BLOCK),
    "halted": (coordinate_product([constant(2**63 // 20000), rademacher()]), 3 * BLOCK),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_WALKS))
def test_checkpoint_rows_give_what_pieces_give(name):
    # the observers that read checkpoints give the same bytes from whole
    # engine blocks with checkpoint rows as from each piece fed as a block
    # of its own, one checkpoint at its end
    spec, n_steps = CHECKPOINT_WALKS[name]
    d = spec.dimension
    ladder = ProjectionTracker()
    whole = [ladder, HullTracker(ladder=ladder), HullTracker(m=8)]
    ladder = ProjectionTracker()
    cut = PieceByPiece(spec, [ladder, HullTracker(ladder=ladder), HullTracker(m=8)])
    rec = run_walk(spec, n_steps, seed=7, observers=[*whole, cut])
    assert rec.overflowed == (name == "halted")
    assert len(rec.checkpoints) >= 14 and same_bytes(rec.checkpoints, cut.rows)
    verdicts = ["UNDECIDED"] * 64
    for got, want in zip(whole, cut.observers):
        if isinstance(got, ProjectionTracker):
            assert same_bytes(got.stats, want.stats) and same_bytes(got.argmax_at, want.argmax_at)
            assert got.to_csv(verdicts) == want.to_csv(verdicts)
        else:
            assert same_bytes(got.series, want.series) and got.to_csv() == want.to_csv()
            if d > 2:
                assert same_bytes(got.state, want.state)
            else:
                assert got.state.vertices == want.state.vertices
    # one hull reads the shared ladder; the 8-direction one, given no
    # ladder, drives its own from inside its observe
    assert whole[1].ladder is whole[0] and whole[2].ladder is not whole[0]
    assert isinstance(whole[1].state, SupportSketch) == (d > 2)


def test_csv_header_and_rows():
    rec = run_walk(DRIFT, 1000, seed=2)
    text = rec.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:4] == ["n", "s_1", "s_2", "norm"]
    assert len(lines) == 1 + len(rec.checkpoints)


def test_csv_text_cells_are_str_of_python_values():
    ints = np.array([INT_SAT_LIMIT, -INT_SAT_LIMIT, 0, -1, 2**53 + 1], dtype=np.int64)
    floats = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324])
    py_floats = [0.1 + 0.2, 1e16, 1e-5, 2.0**-1074, 123456789012345678.0]
    bools = np.array([True, False, True, True, False])
    names = ["IN", "OUT", "UNDECIDED", "PLUS", "a b"]
    text = csv_text(["i", "f", "p", "b", "name"], [ints, floats, py_floats, bools, names])
    lines = text.split("\n")
    assert lines[0] == "i,f,p,b,name" and lines[-1] == ""
    # the cell rule, written out: the digits of an integer, the repr of a
    # float, str of a bool, strings as they are
    expected = [[str(int(i)), repr(float(f)), repr(float(p)), str(bool(b)), name]
                for i, f, p, b, name in zip(ints, floats, py_floats, bools, names)]
    assert [line.split(",") for line in lines[1:-1]] == expected
    assert csv_text(["x"], [np.zeros(0)]) == "x\n"
    with pytest.raises(ValueError):
        csv_text(["i", "f"], [ints, floats[:-1]])


def fresh_cell_memo(monkeypatch, cap=None):
    memo = {np.dtype(np.float64): {}, np.dtype(np.int64): {}}
    monkeypatch.setattr(walk_module, "_CELL_MEMO", memo)
    if cap is not None:
        monkeypatch.setattr(walk_module, "_CELL_MEMO_CAP", cap)
    return memo


def csv_cells(columns):
    """The cells of ``csv_text`` over ``columns``, column by column."""
    rows = csv_text([str(i) for i in range(len(columns))], columns).split("\n")[1:-1]
    return [list(col) for col in zip(*(row.split(",") for row in rows))]


def str_cells(columns):
    return [[str(x) for x in c.tolist()] for c in columns]


def test_csv_cells_of_shared_bit_patterns(monkeypatch):
    # 0 and 0.0, and 4607182418800017408 and 1.0, have the same 64 bits
    memo = fresh_cell_memo(monkeypatch)
    ints = np.array([0, 4607182418800017408, 0, -1], dtype=np.int64)
    floats = np.array([0.0, 1.0, -0.0, 1.0])
    assert floats.view(np.int64)[:2].tolist() == ints[:2].tolist()
    for columns in ([ints, floats], [floats, ints], [floats], [ints], [ints, floats]):
        assert csv_cells(columns) == str_cells(columns)
    assert csv_cells([ints])[0] == ["0", "4607182418800017408", "0", "-1"]
    assert csv_cells([floats])[0] == ["0.0", "1.0", "-0.0", "1.0"]
    assert memo[np.dtype(np.int64)][0] == "0" and memo[np.dtype(np.float64)][0] == "0.0"


def test_csv_cells_of_signed_zeros_and_nan_payloads(monkeypatch):
    fresh_cell_memo(monkeypatch)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF8000000000ABC], dtype=np.uint64).view(np.float64)
    assert np.isnan(nans).all() and len(set(nans.view(np.int64).tolist())) == 4
    floats = np.concatenate([nans, [-0.0, 0.0, -0.0, math.inf, -math.inf, 5e-324]])
    strided = np.stack([floats, -floats], axis=1)[::-1, 0]   # a view with a stride
    for columns in ([floats], [floats, strided], [strided[::2]]):
        assert csv_cells(columns) == str_cells(columns)
    assert csv_cells([floats])[0][:6] == ["nan"] * 4 + ["-0.0", "0.0"]


@pytest.mark.parametrize("cap", [5, None])
def test_csv_cell_memo_is_emptied_past_its_cap(monkeypatch, cap):
    memo = fresh_cell_memo(monkeypatch, cap)
    cap = walk_module._CELL_MEMO_CAP
    rng = np.random.default_rng(3)
    seen = []
    for size in (3, 2, 4, cap + 1, 1, cap, 7):
        col = rng.standard_normal(size)
        ints = rng.integers(-2**63, 2**63 - 1, size=size, dtype=np.int64)
        again = np.concatenate([col, *seen[-2:]])       # values formatted before
        seen.append(col)
        for columns in ([col, ints], [again]):
            assert csv_cells(columns) == str_cells(columns)
            assert all(len(m) <= cap for m in memo.values())
    # every kept entry is str() of the value its bits hold
    for dtype, m in memo.items():
        keys = np.array(list(m), dtype=np.int64)
        assert list(m.values()) == [str(x) for x in keys.view(dtype).tolist()]


def test_log_mode_csv_extended_notation():
    rec = run_walk(TRIANGLE, 10**4, seed=3)
    text = rec.to_csv()
    # magnitudes beyond float range must appear in mantissa-e-exponent form
    assert "e+" in text.split("\n")[-2]


@pytest.mark.parametrize("log10_value, sign, text", [
    (801 - 1e-13, 1.0, "1e+801"),       # :.12g rounds a mantissa of 9.9999999999974 to 10
    (801 - 1e-13, -1.0, "-1e+801"),
    (801 - 1e-11, 1.0, "9.99999999977e+800"),
    (800.5, -1.0, "-3.16227766017e+800"),
])
def test_log_value_mantissa_below_ten(log10_value, sign, text):
    assert walk_module._format_log_value(log10_value / walk_module._LOG10_E, sign) == text
