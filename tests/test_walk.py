"""Walk engine: stepping, biggest-jump recursion, bound checks, records."""
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkangles.rng import stream
from walkangles.samplers import (IncrementSampler, coordinate_product,
                                 constant, linear_combination, log_tail,
                                 radial_product, rademacher, s_one_sided,
                                 s_two_sided)
from walkangles.walk import (INT_SAT_LIMIT, BoundCheckObserver,
                             ObserverBase, TrajectoryRecord, UnsupportedSpecError, WalkState,
                             biggest_jump_bound_check, csv_text, dyadic_checkpoints,
                             run_walk)

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


def step(state: WalkState, draw: IncrementDraw) -> WalkState:
    """Advance one step.  Returns a new state; the input is not mutated."""
    if state.overflowed:
        return state
    new = replace(state)
    new.n = state.n + 1
    vector = draw.vector
    if vector is None and state.mode != "log":
        if not state.is_radial or draw.xi is None or draw.atom_index is None:
            raise ValueError("draw must carry a vector, or xi and atom_index "
                             "for a radial spec")
        vector = draw.xi * np.asarray(state.spec.atoms[draw.atom_index], dtype=float)
    if state.mode == "lattice":
        vec = [int(x) for x in vector]
        pos = [int(p) + v for p, v in zip(state.position, vec)]
        if any(abs(p) > INT_SAT_LIMIT for p in pos):
            new.overflowed = True
            return new
        new.position = np.array(pos, dtype=np.int64)
    elif state.mode == "float":
        new.position = state.position + np.asarray(vector, dtype=float)
        if not np.all(np.isfinite(new.position)):
            new.overflowed = True
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
    if state.is_radial:
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
    st_ = WalkState.initial(spec)
    for xi, idx in draws:
        if spec.scale_mode == "log":
            st_ = step(st_, IncrementDraw(vector=None, xi_log=math.log(xi), atom_index=idx))
        else:
            st_ = step(st_, IncrementDraw(vector=None, xi=xi, atom_index=idx))
    return st_


def test_step_vector_addition():
    spec = coordinate_product([rademacher(), rademacher()])
    st_ = WalkState.initial(spec)
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
    class Positions(ObserverBase):
        def __init__(self):
            self.blocks = []

        def observe(self, block):
            self.blocks.append(block.positions)

    spec = coordinate_product([constant(1), s_two_sided(2.0)])
    obs = Positions()
    rec = run_walk(spec, 10**4, seed=5, observers=[obs])
    assert np.array_equal(np.concatenate(obs.blocks)[:, 0],
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
    ref = WalkState.initial(spec)
    for draw in _oracle_draws(spec, block):
        ref = step(ref, draw)
    fin = run_walk(spec, n, seed=seed).final_state
    assert fin.mode == ref.mode == spec.scale_mode
    assert fin.n == ref.n == n
    if spec.scale_mode == "log":
        assert abs(fin.scale - ref.scale) < 1e-9
        assert np.allclose(fin.direction(), ref.direction(), atol=1e-12)
        assert abs(fin.xi_total - ref.xi_total) < 1e-9
        assert abs(fin.xi_rest - ref.xi_rest) < 1e-9
        assert fin.xi_max == ref.xi_max
    else:
        # the engine's running sums add in the oracle's order: exact equality
        assert np.array_equal(fin.position, ref.position)
        assert fin.xi_total == ref.xi_total
        assert fin.xi_rest == ref.xi_rest
        assert fin.xi_max == ref.xi_max
    assert fin.max_index == ref.max_index
    assert fin.atom_at_max == ref.atom_at_max


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
    # log-domain identity e^T = e^M + e^B up to float precision
    t = np.logaddexp(fin.xi_max, fin.xi_rest)
    assert abs(t - fin.xi_total) <= 1e-12 * abs(fin.xi_total)
    assert fin.xi_rest <= fin.xi_total


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


def test_float_overflow_halts_with_partial_record():
    spec = linear_combination([[0.5, 0.0], [0.0, 0.5]], [constant(1e308), rademacher()])
    assert spec.scale_mode == "float"
    with np.errstate(over="ignore"):
        rec = run_walk(spec, 10, seed=1)
    assert rec.overflowed
    assert rec.final_state.n == 3          # 1.5e308 is finite, 2e308 is not
    assert np.all(np.isfinite(rec.final_state.position))


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


def test_log_mode_csv_extended_notation():
    rec = run_walk(TRIANGLE, 10**4, seed=3)
    text = rec.to_csv()
    # magnitudes beyond float range must appear in mantissa-e-exponent form
    assert "e+" in text.split("\n")[-2]
