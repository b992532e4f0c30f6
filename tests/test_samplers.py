"""Sampler tail identities, spec invariants, and JSON round trips."""
import math

import numpy as np
import pytest

from walkangles.rng import run_seed, stream
from walkangles.samplers import (IncrementSampler, InvalidParameterError,
                                 InvalidSpecError, Saturations,
                                 coordinate_product, constant,
                                 linear_combination, log_tail, radial_product,
                                 rademacher, s_one_sided, s_two_sided,
                                 spec_from_json, spec_to_json, stretched_exp,
                                 SATURATION_CAP, _is_int64, _magnitude_from_uniform)

N_BIG = 10**6


class FixedUniform:
    """Stand-in generator whose random() returns scripted values."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size):
        return np.full(size, self.values.pop(0))


def test_rademacher_symmetry():
    rng = stream(11)
    draws = rademacher().sample(rng, N_BIG)
    assert set(np.unique(draws)) == {-1, 1}
    assert abs(draws.mean()) <= 0.003
    # 6-sigma binomial band around 1/2 at a million draws is +-0.003
    assert 0.498 <= np.mean(draws == 1) <= 0.502


def test_rademacher_seed_determinism():
    a = rademacher().sample(stream(5), 1000)
    b = rademacher().sample(stream(5), 1000)
    assert np.array_equal(a, b)


def test_two_sided_inverse_identity():
    # U = 0.5, alpha = 1: floor(0.5**-1) = 2
    assert _magnitude_from_uniform(0.5, 1.0, None) == 2
    # U = 0.9, alpha = 1: floor(1/0.9) = 1
    assert _magnitude_from_uniform(0.9, 1.0, None) == 1


def test_two_sided_magnitude_floor():
    draws = s_two_sided(0.7).sample(stream(7), 10000)
    assert np.all(np.abs(draws) >= 1)


def test_two_sided_exact_tail():
    draws = s_two_sided(0.5).sample(stream(13), N_BIG)
    # P(|zeta| >= 4) = 4**-0.5 = 1/2 exactly
    assert abs(np.mean(np.abs(draws) >= 4) - 0.5) <= 0.002


def test_one_sided_exact_tail():
    draws = s_one_sided(1.0).sample(stream(17), N_BIG)
    assert np.all(draws >= 1)
    assert abs(np.mean(draws >= 10) - 0.1) <= 0.001


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidParameterError):
        s_two_sided(0.0)
    with pytest.raises(InvalidParameterError):
        s_one_sided(-1.0)


def test_log_tail_inverse_identity():
    # U = 0.5 -> xi = e**2, and P(xi > e**2) = 1/log(e**2) = 1/2
    rng = FixedUniform(0.5)  # uniform_open gives 1 - 0.5 = 0.5
    assert log_tail().sample(rng, 1)[0] == pytest.approx(math.e**2, rel=1e-12)


def test_log_tail_support_floor():
    draws = log_tail().sample(stream(19), 10000)
    assert np.all(draws >= math.e)


def test_stretched_exp_tail():
    draws = stretched_exp(0.4).sample(stream(23), N_BIG)
    # (log e)**0.4 = 1, so P(xi > e) = exp(-1)
    assert abs(np.mean(draws > math.e) - math.exp(-1)) <= 0.002


def test_stretched_exp_beta_range():
    with pytest.raises(InvalidParameterError):
        stretched_exp(0.5)
    with pytest.raises(InvalidParameterError):
        stretched_exp(0.7)


def test_saturation_counted_not_clipped_silently():
    counter = Saturations()
    draws = s_one_sided(0.05).sample(stream(29), 2000, counter)
    assert counter.count > 0
    assert draws.max() == SATURATION_CAP
    assert np.all(draws <= SATURATION_CAP)


# ---------------------------------------------------------------------------
# increment specs

def test_coordinate_product_structure():
    spec = coordinate_product([constant(1), rademacher()])
    sampler = IncrementSampler(spec)
    block = sampler.sample_block(stream(3), 256)
    assert np.all(block.vectors[:, 0] == 1)
    assert set(np.unique(block.vectors[:, 1])) == {-1, 1}


def test_radial_degenerate_single_atom():
    spec = radial_product([[1.0]], [1.0], constant(1))
    sampler = IncrementSampler(spec)
    block = sampler.sample_block(stream(3), 64)
    assert np.all(block.vectors == 1.0)
    assert np.all(block.atom_idx == 0)


def test_linear_combination_positive_quadrant():
    spec = linear_combination([[1.0, 0.0], [0.0, 1.0]],
                              [s_one_sided(0.5), s_one_sided(0.5)])
    block = IncrementSampler(spec).sample_block(stream(31), 4096)
    assert np.all(block.vectors >= 1)      # both coordinates at least 1


def test_not_genuinely_d_dimensional_rejected():
    with pytest.raises(InvalidSpecError, match="dimension"):
        coordinate_product([constant(0), rademacher()])
    with pytest.raises(InvalidSpecError, match="dimension"):
        radial_product([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5], s_one_sided(1.0))


@pytest.mark.parametrize("law", [s_two_sided, s_one_sided, constant, stretched_exp])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   pytest.param(10**400, id="10**400"),
                                   pytest.param(-10**400, id="-10**400")])
def test_non_finite_law_parameter_rejected(law, value):
    with pytest.raises(InvalidParameterError, match="finite"):
        law(value)


def test_non_finite_spec_numbers_rejected():
    with pytest.raises(InvalidSpecError, match="drift"):
        coordinate_product([rademacher(), rademacher()], drift=[math.nan, 0.0])
    with pytest.raises(InvalidSpecError, match="atoms"):
        linear_combination([[math.inf, 0.0], [0.0, 1.0]], [rademacher(), rademacher()])
    with pytest.raises(InvalidSpecError, match="probabilities"):
        radial_product([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.5], s_one_sided(1.0))


def test_spec_int_too_large_for_float_rejected():
    # the Python API reaches no JSON check; float(10**400) raises OverflowError
    with pytest.raises(InvalidSpecError, match="drift must be finite"):
        coordinate_product([rademacher(), rademacher()], drift=[10**400, 0])
    with pytest.raises(InvalidSpecError, match="atoms must be finite"):
        linear_combination([[10**400, 0], [0, 1]], [rademacher(), rademacher()])
    with pytest.raises(InvalidSpecError, match="probabilities must be finite"):
        radial_product([[1.0, 0.0], [0.0, 1.0]], [-10**400, 0.5], s_one_sided(1.0))


def test_overflowing_support_rejected_before_rank():
    # support points past float range, and two infinite terms that cancel to
    # nan, are named as an overflow rather than passed to matrix_rank
    with pytest.raises(InvalidSpecError, match="overflow"):
        linear_combination([[1e308, 1e308], [0, 1]], [s_one_sided(0.5), rademacher()])
    with pytest.raises(InvalidSpecError, match="overflow"):
        linear_combination([[10, 0], [10, 0], [0, 1]],
                           [constant(1e308), constant(-1e308), rademacher()])


def test_handled_overflow_draws_no_warning():
    # the suite turns numpy warnings into errors: each draw below overflows
    # by design and must not warn
    counter = Saturations()
    mags = s_two_sided(0.005).sample(stream(0), 4096, counter)
    assert counter.count > 0 and np.abs(mags).max() == SATURATION_CAP
    assert not np.isfinite(stretched_exp(0.001).sample_log(stream(0), 4096)).all()
    spec = linear_combination([[1e300, 0.0], [1e300, 0.0], [0.0, 1.0]],
                              [s_two_sided(0.01), s_two_sided(0.01), rademacher()])
    vectors = IncrementSampler(spec).sample_block(stream(0), 4096).vectors
    assert np.isinf(vectors[:, 0]).any() and np.isnan(vectors[:, 0]).any()


def test_radial_validation():
    with pytest.raises(InvalidSpecError, match="unit"):
        radial_product([[1.0, 1.0]], [1.0], s_one_sided(1.0))
    with pytest.raises(InvalidSpecError, match="sum"):
        radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.4], s_one_sided(1.0))
    with pytest.raises(InvalidSpecError, match="nonnegative"):
        radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], s_two_sided(1.0))


def test_scale_modes():
    assert coordinate_product([constant(1), rademacher()]).scale_mode == "lattice"
    assert coordinate_product([constant(1.5), rademacher()]).scale_mode == "float"
    assert radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5],
                          log_tail()).scale_mode == "log"
    assert radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5],
                          s_one_sided(1.0)).scale_mode == "float"


@pytest.mark.parametrize("spec", [
    coordinate_product([constant(1), s_two_sided(0.5)]),
    coordinate_product([rademacher(), s_two_sided(1.5)], drift=(0, 1)),
    radial_product([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75], log_tail()),
    linear_combination([[1.0, 0.0], [0.0, 1.0]], [s_one_sided(0.5), s_one_sided(2.0)]),
    coordinate_product([s_two_sided(1.1), s_two_sided(1.1), rademacher()]),
])
def test_json_round_trip_identity(spec):
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert again == spec
    assert spec_to_json(again) == text


def test_json_error_names_field():
    with pytest.raises(InvalidSpecError, match=r"laws\[1\]"):
        spec_from_json('{"dimension": 2, "form": "coordinate_product", '
                       '"laws": [{"name": "rademacher"}, '
                       '{"name": "s_two_sided", "alpha": -1}]}')
    with pytest.raises(InvalidSpecError, match="dimension"):
        spec_from_json('{"form": "coordinate_product", "laws": []}')


def test_block_sampling_deterministic_bytes():
    spec = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], log_tail())
    a = IncrementSampler(spec).sample_block(stream(run_seed(42, 3)), 512)
    b = IncrementSampler(spec).sample_block(stream(run_seed(42, 3)), 512)
    assert a.xi_log.tobytes() == b.xi_log.tobytes()
    assert a.atom_idx.tobytes() == b.atom_idx.tobytes()
    c = IncrementSampler(spec).sample_block(stream(run_seed(42, 4)), 512)
    assert a.xi_log.tobytes() != c.xi_log.tobytes()


def test_empty_factories_name_what_is_missing():
    with pytest.raises(InvalidSpecError, match="direction atom"):
        radial_product([], [], log_tail())
    with pytest.raises(InvalidSpecError, match="fixed vectors"):
        linear_combination([], [])
    with pytest.raises(InvalidSpecError, match="dimension"):
        coordinate_product([])


# ---------------------------------------------------------------------------
# a coordinate product is the linear combination of the unit axes plus its
# drift: the two-branch sampler and lattice bound below are the oracle

def oracle_is_lattice(spec):
    """The lattice bound with one branch per form and per-law integer kinds."""
    def integer_valued(law):
        if law.kind == "constant":
            return _is_int64(law.param)
        return law.kind in ("rademacher", "s_two_sided", "s_one_sided", "constant")

    def max_abs(law):
        if law.kind == "rademacher":
            return 1
        if law.kind == "constant":
            return abs(int(law.param))
        return SATURATION_CAP

    if spec.form == "radial_product":
        return False
    if not all(integer_valued(law) for law in spec.laws):
        return False
    if spec.form == "coordinate_product":
        drift = spec.drift or (0.0,) * spec.dimension
        if not all(_is_int64(x) for x in drift):
            return False
        bounds = [max_abs(law) + abs(int(x)) for law, x in zip(spec.laws, drift)]
    else:
        if not all(_is_int64(x) for v in spec.atoms for x in v):
            return False
        bounds = [sum(max_abs(law) * abs(int(v[i])) for law, v in zip(spec.laws, spec.atoms))
                  for i in range(spec.dimension)]
    return max(bounds) <= 2**63 - 1


def oracle_vectors(spec, rng, size, saturations):
    """A block from the stacked coordinate formula or the broadcast linear one."""
    dtype = np.int64 if oracle_is_lattice(spec) else float
    if spec.form == "coordinate_product":
        cols = [law.sample(rng, size, saturations) for law in spec.laws]
        vec = np.stack([np.asarray(c, dtype=dtype) for c in cols], axis=1)
        if spec.drift is not None:
            vec = vec + np.asarray(spec.drift, dtype=dtype)
        return vec
    draws = [law.sample(rng, size, saturations) for law in spec.laws]
    vec = np.zeros((size, spec.dimension), dtype=dtype)
    for z, v in zip(draws, np.asarray(spec.atoms, dtype=dtype)):
        vec += np.asarray(z, dtype=dtype)[:, None] * v
    return vec


COORDINATE_LAWS = {
    "lattice": [rademacher(), s_two_sided(0.5), s_one_sided(1.5), constant(-3)],
    "float": [constant(1.5), s_two_sided(1.1), rademacher(), s_one_sided(0.7)],
    "heavy-real": [log_tail(), stretched_exp(0.3), rademacher(), s_two_sided(0.05)],
}
DRIFTS = {"none": None, "int": [3, -2, 0, 5], "float": [0.5, -1.25, 0.0, 2.0]}

ORACLE_SPECS = {
    **{f"{laws}-{drift}-d{d}": coordinate_product(
        COORDINATE_LAWS[laws][:d], None if DRIFTS[drift] is None else DRIFTS[drift][:d])
       for laws in COORDINATE_LAWS for drift in DRIFTS for d in (2, 3, 4)},
    "lin-int": linear_combination([[1, -2], [0, 3]], [rademacher(), s_two_sided(0.7)]),
    "lin-float": linear_combination([[0.5, 0.0], [-1.5, 2.25]], [s_one_sided(1.2), constant(-2)]),
    "lin-d3": linear_combination([[1, 0, -1], [0, 2, 0], [-3, 0, 1]],
                                 [s_two_sided(0.2), rademacher(), constant(7)]),
    "lin-heavy": linear_combination([[1.0, -1.0], [0.0, -0.5]], [log_tail(), stretched_exp(0.2)]),
    # the int64 edges of tests/test_walk.py
    "edge-drift-sum": coordinate_product([constant(2**63 - 1024), rademacher()],
                                         drift=[2**63 - 1024, 0]),
    "edge-vector-product": linear_combination([[4, 0], [0, 1]], [constant(2**62), rademacher()]),
    "edge-saturated-drift-over": coordinate_product([s_two_sided(1.0), rademacher()],
                                                    drift=[2**62, 0]),
    "edge-saturated-drift-near": coordinate_product([s_two_sided(1.0), rademacher()],
                                                    drift=[2**62 - 1024, 0]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_sample_block_matches_two_branch_formulas(name):
    spec = ORACLE_SPECS[name]
    sampler, oracle_rng, oracle_saturations = IncrementSampler(spec), stream(41), Saturations()
    rng = stream(41)
    for size in (1, 7, 2**14):
        got = sampler.sample_block(rng, size).vectors
        want = oracle_vectors(spec, oracle_rng, size, oracle_saturations)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert sampler.saturations.count == oracle_saturations.count


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_lattice_bound_matches_two_branch_bound(name):
    spec = ORACLE_SPECS[name]
    assert spec.is_lattice == oracle_is_lattice(spec)
    assert spec.scale_mode == ("lattice" if oracle_is_lattice(spec) else "float")
