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
                                 SATURATION_CAP, _magnitude_from_uniform)

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
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
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
