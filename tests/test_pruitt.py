"""Dyadic hazard ratios: exact closed forms and trend verdicts."""
import math

import numpy as np
import pytest

from walkangles.pruitt import (CONVERGENT_TREND, DIVERGENT_TREND, INCONCLUSIVE,
                               TailExhaustedError, TailFunction,
                               pruitt_diagnostic, u_sequence)


def test_log_tail_exact_closed_form():
    u = u_sequence(TailFunction("log_tail"), 64)
    # beyond r = e the ratio telescopes to 1/(k+1)
    for k in range(2, 65):
        assert abs(u[k] - 1.0 / (k + 1)) < 1e-12
    assert u[0] == 0.0          # T(1) = T(2) = 1 below the support floor


def test_poly_tail_exact_closed_form():
    for alpha in (0.5, 1.0, 1.5):
        u = u_sequence(TailFunction("poly", alpha), 64)
        assert np.max(np.abs(u - (1.0 - 2.0 ** -alpha))) < 1e-12


def test_constant_table_gives_zero():
    tail = TailFunction("custom", table=((1.0, 1.0),))
    assert np.all(u_sequence(tail, 20) == 0.0)


def test_tail_exhaustion_error():
    tail = TailFunction("custom", table=((1.0, 1.0), (4.0, 1e-30)))
    u_sequence(tail, 10)        # positive everywhere: fine
    bad = TailFunction("custom", table=((1.0, 1.0),))
    # fabricate an impossible request through a zero tail by subclass-free
    # means: poly with huge alpha underflows to exactly 0 at large k
    huge = TailFunction("poly", 50.0)
    with pytest.raises(TailExhaustedError):
        u_sequence(huge, 64)


def test_table_validation():
    with pytest.raises(ValueError, match="sorted"):
        TailFunction("custom", table=((4.0, 0.5), (2.0, 0.7)))
    with pytest.raises(ValueError, match="increases"):
        TailFunction("custom", table=((1.0, 0.5), (2.0, 0.9)))
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        TailFunction("custom", table=((1.0, 1.5),))
    with pytest.raises(ValueError):
        TailFunction("poly", -1.0)
    with pytest.raises(ValueError):
        TailFunction("stretched_exp", 0.6)


@pytest.mark.parametrize("kind, param, table", [
    ("poly", math.nan, ()),
    ("stretched_exp", math.nan, ()),
    ("custom", None, ((math.nan, 0.5),)),
    ("custom", None, ((1.0, 1.0), (math.nan, 0.5))),
    ("custom", None, ((1.0, math.nan),)),
], ids=["poly", "stretched", "custom-radius", "custom-second-radius", "custom-value"])
def test_nan_tail_rejected(kind, param, table):
    with pytest.raises(ValueError):
        TailFunction(kind, param, table)


def test_u_sequence_stays_in_float_range():
    # 2.0 ** (k + 1) overflows at k = 1023
    assert len(u_sequence(TailFunction("stretched_exp", 0.3), 1022)) == 1023
    with pytest.raises(ValueError, match="k_max must be <= 1022"):
        u_sequence(TailFunction("log_tail"), 1023)


def test_diagnostic_verdicts():
    u_log = u_sequence(TailFunction("log_tail"), 64)
    assert pruitt_diagnostic(u_log).verdict == CONVERGENT_TREND
    u_poly = u_sequence(TailFunction("poly", 1.0), 64)
    assert pruitt_diagnostic(u_poly).verdict == DIVERGENT_TREND
    alternating = np.array([0.0, 1.0] * 32)
    assert pruitt_diagnostic(alternating).verdict == INCONCLUSIVE
    u_se = u_sequence(TailFunction("stretched_exp", 0.4), 64)
    assert pruitt_diagnostic(u_se).verdict == CONVERGENT_TREND


def test_diagnostic_partial_sums():
    u = np.full(32, 0.5)
    diag = pruitt_diagnostic(u)
    assert diag.partial_sums[-1] == pytest.approx(32 * 0.25)
    assert np.all(np.diff(diag.partial_sums) >= 0)
    with pytest.raises(ValueError):
        pruitt_diagnostic(np.ones(4))


@pytest.mark.parametrize("u, min_terms", [([0.5], 1), ([0.5, 0.4], 2)])
def test_diagnostic_rejects_fits_too_short(u, min_terms):
    # one or two terms leave fewer than two points for the slope fit; the
    # suite turns numpy's warnings into errors, so only the ValueError passes
    with pytest.raises(ValueError, match="min_terms"):
        pruitt_diagnostic(u, min_terms=min_terms)
    assert pruitt_diagnostic([0.5, 0.4, 0.3], min_terms=3).verdict in (
        CONVERGENT_TREND, DIVERGENT_TREND, INCONCLUSIVE)


def test_u_values_bounded():
    for tail in (TailFunction("log_tail"), TailFunction("poly", 2.0),
                 TailFunction("stretched_exp", 0.3)):
        u = u_sequence(tail, 48)
        assert np.all((0.0 <= u) & (u <= 1.0))


def test_csv_output():
    tail = TailFunction("log_tail")
    diag = pruitt_diagnostic(u_sequence(tail, 32))
    text = diag.to_csv(tail)
    lines = text.strip().split("\n")
    assert lines[0] == "k,tail_at_2k,u_k,partial_sum_sq"
    assert len(lines) == 34


def test_dominance_ratio_shrinks_with_time():
    # the observed rest-to-max ratio of log-tail walks trends to zero:
    # its median at 1e4 steps sits below the median at 128 steps, read from
    # the dyadic checkpoint ladder
    from walkangles.samplers import radial_product, log_tail
    from walkangles.walk import run_walk
    spec = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], log_tail())
    early, late = [], []
    for seed in range(50):
        rec = run_walk(spec, 10**4, seed=seed)
        by_n = {row.n: row for row in rec.checkpoints}
        for n, sink in ((128, early), (10**4, late)):
            row = by_n[n]
            sink.append(math.exp(min(row.xi_rest - row.xi_max, 50.0)))
    assert np.median(late) < np.median(early)
