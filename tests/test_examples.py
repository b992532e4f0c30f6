"""Worked-example plumbing: the closed-form arc distance, the ex-10.1 regime
rule and the arguments an example refuses."""
import math

import numpy as np
import pytest

from walkangles.examples import _chord_to_hull, reproduce_example
from walkangles.sphere import s_hull


def sampled_chord_to_hull(h, p) -> float:
    """Oracle: the distance searched over 64 evenly spaced points per arc."""
    if h.contains(p):
        return 0.0
    best = math.inf
    for s, e in h.arcs:
        for ang in np.linspace(s, e, 64):
            best = min(best, float(np.linalg.norm(
                p - np.array([math.cos(ang), math.sin(ang)]))))
    return best


def test_chord_to_hull_equals_sampled_search():
    # outside a closed arc, the nearest arc point is an end, and linspace
    # holds both ends exactly, so the two agree to the last bit
    rng = np.random.default_rng(20)
    for _ in range(400):
        gens = rng.normal(size=(int(rng.integers(1, 4)), 2))
        hull = s_hull(gens / np.linalg.norm(gens, axis=1, keepdims=True))
        for ang in rng.uniform(0.0, 2 * math.pi, size=8):
            p = np.array([math.cos(ang), math.sin(ang)])
            assert _chord_to_hull(hull, p) == sampled_chord_to_hull(hull, p)


def test_ex_10_1_regime_is_decided_once():
    # alpha = 1 has no finite mean, so the drift does not win: the two-pole
    # checks run, as the two-pole committed scale was chosen for them
    report = reproduce_example("ex-10.1", steps=2**10, runs=2, alpha=1.0)
    assert [c.label for c in report.checks] == ["direction set is the two vertical poles",
                                                "both pole caps visited far out"]
    assert report.params["seed"] == 300
    drift = reproduce_example("ex-10.1", steps=2**10, runs=2, alpha=1.01)
    assert drift.checks[0].label == "final direction locks onto the drift axis"
    assert drift.params["seed"] == 400


def test_example_without_alpha_refuses_one():
    with pytest.raises(ValueError, match="heavytails-demo has no alpha"):
        reproduce_example("heavytails-demo", steps=64, runs=1, alpha=1.0)
    with pytest.raises(KeyError):
        reproduce_example("no-such-example")
