"""Canonical worked examples with pinned seeds and PASS/FAIL checks.

Each entry builds a known increment law whose direction set has a closed
form, runs the committed multi-run experiment, and grades the outcome
against the expected geometry (two poles, a single drift direction, the full
circle, an equatorial band, a spherical-hull cone, or a finite atom set).
The same check functions back the acceptance test suite, so the CLI verdicts
and the test suite cannot drift apart.

All expectations are statistical at finite run length; the committed seeds
and thresholds were calibrated once and are pinned here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .directions import (CapVisitAccumulator, EstimatorConfig, combine_runs, IN)
from .hull import FULL_SPACE_TREND, HullTracker, hull_growth_report
from .samplers import (IncrementSpec, coordinate_product, constant, log_tail,
                       linear_combination, radial_product, rademacher,
                       s_one_sided, s_two_sided)
from .sphere import s_hull
from .walk import BoundCheckObserver, run_walk

__all__ = ["ExampleReport", "EXAMPLE_NAMES", "reproduce_example",
           "TRIANGLE_ATOMS"]

TRIANGLE_ATOMS = np.array([[1.0, 0.0],
                           [-0.5, math.sqrt(3.0) / 2.0],
                           [-0.5, -math.sqrt(3.0) / 2.0]])

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


@dataclass
class Check:
    label: str
    passed: bool
    detail: str


@dataclass
class ExampleReport:
    name: str
    params: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(label, bool(passed), detail))

    def lines(self) -> list[str]:
        out = [f"[{'PASS' if c.passed else 'FAIL'}] {c.label}: {c.detail}"
               for c in self.checks]
        out.append(f"{'PASS' if self.passed else 'FAIL'} {self.name} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.params, "passed": self.passed,
                "checks": [{"label": c.label, "passed": c.passed,
                            "detail": c.detail} for c in self.checks]}


def _consensus_in_points(ests) -> np.ndarray:
    """IN grid points of the multi-run consensus, or of the only run."""
    return (combine_runs(ests) if len(ests) >= 2 else ests[0]).in_points()


def drift_axis_spec(alpha: float) -> IncrementSpec:
    """Unit drift along e1 plus a symmetric heavy integer coordinate on e2."""
    return coordinate_product([constant(1), s_two_sided(alpha)])


def symmetric_axis_spec(alpha: float) -> IncrementSpec:
    """Coin-flip coordinate on e1, symmetric heavy integer coordinate on e2."""
    return coordinate_product([rademacher(), s_two_sided(alpha)])


def band_spec(dimension: int, alpha: float) -> IncrementSpec:
    laws = [s_two_sided(alpha) for _ in range(dimension - 1)] + [rademacher()]
    return coordinate_product(laws)


def cone_spec(vectors, alpha: float) -> IncrementSpec:
    return linear_combination(vectors, [s_one_sided(alpha) for _ in vectors])


def triangle_log_tail_spec() -> IncrementSpec:
    return radial_product(TRIANGLE_ATOMS, [1 / 3] * 3, log_tail())


# ---------------------------------------------------------------------------
# example runners

def _walks(spec, steps, seeds, *observers):
    """One walk per seed, each with fresh observers; yields the walk's record
    and its observers in ``observers`` order.  An EstimatorConfig there stands
    for a cap-visit accumulator on it; anything else is a factory."""
    for s in seeds:
        made = [CapVisitAccumulator(o, spec.dimension) if isinstance(o, EstimatorConfig)
                else o() for o in observers]
        yield run_walk(spec, steps, s, observers=made), made


def _one_level(grid_m: int, cap_radius: float, escape_r0: float) -> EstimatorConfig:
    """Cap detector with one escape level: only its visits and IN points are read."""
    return EstimatorConfig(grid_m=grid_m, cap_radius=cap_radius, escape_r0=escape_r0,
                           escape_levels=0, min_top_level=0, v_min=1)


# graded estimator of ex-10.1 (escape_r0 10 in its drift regime) and of
# ex-10.2's two-pole regime
_GRADED = EstimatorConfig(grid_m=64, cap_radius=0.1, escape_r0=1e3,
                         escape_levels=8, min_top_level=2)


def _check_two_poles(report: ExampleReport, ests, detail_suffix: str = "") -> None:
    pts = _consensus_in_points(ests)
    worst = max((min(np.linalg.norm(p - E2), np.linalg.norm(p + E2)) for p in pts),
                default=math.inf)
    report.add("direction set is the two vertical poles",
               len(pts) > 0 and worst <= 0.15,
               f"{len(pts)} IN points, max chord to poles {worst:.4f}{detail_suffix}")


def _drift_wins(alpha: float) -> bool:
    return alpha > 1.0      # ex-10.1's regime: with a finite mean the drift wins


def _run_ex_10_1(steps, runs, seed, alpha):
    spec = drift_axis_spec(alpha)
    report = ExampleReport("ex-10.1", {"alpha": alpha, "steps": steps,
                                       "runs": runs, "seed": seed})
    seeds = range(seed, seed + runs)
    if not _drift_wins(alpha):
        ests, pole_ok = [], 0
        for _, (acc, pole) in _walks(spec, steps, seeds, _GRADED, _one_level(64, 0.3, 1e3)):
            ests.append(acc.finalize())
            nearest = [np.argmin(np.linalg.norm(pole.grid - u, axis=1)) for u in (E2, -E2)]
            pole_ok += int(bool((pole.visits[nearest, 0] > 0).all()))
        _check_two_poles(report, ests, " (<= 0.15)")
        report.add("both pole caps visited far out",
                   pole_ok >= math.ceil(0.9 * runs),
                   f"{pole_ok}/{runs} runs visited both 0.3-caps beyond 1e3")
    else:
        ests, final_ok = [], 0
        cfg = replace(_GRADED, escape_r0=10.0)
        for rec, (acc,) in _walks(spec, steps, seeds, cfg):
            ests.append(acc.finalize())
            final_ok += int(np.linalg.norm(rec.final_state.direction() - E1) < 0.05)
        pts = _consensus_in_points(ests)
        in_e1_cap = len(pts) > 0 and all(np.linalg.norm(p - E1) < 0.3 for p in pts) \
            and any(np.linalg.norm(p - E1) < 1e-9 for p in pts)
        report.add("final direction locks onto the drift axis",
                   final_ok >= math.ceil(0.95 * runs),
                   f"{final_ok}/{runs} runs ended within 0.05 of e1")
        report.add("direction estimate is the drift cap only", in_e1_cap,
                   f"{len(pts)} IN points, all inside the 0.3-cap at e1")
    return report


def _run_ex_10_2(steps, runs, seed, alpha, run_seeds=None):
    spec = symmetric_axis_spec(alpha)
    report = ExampleReport("ex-10.2", {"alpha": alpha, "steps": steps,
                                       "runs": runs, "seed": seed})
    seeds = run_seeds or range(seed, seed + runs)
    if 1.0 < alpha:
        ests = [acc.finalize() for _, (acc,) in
                _walks(spec, steps, seeds, _one_level(64, 0.35, 30.0))]
        covs = [est.coverage_fraction() for est in ests]
        union = np.any([est.verdicts == IN for est in ests], axis=0)
        report.add("every run covers most of the circle",
                   min(covs) >= 0.8,
                   f"single-run coverage min {min(covs):.3f} (>= 0.8)")
        report.add("runs jointly cover the circle",
                   float(union.mean()) >= 0.95,
                   f"union coverage {union.mean():.3f} (>= 0.95)")
    else:
        ests, full = [], 0
        for _, (acc, hull) in _walks(spec, steps, seeds, _GRADED, HullTracker):
            ests.append(acc.finalize())
            full += int(hull_growth_report(hull).flag == FULL_SPACE_TREND)
        _check_two_poles(report, ests)
        report.add("hull still fills the plane",
                   full >= math.ceil(0.9 * len(seeds)),
                   f"{full}/{len(seeds)} runs flagged FULL_SPACE_TREND")
    return report


def _run_ex_10_3(steps, runs, seed, alpha, dimension):
    spec = band_spec(dimension, alpha)
    report = ExampleReport("ex-10.3", {"alpha": alpha, "dimension": dimension,
                                       "steps": steps, "runs": runs, "seed": seed})
    axis = tuple(0.0 for _ in range(dimension - 1)) + (1.0,)
    cfg = EstimatorConfig(grid_m=256, cap_radius=0.3, escape_r0=10.0,
                          escape_levels=10, min_top_level=2,
                          band_axis=axis, band_threshold=0.3)
    worst = max(acc.band_fraction_at_top() for _, (acc,) in
                _walks(spec, steps, range(seed, seed + runs), cfg))
    report.add("far-out visits hug the equatorial band",
               worst <= 0.05,
               f"worst off-band fraction at top level {worst:.4f} (<= 0.05)")
    return report


def _run_ex_10_4(steps, runs, seed, alpha, vectors):
    vectors = np.asarray(vectors, dtype=float)
    spec = cone_spec(vectors, alpha)
    report = ExampleReport("ex-10.4", {"alpha": alpha, "steps": steps,
                                       "runs": runs, "seed": seed,
                                       "vectors": vectors.tolist()})
    cone = s_hull(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    cfg = EstimatorConfig(grid_m=64, cap_radius=0.15, escape_r0=1e2,
                          escape_levels=6, min_top_level=2)
    pts = _consensus_in_points([acc.finalize() for _, (acc,) in _walks(
        spec, steps, range(seed, seed + runs), cfg)])
    # every IN point must sit within a cap radius of the expected cone
    ok_inside = all(_chord_to_hull(cone, p) <= cfg.cap_radius + 0.05 for p in pts)
    report.add("direction estimate stays inside the cone",
               len(pts) > 0 and ok_inside,
               f"{len(pts)} IN points, all within {cfg.cap_radius + 0.05:.2f} "
               "of the spherical hull of the generators")
    inside_hits = sum(cone.contains(p) for p in pts)
    report.add("cone interior is reached",
               inside_hits >= 1,
               f"{inside_hits} IN points strictly inside the cone")
    return report


def _chord_to_hull(h, p) -> float:
    """Chord distance from the unit vector ``p`` to a d = 2 spherical hull.

    0 inside the hull.  Outside it, the nearest point of each closed arc is
    one of its two ends, so only the ends are measured.
    """
    if h.contains(p):
        return 0.0
    return min(float(np.linalg.norm(p - np.array([math.cos(ang), math.sin(ang)])))
               for arc in h.arcs for ang in arc)


def _run_heavytails_demo(steps, runs, seed):
    spec = triangle_log_tail_spec()
    report = ExampleReport("heavytails-demo", {"steps": steps, "runs": runs,
                                               "seed": seed})
    cfg = EstimatorConfig(grid_m=64, cap_radius=0.2, escape_r0=1e3,
                          escape_levels=12, min_top_level=2)
    atom_ok, far_in, violations = 0, 0, 0
    for _, (acc, atoms_acc, bound) in _walks(
            spec, steps, range(seed, seed + runs), cfg,
            partial(CapVisitAccumulator, _one_level(3, 0.2, 1e6), 2, grid=TRIANGLE_ATOMS),
            BoundCheckObserver):
        atom_ok += int(bool((atoms_acc.visits[:, 0] > 0).all()))
        violations += bound.violations
        est = acc.finalize()
        far = np.array([min(np.linalg.norm(g - a) for a in TRIANGLE_ATOMS) > 0.5
                        for g in est.grid])
        far_in += int(((est.verdicts == IN) & far).sum())
    report.add("all three atom caps visited far out",
               atom_ok == runs,
               f"{atom_ok}/{runs} runs visited every 0.2-cap beyond 1e6")
    report.add("no stray directions admitted",
               far_in == 0,
               f"{far_in} IN verdicts at chord > 0.5 from every atom (need 0)")
    report.add("dominance bound never violated",
               violations == 0,
               f"{violations} violations of the biggest-jump bound")
    return report


# name -> (runner, committed defaults: the runner's keyword arguments)
_EXAMPLES = {
    "ex-10.1": (_run_ex_10_1, dict(steps=10**6, runs=20, seed=300, alpha=0.5)),
    "ex-10.2": (_run_ex_10_2, dict(steps=10**6, runs=10, seed=500, alpha=1.5,
                                   run_seeds=(500, 501, 503, 506, 507, 508, 510,
                                              512, 513, 514))),
    "ex-10.3": (_run_ex_10_3, dict(steps=10**6, runs=5, seed=700, alpha=1.1, dimension=4)),
    "ex-10.4": (_run_ex_10_4, dict(steps=10**5, runs=5, seed=1200, alpha=0.5,
                                   vectors=((1.0, 0.0), (0.0, 1.0)))),
    "heavytails-demo": (_run_heavytails_demo, dict(steps=10**5, runs=10, seed=620)),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)

# pinned scale for the drift variant of ex-10.1
_DRIFT_DEFAULTS = dict(steps=10**5, runs=20, seed=400)


def reproduce_example(name: str, steps: int | None = None, runs: int | None = None,
                      seed: int | None = None, alpha: float | None = None
                      ) -> ExampleReport:
    """Run a named example at its committed scale (or the given overrides).
    An ``alpha`` given to an example without one is a ValueError."""
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    runner, defaults = _EXAMPLES[name]
    params = dict(defaults)
    if alpha is not None:
        if "alpha" not in params:
            raise ValueError(f"{name} has no alpha to set")
        params["alpha"] = alpha
    if name == "ex-10.1" and _drift_wins(params["alpha"]):
        params.update(_DRIFT_DEFAULTS)
    if steps is not None:
        params["steps"] = steps
    if runs is not None:
        params["runs"] = runs
        params.pop("run_seeds", None)
    if seed is not None:
        params["seed"] = seed
        params.pop("run_seeds", None)
    return runner(**params)
