"""Cap-visit accounting, verdicts, and multi-run consensus."""
import numpy as np
import pytest

from walkangles.directions import (IN, OUT, UNDECIDED, CapVisitAccumulator,
                                   EstimatorConfig, combine_runs)
from walkangles.samplers import (coordinate_product, constant, rademacher,
                                 s_two_sided)
from walkangles.walk import run_walk

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def small_config(**kw):
    base = dict(grid_m=64, cap_radius=0.3, escape_r0=10.0, escape_levels=3,
                min_top_level=1, v_min=1)
    base.update(kw)
    return EstimatorConfig(**base)


def test_origin_recorded_nowhere():
    acc = CapVisitAccumulator(small_config(), 2)
    acc.record_visit([0.0, 0.0], 5)
    assert acc.visits.sum() == 0


def test_visit_hits_all_levels():
    # levels are 10, 20, 40, 80; a visit at norm 100 lands beyond every one
    acc = CapVisitAccumulator(small_config(), 2)
    acc.record_visit(100.0 * E1, 3)
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    assert np.array_equal(acc.visits[e1_idx], [1, 1, 1, 1])
    # nothing accrues to the antipode
    anti = int(np.argmin(np.linalg.norm(acc.grid + E1, axis=1)))
    assert acc.visits[anti].sum() == 0


def test_below_lowest_level_ignored():
    acc = CapVisitAccumulator(small_config(), 2)
    acc.record_visit(5.0 * E1, 2)
    assert acc.visits.sum() == 0


def test_level_edge_is_strict():
    acc = CapVisitAccumulator(small_config(), 2)
    acc.record_visit(10.0 * E1, 1)     # norm == R_0 exactly: not beyond it
    assert acc.visits.sum() == 0
    acc.record_visit(10.0000001 * E1, 2)
    assert acc.visits.sum() > 0


def test_cascade_invariant():
    acc = CapVisitAccumulator(small_config(), 2)
    rng = np.random.default_rng(3)
    for n in range(1, 400):
        acc.record_visit(rng.standard_normal(2) * rng.exponential(40), n)
    diffs = np.diff(acc.visits, axis=1)
    assert np.all(diffs <= 0)           # visits(u, l+1) <= visits(u, l)


def test_finalize_axis_walk():
    acc = CapVisitAccumulator(small_config(v_min=3), 2)
    for n in range(1, 200):
        acc.record_visit(float(n) * E1, n)
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
        acc.record_visit(12.0 * E1, n)    # only level 0 ever reached
    est = acc.finalize()
    assert not np.any(est.verdicts == IN)


def test_graded_needs_two_windows():
    cfg = small_config(alphas=(0.5,), kappa=0.1)
    acc = CapVisitAccumulator(cfg, 2)
    acc.record_visit(50.0 * E1, 2)     # window floor(log2 2) = 1
    est = acc.finalize()
    e1_idx = int(np.argmin(np.linalg.norm(acc.grid - E1, axis=1)))
    assert not est.graded_in[e1_idx, 0]
    acc.record_visit(80.0 * E1, 5)     # window 2: second distinct window
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
        acc.record_visit(float(n) * E1, n)
    est = acc.finalize()
    cons = combine_runs([est] * 10)
    assert np.all(cons.agreement == 1.0)
    assert np.array_equal(cons.verdicts, est.verdicts)


def test_combine_rejects_mismatched_grids():
    a = (CapVisitAccumulator(small_config(), 2)
         .record_visit(40.0 * E1, 1).finalize())
    b = (CapVisitAccumulator(small_config(grid_m=32), 2)
         .record_visit(40.0 * E1, 1).finalize())
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
        acc.record_visit(float(n) * E1, n)
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
    acc.record_visit(np.array([30.0, 0.0, 0.0]), 4)
    est = acc.finalize()
    assert est.notes.get("graded_alpha_below_half") == "EXPECTED_FULL"
