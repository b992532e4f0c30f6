"""Projection stats, trend classification, exceptional-direction scan."""
import numpy as np
import pytest

from walkangles.projections import (MINUS, OSC, PLUS, ClassifierThresholds,
                                    ProjectionTracker, classify,
                                    project_series, scan_exceptional)
from walkangles.samplers import (coordinate_product, constant, rademacher,
                                 s_two_sided)
from walkangles.walk import run_walk

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def stats_from_series(series, u=(1.0,)):
    return project_series(np.asarray(series, dtype=float)[:, None], u)


def test_project_series_drift():
    pos = np.arange(1, 1025)[:, None] * E1
    st = project_series(pos, E1)
    assert np.all(st.mins == 0.0)
    assert np.array_equal(st.maxes, np.array(st.checkpoints, dtype=float))
    st2 = project_series(pos, E2)
    assert np.all(st2.mins == 0.0) and np.all(st2.maxes == 0.0)


def test_project_series_hand_example():
    pos = np.array([[1, 1], [2, 0], [3, 1]], dtype=float)
    st = project_series(pos, E2, checkpoints=[1, 2, 3])
    assert st.mins[-1] == 0.0
    assert st.maxes[-1] == 1.0
    assert st.final == 1.0


def test_classify_monotone_series():
    n = 2**14
    up = stats_from_series(np.arange(1, n + 1, dtype=float))
    assert classify(up) == PLUS
    down = stats_from_series(-np.arange(1, n + 1, dtype=float))
    assert classify(down) == MINUS


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
        verdict = classify(stats_from_series(series))
        wins += (verdict == OSC)
    assert wins >= 45


def test_linearity_min_max_mirror():
    spec = coordinate_product([rademacher(), s_two_sided(1.5)])
    tr = ProjectionTracker(directions=np.array([E1, -E1, E2, -E2]))
    run_walk(spec, 10**4, seed=12, observers=[tr])
    a, b = tr.stats_for(0), tr.stats_for(1)
    assert np.array_equal(a.mins, -b.maxes)
    assert np.array_equal(a.maxes, -b.mins)


def test_s_convexity_proxy_inequality():
    # min ladder of an interpolated direction dominates the convex mix of
    # the endpoint ladders (bilinearity of the inner product)
    spec = coordinate_product([rademacher(), rademacher()])
    rng = np.random.default_rng(8)
    u = np.array([1.0, 0.0])
    v = np.array([0.6, 0.8])
    for alpha in (0.25, 0.5, 0.75):
        w_raw = alpha * u + (1 - alpha) * v
        tr = ProjectionTracker(directions=np.array([u, v, w_raw]))
        run_walk(spec, 4096, seed=9, observers=[tr])
        su, sv, sw = tr.stats_for(0), tr.stats_for(1), tr.stats_for(2)
        mix = alpha * su.mins + (1 - alpha) * sv.mins
        assert np.all(sw.mins >= mix - 1e-9)


def test_drift_walk_trichotomy_small():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=16)
    run_walk(spec, 10**5, seed=3, observers=[tr])
    for i, u in enumerate(tr.directions):
        verdict = classify(tr.stats_for(i))
        if u[0] > 0.3:
            assert verdict == PLUS, (u, verdict)
        elif u[0] < -0.3:
            assert verdict == MINUS, (u, verdict)


def test_scan_exceptional_drift_boundary():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=64)
    run_walk(spec, 10**4, seed=11, observers=[tr])
    verdicts = [classify(st) for st in tr.all_stats()]
    for u, st in scan_exceptional(tr, verdicts):
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
            verdicts = [classify(st) for st in tr.all_stats()]
            sizes.append(len(scan_exceptional(tr, verdicts)))
        shrunk += (sizes[1] <= sizes[0])
    assert shrunk >= int(0.8 * trials)


def test_log_scale_projection_classification():
    # heavy radial walks are tracked in signed-log encoding end to end
    from walkangles.samplers import radial_product, log_tail
    spec = radial_product([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                          [0.25] * 4, log_tail())
    tr = ProjectionTracker(directions=np.array([E1, E2]))
    run_walk(spec, 10**4, seed=2, observers=[tr])
    for i in range(2):
        st = tr.stats_for(i)
        assert st.log_scale
        assert classify(st) == OSC


def test_tracker_csv():
    spec = coordinate_product([constant(1), rademacher()])
    tr = ProjectionTracker(grid_m=8)
    run_walk(spec, 2048, seed=1, observers=[tr])
    text = tr.to_csv([classify(st) for st in tr.all_stats()])
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].endswith("final,verdict")
