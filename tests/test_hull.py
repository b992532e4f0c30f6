"""Trajectory hull maintenance, inscribed radius, confinement, trend flags."""
import math

import numpy as np
import pytest

from walkangles.hull import (CONFINED, FULL_SPACE_TREND, HullState,
                             HullTracker, convex_hull_2d, hull_growth_report,
                             point_in_convex_polygon)
from walkangles.samplers import (coordinate_product, constant, rademacher,
                                 s_two_sided)
from walkangles.walk import UnsupportedSpecError, run_walk

E1 = np.array([1.0, 0.0])


def planar(points=None, tracked=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))):
    st = HullState.empty(2, tracked_dirs=tracked)
    if points is not None:
        st.update(points)
    return st


def test_triangle_from_origin():
    st = planar([(0, 0), (1, 0), (0, 1)])
    assert sorted(st.vertices) == [(0, 0), (0, 1), (1, 0)]


def test_interior_point_changes_nothing():
    st = planar([(0, 0), (4, 0), (0, 4), (4, 4)])
    before = list(st.vertices)
    st.update([(2, 2), (1, 3)])
    assert st.vertices == before


def test_batch_order_irrelevant():
    rng = np.random.default_rng(0)
    pts = rng.integers(-50, 50, size=(200, 2))
    a = planar(pts)
    b = planar(pts[::-1])
    assert sorted(a.vertices) == sorted(b.vertices)


def test_all_points_inside_hull():
    rng = np.random.default_rng(1)
    pts = rng.integers(-1000, 1000, size=(500, 2))
    st = planar(pts)
    for p in map(tuple, pts):
        assert point_in_convex_polygon(st.vertices, p)


def test_inscribed_radius_diamond():
    st = planar([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert abs(st.inscribed_radius() - 1 / math.sqrt(2)) < 1e-12


def test_inscribed_radius_boundary_and_outside():
    assert planar([(0, 0), (1, 0), (0, 1)]).inscribed_radius() == 0.0
    assert planar([(1, 0), (2, 0)]).inscribed_radius() == 0.0


def test_inscribed_ball_really_inside():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((300, 2)) * 40
    st = planar(pts)
    r = st.inscribed_radius()
    assert r > 0
    for _ in range(1000):
        theta = rng.random() * 2 * math.pi
        rad = rng.random() * (r - 1e-6)
        p = (rad * math.cos(theta), rad * math.sin(theta))
        assert point_in_convex_polygon(st.vertices, p)


def test_confinement_ledger():
    st = planar()
    st.update(np.zeros((1, 2)))              # S_0
    st.update(np.arange(1, 11)[:, None] * E1)
    assert st.confinement((1.0, 0.0)) == 0.0
    assert st.confinement((-1.0, 0.0)) == -10.0
    assert st.confinement((0.0, 1.0)) <= 0.0      # S_0 pins every direction
    with pytest.raises(ValueError):
        st.confinement((0.6, 0.8))


def test_support_sketch_d3():
    st = HullState.empty(3, support_m=32)
    rng = np.random.default_rng(3)
    st.update(np.zeros((1, 3)))
    st.update(rng.standard_normal((500, 3)) * 10)
    r = st.inscribed_radius()
    assert r > 0
    # the sketch radius upper-bounds nothing smaller than any support value
    assert r <= st.supports.max()
    assert st.vertex_count() >= 3


def test_radius_monotone_along_run():
    spec = coordinate_product([rademacher(), rademacher()])
    tr = HullTracker()
    run_walk(spec, 10**5, seed=4, observers=[tr])
    rs = [cp.r for cp in tr.series]
    assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_vertices_strictly_convex():
    spec = coordinate_product([rademacher(), s_two_sided(1.2)])
    tr = HullTracker()
    run_walk(spec, 10**4, seed=6, observers=[tr])
    v = np.asarray(tr.state.vertices, dtype=float)
    n = len(v)
    assert n >= 3
    for i in range(n):
        a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        assert cross > -1e-12


def test_flags_symmetric_walk():
    spec = coordinate_product([rademacher(), rademacher()])
    tr = HullTracker()
    run_walk(spec, 10**5, seed=7, observers=[tr])
    assert hull_growth_report(tr).flag == FULL_SPACE_TREND


def test_flags_drift_walk():
    spec = coordinate_product([constant(1), rademacher()])
    tr = HullTracker()
    run_walk(spec, 10**5, seed=8, observers=[tr])
    rep = hull_growth_report(tr)
    assert rep.flag == CONFINED
    e1_idx = int(np.argmin(np.linalg.norm(rep.tracked_dirs - E1, axis=1)))
    assert e1_idx in rep.stabilized_dirs
    assert all(cp.r == 0.0 for cp in rep.series)


def test_log_scale_walks_unsupported():
    from walkangles.samplers import radial_product, log_tail
    spec = radial_product([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], log_tail())
    with pytest.raises(UnsupportedSpecError):
        run_walk(spec, 100, seed=0, observers=[HullTracker()])


def test_collinear_degenerate_hull():
    assert convex_hull_2d([(0, 0), (1, 0), (2, 0), (3, 0)]) == [(0, 0), (3, 0)]
    assert convex_hull_2d([(1, 1)]) == [(1, 1)]


def test_tracker_csv():
    spec = coordinate_product([rademacher(), rademacher()])
    tr = HullTracker()
    run_walk(spec, 4096, seed=9, observers=[tr])
    lines = tr.to_csv().strip().split("\n")
    assert lines[0].startswith("n,r,vertex_count,confinement_0")
    assert len(lines) == len(tr.series) + 1
