"""Trajectory hull maintenance, inscribed radius, confinement, trend flags."""
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from walkangles import hull
from walkangles.hull import (CONFINED, FULL_SPACE_TREND, HullState, HullTracker,
                             SupportSketch, convex_hull_2d, hull_growth_report,
                             point_in_convex_polygon)
from walkangles.projections import ProjectionTracker
from walkangles.samplers import (coordinate_product, constant, rademacher,
                                 s_two_sided)
from walkangles.walk import ObserverBase, UnsupportedSpecError, WalkBlock, run_walk

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

E1 = np.array([1.0, 0.0])


def planar(points=None):
    st = HullState()
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


def test_planar_update_rejects_other_widths():
    # without the check, the third coordinate would be dropped silently
    for batch in ([[1, 2, 3]], np.zeros((5, 3)), [[1], [2]]):
        with pytest.raises(ValueError, match=f"{np.shape(batch)[1]} coordinates wide$"):
            HullState().update(batch)
    assert HullState().update([[1, 2]]).vertices == [(1, 2)]


def sketch_of(points, m=16):
    """The d >= 3 state of a HullTracker fed ``points`` as one block after S_0."""
    points = np.asarray(points)
    n, d = points.shape
    tr = HullTracker(m)
    tr.begin(coordinate_product([s_two_sided(1.5)] * d), n)
    tr.observe(WalkBlock(first_n=1, dirs=np.zeros((n, d)), log_norms=np.zeros(n),
                         positions=points, at_checkpoint=True))
    return tr.state


def test_support_sketch_d3():
    rng = np.random.default_rng(3)
    st = sketch_of(rng.standard_normal((500, 3)) * 10, m=32)
    r = st.inscribed_radius()
    assert r > 0
    # the sketch radius upper-bounds nothing smaller than any support value
    assert r <= st.supports.max()
    assert st.vertex_count() >= 3


def spec_of(d):
    return coordinate_product([rademacher()] + [s_two_sided(1.2)] * (d - 1))


@pytest.mark.parametrize("wiring", ["shared", "own"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_hull_columns_equal_the_ladder_columns(d, wiring):
    # the default hull grid nests in the default 64-direction ladder; an
    # 8-direction ladder lacks it, so the hull drives a ladder of its own
    ladder = ProjectionTracker(grid_m=64 if wiring == "shared" else 8)
    tr = HullTracker(ladder=ladder)
    run_walk(spec_of(d), 2**12, seed=d, observers=[ladder, tr])
    assert (tr.ladder is ladder) == (wiring == "shared")
    dirs = tr.ladder.directions
    cols = [int(np.flatnonzero((dirs == u).all(axis=1))[0]) for u in tr.tracked_dirs]
    assert dirs[cols].tobytes() == tr.tracked_dirs.tobytes()
    mins = np.asarray(tr.ladder.stats.mins)
    assert len(tr.series) == len(mins) == 13
    for cp, row in zip(tr.series, mins):
        assert cp.confinements.tobytes() == row[cols].tobytes()
    if d >= 3:
        assert tr.state.supports.tobytes() == tr.ladder.running_max[cols].tobytes()
        assert tr.state.support_points.tobytes() == tr.ladder.argmax_rows[cols].tobytes()
        assert np.all(tr.ladder.running_max[cols] > 0)
    # both wirings read the same bytes
    alone = HullTracker()
    run_walk(spec_of(d), 2**12, seed=d, observers=[alone])
    assert [cp.r for cp in alone.series] == [cp.r for cp in tr.series]
    assert alone.to_csv() == tr.to_csv()
    if d >= 3:
        assert alone.state.support_points.tobytes() == tr.state.support_points.tobytes()


def test_argmax_rows_are_the_first_strict_maxima():
    # ties keep the earlier row, within a block and across blocks, and S_0 = 0
    # stays until a position exceeds it
    dirs = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]])
    tr = ProjectionTracker(dirs)
    tr.begin(coordinate_product([s_two_sided(1.5)] * 3), 4)
    assert tr.columns(dirs[::-1], argmax=True).tolist() == [3, 2, 1, 0]
    for first_n, rows in ((1, [[2, 0, 0], [2, 3, 0]]), (3, [[2, 5, 0], [0, 0, -1]])):
        rows = np.array(rows)
        tr.observe(WalkBlock(first_n=first_n, dirs=np.zeros((2, 3)), log_norms=np.zeros(2),
                             positions=rows, at_checkpoint=True))
    assert tr.argmax_rows.tolist() == [[2, 0, 0], [2, 5, 0], [0, 0, 0], [0, 0, 0]]
    assert tr.columns(np.ones((1, 3))) is None


@pytest.mark.parametrize("d", [2, 3])
def test_default_run_shares_the_projection_ladder(d, tmp_path):
    from walkangles.experiment import load_config, run_experiment
    laws = [{"name": "rademacher"}] * d
    config = load_config({"spec": {"dimension": d, "form": "coordinate_product",
                                   "laws": laws}, "n_steps": 256}, out_dir=str(tmp_path))
    run = run_experiment(config).runs[0]
    # the hull multiplies nothing itself: it reads the run's own ladder
    assert run.hull.ladder is run.projections


def test_misordered_observers_raise():
    spec = spec_of(3)
    ladder = ProjectionTracker()
    with pytest.raises(ValueError, match="not begun"):
        run_walk(spec, 64, seed=0, observers=[HullTracker(ladder=ladder), ladder])
    tr = HullTracker(ladder=ladder)
    run_walk(spec, 64, seed=0, observers=[ladder, tr])
    # a ladder that has begun but observes after the hull: its extremes
    # would be a block behind
    with pytest.raises(ValueError, match="not recorded checkpoint 1"):
        run_walk(spec, 64, seed=0, observers=[tr, ladder])


def test_tracker_default_grid_is_the_simulate_grid(tmp_path):
    # HullTracker() and a default-config simulate build the same d = 3 grid
    from walkangles.experiment import load_config, run_experiment
    spec = coordinate_product([rademacher()] * 3)
    tr = HullTracker()
    run_walk(spec, 64, seed=0, observers=[tr])
    config = load_config({"spec": {"dimension": 3, "form": "coordinate_product",
                                   "laws": [{"name": "rademacher"}] * 3},
                          "n_steps": 64}, out_dir=str(tmp_path))
    result = run_experiment(config)
    assert result.runs[0].hull.tracked_dirs is tr.tracked_dirs
    assert len(tr.state.supports) == len(tr.tracked_dirs) == 16
    assert len(tr.state.support_points) == 16


NAN = math.nan


@pytest.mark.parametrize("rows", [
    np.random.default_rng(5).integers(-2, 3, (64, 3)),          # many duplicates
    [[1.0, 2.0, 3.0], [1.0 + 1e-12, 2.0, 3.0], [1.0, 2.0, 3.0 - 1e-12]],
    [[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [-0.0, -0.0, -1.0]],
    [[NAN, 0.0, 0.0], [NAN, 0.0, 0.0], [1.0, NAN, 0.0], [1.0, 2.0, 3.0],
     [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [NAN, NAN, NAN]],
    [[7.0, 7.0, 7.0]],
], ids=["duplicates", "rounding", "signed-zeros", "nan", "one-row"])
def test_vertex_count_matches_np_unique(rows):
    st = SupportSketch(np.zeros(len(rows)), np.asarray(rows, dtype=float))
    assert st.vertex_count() == len(np.unique(st.support_points, axis=0))


def test_vertex_count_past_rounding_range():
    # the rows are compared as they are, also far past 1e299
    st = SupportSketch(np.zeros(4), np.array(
        [[1e300, 0.0, 0.0], [1.0000000000000002e300, 0.0, 0.0],
         [0.0, 1e300, 0.0], [0.0, 0.0, -1e300]]))
    assert st.vertex_count() == 4


def test_planar_batch_spanning_past_float_range():
    # the batch's bounding box is wider than float range; scaling the probe
    # coordinates overflows by design and must not warn
    st = HullState()
    st.update(np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, -1.0], [0.0, 0.0]]))
    assert sorted(st.vertices) == [(-1e308, 0.0), (0.0, -1.0), (1e308, 1.0)]


def test_float_hull_past_product_overflow():
    # cross products of coordinates past about 1e154 overflow; the unscaled
    # chain listed (1e199, 1e199) twice and gave an inscribed radius of 0
    pts = [(1e200, 0.0), (-1e200, 0.0), (0.0, 1e200), (0.0, -1e200), (0.0, 0.0),
           (1e199, 1e199)]
    st = planar(pts)
    assert sorted(st.vertices) == sorted(pts[:4])
    assert st.inscribed_radius() == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
    assert point_in_convex_polygon(st.vertices, (1e199, 1e199))
    assert not point_in_convex_polygon(st.vertices, (1e200, 1e200))


@pytest.mark.parametrize("seed", range(4))
def test_float_hull_scales_by_a_power_of_two(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-3, 3)
    scale = 2.0 ** 600

    def scaled(vertices):
        return [(x * scale, y * scale) for x, y in vertices]

    assert convex_hull_2d((pts * scale).tolist()) == scaled(convex_hull_2d(pts.tolist()))
    small, big = planar(pts), planar(pts * scale)
    assert big.vertices == scaled(small.vertices)
    assert small.inscribed_radius() > 0
    assert big.inscribed_radius() == small.inscribed_radius() * scale
    inside = tuple(pts.mean(axis=0))
    assert point_in_convex_polygon(big.vertices, scaled([inside])[0])
    assert point_in_convex_polygon(small.vertices, inside)


def test_d3_hull_run_leaves_numpy_ma_unimported():
    # np.unique(..., axis=0) imports numpy.ma, about 15 ms per process
    script = """
import sys, tempfile
from walkangles.experiment import load_config, run_experiment
config = {"spec": {"dimension": 3, "form": "coordinate_product",
                   "laws": [{"name": "rademacher"}] * 3},
          "n_steps": 256, "n_runs": 2}
with tempfile.TemporaryDirectory() as out:
    result = run_experiment(load_config(config, out_dir=out))
assert result.runs[0].hull.series[-1].vertex_count > 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


# ---------------------------------------------------------------------------
# batched updates against the one-shot exact chain

def batched_hull(batches):
    st = HullState()
    for b in batches:
        st.update(np.asarray(b))
    return st.vertices


def one_shot(batches):
    return convex_hull_2d([p for b in batches for p in np.asarray(b).tolist()])


def two_pole_batches(rng, base):
    """Slivers around +-base: |x| < 200 and y spread over about 10**8."""
    batches = []
    for size in (1, 1, 2, 7, 64, 1000, 5000, 3, 4096):
        x = rng.integers(-200, 200, size=size)
        y = base - rng.integers(0, 10**8, size=size)
        y = np.where(rng.random(size) < 0.5, y, -y)
        batches.append(np.column_stack([x, y]).astype(np.int64))
    return batches


@pytest.mark.parametrize("base", [2**53 + 1, 2**62 + 2**61])
def test_batched_equals_one_shot_two_pole_lattice(base):
    rng = np.random.default_rng(11)
    batches = two_pole_batches(rng, base)
    got = batched_hull(batches)
    assert got == one_shot(batches)
    assert all(type(c) is int for p in got for c in p)


def test_batched_equals_one_shot_degenerate_batches():
    line = np.column_stack([np.arange(-50, 51), np.zeros(101, dtype=np.int64)])
    column = np.column_stack([np.full(40, 7), np.arange(40)])
    batches = [np.array([[0, 0]]), line, line[::3], np.array([[3, 0]]),
               np.array([[3, 0], [3, 0], [3, 0]]), column, column[5:9],
               np.array([[7, 39]]), np.array([[-50, 0]]),
               np.repeat(np.array([[7, -1]]), 5, axis=0)]
    for k in range(1, len(batches) + 1):
        assert batched_hull(batches[:k]) == one_shot(batches[:k])


def test_near_collinear_points_take_the_exact_branch(monkeypatch):
    """Points one unit inside an edge at 2**61 round onto it as floats, so
    the filter cannot certify them; the exact chain must decide."""
    t = 2**61
    square = np.array([[-t, -t], [t, -t], [t, t], [-t, t]], dtype=np.int64)
    ys = np.arange(-1000, 1000, dtype=np.int64) * 2**40
    inside = np.column_stack([np.full(len(ys), t - 1), ys])
    outside = np.array([[t + 1, 5], [t + 1, 7]], dtype=np.int64)
    calls = []

    def recording_chain(points):
        calls.append(list(points))
        return convex_hull_2d(points)

    monkeypatch.setattr(hull, "convex_hull_2d", recording_chain)
    st = HullState().update(square)
    calls.clear()
    st.update(inside)
    # the batch's extremes go to the first chain; ambiguous points to the last
    probed = {p for p in calls[0]} & set(map(tuple, inside.tolist()))
    chained = {p for p in calls[-1]} & set(map(tuple, inside.tolist()))
    assert len(calls) == 2 and len(chained - probed) > 0
    assert st.vertices == one_shot([square])
    # certainly interior points never reach a second chain
    calls.clear()
    st.update(np.array([[0, 0], [1, 1], [-5, 3], [2**60, -2**60]]))
    assert len(calls) == 1 and st.vertices == one_shot([square])
    st.update(outside)
    assert st.vertices == one_shot([square, inside, outside])
    assert (t + 1, 5) in st.vertices and (t + 1, 7) in st.vertices


def test_float_rounding_of_large_ints_is_covered():
    """An int64 point outside an edge whose float images put it well inside.

    Near 2**61 floats are 256 or 512 apart, so the float edge from
    (t + 512, -t) to (t - 256, t) passes 191 units right of the exact one at
    y = 0, and p = (t, 0) lies between them.  The batch's other points tie
    or beat p in every probe direction, so only the filter decides p.
    """
    t = 2**61
    polygon = np.array([[t + 257, -t], [t - 383, t], [-t, t], [-t, -t]], dtype=np.int64)
    batch = np.array([[t - 100, 2**50], [t + 90, -2**60], [t - 5000, 0], [t, 0]],
                     dtype=np.int64)
    st = HullState().update(polygon).update(batch)
    assert st.vertices == one_shot([polygon, batch])
    assert (t, 0) in st.vertices


def filter_drops(monkeypatch, vertices, batch):
    """Batch points the float filter dropped, and the inner polygon P."""
    calls = []

    def recording_chain(points):
        calls.append((list(points), convex_hull_2d(points)))
        return calls[-1][1]

    monkeypatch.setattr(hull, "convex_hull_2d", recording_chain)
    st = HullState()
    st.vertices = list(vertices)
    st.update(batch)
    passed = set(calls[-1][0]) if len(calls) == 2 else set()
    return [p for p in map(tuple, batch.tolist()) if p not in passed], calls[0][1]


@pytest.mark.parametrize("seed", range(4))
def test_float_filter_drops_only_strictly_interior_points(monkeypatch, seed):
    """Float points within 8 ulps of an edge, on both sides: every point the
    filter drops is strictly inside P in exact rational arithmetic."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a = 0.5 + rng.random(2) * 0.1
        b = a + rng.random(2) * 24 + 1
        c = (a + b) / 2 + np.array([a[1] - b[1], b[0] - a[0]])
        s = rng.random((300, 1))
        near = a + s * (b - a)
        near += rng.integers(-8, 9, size=near.shape) * np.spacing(np.abs(near).max())
        inside = (a + b + c) / 3 + rng.standard_normal((50, 2)) * 0.01
        dropped, inner = filter_drops(monkeypatch, convex_hull_2d([a, b, c]),
                                      np.vstack([inside, near]))
        poly = [tuple(map(Fraction, v)) for v in inner]
        for p in dropped:
            q = tuple(map(Fraction, p))
            assert all(hull._cross(poly[i - 1], poly[i], q) > 0 for i in range(len(poly)))


class _Positions(ObserverBase):
    def __init__(self):
        self.points = [(0, 0)]

    def observe(self, block):
        self.points += block.positions.tolist()


@pytest.mark.parametrize("spec, seeds", [
    (coordinate_product([constant(0.5), s_two_sided(0.8)]), (0, 1, 2)),
    (coordinate_product([s_two_sided(1.2), s_two_sided(0.7)]), (3, 4)),
    (coordinate_product([rademacher(), s_two_sided(0.5)]), (5, 6)),
], ids=["float-drift", "float-heavy", "lattice-two-pole"])
def test_walk_hull_equals_one_shot(spec, seeds):
    for seed in seeds:
        tr, pos = HullTracker(), _Positions()
        run_walk(spec, 2**13, seed=seed, observers=[tr, pos])
        assert tr.state.vertices == convex_hull_2d(pos.points)
