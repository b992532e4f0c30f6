"""Convex hull of the trajectory, its inscribed radius, and confinement.

Planar walks keep the exact hull polygon (counter-clockwise vertices,
monotone-chain rebuilds on batches, integer arithmetic for lattice walks).
Each batch is first filtered against an inner polygon P, the exact hull of
the current vertices and the batch's extreme points along 16 directions
(Akl and Toussaint, IPL 7(5), 1978).  A point is dropped only when its float
cross product with every edge of P exceeds a static error bound (in the
style of Shewchuk, DCG 1997; stated in ``HullState.update``) that also
covers the rounding of int64 coordinates above 2**53, so a dropped point is
certainly strictly inside P and the hull is exactly the one a single chain
over every point gives.

Over a fixed direction grid, max_{k<=n} S_k . u is the hull's support
function (Schneider, *Convex Bodies*, 2nd ed., section 1.7), and a
confinement value min_{k<=n} S_k . u that stops moving while the inscribed
radius is frozen witnesses confinement to a half-space.  The hull reads both
from a ``ProjectionTracker``.  Higher dimensions keep only the support sketch
(the maxima and a point attaining each), whose inscribed radius is an upper
bound on the true one with grid-resolution error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .projections import ProjectionTracker, stabilized
from .sphere import direction_grid
from .walk import ObserverBase, UnsupportedSpecError, WalkBlock, csv_text

__all__ = ["FULL_SPACE_TREND", "CONFINED", "NO_TREND", "HullState", "SupportSketch",
           "HullTracker", "hull_growth_report", "convex_hull_2d", "point_in_convex_polygon"]

FULL_SPACE_TREND = "FULL_SPACE_TREND"
CONFINED = "CONFINED"
NO_TREND = "NO_TREND"
# radius growth events over the checkpoint ladder that flag FULL_SPACE_TREND
GROWTH_EVENTS = 3
# directions whose batch extremes seed the planar inner polygon
_PROBE_DIRS = direction_grid(2, 16)
# unit roundoff and smallest normal double of the planar filter's error bound
_U = 2.0 ** -53
_TINY = float(np.finfo(float).tiny)
# For float coordinates up to M in magnitude, a cross product and a squared
# edge length reach 8 M**2, which overflows past M = 2**510.5.  From _BIG on
# they are evaluated on the points times 2**-k, with 2**-k * M in [1, 2):
# scaling by a power of two is exact (short of underflow), so every sign and
# every distance is the one the unscaled arithmetic would give without
# overflow.
_BIG = 2.0 ** 510


# ---------------------------------------------------------------------------
# exact planar hull

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _shrink(pts: list) -> tuple[list, int]:
    """The points times 2**-k, and k, with 2**-k * M in [1, 2) where the
    float points ``pts`` reach ``_BIG`` in magnitude M; else ``pts`` and 0.
    Integer points, exact in Python ints, are never scaled."""
    if not isinstance(pts[0][0], float):
        return pts, 0
    big = max(max(abs(x), abs(y)) for x, y in pts)
    if not _BIG <= big < math.inf:
        return pts, 0
    k = math.frexp(big)[1] - 1
    s = 2.0 ** -k
    return [(x * s, y * s) for x, y in pts], k


def _tuples(arr: np.ndarray) -> list[tuple]:
    """Rows as tuples of Python numbers (exact ints for integer arrays)."""
    return list(map(tuple, arr.tolist()))


def convex_hull_2d(points) -> list[tuple]:
    """Monotone chain; counter-clockwise, collinear points dropped.

    Works on exact Python ints for lattice walks (no rounding anywhere) and
    on floats otherwise, scaled by a power of two from ``_BIG`` on.
    Degenerate inputs yield fewer than 3 vertices.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    scaled, k = _shrink(pts)
    if k:
        back = dict(zip(scaled, pts))
        return [back[p] for p in _chain(scaled)]
    return _chain(pts)


def _chain(pts: list) -> list:
    """Andrew's monotone chain over sorted points."""
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_convex_polygon(vertices, p, strict: bool = False) -> bool:
    """Membership in a CCW convex polygon; exact for integer inputs, and
    scaled by a power of two from ``_BIG`` on for float ones."""
    if len(vertices) == 0:
        return False
    *vertices, p = _shrink([*vertices, tuple(p)])[0]
    if len(vertices) == 1:
        return tuple(p) == tuple(vertices[0]) and not strict
    if len(vertices) == 2:
        if strict:
            return False
        a, b = vertices
        if _cross(a, b, p) != 0:
            return False
        lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
        lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
        return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y
    for i in range(len(vertices)):
        c = _cross(vertices[i], vertices[(i + 1) % len(vertices)], p)
        if c < 0 or (strict and c == 0):
            return False
    return True


def _segment_distance(a, b) -> float:
    """Euclidean distance from the origin to the segment [a, b]."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(ax, ay)
    t = -(ax * dx + ay * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(ax + t * dx, ay + t * dy)


# ---------------------------------------------------------------------------
# hull state

@dataclass
class HullState:
    """Exact hull polygon of the planar points seen so far."""

    vertices: list = field(default_factory=list)      # CCW tuples

    def update(self, batch) -> "HullState":
        """Absorb a batch of planar points; hull(hull(A) | B) = hull(A | B).

        The batch's extreme points along ``_PROBE_DIRS`` (taken after scaling
        the batch to its bounding box, so sliver batches still give points
        all round) and the current vertices span an inner polygon P, built
        by the exact chain.  A point is dropped only when it is certainly
        strictly inside P; every other point goes to the exact chain with
        P's vertices.  Strictly interior points are never hull vertices, so
        the result is the hull of the vertices and the whole batch.

        Certainty comes from a static error bound (Shewchuk, DCG 1997, with
        a term for inexact inputs).  For an edge (a, b) of P the filter
        computes ``ex*ry - ey*rx`` in float, with ``ex, ey = b - a`` and
        ``rx, ry = p - a``; ``Rx, Ry`` (``rx_max, ry_max``) bound
        ``|rx|, |ry|`` over the batch's bounding box.  Let u = 2**-53, M the
        largest coordinate magnitude of P and the batch, and K = u*M when
        M > 2**53 (int64 coordinates above 2**53 round on conversion to
        float), else 0.  Each subtraction moves
        a difference by at most u/(1-u) of itself plus 2K, and each product
        and the final difference round once, so the float cross product is
        within 4.01u*(|ex|*Ry + |ey|*Rx) + 2.01K*(|ex| + |ey| + Rx + Ry) + 8K**2
        of the exact one, plus at most 2**-1073 when a product underflows.
        A point is dropped only when its float cross product exceeds
        ``8u*(|ex|*Ry + |ey|*Rx) + 4K*(|ex| + |ey| + Rx + Ry) + 16K**2 + tiny``
        (which stays above that error after its own rounding) on every edge,
        that is when its exact cross product is positive on every edge.
        Below M = 2**510 no product overflows; above it nothing is dropped.
        A batch of fewer points than there are probes goes to the chain whole.
        """
        arr = np.atleast_2d(np.asarray(batch))
        if len(arr) == 0 or arr.shape[1] != 2:
            raise ValueError(f"a hull update needs a nonempty batch of points 2 coordinates "
                             f"wide, got {len(arr)} points {arr.shape[1]} coordinates wide")
        # the batch as (2, B) floats, so every reduction runs along the batch
        ft = np.array(arr.T, dtype=float, order="C")
        if len(arr) < len(_PROBE_DIRS):
            self.vertices = convex_hull_2d(self.vertices + _tuples(arr))
            return self
        lo, hi = ft.min(axis=1), ft.max(axis=1)
        # a batch spanning more than float range scales to inf and nan; any
        # probe is sound, as P only has to lie inside the hull
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.where(hi > lo, hi - lo, 1.0)
            # repeated probes are harmless: the chain drops duplicate points
            probes = (_PROBE_DIRS @ ((ft - lo[:, None]) / span[:, None])).argmax(axis=1)
        inner = convex_hull_2d(self.vertices + _tuples(arr[probes]))
        keep = np.ones(len(arr), dtype=bool)
        v = np.asarray(inner, dtype=float)
        # the batch's largest |coordinate| is a corner of its bounding box
        m = max(float(np.abs(v).max()), -float(lo.min()), float(hi.max()))
        if len(inner) >= 3 and m < _BIG:
            k = _U * m if m > 2.0 ** 53 else 0.0
            (lx, ly), (hx, hy) = lo.tolist(), hi.tolist()
            # points not yet shown to be outside or near some edge
            idx, x, y = np.arange(len(arr)), ft[0], ft[1]
            for (ax, ay), (bx, by) in zip(v.tolist(), np.roll(v, -1, axis=0).tolist()):
                ex, ey = abs(bx - ax), abs(by - ay)
                rx_max = max(abs(hx - ax), abs(lx - ax))
                ry_max = max(abs(hy - ay), abs(ly - ay))
                bound = (8 * _U * (ex * ry_max + ey * rx_max)
                         + 4 * k * (ex + ey + rx_max + ry_max) + 16 * k * k + _TINY)
                sure = (bx - ax) * (y - ay) - (by - ay) * (x - ax) > bound
                if not sure.all():
                    idx, x, y = idx[sure], x[sure], y[sure]
                    if len(idx) == 0:
                        break
            keep[idx] = False
        if keep.any():
            self.vertices = convex_hull_2d(inner + _tuples(arr[keep]))
        else:
            self.vertices = inner
        return self

    def vertex_count(self) -> int:
        return len(self.vertices)

    def inscribed_radius(self) -> float:
        """Largest r with the origin-centered r-ball inside the hull.

        0 when the origin is outside or on the boundary (decided exactly for
        integer vertices), else the least distance from the origin to an edge,
        each taken in floats with one ``math.hypot``, on float vertices scaled
        by a power of two from ``_BIG`` on.  So the value may be off in its
        last bits; ``HullTracker`` clamps it with ``max(r, r_prev)``.
        """
        if len(self.vertices) < 3:
            return 0.0
        verts, k = _shrink(self.vertices)
        if not point_in_convex_polygon(verts, (0, 0), strict=True):
            return 0.0
        best = min(_segment_distance(verts[i], verts[(i + 1) % len(verts)])
                   for i in range(len(verts)))
        return best * 2.0 ** k


@dataclass
class SupportSketch:
    """d >= 3: the hull's support function on its grid, max_{k<=n} S_k . u,
    and for each grid direction the first S_k that attains it."""

    supports: np.ndarray
    support_points: np.ndarray

    def vertex_count(self) -> int:
        # the rows are copies of walk positions, so a shared vertex repeats
        # exactly; sorted, equal rows are adjacent, and distinct rows are
        # counted as np.unique(..., axis=0) counts them, without numpy.ma
        pts = self.support_points
        pts = pts[np.lexsort(pts.T[::-1])]
        return 1 + int(np.any(pts[1:] != pts[:-1], axis=1).sum())

    def inscribed_radius(self) -> float:
        """Grid upper bound max(0, min_u supports[u]) on the inscribed radius."""
        return max(0.0, float(self.supports.min())) if np.isfinite(self.supports).all() else 0.0


# ---------------------------------------------------------------------------
# observer + growth report

@dataclass
class HullCheckpoint:
    n: int
    r: float
    vertex_count: int
    confinements: np.ndarray


class HullTracker(ObserverBase):
    """Maintains the trajectory hull and snapshots r_n at checkpoints.

    The confinements, and at d >= 3 the sketch (``state``, as of the last
    checkpoint), are the columns ``tracked_dirs = direction_grid(d, m)`` of
    ``ladder``, a ProjectionTracker that observes each block first.  Without
    one, or where it lacks a grid row bitwise, the hull drives its own.
    """

    def __init__(self, m: int = 16, ladder: ProjectionTracker | None = None):
        self._m, self._shared = m, ladder
        self.state: HullState | SupportSketch | None = None
        self.series: list[HullCheckpoint] = []

    def begin(self, spec, n_steps):
        if spec.scale_mode == "log":
            raise UnsupportedSpecError("hull tracking is not supported for log-scale walks")
        d = spec.dimension
        grid = self.tracked_dirs = direction_grid(d, self._m)
        self.ladder = self._shared
        self._cols = None if self.ladder is None else self.ladder.columns(grid, argmax=d > 2)
        if self._cols is None:
            self.ladder = ProjectionTracker(grid)
            self.ladder.begin(spec, n_steps)
            self._cols = self.ladder.columns(grid, argmax=d > 2)
        if d == 2:
            # S_0 = 0, as an int for lattice walks so the chain stays exact
            dtype = np.int64 if spec.scale_mode == "lattice" else float
            self.state = HullState().update(np.zeros((1, 2), dtype=dtype))
        else:
            self.state = SupportSketch(np.zeros(self._m), np.zeros((self._m, d)))
        self._r_prev = 0.0

    def observe(self, block: WalkBlock) -> None:
        ladder = self.ladder
        if ladder is not self._shared:
            ladder.observe(block)
        if isinstance(self.state, HullState):
            self.state.update(block.positions)
        if not block.at_checkpoint:
            return
        if ladder.stats.checkpoints[-1:] != [block.last_n]:
            raise ValueError(f"the projection ladder has not recorded checkpoint "
                             f"{block.last_n}: it must observe before the hull")
        if isinstance(self.state, SupportSketch):
            self.state = SupportSketch(ladder.running_max[self._cols],
                                       ladder.argmax_rows[self._cols])
        # the true radius is monotone; the max() guards against last-ulp
        # jitter when an edge is re-derived from new endpoints
        r = max(self.state.inscribed_radius(), self._r_prev)
        self._r_prev = r
        self.series.append(HullCheckpoint(
            n=block.last_n, r=r, vertex_count=self.state.vertex_count(),
            confinements=ladder.stats.mins[-1][self._cols]))

    def to_csv(self) -> str:
        m = len(self.tracked_dirs)
        cols = ["n", "r", "vertex_count"] + [f"confinement_{i}" for i in range(m)]
        series = self.series
        confinements = np.array([cp.confinements for cp in series]).reshape(len(series), m)
        return csv_text(cols, [[cp.n for cp in series], [cp.r for cp in series],
                               [cp.vertex_count for cp in series], *confinements.T])


@dataclass
class HullGrowthReport:
    series: list[HullCheckpoint]
    flag: str
    stabilized_dirs: list[int]
    tracked_dirs: np.ndarray


def hull_growth_report(tracker: HullTracker) -> HullGrowthReport:
    """Trend flags from the checkpoint series.

    FULL_SPACE_TREND: the inscribed radius grew at GROWTH_EVENTS or more of the
    dyadic checkpoints (growth arrives in bursts separated by plateaus, so a
    count of growth events, not a streak, is the robust signature).
    CONFINED: the radius and at least one tracked direction's confinement
    value both sat exactly frozen over the last half of the checkpoint
    ladder.  Confinement wins when both patterns appear (early growth
    followed by a permanent freeze).
    """
    series = tracker.series
    flag = NO_TREND
    frozen: list[int] = []
    if len(series) >= GROWTH_EVENTS + 1:
        rs = np.array([cp.r for cp in series])
        confs = np.stack([cp.confinements for cp in series])
        if stabilized(rs):
            frozen = list(np.flatnonzero(stabilized(confs)))
        if frozen:
            flag = CONFINED
        elif (rs[1:] > rs[:-1]).sum() >= GROWTH_EVENTS:
            flag = FULL_SPACE_TREND
    return HullGrowthReport(series=series, flag=flag, stabilized_dirs=frozen,
                            tracked_dirs=tracker.tracked_dirs)
