"""Convex hull of the trajectory, its inscribed radius, and confinement.

Planar walks keep the exact hull polygon (counter-clockwise vertices,
monotone-chain rebuilds on batches, integer arithmetic for lattice walks).
Each batch is first filtered against an inner polygon P, the exact hull of
the current vertices and the batch's extreme points along 16 directions
(Akl and Toussaint, IPL 7(5), 1978).  A point is dropped only when its float
cross product with every edge of P exceeds a static error bound (in the
style of Shewchuk, DCG 1997; stated in ``HullState._update_planar``) that
also covers the rounding of int64 coordinates above 2**53, so a dropped
point is certainly strictly inside P and the hull is exactly the one a
single chain over every point gives.
Higher dimensions keep a support-function sketch over a fixed direction
grid: the running maximum of S_k . u per grid direction plus the points that
achieved it; the inscribed radius derived from the sketch is an upper bound
on the true one with grid-resolution error.

The confinement ledger tracks inf_{k<=n} S_k . u for a small set of
directions; a value that stops moving while the inscribed radius is frozen
witnesses confinement to a half-space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import direction_grid
from .walk import ObserverBase, UnsupportedSpecError, WalkBlock, csv_text

__all__ = [
    "FULL_SPACE_TREND", "CONFINED", "NO_TREND",
    "HullState",
    "HullTracker",
    "hull_growth_report",
    "convex_hull_2d",
    "point_in_convex_polygon",
]

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


# ---------------------------------------------------------------------------
# exact planar hull

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _tuples(arr: np.ndarray) -> list[tuple]:
    """Rows as tuples of Python numbers (exact ints for integer arrays)."""
    return list(map(tuple, arr.tolist()))


def convex_hull_2d(points) -> list[tuple]:
    """Monotone chain; counter-clockwise, collinear points dropped.

    Works on exact Python ints for lattice walks (no rounding anywhere) and
    on floats otherwise.  Degenerate inputs yield fewer than 3 vertices.
    """
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
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
    """Membership in a CCW convex polygon; exact for integer inputs."""
    if len(vertices) == 0:
        return False
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
    """Hull of the points seen so far plus the confinement ledger."""

    dimension: int
    vertices: list = field(default_factory=list)      # d=2: CCW tuples
    support_dirs: np.ndarray | None = None            # d>=3 sketch directions
    supports: np.ndarray | None = None                # running max of p . u
    support_points: np.ndarray | None = None
    tracked_dirs: np.ndarray | None = None
    confinements: np.ndarray | None = None

    @classmethod
    def empty(cls, dimension: int, tracked_dirs=None, support_m: int = 64) -> "HullState":
        st = cls(dimension=dimension)
        if dimension >= 3:
            st.support_dirs = direction_grid(dimension, support_m)
            st.supports = np.full(len(st.support_dirs), -np.inf)
            st.support_points = np.zeros((len(st.support_dirs), dimension))
        if tracked_dirs is None:
            tracked_dirs = direction_grid(dimension, 16)
        st.tracked_dirs = np.atleast_2d(np.asarray(tracked_dirs, dtype=float))
        st.confinements = np.full(len(st.tracked_dirs), np.inf)
        return st

    def update(self, batch) -> "HullState":
        """Absorb a batch of points; hull(hull(A) | B) = hull(A | B)."""
        if len(batch) == 0:
            raise ValueError("a hull update needs a nonempty batch")
        arr = np.atleast_2d(np.asarray(batch))
        f = np.asarray(arr, dtype=float)
        if self.dimension == 2:
            self._update_planar(arr, f)
        else:
            self._update_support(arr, f)
        np.minimum(self.confinements, (f @ self.tracked_dirs.T).min(axis=0),
                   out=self.confinements)
        return self

    def _update_planar(self, arr: np.ndarray, f: np.ndarray) -> None:
        """Exact hull of the vertices and ``arr``; ``f`` is ``arr`` as float.

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
        """
        lo, hi = f.min(axis=0), f.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        # repeated probes are harmless: the chain drops duplicate points
        probes = (_PROBE_DIRS @ ((f - lo) / span).T).argmax(axis=1)
        inner = convex_hull_2d(self.vertices + _tuples(arr[probes]))
        keep = np.ones(len(arr), dtype=bool)
        v = np.asarray(inner, dtype=float)
        m = max(float(np.abs(v).max()), float(np.abs(f).max()))
        if len(inner) >= 3 and m < 2.0 ** 510:
            k = _U * m if m > 2.0 ** 53 else 0.0
            (lx, ly), (hx, hy) = lo.tolist(), hi.tolist()
            # points not yet shown to be outside or near some edge
            idx, x, y = np.arange(len(arr)), f[:, 0], f[:, 1]
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

    def _update_support(self, arr: np.ndarray, f: np.ndarray) -> None:
        proj = f @ self.support_dirs.T   # (B, M)
        best = proj.argmax(axis=0)
        vals = proj[best, np.arange(proj.shape[1])]
        better = vals > self.supports
        self.supports[better] = vals[better]
        self.support_points[better] = arr[best[better]]

    def vertex_count(self) -> int:
        if self.dimension == 2:
            return len(self.vertices)
        # distinct rows, counted as np.unique(..., axis=0) counts them without
        # its import of numpy.ma: sorted, equal rows are adjacent
        pts = np.round(self.support_points, 9)
        pts = pts[np.lexsort(pts.T[::-1])]
        return 1 + int(np.any(pts[1:] != pts[:-1], axis=1).sum())

    def inscribed_radius(self) -> float:
        """Largest r with the origin-centered r-ball inside the hull.

        d = 2: 0 when the origin is outside or on the boundary (decided
        exactly for integer vertices), else the least distance from the
        origin to an edge, each taken in floats with one ``math.hypot``.  So
        the value may be off in its last bits; ``HullTracker`` clamps it with
        ``max(r, r_prev)`` to keep the series non-decreasing.
        d >= 3: grid upper bound max(0, min_u supports[u]).
        """
        if self.dimension != 2:
            if self.supports is None or not np.isfinite(self.supports).all():
                return 0.0
            return max(0.0, float(self.supports.min()))
        if len(self.vertices) < 3:
            return 0.0
        origin = (0, 0)
        if not point_in_convex_polygon(self.vertices, origin, strict=True):
            return 0.0
        best = min(_segment_distance(self.vertices[i],
                                     self.vertices[(i + 1) % len(self.vertices)])
                   for i in range(len(self.vertices)))
        return best

    def confinement(self, u) -> float:
        u = np.asarray(u, dtype=float)
        match = np.flatnonzero(np.linalg.norm(self.tracked_dirs - u, axis=1) < 1e-9)
        if len(match) == 0:
            raise ValueError("direction is not tracked by this hull state")
        return float(self.confinements[match[0]])

    def contains(self, p) -> bool:
        if self.dimension != 2:
            raise UnsupportedSpecError("exact membership is planar-only")
        return point_in_convex_polygon(self.vertices, tuple(p))


# ---------------------------------------------------------------------------
# observer + growth report

@dataclass
class HullCheckpoint:
    n: int
    r: float
    vertex_count: int
    confinements: np.ndarray


class HullTracker(ObserverBase):
    """Maintains the trajectory hull and snapshots r_n at checkpoints."""

    def __init__(self, support_m: int = 64):
        self._support_m = support_m
        self.state: HullState | None = None
        self.series: list[HullCheckpoint] = []

    def begin(self, spec, n_steps):
        if spec.scale_mode == "log":
            raise UnsupportedSpecError(
                "hull tracking is not supported for log-scale walks")
        self.state = HullState.empty(spec.dimension, support_m=self._support_m)
        # S_0 = 0, as an int for lattice walks so the planar chain stays exact
        dtype = np.int64 if spec.scale_mode == "lattice" else float
        self.state.update(np.zeros((1, spec.dimension), dtype=dtype))
        self._r_prev = 0.0

    def observe(self, block: WalkBlock) -> None:
        self.state.update(block.positions)
        if block.at_checkpoint:
            r = self.state.inscribed_radius()
            # the true radius is monotone; the max() guards against last-ulp
            # jitter when an edge is re-derived from new endpoints
            r = max(r, self._r_prev)
            self._r_prev = r
            self.series.append(HullCheckpoint(
                n=block.last_n, r=r, vertex_count=self.state.vertex_count(),
                confinements=self.state.confinements.copy()))

    def to_csv(self) -> str:
        m = len(self.state.tracked_dirs)
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
    stabilized: list[int] = []
    if len(series) >= GROWTH_EVENTS + 1:
        rs = [cp.r for cp in series]
        growth_events = sum(b > a for a, b in zip(rs, rs[1:]))
        half = (len(series) + 1) // 2
        froze = all(r == rs[-half] for r in rs[-half:])
        confs = np.stack([cp.confinements for cp in series[-half:]])
        unchanged = np.all(confs == confs[0], axis=0)
        if froze:
            stabilized = list(np.flatnonzero(unchanged))
        if froze and stabilized:
            flag = CONFINED
        elif growth_events >= GROWTH_EVENTS:
            flag = FULL_SPACE_TREND
    return HullGrowthReport(series=series, flag=flag, stabilized_dirs=stabilized,
                            tracked_dirs=tracker.state.tracked_dirs)
