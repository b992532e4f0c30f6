"""Convex hull of the trajectory, its inscribed radius, and confinement.

Planar walks keep the exact hull polygon (counter-clockwise vertices,
monotone-chain rebuilds on batches, integer arithmetic for lattice walks).
Higher dimensions keep a support-function sketch over a fixed direction
grid: the running maximum of S_k . u per grid direction plus the points that
achieved it; the inscribed radius derived from the sketch is an upper bound
on the true one with grid-resolution error.

The confinement ledger tracks inf_{k<=n} S_k . u for a small set of
directions; a value that stops moving while the inscribed radius is frozen
witnesses confinement to a half-space.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import direction_grid
from .walk import ObserverBase, UnsupportedSpecError, WalkBlock, format_number

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


# ---------------------------------------------------------------------------
# exact planar hull

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def _segment_distance(a, b, p=(0.0, 0.0)) -> float:
    ax, ay = float(a[0]) - p[0], float(a[1]) - p[1]
    bx, by = float(b[0]) - p[0], float(b[1]) - p[1]
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
    n: int = 0
    _r_floor: float = 0.0

    @classmethod
    def empty(cls, dimension: int, tracked_dirs=None, support_m: int = 64,
              grid_seed: int = 0) -> "HullState":
        st = cls(dimension=dimension)
        if dimension >= 3:
            st.support_dirs = direction_grid(dimension, support_m, grid_seed)
            st.supports = np.full(len(st.support_dirs), -np.inf)
            st.support_points = np.zeros((len(st.support_dirs), dimension))
        if tracked_dirs is None:
            tracked_dirs = direction_grid(dimension, 16, grid_seed)
        st.tracked_dirs = np.atleast_2d(np.asarray(tracked_dirs, dtype=float))
        st.confinements = np.full(len(st.tracked_dirs), np.inf)
        return st

    def update(self, batch) -> "HullState":
        """Absorb a batch of points; hull(hull(A) | B) = hull(A | B)."""
        if len(batch) == 0:
            raise ValueError("a hull update needs a nonempty batch")
        arr = np.atleast_2d(np.asarray(batch))
        if self.dimension == 2:
            self._update_planar(arr)
        else:
            self._update_support(arr)
        mins = (np.asarray(arr, dtype=float) @ self.tracked_dirs.T).min(axis=0)
        np.minimum(self.confinements, mins, out=self.confinements)
        self.n += len(arr)
        return self

    def _update_planar(self, arr: np.ndarray) -> None:
        is_int = np.issubdtype(arr.dtype, np.integer)
        if len(self.vertices) >= 3:
            # conservative outside filter: drop points surely interior
            v = np.asarray(self.vertices, dtype=float)
            e = np.roll(v, -1, axis=0) - v
            rel = arr[:, None, :].astype(float) - v[None, :, :]
            cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
            scale = max(1.0, float(np.abs(v).max()) ** 2) * 1e-12
            candidates = arr[(cross < scale).any(axis=1)]
        else:
            candidates = arr
        if len(candidates) == 0:
            return
        if is_int:
            pts = [tuple(int(x) for x in row) for row in candidates]
        else:
            pts = [tuple(float(x) for x in row) for row in candidates]
        self.vertices = convex_hull_2d(self.vertices + pts)

    def _update_support(self, arr: np.ndarray) -> None:
        proj = np.asarray(arr, dtype=float) @ self.support_dirs.T   # (B, M)
        best = proj.argmax(axis=0)
        vals = proj[best, np.arange(proj.shape[1])]
        better = vals > self.supports
        self.supports[better] = vals[better]
        self.support_points[better] = arr[best[better]]

    def vertex_count(self) -> int:
        if self.dimension == 2:
            return len(self.vertices)
        return len(np.unique(np.round(self.support_points, 9), axis=0))

    def inscribed_radius(self) -> float:
        """Largest r with the origin-centered r-ball inside the hull.

        d = 2: exact (0 when the origin is outside or on the boundary).
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

    def __init__(self, tracked_dirs=None, support_m: int = 64, grid_seed: int = 0):
        self._tracked = tracked_dirs
        self._support_m = support_m
        self._grid_seed = grid_seed
        self.state: HullState | None = None
        self.series: list[HullCheckpoint] = []

    def begin(self, spec, n_steps, checkpoints):
        if spec.scale_mode == "log":
            raise UnsupportedSpecError(
                "hull tracking is not supported for log-scale walks")
        self.state = HullState.empty(spec.dimension, tracked_dirs=self._tracked,
                                     support_m=self._support_m,
                                     grid_seed=self._grid_seed)
        self.state.update(np.zeros((1, spec.dimension)))   # S_0 = 0
        self.state.n = 0
        self._cps = set(checkpoints)
        self._r_prev = 0.0

    def observe(self, block: WalkBlock) -> None:
        self.state.update(block.positions)
        self.state.n = block.last_n
        if block.last_n in self._cps:
            r = self.state.inscribed_radius()
            # the true radius is monotone; the max() guards against last-ulp
            # jitter when an edge is re-derived from new endpoints
            r = max(r, self._r_prev)
            self._r_prev = r
            self.series.append(HullCheckpoint(
                n=block.last_n, r=r, vertex_count=self.state.vertex_count(),
                confinements=self.state.confinements.copy()))

    def tracked_dirs(self) -> np.ndarray:
        return self.state.tracked_dirs

    def to_csv(self, fh=None) -> str | None:
        own = fh is None
        out = io.StringIO() if own else fh
        m = len(self.state.tracked_dirs)
        cols = ["n", "r", "vertex_count"] + [f"confinement_{i}" for i in range(m)]
        out.write(",".join(cols) + "\n")
        for cp in self.series:
            cells = [str(cp.n), format_number(cp.r), str(cp.vertex_count)]
            cells += [format_number(x) for x in cp.confinements]
            out.write(",".join(cells) + "\n")
        if own:
            return out.getvalue()
        return None


@dataclass
class HullGrowthReport:
    series: list[HullCheckpoint]
    flag: str
    stabilized_dirs: list[int]
    tracked_dirs: np.ndarray


def hull_growth_report(tracker: HullTracker, window: int = 3) -> HullGrowthReport:
    """Trend flags from the checkpoint series.

    FULL_SPACE_TREND: the inscribed radius grew at ``window`` or more of the
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
    if len(series) >= window + 1:
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
        elif growth_events >= window:
            flag = FULL_SPACE_TREND
    return HullGrowthReport(series=series, flag=flag, stabilized_dirs=stabilized,
                            tracked_dirs=tracker.state.tracked_dirs)
