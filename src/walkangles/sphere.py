"""Spherical convexity primitives.

All sphere metrics here are chordal: the distance between unit vectors u, v
is the Euclidean norm ||u - v|| (range [0, 2]), and every public contract is
stated in chords.

The spherical hull of a finite set of unit vectors is the radial projection
of their Euclidean convex hull with the origin removed.  Equivalently it is
the set of normalized positive combinations, i.e. the unit vectors of the
conical hull.  For d = 2 we build explicit closed arcs; for d >= 3 we build
an exact halfspace description of the conical hull (within the generators'
linear span), which makes membership a batch of dot products.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MEMBERSHIP_TOL",
    "UnsupportedDimensionError",
    "normalize",
    "normalize_rows",
    "row_norms",
    "hat",
    "chord",
    "interpolate",
    "Cap",
    "cap_contains",
    "SHull",
    "s_hull",
    "direction_grid",
    "MAX_GRID_M",
]

MEMBERSHIP_TOL = 1e-9
_UNIT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


class UnsupportedDimensionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# normalization: every direction the package takes comes from these two.
# Only where |x|^2 overflows (finite coordinates past about 1.3e154) is x first
# scaled by peak = max|x_i| (Blue, ACM TOMS 4(1), 1978): ||x|| = peak*||x/peak||.
# Zero maps to zero with log-norm -inf; a NaN or infinite coordinate gives NaN.
# The forms round differently: a 1-d norm is a BLAS dot product, and a row
# norm is the fixed-order sum ((x0*x0 + x1*x1) + x2*x2) ..., taken column by
# column so that every pass runs along the block.  Below 8 coordinates that is
# the sum numpy's row reduction takes (it adds fewer than 8 entries left to
# right), so each caller keeps the bytes its pins were taken on.

def normalize(x) -> tuple[np.ndarray, float, float]:
    """``(x / ||x||, ||x||, log ||x||)`` of one vector, without overflow."""
    v = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(np.linalg.norm(v))
        peak = 1.0
        if math.isinf(r) and np.isfinite(v).all():
            peak = float(np.abs(v).max())
            r = float(np.linalg.norm(v / peak))
        if r == 0.0:
            return np.zeros_like(v), 0.0, -math.inf
        return v / peak / r, peak * r, math.log(peak) + math.log(r)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """``sqrt((x0*x0 + x1*x1) + ...)`` of each row of a (B, d) float array,
    summed left to right one column at a time."""
    cols = rows.T
    sq = cols[0] * cols[0]
    for col in cols[1:]:
        sq += col * col
    return np.sqrt(sq, out=sq)


def normalize_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row by row ``(row / ||row||, ||row||, log ||row||)`` of a (B, d) array,
    without overflow."""
    rows = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(rows)
        nz = norms != 0.0
        safe = np.where(nz, norms, 1.0)
        log_norms = np.where(nz, np.log(safe), -math.inf)
        dirs = np.where(nz[:, None], rows / safe[:, None], 0.0)
        huge = np.isinf(norms)
        if huge.any():
            huge &= np.isfinite(rows).all(axis=1)
            peak = np.abs(rows[huge]).max(axis=1, keepdims=True)
            scaled = rows[huge] / peak
            sub = row_norms(scaled)[:, None]
            dirs[huge] = scaled / sub
            log_norms[huge] = np.log(peak[:, 0]) + np.log(sub[:, 0])
            norms[huge] = peak[:, 0] * sub[:, 0]
    return dirs, norms, log_norms


def hat(x) -> np.ndarray:
    """x / ||x||, with the zero vector mapping to itself."""
    return normalize(x)[0]


def chord(u, v) -> float:
    return float(np.linalg.norm(np.asarray(u, dtype=float) - np.asarray(v, dtype=float)))


def interpolate(u, v, alpha: float) -> np.ndarray:
    """Normalized convex combination (alpha*u + (1-alpha)*v) / ||...||.

    Antipodal inputs with alpha = 1/2 have no direction; that single
    degenerate case returns the zero vector.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = alpha * u + (1.0 - alpha) * v
    n = np.linalg.norm(w)
    if n <= _UNIT_TOL:
        return np.zeros_like(w)
    return w / n


@dataclass(frozen=True)
class Cap:
    """Open chordal cap: nonzero x with ||hat(x) - center|| < radius."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"cap radius must be positive, got {self.radius}")
        c = np.asarray(self.center, dtype=float)
        if abs(np.linalg.norm(c) - 1.0) > _UNIT_TOL:
            raise ValueError("cap center must be a unit vector")


def cap_contains(cap: Cap, x) -> bool:
    """Strict chord test; the origin belongs to no cap."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        return False
    return chord(hat(x), cap.center) < cap.radius


# ---------------------------------------------------------------------------
# spherical hulls

def _angle_of(v) -> float:
    a = math.atan2(v[1], v[0])
    return a + TWO_PI if a < 0 else a


class SHull:
    """Spherical hull of a finite generator set, with membership queries.

    d = 2 instances carry explicit closed arcs ``(start, end)`` with
    0 <= start < 2*pi and start <= end <= start + 2*pi (end - start == 2*pi
    encodes the full circle; start == end encodes a single point).  d >= 3
    instances carry the conical hull's span basis and facet normals.
    Membership is closed: points within MEMBERSHIP_TOL of the set count.
    """

    def __init__(self, generators):
        gens = np.atleast_2d(np.asarray(generators, dtype=float))
        if gens.size == 0:
            raise ValueError("s_hull needs at least one generator")
        norms = np.linalg.norm(gens, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):      # NaN fails too
            raise ValueError("s_hull generators must be finite unit vectors")
        self.generators = gens
        self.dimension = gens.shape[1]
        self.arcs: list[tuple[float, float]] | None = None
        self._span = None          # orthonormal basis of span(generators), (d, k)
        self._normals = None       # facet normals in span coordinates, (f, k)
        if self.dimension == 2:
            self.arcs = self._build_arcs(gens)
        else:
            self._build_cone(gens)

    # -- d = 2: arcs ---------------------------------------------------------

    @staticmethod
    def _build_arcs(gens: np.ndarray) -> list[tuple[float, float]]:
        angles = np.unique([_angle_of(g) % TWO_PI for g in gens])
        if len(angles) == 1:
            a = float(angles[0])
            return [(a, a)]
        # all generators on one line through the origin -> two antipodal points
        base = angles[0]
        folded = np.abs((angles - base + math.pi) % TWO_PI - math.pi)
        if np.all((folded < 1e-12) | (np.abs(folded - math.pi) < 1e-12)):
            if np.any(np.abs(folded - math.pi) < 1e-12):
                second = (base + math.pi) % TWO_PI
                pair = sorted((base, second))
                return [(pair[0], pair[0]), (pair[1], pair[1])]
            return [(base, base)]
        ordered = np.sort(angles)
        gaps = np.diff(np.concatenate([ordered, [ordered[0] + TWO_PI]]))
        gi = int(np.argmax(gaps))
        max_gap = float(gaps[gi])
        if max_gap < math.pi - 1e-12:
            # origin interior to the generators' hull: the whole circle
            return [(0.0, TWO_PI)]
        start = float(ordered[(gi + 1) % len(ordered)])
        length = TWO_PI - max_gap
        return [(start, start + length)]

    # -- d >= 3: conical hull halfspaces --------------------------------------

    def _build_cone(self, gens: np.ndarray) -> None:
        d = self.dimension
        uniq = np.unique(np.round(gens, 12), axis=0)
        u_mat, s_vals, _ = np.linalg.svd(uniq.T @ uniq)
        k = int(np.sum(s_vals > 1e-12 * max(1.0, s_vals[0])))
        basis = u_mat[:, :k]
        reduced = uniq @ basis  # (m, k)
        self._span = basis
        m = reduced.shape[0]
        if k == 0:
            raise ValueError("degenerate generator set")
        n_subsets = math.comb(m, k - 1)
        if n_subsets > 2_000_000:
            raise ValueError(
                f"too many generators for facet enumeration ({m} in span dim {k})")
        normals: list[np.ndarray] = []
        if k == 1:
            # 0-dimensional "subsets": candidate normals are the two signs
            for n_vec in (np.array([1.0]), np.array([-1.0])):
                if np.all(reduced @ n_vec <= 1e-12):
                    normals.append(n_vec)
        else:
            subsets = list(itertools.combinations(range(m), k - 1))
            stacked = reduced[np.array(subsets, dtype=int)]  # (S, k-1, k)
            _, sv, vt = np.linalg.svd(stacked)
            # only subsets of full rank k-1 pin down a unique normal direction
            ok = sv[:, -1] > 1e-10
            for cand, good in zip(vt[:, -1, :], ok):
                if not good:
                    continue
                dots = reduced @ cand
                if np.all(dots <= 1e-10):
                    normals.append(cand)
                elif np.all(dots >= -1e-10):
                    normals.append(-cand)
        if normals:
            arr = np.vstack(normals)
            arr = np.unique(np.round(arr, 9), axis=0)
        else:
            arr = np.zeros((0, k))
        self._normals = arr

    # -- queries ---------------------------------------------------------------

    def is_full_sphere(self) -> bool:
        if self.arcs is not None:
            return any(e - s >= TWO_PI - 1e-12 for s, e in self.arcs)
        return self._span.shape[1] == self.dimension and self._normals.shape[0] == 0

    def contains(self, w) -> bool:
        return bool(self.contains_many(np.asarray(w, dtype=float)[None, :])[0])

    def contains_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.arcs is not None:
            ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
            out = np.zeros(len(pts), dtype=bool)
            for s, e in self.arcs:
                rel = np.mod(ang - s, TWO_PI)
                length = e - s
                out |= (rel <= length + MEMBERSHIP_TOL) | (rel >= TWO_PI - MEMBERSHIP_TOL)
            return out
        proj = pts @ self._span
        resid = np.linalg.norm(pts - proj @ self._span.T, axis=1)
        ok = resid <= MEMBERSHIP_TOL
        if self._normals.shape[0]:
            ok &= np.all(proj @ self._normals.T <= MEMBERSHIP_TOL, axis=1)
        return ok

    def boundary(self):
        """Boundary relative to the sphere; exact for d = 2 and d = 3."""
        if self.arcs is not None:
            if self.is_full_sphere():
                return []
            pts = []
            for s, e in self.arcs:
                pts.append(np.array([math.cos(s), math.sin(s)]))
                if e - s > 1e-12:
                    pts.append(np.array([math.cos(e), math.sin(e)]))
            return pts
        if self.dimension != 3:
            raise UnsupportedDimensionError(
                "boundary description is available for d <= 3 only")
        k = self._span.shape[1]
        if k < 3:
            # flat hull: the set has empty interior on the sphere, so it is its
            # own boundary; report it through the generators' spanning arcs
            return [{"start": g, "end": g, "via": g} for g in self.generators]
        if self._normals.shape[0] == 0:
            return []
        edges = []
        reduced = self.generators @ self._span
        for n_vec in self._normals:
            on_facet = reduced[np.abs(reduced @ n_vec) <= 1e-9]
            if len(on_facet) == 0:
                continue
            # orthonormal frame of the facet plane
            b1 = on_facet[0] / np.linalg.norm(on_facet[0])
            b2 = np.cross(n_vec, b1)
            ang = np.arctan2(on_facet @ b2, on_facet @ b1)
            lo, hi = float(np.min(ang)), float(np.max(ang))
            span3 = self._span

            def lift(theta):
                v = math.cos(theta) * b1 + math.sin(theta) * b2
                return span3 @ v

            edges.append({"start": lift(lo), "end": lift(hi),
                          "via": lift(0.5 * (lo + hi)),
                          "normal": span3 @ n_vec})
        return edges

    def to_json(self) -> str:
        """d = 2 arcs as a JSON list of [start, end] in radians.

        Starts lie in [0, 2*pi); an arc that wraps past 2*pi is split in two.
        The full circle is the single pair [0.0, 2*pi].
        """
        if self.arcs is None:
            raise UnsupportedDimensionError("arc serialization applies to d = 2 hulls")
        out = []
        for s, e in self.arcs:
            if e - s >= TWO_PI - 1e-12:
                out.append([0.0, TWO_PI])
            elif e > TWO_PI:
                out.append([s, TWO_PI])
                out.append([0.0, e - TWO_PI])
            else:
                out.append([s, e])
        return json.dumps(out)


def s_hull(generators) -> SHull:
    """Spherical hull of a nonempty set of unit vectors."""
    return SHull(generators)


# ---------------------------------------------------------------------------
# direction grids

# grid size bound: a block of 2**14 steps is tested against a whole grid in
# one (block x grid) float64 product, 512 MiB at 4096 points
MAX_GRID_M = 4096
# (d, m, seed) -> its grid, built once per process
_GRIDS: dict[tuple[int, int, int], np.ndarray] = {}


def direction_grid(d: int, m: int, seed: int = 0) -> np.ndarray:
    """Deterministic evaluation grid of m unit vectors in R^d, 1 <= m <= MAX_GRID_M.

    d = 2 uses equally spaced angles starting at 0.  d >= 3 draws Gaussian
    candidates from a seeded Philox stream and keeps, for each slot, the
    candidate farthest from the points chosen so far (best-candidate
    sampling, Mitchell 1991), which keeps the grid well separated.  The first
    point is one draw of d; then the 32 candidates of every later slot are
    drawn in one call and normalized together (the stream and
    ``normalize_rows`` give the values slot-by-slot draws gave).  Each
    candidate keeps a running minimum of its squared distance to the points
    chosen so far, the fixed-order sum ``((dx0*dx0 + dx1*dx1) + dx2*dx2)
    ...``, updated with each new point for the slots after it.  A slot takes
    the first of its candidates with the largest ``sqrt`` of that minimum:
    ``sqrt`` is correctly rounded and monotone, so ``sqrt(min s)`` is ``min
    sqrt(s)`` bit for bit, and the argmax breaks ties as the former
    per-slot ``np.linalg.norm`` did.  Below 8 coordinates the fixed-order
    sum is the one numpy's row reduction takes (see the notes on
    normalization), so the grid is the former build's, byte for byte; from
    8 on numpy adds pairwise, and the two could differ only where two
    candidates' distances tie to the last bit (they do not at d = 8, 9 and
    12 for m <= 256).

    Each grid is built once per process and shared by every caller, so it is
    returned read-only.
    """
    key = (operator.index(d), operator.index(m), operator.index(seed))
    grid = _GRIDS.get(key)
    if grid is None:
        grid = _build_grid(*key)
        grid.setflags(write=False)
        _GRIDS[key] = grid
    return grid


def _build_grid(d: int, m: int, seed: int) -> np.ndarray:
    if not 1 <= m <= MAX_GRID_M:
        raise ValueError(f"grid size must be in 1..{MAX_GRID_M}, got {m}")
    if d < 2:
        raise ValueError("direction grids need d >= 2")
    if d == 2:
        theta = TWO_PI * np.arange(m) / m
        return np.column_stack([np.cos(theta), np.sin(theta)])
    from .rng import stream
    rng = stream(seed)
    n_cand = 32
    points = np.empty((m, d))
    points[0] = normalize(rng.standard_normal(d))[0]
    # the candidates of slots 1 .. m-1, 32 each, coordinate-major
    cand = np.ascontiguousarray(normalize_rows(rng.standard_normal(((m - 1) * n_cand, d)))[0].T)
    mind = np.full(cand.shape[1], np.inf)       # squared distance to the nearest point so far
    dx, sq = np.empty_like(mind), np.empty_like(mind)
    for i in range(1, m):
        # fold point i - 1 into the candidates of slots i and later
        a = (i - 1) * n_cand
        later = cand[:, a:]
        n = later.shape[1]
        np.subtract(later[0], points[i - 1, 0], out=sq[:n])
        np.multiply(sq[:n], sq[:n], out=sq[:n])
        for k in range(1, d):
            np.subtract(later[k], points[i - 1, k], out=dx[:n])
            np.multiply(dx[:n], dx[:n], out=dx[:n])
            np.add(sq[:n], dx[:n], out=sq[:n])
        np.minimum(mind[a:], sq[:n], out=mind[a:])
        points[i] = later[:, np.argmax(np.sqrt(mind[a:a + n_cand]))]
    return points
