"""Cap-visit accounting and direction-set estimates.

A walk's asymptotic direction set is approximated on a fixed grid of unit
vectors: every step whose direction lands within the cap radius of a grid
point, at a norm beyond one of the geometrically spaced escape levels,
counts as visit evidence for that grid point.  A point is judged IN when it
keeps being visited at every escape level up to the highest level the run
reached, OUT when it is never seen beyond a low level, UNDECIDED otherwise.
These verdicts are finite-sample heuristics; every threshold is a config
knob and is echoed into output metadata.

Graded membership tracks, per grid point and per growth exponent a, whether
the walk exceeded ||S_n|| > kappa * n**a inside the cap during at least two
distinct dyadic time windows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .samplers import check_finite
from .sphere import MAX_GRID_M, direction_grid, normalize
from .walk import NEG_INF, ObserverBase, WalkBlock, csv_text

__all__ = [
    "EstimatorConfig",
    "MAX_ESCAPE_LEVELS",
    "CapVisitAccumulator",
    "DirectionSetEstimate",
    "ConsensusEstimate",
    "combine_runs",
    "IN", "OUT", "UNDECIDED", "VERDICT_NAMES",
]

IN, UNDECIDED, OUT = 1, 0, -1
VERDICT_NAMES = {IN: "IN", OUT: "OUT", UNDECIDED: "UNDECIDED"}
_LN2 = math.log(2.0)
_INT16_MAX = np.iinfo(np.int16).max


MAX_ESCAPE_LEVELS = 1024


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of the cap-visit estimator.

    Size fields are bounded so that a config cannot ask for arrays numpy
    cannot allocate.  ``grid_m`` is at most ``MAX_GRID_M`` (4096): where a
    block is tested against the whole grid, it is taken in slices of at
    most ``2**20 // grid_m`` rows, so each slice's (grid x rows) float64
    product takes at most 8 MiB and its hit mask and mask of pairs near the
    cap's edge 1 MiB each, at any ``grid_m``.  A slice has at most 2**20
    hits, each taken with an int64 row and column and, per alpha, its
    statistic and window.  ``escape_levels`` is at most
    ``MAX_ESCAPE_LEVELS`` (1024): the visit table holds
    ``grid_m x (escape_levels + 1)`` int64 counts that every block rebuilds
    (32 MiB at both bounds), and 1024 doublings of an ``escape_r0`` of at
    least 1 already pass every finite float norm.
    """

    grid_m: int = 64
    grid_seed: int = 0
    cap_radius: float = 0.3
    escape_r0: float = 10.0
    escape_levels: int = 8          # levels are r0 * 2**l, l = 0..escape_levels
    burn_in: int = 0
    v_min: int = 3                  # visits required at the top reached level
    out_level: int = 1              # OUT iff no visits above this level
    min_top_level: int = 2          # IN requires the run to reach this level
    kappa: float = 0.1
    alphas: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    band_axis: tuple[float, ...] | None = None
    band_threshold: float = 0.3

    def __post_init__(self):
        check_finite(self, "estimator")
        if not 1 <= self.grid_m <= MAX_GRID_M:
            raise ValueError(f"estimator.grid_m must be in 1..{MAX_GRID_M}")
        if self.grid_seed < 0:
            raise ValueError("estimator.grid_seed must be >= 0")
        if self.burn_in < 0:
            raise ValueError("estimator.burn_in must be >= 0")
        if not (0 < self.cap_radius <= 2):
            raise ValueError("estimator.cap_radius must be in (0, 2]")
        if self.escape_r0 <= 0:
            raise ValueError("estimator.escape_r0 must be positive")
        if not 0 <= self.escape_levels <= MAX_ESCAPE_LEVELS:
            raise ValueError(f"estimator.escape_levels must be in 0..{MAX_ESCAPE_LEVELS}")
        if self.min_top_level > self.escape_levels:
            raise ValueError("estimator.min_top_level must be <= escape_levels, the top level")
        if self.v_min < 1:
            raise ValueError("estimator.v_min must be >= 1")
        if self.out_level < -1:
            # finalize reads the visits above out_level; -1 reads every level
            raise ValueError("estimator.out_level must be >= -1")
        if self.kappa <= 0:
            raise ValueError("estimator.kappa must be positive")
        if self.band_axis is not None and not any(self.band_axis):
            raise ValueError("estimator.band_axis must not be all zeros")

    @classmethod
    def defaults_for(cls, spec) -> "EstimatorConfig":
        """Default knobs: larger grids for d >= 3, higher escape floor for
        log-tailed radial specs whose norms explode."""
        return cls(grid_m=64 if spec.dimension == 2 else 256,
                   escape_r0=1e3 if spec.scale_mode == "log" else 10.0)


# rows and grid points are unit vectors to within this slack on |x|^2
_UNIT_SLACK = 2.0 ** -20
_ROUNDING = 2.0 ** -53              # unit roundoff of float64
# the cube grid of a cell table has at most this many cells
_MAX_CELLS = 1 << 16
# a cell table is used when its mean edge list holds at most M/16 points
_PRUNE_FACTOR = 16
# passes of fewer tested rows take the product: on the seed-0 workloads'
# blocks, measured with one pass per checkpoint piece (2-core Xeon), the cap
# layer of manyruns, whose 512-row pieces make short cell runs, took 0.099 s
# at 512 and 0.085-0.092 s at 1024; hull2d and caps3d took the same at 256,
# 512 and 1024 (0.051-0.053, 0.101-0.107 s)
_TABLE_ROWS = 1024
# a cell table has about this many cells per sqrt(d) / r along each axis;
# measured on the caps3d walks (d = 3, cap 0.3), 32 or 40 cells (factors
# 5.5 and 6.8) cut observe by 5-12% but took 10-20 ms more to build
_CELLS_PER_RADIUS = 4.0


def _fixed_dots(dirs: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """E = ``((u0*g0 + u1*g1) + u2*g2) ...`` of each row u of ``dirs`` with
    the vector g: unfused multiplies and adds in coordinate order, which IEEE
    rounds the same way on every host.  E is the dot of the cap and band
    tests."""
    dots = dirs[:, 0] * vec[0]
    for i in range(1, dirs.shape[1]):
        dots += dirs[:, i] * vec[i]
    return dots


def _pair_dots(dirs: np.ndarray, vecs_t: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """E of row ``rows[j]`` of ``dirs`` with column ``cols[j]`` of the
    coordinate-major ``vecs_t``, for each j, in the order of
    :func:`_fixed_dots`, from one 1-D ``take`` per coordinate."""
    dots = dirs[:, 0].take(rows)
    dots *= vecs_t[0].take(cols)
    for i in range(1, dirs.shape[1]):
        term = dirs[:, i].take(rows)
        term *= vecs_t[i].take(cols)
        dots += term
    return dots


class _CellTable:
    """Grid points that can share a cap with a direction, per cube cell.

    A direction u lies in the cube cell with coordinates
    ``floor((u_i + 1) * C / 2)`` (clipped to 0..C-1).  Only cells that meet
    the shell ``1 - s <= |x|^2 <= 1 + s`` (s = ``_UNIT_SLACK``) are tabled.
    With ``r^2 = 2 - 2 * dot_min``, each lists every grid point g whose
    squared Euclidean distance to the cell's box, widened by s on every side,
    is below ``r^2 + 4s`` (the *nearest* point of the box), and splits the
    list in two: the *sure* points, whose squared distance to the *farthest*
    point of the widened box is below ``r^2 - 4s``, and the *edge* points,
    the others.  C is about ``_CELLS_PER_RADIUS * sqrt(d) / r``, capped so
    that ``C**d <= _MAX_CELLS``.

    u lies in its cell's widened box (the widening covers the rounding of
    the cell coordinate and coordinates up to ``sqrt(1 + s)``), so ``|u -
    g|^2`` lies between the squared distances to the box's nearest and
    farthest points.  Rows and grid points are unit to within the slack,
    ``1 - s/2 <= |x|^2 <= 1 + s/2``, and the exact dot is ``(|u|^2 + |g|^2 -
    |u - g|^2) / 2``.  Any float evaluation of a d-term dot of such vectors
    errs by at most ``gamma_d * |u| |g| <= gamma_d (1 + s)`` with ``gamma_d =
    d u / (1 - d u)`` (u = 2^-53).  That error, and the rounding of the
    distances and of r^2, are far below s.  So:

    - a point left out of u's list is never a hit: ``|u - g|^2 >= r^2 +
      4s`` gives an exact dot ``<= dot_min - s``, and E is below dot_min;
    - a sure point is a hit of every row of the cell: ``|u - g|^2 < r^2 -
      4s`` gives an exact dot ``>= dot_min + s``, and E is above dot_min.

    The proof asks only that u lie in the box, so it holds on any box that
    holds the rows.  :meth:`split_runs` sorts a cell's edge points again by
    a smaller box, the coordinate minima and maxima of a run of rows in the
    cell, widened by s, with the same rule (:meth:`_split`): the points
    sure for every row of the run, the points no row of it hits, and the
    points between, which alone need E.  The edge lists are padded to the
    longest with index M, whose coordinates are NaN: a NaN fails both
    comparisons, so on any box a padded slot is neither sure nor between,
    and E never reads it.  Each coordinate of the edge points is stored
    cell-major, ``coords[i]`` of shape (cells, K), so a run gathers one
    contiguous row of each.  The sure points of cell c are
    ``sure[sure_ptr[c]:sure_ptr[c + 1]]``, and ``mean_edges`` is the mean
    length of the unpadded edge lists.
    """

    def __init__(self, grid: np.ndarray, dot_min: float):
        m, d = grid.shape
        r2 = 2.0 - 2.0 * dot_min
        per_axis = math.ceil(_CELLS_PER_RADIUS * math.sqrt(d / r2)) if r2 > 0 else _MAX_CELLS
        c = max(2, min(per_axis, int(round(_MAX_CELLS ** (1.0 / d)))))
        while c ** d > _MAX_CELLS:
            c -= 1
        self.cells = c
        s = _UNIT_SLACK
        edges = -1.0 + 2.0 * np.arange(c + 1) / c
        lo, hi = edges[:-1] - s, edges[1:] + s
        near2 = np.where((lo < 0) & (hi > 0), 0.0, np.minimum(lo * lo, hi * hi))
        far2 = np.maximum(lo * lo, hi * hi)
        near_tot, far_tot = near2, far2
        for _ in range(d - 1):
            near_tot = near_tot[..., None] + near2
            far_tot = far_tot[..., None] + far2
        shell = np.flatnonzero((near_tot.ravel() <= 1.0 + s) & (far_tot.ravel() >= 1.0 - s))
        n_cells = len(shell)
        self.slot = np.full(c ** d, -1, dtype=np.int64)
        self.slot[shell] = np.arange(n_cells)
        # squared gap from each grid coordinate to each cell's interval: (d, C, M)
        gap = np.maximum(np.maximum(lo[:, None] - grid.T[:, None, :],
                                    grid.T[:, None, :] - hi[:, None]), 0.0)
        gap2 = gap * gap
        cell = np.unravel_index(shell, (c,) * d)
        self.r2 = r2
        step = max(1, (1 << 20) // m)                  # (cells x M) temporaries of 8 MiB
        pairs = []
        for a in range(0, n_cells, step):
            dist2 = gap2[0].take(cell[0][a:a + step], axis=0)
            for i in range(1, d):
                dist2 += gap2[i].take(cell[i][a:a + step], axis=0)
            rows, cols = np.nonzero(dist2 < r2 + 4.0 * s)
            rows += a
            sure = self._split(grid[cols].T, [lo[k[rows]] for k in cell],
                               [hi[k[rows]] for k in cell])[0]
            pairs.append((rows, cols, sure))
        rows, cols, sure = (np.concatenate(p) for p in zip(*pairs))
        self.sure = cols[sure].astype(np.int16 if m < _INT16_MAX else np.int64)
        self.sure_ptr = np.concatenate([[0], np.bincount(rows[sure], minlength=n_cells).cumsum()])
        self._edge_pairs = rows[~sure], cols[~sure]
        self.mean_edges = len(self._edge_pairs[0]) / n_cells
        self._grid = grid
        for arr in (self.slot, self.sure, self.sure_ptr):
            arr.setflags(write=False)               # shared, see _table_for

    @cached_property
    def table(self) -> np.ndarray:
        """The padded edge lists, (cells, K); built on first use."""
        rows, cols = self._edge_pairs
        counts = np.bincount(rows, minlength=len(self.sure_ptr) - 1)
        table = np.full((len(counts), max(1, counts.max())), len(self._grid), dtype=self.sure.dtype)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        table[rows, np.arange(len(rows)) - first[rows]] = cols
        table.setflags(write=False)
        return table

    @cached_property
    def coords(self) -> np.ndarray:
        """The edge points' coordinates, (d, cells, K); built on first use."""
        ext = np.vstack([self._grid, np.full(self._grid.shape[1], np.nan)])      # row M is NaN
        coords = np.ascontiguousarray(np.moveaxis(ext[self.table], 2, 0))
        coords.setflags(write=False)
        return coords

    def _split(self, coords, lo, hi):
        """(sure, edge) masks of points against boxes, coordinate by
        coordinate: ``coords[i]``, ``lo[i]`` and ``hi[i]`` broadcast to the
        shape of the masks.  A point is sure when its squared distance to the
        box's farthest point is below ``r^2 - 4s``, and edge when it is not
        sure and its squared distance to the box's nearest point is below
        ``r^2 + 4s``.  ``minimum`` and ``maximum`` carry a NaN coordinate
        into both distances, so a NaN point is neither.  The farthest
        point's gap ``max(g - lo, hi - g)`` is taken as ``-min(lo - g, g -
        hi)``, the same float: IEEE negation commutes with rounding."""
        s = _UNIT_SLACK
        near2 = far2 = 0.0
        for g, a, b in zip(coords, lo, hi):
            below, above = a - g, g - b
            far = np.minimum(below, above)
            far *= far
            far2 = far2 + far
            gap = np.maximum(below, above, out=below)
            np.maximum(gap, 0.0, out=gap)
            gap *= gap
            near2 = near2 + gap
        sure = far2 < self.r2 - 4.0 * s
        return sure, (near2 < self.r2 + 4.0 * s) & ~sure

    def split_runs(self, slots: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """(sure, edge) masks, (R, K) each, over the edge lists
        ``table[slots]`` of R runs whose rows lie in the boxes ``lo .. hi``,
        (R, d) each, which are widened by s."""
        s = _UNIT_SLACK
        lo, hi = (lo - s).T[:, :, None], (hi + s).T[:, :, None]
        return self._split([g.take(slots, axis=0) for g in self.coords], lo, hi)

    def sure_of(self, slots: np.ndarray):
        """(index into ``slots``, grid column) of every sure point of each
        slot's cell."""
        first = self.sure_ptr[slots]
        lens = self.sure_ptr[slots + 1] - first
        return (np.repeat(np.arange(len(slots)), lens),
                self.sure.take(_ranges(first, lens)).astype(np.intp))

    def cell_of(self, dirs: np.ndarray) -> np.ndarray:
        """Table row of each direction, -1 where a row is not unit to within
        the slack (so the table does not cover it), rows with a NaN or an
        infinite coordinate included."""
        c = self.cells
        norm2 = np.einsum("ij,ij->i", dirs, dirs)
        unit = np.abs(norm2 - 1.0) <= _UNIT_SLACK / 2
        idx = dirs + 1.0
        idx *= c / 2.0
        np.floor(idx, out=idx)
        if not unit.all():
            idx[~unit] = 0.0                # a NaN does not cast to an index
        np.clip(idx, 0, c - 1, out=idx)
        flat = idx[:, 0].copy()             # whole numbers below 2**16: exact
        for i in range(1, dirs.shape[1]):
            flat *= c
            flat += idx[:, i]
        slots = self.slot.take(flat.astype(np.int64))
        slots[~unit] = -1
        return slots


# (grid shape, grid bytes, dot_min) -> the grid's cell table, or None where
# the dense expression decides every block; each is decided once per process
_TABLES: dict[tuple, "_CellTable | None"] = {}


def _table_for(grid: np.ndarray, dot_min: float) -> "_CellTable | None":
    """The cell table of ``grid`` and ``dot_min`` when every grid point is unit
    to within the slack and its mean edge list holds at most ``M /
    _PRUNE_FACTOR`` points, else None.  The rule is read before the padded
    edge table is built, so a rejected pair never builds it."""
    key = (grid.shape, grid.tobytes(), dot_min)
    if key not in _TABLES:
        table = None
        norm2 = np.einsum("ij,ij->i", grid, grid)
        if np.all(np.abs(norm2 - 1.0) <= _UNIT_SLACK / 2):
            table = _CellTable(grid, dot_min)
            if table.mean_edges * _PRUNE_FACTOR > len(grid):
                table = None
        _TABLES[key] = table
    return _TABLES[key]


def _ranges(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(first[i], first[i] + lens[i])`` for each i, concatenated."""
    ends = lens.cumsum()
    out = np.repeat(first + lens - ends, lens)
    out += np.arange(ends[-1] if len(ends) else 0)
    return out


def _group_edges(dirs: np.ndarray, log_norms: np.ndarray,
                 piece: np.ndarray) -> np.ndarray | None:
    """The first row of each maximal run of consecutive rows of one piece
    equal under ``==`` in log-norm and every coordinate, then the row count;
    None when every row is its own run (one ``!=`` pass over the log-norms
    decides most linear-walk blocks)."""
    same = log_norms[1:] == log_norms[:-1]
    if not same.any():
        return None
    same &= piece[1:] == piece[:-1]
    for i in range(dirs.shape[1]):
        same &= dirs[1:, i] == dirs[:-1, i]
    if not same.any():
        return None
    new = np.ones(len(dirs) + 1, dtype=bool)
    np.logical_not(same, out=new[1:-1])
    return new.nonzero()[0]


class CapVisitAccumulator(ObserverBase):
    """Observer collecting per-(grid point, escape level) visit evidence."""

    def __init__(self, config: EstimatorConfig, dimension: int,
                 grid: np.ndarray | None = None):
        self.config = config
        self.grid = direction_grid(dimension, config.grid_m, config.grid_seed) \
            if grid is None else np.asarray(grid, dtype=float)
        m = len(self.grid)
        n_lv = config.escape_levels + 1
        self.visits = np.zeros((m, n_lv), dtype=np.int64)
        self.graded_max = np.full((m, len(config.alphas)), NEG_INF)
        self.graded_windows = np.zeros((m, len(config.alphas)), dtype=np.int64)
        self.level_totals = np.zeros(n_lv, dtype=np.int64)
        self.level_band_hits = np.zeros(n_lv, dtype=np.int64)
        self.n_steps_seen = 0
        self.repeated_rows = 0          # live rows whose hits came from the row before
        self._held: list[WalkBlock] = []    # pieces of an engine block, see observe
        self._dot_min = 1.0 - config.cap_radius ** 2 / 2.0  # chord < r as a dot bound
        self._log_r0 = math.log(config.escape_r0)
        self._alphas = np.asarray(config.alphas, dtype=float)
        # the band test reads the axis's direction only
        self._band_axis = None if config.band_axis is None else normalize(config.band_axis)[0]
        d = self.grid.shape[1]
        gamma = d * _ROUNDING / (1.0 - d * _ROUNDING)
        self._width = 2.0 * (2.0 * gamma * (1.0 + _UNIT_SLACK))    # 2b per unit of P, see observe
        self._grid_l1 = float(np.fmax.reduce(np.abs(self.grid).sum(axis=1), initial=0.0))
        self._grid_t = np.ascontiguousarray(self.grid.T)
        self._table = _table_for(self.grid, self._dot_min)

    # level index of each norm: largest l with norm > r0 * 2**l, or -1
    def _levels_of(self, log_norms: np.ndarray) -> np.ndarray:
        ratio = (log_norms - self._log_r0) / _LN2
        lvl = np.zeros(len(ratio))
        # ceil(x) - 1 is the largest l < x, so a norm on a level edge is not
        # beyond it; +inf and nan stay at level -1
        np.ceil(ratio, out=lvl, where=ratio < np.inf)
        lvl -= 1.0
        np.maximum(lvl, -1.0, out=lvl)
        np.minimum(lvl, self.config.escape_levels, out=lvl)
        return lvl.astype(np.int64)

    def _table_hits(self, dirs: np.ndarray, bucket: np.ndarray, piece: np.ndarray):
        """The first row of each cell run, then (row, grid column) of every
        hit by column and then piece (see :meth:`observe`); row ``len(dirs) +
        j`` is cell run j, with its sure points.  None when a row is not
        covered by the table."""
        table = self._table
        slot = table.cell_of(dirs)
        if slot.min() < 0:
            return None
        # cell runs: maximal runs of rows in one cell at one level
        new = np.empty(len(slot), dtype=bool)
        new[0] = True
        np.not_equal(slot[1:], slot[:-1], out=new[1:])
        new[1:] |= bucket[1:] != bucket[:-1]
        new[1:] |= piece[1:] != piece[:-1]
        run_starts = new.nonzero()[0]
        run_slot = slot[run_starts]
        # each run's edge points, sorted by the box of its own rows
        sure, edge = table.split_runs(run_slot, np.minimum.reduceat(dirs, run_starts),
                                      np.maximum.reduceat(dirs, run_starts))
        listed = table.table.take(run_slot, axis=0)
        cell_runs, cell_cols = table.sure_of(run_slot)
        box_runs, k = sure.nonzero()
        # the points left between take E on every row of their run
        runs, j = edge.nonzero()
        size = np.diff(run_starts, append=len(slot))[runs]
        rows = _ranges(run_starts[runs], size)
        cols = np.repeat(listed[runs, j].astype(np.intp), size)
        hit = _pair_dots(dirs, self._grid_t, rows, cols) > self._dot_min
        n = len(dirs)
        rows = np.concatenate([rows[hit], n + cell_runs, n + box_runs])
        cols = np.concatenate([cols[hit], cell_cols, listed[box_runs, k]])
        # a column's E hits, cell hits and box hits are each in piece order,
        # but not together: sort by (column, piece)
        pieces = int(piece[-1]) + 1
        key = cols * pieces + np.concatenate([piece, piece[run_starts]]).take(rows)
        order = np.argsort(key.astype(np.uint16) if len(self.grid) * pieces <= 1 << 16 else key,
                           kind="stable")
        return run_starts, rows[order], cols[order]

    def _dense_hits(self, dirs: np.ndarray):
        """(rows, cols) of ``E > dot_min`` by column, then row, in slices of
        at most ``2**20 // M`` rows (temporaries of 8 MiB).  BLAS's ``grid @
        dirs.T`` decides every pair outside ``dot_min +- 2b`` (see
        :meth:`observe`); the pairs inside take E."""
        step = max(1, (1 << 20) // len(self.grid))
        for a in range(0, len(dirs), step):
            part = dirs[a:a + step]
            dots = self.grid @ part.T
            # P, see observe; fmax skips nan coordinates, whose dots are never hits
            peak = float(np.fmax.reduce(np.abs(part), axis=None, initial=0.0))
            width = self._width * max(1.0, peak * self._grid_l1)
            hits = dots > self._dot_min + width
            near = dots > self._dot_min - width
            del dots
            if np.count_nonzero(near) != np.count_nonzero(hits):
                cols, rows = np.nonzero(near & ~hits)
                hits[cols, rows] = _pair_dots(part, self._grid_t, rows, cols) > self._dot_min
            cols, rows = hits.nonzero()
            rows += a
            yield rows, cols

    def _group_graded(self, log_norms, log_n, windows, starts, sizes):
        """The graded statistic's maximum and the highest qualifying window of
        each group of equal rows, (alphas, groups) each, without the per-row
        statistic where a group's rows all qualify or none does (see
        :meth:`observe`)."""
        alphas = self._alphas[:, None]
        log_kappa = math.log(self.config.kappa)
        lo, hi = np.minimum.reduceat(log_n, starts), np.maximum.reduceat(log_n, starts)
        log_norm = log_norms[starts]
        neg = alphas < 0                        # -0.0 goes with the a >= 0 side
        stat = log_norm - alphas * np.where(neg, hi, lo)              # the best row's
        every = log_norm - alphas * np.where(neg, lo, hi) > log_kappa   # the worst row's
        top = np.where(every, np.maximum.reduceat(windows, starts), np.int8(-1))
        # mixed groups take the per-row expression on their own rows, and so
        # do groups of log-norm +-0.0, whose zero statistics may differ in sign
        odd = ((stat > log_kappa) & ~every).any(axis=0) | (log_norm == 0.0)
        if odd.any():
            rows = np.repeat(odd, sizes)
            row_stat = log_norms[rows] - alphas * log_n[rows]
            row_top = np.where(row_stat > log_kappa, windows[rows], np.int8(-1))
            heads = np.concatenate(([0], sizes[odd].cumsum()[:-1]))
            stat[:, odd] = np.maximum.reduceat(row_stat, heads, axis=1)
            top[:, odd] = np.maximum.reduceat(row_top, heads, axis=1)
        return stat, top

    def _row_records(self, log_norms, steps, bucket, piece, starts, sizes, run_starts):
        """Each tested row's (group's) level, row count (None for all ones),
        graded statistic and highest qualifying window, (A, rows) each, and
        piece; with ``run_starts``, the cell runs follow as more rows (see
        :meth:`observe`)."""
        steps = steps.astype(float)
        log_n = np.log(steps)
        windows = np.floor(np.log2(steps)).astype(np.int8)                      # 0..62
        # (A, rows), so every reduction runs along the rows
        if starts is None:
            stat = log_norms - self._alphas[:, None] * log_n
            top = np.where(stat > math.log(self.config.kappa), windows, np.int8(-1))
        else:
            # each group's maxima over its rows, then taken like a row's
            stat, top = self._group_graded(log_norms, log_n, windows, starts, sizes)
        if run_starts is None:
            return bucket, sizes, stat, top, piece
        n = len(bucket)
        run_rows = np.diff(run_starts, append=n) if sizes is None \
            else np.add.reduceat(sizes, run_starts)
        return (np.concatenate([bucket, bucket[run_starts]]),
                np.concatenate([np.ones(n, dtype=np.int64) if sizes is None else sizes, run_rows]),
                np.concatenate([stat, np.maximum.reduceat(stat, run_starts, axis=1)], axis=1),
                np.concatenate([top, np.maximum.reduceat(top, run_starts, axis=1)], axis=1),
                np.concatenate([piece, piece[run_starts]]))

    def _add_hits(self, rows, cols, records, by_bucket, col_max, col_top):
        """Add hits (row, grid column), by column and then piece, to the visit
        counts ``by_bucket``, (M, levels), and to each checkpoint piece's
        graded maxima ``col_max`` and highest qualifying windows ``col_top``,
        (pieces, M, A)."""
        level, weight, stat, top, piece = records
        hit_level = level.take(rows)
        in_lv = hit_level >= 0
        if in_lv.any():
            # float64 sums of whole row counts, exact below 2**53
            by_bucket += np.bincount(
                cols[in_lv] * by_bucket.shape[1] + hit_level[in_lv],
                None if weight is None else weight.take(rows[in_lv]),
                minlength=by_bucket.size).astype(np.int64, copy=False).reshape(by_bucket.shape)
        hit_piece = piece.take(rows)
        new = np.empty(len(cols), dtype=bool)
        new[0] = True
        np.not_equal(cols[1:], cols[:-1], out=new[1:])
        new[1:] |= hit_piece[1:] != hit_piece[:-1]
        starts = new.nonzero()[0]
        at = hit_piece[starts], cols[starts]            # each (piece, column) once
        col_max[at] = np.maximum(
            col_max[at], np.maximum.reduceat(stat.take(rows, axis=1), starts, axis=1).T)
        col_top[at] = np.maximum(
            col_top[at], np.maximum.reduceat(top.take(rows, axis=1), starts, axis=1).T)

    def observe(self, block: WalkBlock) -> None:
        """Add a block of steps to the visit and graded records.

        The pieces that ``run_walk`` cuts from one engine block at its
        checkpoints are held until the piece marked ``block_end`` and then
        decided in one pass over their rows, so the layer's fixed cost is
        paid once per engine block.  A block built by hand keeps the default
        mark and is decided at once, as a pass of one piece.

        A live step (nonzero, past ``burn_in``) with direction u hits grid
        point g when ``E > dot_min``, where E is the fixed-order dot
        ``((u0*g0 + u1*g1) + u2*g2) ...`` of unfused multiplies and adds
        (:func:`_fixed_dots`).  E is a function of u and g alone, so a hit
        does not depend on the block's shape, on where blocks are cut or on
        the host's BLAS kernel.  The band test is ``|E(u, band_axis)| >
        band_threshold``.

        BLAS only filters.  Without a cell table, each slice of rows'
        ``dirs @ grid.T`` decides each pair whose value is ``> dot_min + 2b``
        (a hit) or ``<= dot_min - 2b`` (not one); the pairs between take E.
        Here ``b = 2 gamma_d P`` with ``gamma_d = d u / (1 - d u)`` (u =
        2^-53) and ``P = (1 + s) max(1, max|u_i| max sum|g_i|)``, the largest
        coordinate of the slice's rows times the largest 1-norm of a grid
        point (s = ``_UNIT_SLACK``; the factor covers the rounding of P
        itself).  For any summation order, with or without fused
        multiply-adds, BLAS's value and E each differ from the exact dot by
        at most ``gamma_d sum|u_i g_i| <= gamma_d P``, so by at most b from
        each other, and rounding ``dot_min +- 2b`` to a float moves it by at
        most 2^-53, less than b: both lie on the same side of ``dot_min``.
        One count of the pairs above ``dot_min - 2b`` tells whether any pair
        lies between; on random blocks none does.

        Where a cell table is in use, the pairs it leaves out are never hits
        and its sure points are always hits (its proof bounds their E below
        and above ``dot_min``), so only its edge points can need E.  The
        tested rows are first cut into cell runs, maximal runs of
        consecutive tested rows (groups, when grouped) in one cell and at
        one level.  Each run's edge points are sorted again by the box of
        the run's own rows, with the same proof
        (:meth:`_CellTable.split_runs`): the points sure on that box join the
        cell's sure points as sure hits of every row of the run, the points
        no row in the box can hit drop out, and only the points between take
        E, on every row of the run.  The table is used when its mean edge
        list holds at most ``M / _PRUNE_FACTOR`` grid points (on the default
        grids with cap 0.3, 2.9 of 64 at d = 2 and 4.8 of 256 at d = 3), on
        passes of at least ``_TABLE_ROWS`` tested rows: a shorter pass costs
        less as one small product than the table's fixed cost per pass.  A
        row that is not unit to within the slack (a NaN row included) is not
        covered, and its pass takes the dense path, which gives the same
        hits.  On the seed-0 ``caps3d`` walks a cell run holds about 27
        rows, and a row takes E on 1.31 pairs where its cell lists 4.71 edge
        points (at most 9).

        Repeated rows are decided once.  When some live row has the log-norm
        of the one before it, the live rows are grouped into maximal runs
        equal under ``==`` in log-norm and every coordinate (dead rows and
        ``burn_in`` between them do not split a group), and the cap and band
        tests take each group's first row only: coordinates equal under
        ``==`` give E values that differ at most in the sign of a zero, which
        no test sees (``repeated_rows`` counts the other rows).

        A group's records are taken once, not row by row.  Its rows share
        the log-norm L, so the level of its first row, which ``level_totals``
        counts with the group's row count.  They do not share a step n: the
        graded statistic ``L - a x`` with ``x = log n`` is a rounded product
        and a rounded difference, and IEEE rounding is monotone, so it is
        non-increasing in x for ``a >= 0`` (and -0.0) and non-decreasing for
        ``a < 0``.  Its maximum over the group is therefore ``L - a min x`` or
        ``L - a max x``, bit for bit, with the extremes of x taken by
        ``reduceat`` (no monotony of ``log`` in n is assumed).  If the group's
        worst value clears ``log kappa``, every row qualifies and its highest
        qualifying window is the maximum ``floor(log2 n)`` of its rows; if its
        best does not, no row does.  A group between the two (mixed), or one
        of log-norm +-0.0 (whose zero statistics can differ in sign), takes
        the per-row expression on its own rows.

        Every hit is one (row, grid column) pair and carries its row's level,
        row count (a group's size), statistic and highest qualifying window.
        A table's sure hits, of its cell and of its own box, are taken once
        per cell run, every row of which hits each of them: the run enters as
        one more row, with its rows' level and count and the
        ``maximum.reduceat`` of their statistics and windows.  Visits are one
        ``bincount`` of the hits' (column, level) pairs, weighted by row
        counts, and each graded record one ``maximum.reduceat`` over the hits
        of each (column, piece), per dense slice (:meth:`_add_hits`).
        Integer counts and maxima do not depend on the order or grouping they
        are taken in, and the hit set is the per-row one, so the records are
        those of the per-hit update.
        Graded windows: per checkpoint piece, each (grid point, alpha) gains
        the bit of only the highest dyadic window ``floor(log2 n)`` among its
        hits in that piece with ``log||S_n|| - a log n > log kappa``.  So
        groups of equal rows and cell runs also end where a piece does, and
        the graded records are taken per (piece, grid point, alpha), then
        folded into the accumulator once per pass.
        """
        self.n_steps_seen += len(block)
        self._held.append(block)
        if not block.block_end:
            return
        pieces, self._held = self._held, []
        cfg = self.config
        n_lv = cfg.escape_levels + 1
        steps = np.concatenate([np.arange(p.first_n, p.first_n + len(p)) for p in pieces])
        dirs = np.concatenate([p.dirs for p in pieces])
        log_norms = np.concatenate([p.log_norms for p in pieces])
        piece = np.repeat(np.arange(len(pieces)), [len(p) for p in pieces])
        live = (log_norms > NEG_INF) & (steps > cfg.burn_in)
        if not live.all():
            dirs, log_norms, steps, piece = dirs[live], log_norms[live], steps[live], piece[live]
        if len(steps) == 0:
            return
        edges = _group_edges(dirs, log_norms, piece)
        if edges is None:
            starts = sizes = None
            tested, bucket, tested_piece = dirs, self._levels_of(log_norms), piece
        else:
            starts, sizes = edges[:-1], np.diff(edges)
            tested, tested_piece = dirs[starts], piece[starts]
            bucket = self._levels_of(log_norms[starts])         # one level per group
            self.repeated_rows += len(dirs) - len(starts)
        above = bucket >= 0
        if above.any():
            # float64 sums of whole row counts, exact below 2**53
            self.level_totals += np.bincount(
                bucket[above], None if sizes is None else sizes[above],
                minlength=n_lv).astype(np.int64)
            if self._band_axis is not None:
                sel = above & (np.abs(_fixed_dots(tested, self._band_axis)) > cfg.band_threshold)
                if sel.any():
                    self.level_band_hits += np.bincount(
                        bucket[sel], None if sizes is None else sizes[sel],
                        minlength=n_lv).astype(np.int64)
        # the hits of the tested rows: rows index groups when grouped
        hits = None
        if self._table is not None and len(tested) >= _TABLE_ROWS:
            hits = self._table_hits(tested, bucket, tested_piece)
        run_starts = None if hits is None else hits[0]
        records = None
        for rows, cols in (self._dense_hits(tested) if hits is None else [hits[1:]]):
            if len(rows) == 0:
                continue
            if records is None:             # taken once, and only for a pass with hits
                records = self._row_records(log_norms, steps, bucket, tested_piece, starts,
                                            sizes, run_starts)
                by_bucket = np.zeros(self.visits.shape, dtype=np.int64)
                col_max = np.full((len(pieces),) + self.graded_max.shape, NEG_INF)
                col_top = np.full(col_max.shape, -1, dtype=np.int8)
            self._add_hits(rows, cols, records, by_bucket, col_max, col_top)
        if records is None:
            return
        # visits at level l count every step beyond it: suffix sums
        self.visits += by_bucket[:, ::-1].cumsum(axis=1)[:, ::-1]
        np.maximum(self.graded_max, col_max.max(axis=0), out=self.graded_max)
        bits = np.zeros(col_top.shape, dtype=np.int64)
        np.left_shift(np.int64(1), col_top, out=bits, where=col_top >= 0)
        self.graded_windows |= np.bitwise_or.reduce(bits, axis=0)

    # -- summaries ----------------------------------------------------------

    def top_reached_level(self) -> int:
        nonzero = np.flatnonzero(self.visits.sum(axis=0) > 0)
        return int(nonzero[-1]) if len(nonzero) else -1

    def band_fraction_at_top(self) -> float:
        top = self.top_reached_level()
        if top < 0 or self.level_totals[top] == 0:
            return math.nan
        return float(self.level_band_hits[top] / self.level_totals[top])

    def finalize(self) -> "DirectionSetEstimate":
        if self.n_steps_seen == 0:
            raise ValueError("cannot finalize an empty accumulator")
        if self._held:
            raise ValueError("cannot finalize before the piece that ends the held block")
        cfg = self.config
        top = self.top_reached_level()
        verdicts = np.zeros(len(self.grid), dtype=np.int8)
        tops = np.where(self.visits > 0, np.arange(self.visits.shape[1]), -1).max(axis=1)
        if top >= cfg.min_top_level:
            all_levels = (self.visits[:, :top + 1] > 0).all(axis=1)
            verdicts[all_levels & (self.visits[:, top] >= cfg.v_min)] = IN
        beyond = self.visits[:, cfg.out_level + 1:].sum(axis=1)
        verdicts[(verdicts != IN) & (beyond == 0)] = OUT
        w = self.graded_windows          # window bits 0..62, so w >= 0
        graded = (w & (w - 1)) != 0       # at least two windows met
        return DirectionSetEstimate(
            grid=self.grid, config=cfg, verdicts=verdicts, top_level=top,
            top_level_per_point=tops, visits=self.visits.copy(),
            graded_in=graded, graded_max=self.graded_max.copy(),
            band_fraction_top=self.band_fraction_at_top()
            if self._band_axis is not None else math.nan)


@dataclass
class DirectionSetEstimate:
    """Finalized verdicts for one run."""

    grid: np.ndarray
    config: EstimatorConfig
    verdicts: np.ndarray            # int8: IN / OUT / UNDECIDED
    top_level: int
    top_level_per_point: np.ndarray
    visits: np.ndarray
    graded_in: np.ndarray           # (M, n_alphas) bool
    graded_max: np.ndarray          # (M, n_alphas) log values
    band_fraction_top: float = math.nan

    def in_points(self) -> np.ndarray:
        return self.grid[self.verdicts == IN]

    def coverage_fraction(self) -> float:
        return float(np.mean(self.verdicts == IN))

    def to_csv(self) -> str:
        d = self.grid.shape[1]
        n_lv = self.visits.shape[1]
        cols = (["index"] + [f"u_{i+1}" for i in range(d)] + ["verdict", "top_level"]
                + [f"visits_l{l}" for l in range(n_lv)]
                + [f"graded_max_a{a}" for a in self.config.alphas]
                + [f"graded_in_a{a}" for a in self.config.alphas])
        verdicts = [VERDICT_NAMES[v] for v in self.verdicts.tolist()]
        return csv_text(cols, [range(len(self.grid)), *self.grid.T, verdicts,
                               self.top_level_per_point, *self.visits.T,
                               *self.graded_max.T, *self.graded_in.T])


@dataclass
class ConsensusEstimate:
    grid: np.ndarray
    verdicts: np.ndarray
    agreement: np.ndarray           # per grid point
    coverage_fraction: float
    mean_agreement: float

    def in_points(self) -> np.ndarray:
        return self.grid[self.verdicts == IN]


def combine_runs(estimates: list[DirectionSetEstimate]) -> ConsensusEstimate:
    """Majority consensus over runs of the same grid.

    The underlying direction set is deterministic, so independent runs should
    agree; the agreement score is the fraction of decided runs matching the
    consensus at each grid point (1.0 where no run decided).
    """
    if len(estimates) < 2:
        raise ValueError("consensus needs at least two estimates")
    grid = estimates[0].grid
    for est in estimates[1:]:
        if est.grid.shape != grid.shape or not np.array_equal(est.grid, grid):
            raise ValueError("estimates use different grids")
    stack = np.stack([est.verdicts for est in estimates])     # (R, M)
    in_count = (stack == IN).sum(axis=0)
    out_count = (stack == OUT).sum(axis=0)
    verdicts = np.where(in_count > out_count, IN,
                        np.where(out_count > in_count, OUT, UNDECIDED)).astype(np.int8)
    decided = in_count + out_count
    matching = np.where(verdicts == IN, in_count,
                        np.where(verdicts == OUT, out_count, 0))
    agreement = np.where(decided > 0, matching / np.maximum(decided, 1), 1.0)
    return ConsensusEstimate(grid=grid, verdicts=verdicts, agreement=agreement,
                             coverage_fraction=float(np.mean(verdicts == IN)),
                             mean_agreement=float(np.mean(agreement)))
