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
from dataclasses import dataclass, field

import numpy as np

from .sphere import direction_grid
from .walk import NEG_INF, ObserverBase, WalkBlock, csv_text

__all__ = [
    "EstimatorConfig",
    "CapVisitAccumulator",
    "DirectionSetEstimate",
    "ConsensusEstimate",
    "combine_runs",
    "IN", "OUT", "UNDECIDED", "VERDICT_NAMES",
]

IN, UNDECIDED, OUT = 1, 0, -1
VERDICT_NAMES = {IN: "IN", OUT: "OUT", UNDECIDED: "UNDECIDED"}
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class EstimatorConfig:
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
        if self.grid_m < 1:
            raise ValueError("estimator.grid_m must be >= 1")
        if self.grid_seed < 0:
            raise ValueError("estimator.grid_seed must be >= 0")
        if not (0 < self.cap_radius <= 2):
            raise ValueError("estimator.cap_radius must be in (0, 2]")
        if self.escape_r0 <= 0:
            raise ValueError("estimator.escape_r0 must be positive")
        if self.escape_levels < 0:
            raise ValueError("estimator.escape_levels must be >= 0")
        if self.v_min < 1:
            raise ValueError("estimator.v_min must be >= 1")
        if self.kappa <= 0:
            raise ValueError("estimator.kappa must be positive")

    @classmethod
    def defaults_for(cls, spec) -> "EstimatorConfig":
        """Default knobs: larger grids for d >= 3, higher escape floor for
        log-tailed radial specs whose norms explode."""
        return cls(grid_m=64 if spec.dimension == 2 else 256,
                   escape_r0=1e3 if spec.scale_mode == "log" else 10.0)

    def levels(self) -> np.ndarray:
        return self.escape_r0 * 2.0 ** np.arange(self.escape_levels + 1)


# rows and grid points are unit vectors to within this slack on |x|^2
_UNIT_SLACK = 2.0 ** -20
_ROUNDING = 2.0 ** -53              # unit roundoff of float64
# the cube grid of a cell table has at most this many cells
_MAX_CELLS = 1 << 16
# a cell table is used when its mean candidate list holds at most M/16 points
_PRUNE_FACTOR = 16


class _CellTable:
    """Grid points that can share a cap with a direction, per cube cell.

    A direction u lies in the cube cell with coordinates
    ``floor((u_i + 1) * C / 2)`` (clipped to 0..C-1).  Only cells that meet
    the shell ``1 - s <= |x|^2 <= 1 + s`` (s = ``_UNIT_SLACK``) are tabled;
    each lists every grid point g whose Euclidean distance to the cell's box,
    widened by s on every side, is below ``sqrt(r^2 + 4s)`` with
    ``r^2 = 2 - 2 * dot_min``.  C is about ``4 * sqrt(d) / r``, so a cell's
    diagonal is about r/2, capped so that ``C**d <= _MAX_CELLS``.

    Why a grid point left out of u's list is never a hit: u lies in its
    cell's widened box (the widening covers the rounding of the cell
    coordinate and coordinates up to ``sqrt(1 + s)``), so ``|u - g|`` is at
    least the listed distance.  With ``|u|^2, |g|^2 <= 1 + s`` and
    ``|u - g|^2 >= r^2 + 4s``, the exact dot is
    ``(|u|^2 + |g|^2 - |u - g|^2) / 2 <= dot_min - s``, and any float
    evaluation of a d-term dot of such vectors errs by at most
    ``gamma_d * |u| |g| <= gamma_d (1 + s)`` with ``gamma_d = d u / (1 - d u)``
    (u = 2^-53).  That error, and the rounding of the listed distances and
    of r^2, are far below s.

    Lists are padded to the longest with index M, a NaN row of the extended
    grid: a padded slot's dot is NaN, which is never above ``dot_min`` (even
    at ``dot_min = -1``) and never within the margin of it.
    """

    def __init__(self, grid: np.ndarray, dot_min: float):
        m, d = grid.shape
        r2 = 2.0 - 2.0 * dot_min
        per_axis = math.ceil(4.0 * math.sqrt(d / r2)) if r2 > 0 else _MAX_CELLS
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
        self.slot = np.full(c ** d, -1, dtype=np.int64)
        self.slot[shell] = np.arange(len(shell))
        # squared gap from each grid coordinate to each cell's interval: (C, M, d)
        gap = np.maximum(np.maximum(lo[:, None, None] - grid, grid - hi[:, None, None]), 0.0)
        gap2 = gap * gap
        coords = np.unravel_index(shell, (c,) * d)
        step = max(1, (1 << 20) // m)                  # (cells x M) temporaries of 8 MiB
        pairs = []
        for a in range(0, len(shell), step):
            dist2 = sum(gap2[coords[i][a:a + step], :, i] for i in range(d))
            rows, cols = np.nonzero(dist2 < r2 + 4.0 * s)
            pairs.append((rows + a, cols))
        rows = np.concatenate([p[0] for p in pairs])
        cols = np.concatenate([p[1] for p in pairs])
        counts = np.bincount(rows, minlength=len(shell))
        self.mean_candidates = float(counts.mean())
        idx_type = np.int16 if m < np.iinfo(np.int16).max else np.int64
        self.table = np.full((len(shell), counts.max()), m, dtype=idx_type)
        first = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self.table[rows, np.arange(len(rows)) - first[rows]] = cols
        self.ext = np.vstack([grid, np.full(d, np.nan)]).T.copy()   # (d, M + 1)

    def cell_of(self, dirs: np.ndarray) -> np.ndarray:
        """Table row of each direction, -1 where a row is not unit to within
        the slack (so the table does not cover it)."""
        c = self.cells
        idx = np.floor((dirs + 1.0) * (c / 2.0))
        np.clip(idx, 0, c - 1, out=idx)
        idx = idx.astype(np.int64)
        flat = idx[:, 0]
        for i in range(1, dirs.shape[1]):
            flat = flat * c + idx[:, i]
        norm2 = np.einsum("ij,ij->i", dirs, dirs)
        unit = np.abs(norm2 - 1.0) <= _UNIT_SLACK / 2
        return np.where(unit, self.slot[flat], -1)


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
        self.fallback_blocks = 0        # blocks decided by the dense expression
        self._dot_min = 1.0 - config.cap_radius ** 2 / 2.0  # chord < r as a dot bound
        self._log_r0 = math.log(config.escape_r0)
        self._alphas = np.asarray(config.alphas, dtype=float)
        self._band_axis = None if config.band_axis is None \
            else np.asarray(config.band_axis, dtype=float)
        d = self.grid.shape[1]
        gamma = d * _ROUNDING / (1.0 - d * _ROUNDING)
        margin = 2.0 * (2.0 * gamma * (1.0 + _UNIT_SLACK))     # 2b, see observe
        self._clear_below = self._dot_min - margin
        self._clear_above = self._dot_min + margin
        self._table = None
        norm2 = np.einsum("ij,ij->i", self.grid, self.grid)
        if np.all(np.abs(norm2 - 1.0) <= _UNIT_SLACK / 2):
            table = _CellTable(self.grid, self._dot_min)
            if table.mean_candidates * _PRUNE_FACTOR <= m:
                self._table = table

    # level index of each norm: largest l with norm > r0 * 2**l, or -1
    def _levels_of(self, log_norms: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            ratio = (log_norms - self._log_r0) / _LN2
        lvl = np.floor(ratio)
        lvl = np.where(ratio == lvl, lvl - 1, lvl)  # strict inequality at level edges
        lvl = np.where(np.isfinite(ratio), lvl, -1.0)
        return np.clip(lvl, -1, self.config.escape_levels).astype(np.int64)

    def _table_hits(self, dirs: np.ndarray):
        """(rows, grid columns) of the block's hits from the cell table, or
        None when a row is not covered by it or a listed pair's dot lies
        within the margin of ``dot_min`` (see :meth:`observe`)."""
        table = self._table
        slot = table.cell_of(dirs)
        if len(slot) and slot.min() < 0:
            return None
        cand = table.table[slot]                                 # (B, K)
        dots = table.ext[0].take(cand)
        dots *= dirs[:, :1]
        term = np.empty_like(dots)
        for i in range(1, dirs.shape[1]):
            table.ext[i].take(cand, out=term)
            term *= dirs[:, i:i + 1]
            dots += term
        rows, k = np.nonzero(dots > self._clear_above)
        if np.count_nonzero(dots > self._clear_below) != len(rows):
            return None
        return rows, cand[rows, k].astype(np.intp)

    def observe(self, block: WalkBlock) -> None:
        """Add a block of steps to the visit and graded records.

        A live step (nonzero, past ``burn_in``) with direction u hits grid
        point g when the float expression ``(dirs @ grid.T) > dot_min``, as
        BLAS evaluates it on the block's live rows, is true.

        Where a cell table is in use, only the pairs it lists are tested, by
        an elementwise dot E: a pair is a hit when ``E > dot_min + 2b`` and
        not one when ``E <= dot_min - 2b``, with ``b = 2 gamma_d (1 + s)``.
        For any summation order, with or without fused multiply-adds, E and
        BLAS's value each differ from the exact dot by at most
        ``gamma_d sum|u_i g_i| <= gamma_d |u| |g| <= gamma_d (1 + s)``, so
        they differ by at most b, and rounding ``dot_min +- 2b`` to a float
        moves it by far less than b: both values lie on the same side of
        ``dot_min``.  If any listed pair has E in between, or any row is not
        unit to within the slack, the whole block takes the dense expression
        instead (``fallback_blocks`` counts these blocks).  Either way the
        hit set is that of the dense expression.

        The table is used when its mean list holds at most
        ``M / _PRUNE_FACTOR`` grid points.  On the default grids with cap
        0.3 that is d = 3, M = 256 (about 8.3 of 256 listed) but not d = 2,
        M = 64 (about 7.8 of 64, where the dense product is faster); the
        dense expression then decides every block.

        Graded windows: per call, each (grid point, alpha) gains the bit of
        only the highest dyadic window ``floor(log2 n)`` among its hits in
        this block with ``log||S_n|| - a log n > log kappa``.
        """
        cfg = self.config
        n_lv = cfg.escape_levels + 1
        steps = np.arange(block.first_n, block.first_n + len(block))
        live = (block.log_norms > NEG_INF) & (steps > cfg.burn_in)
        self.n_steps_seen += len(block)
        if not np.any(live):
            return
        dirs = block.dirs[live]
        log_norms = block.log_norms[live]
        steps = steps[live]
        bucket = self._levels_of(log_norms)
        above = bucket >= 0
        if np.any(above):
            self.level_totals += np.bincount(bucket[above], minlength=n_lv)
            if self._band_axis is not None:
                band = np.abs(dirs @ self._band_axis) > cfg.band_threshold
                sel = above & band
                if np.any(sel):
                    self.level_band_hits += np.bincount(bucket[sel], minlength=n_lv)
        hits = None if self._table is None else self._table_hits(dirs)
        if hits is None:
            if self._table is not None:
                self.fallback_blocks += 1
            hits = np.nonzero((dirs @ self.grid.T) > self._dot_min)
        rows, cols = hits
        if len(rows) == 0:
            return
        m = len(self.grid)
        hit_bucket = bucket[rows]
        in_lv = hit_bucket >= 0
        if np.any(in_lv):
            flat = cols[in_lv] * n_lv + hit_bucket[in_lv]
            by_bucket = np.bincount(flat, minlength=m * n_lv).reshape(m, n_lv)
            # visits at level l count every step beyond it: suffix sums
            self.visits += by_bucket[:, ::-1].cumsum(axis=1)[:, ::-1]
        # graded records, all alphas at once, from hits in grid order
        key = cols.astype(np.int16) if m <= np.iinfo(np.int16).max else cols
        order = np.argsort(key, kind="stable")
        rows, cols = rows[order], cols[order]
        seg_starts = np.flatnonzero(cols[1:] != cols[:-1]) + 1
        seg_starts = np.concatenate([[0], seg_starts])
        seg_cols = cols[seg_starts]
        log_n = np.log(steps.astype(float))
        stat = (log_norms[:, None] - self._alphas * log_n[:, None])[rows]      # (H, A)
        seg_max = np.maximum.reduceat(stat, seg_starts, axis=0)
        self.graded_max[seg_cols] = np.maximum(self.graded_max[seg_cols], seg_max)
        windows = np.floor(np.log2(steps.astype(float))).astype(np.int8)   # 0..62
        qual_window = np.where(stat > math.log(cfg.kappa), windows[rows, None], np.int8(-1))
        top = np.maximum.reduceat(qual_window, seg_starts, axis=0).astype(np.int64)
        self.graded_windows[seg_cols] |= np.where(
            top >= 0, np.int64(1) << np.maximum(top, 0), np.int64(0))

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
        cfg = self.config
        top = self.top_reached_level()
        verdicts = np.zeros(len(self.grid), dtype=np.int8)
        tops = np.where(self.visits > 0, np.arange(self.visits.shape[1]), -1).max(axis=1)
        if top >= cfg.min_top_level:
            all_levels = (self.visits[:, :top + 1] > 0).all(axis=1)
            verdicts[all_levels & (self.visits[:, top] >= cfg.v_min)] = IN
        beyond = self.visits[:, cfg.out_level + 1:].sum(axis=1) if \
            cfg.out_level + 1 <= cfg.escape_levels else np.zeros(len(self.grid), dtype=np.int64)
        verdicts[(verdicts != IN) & (beyond == 0)] = OUT
        w = self.graded_windows          # window bits 0..62, so w >= 0
        graded = (w & (w - 1)) != 0       # at least two windows met
        notes = {}
        if self.grid.shape[1] >= 3:
            notes["graded_alpha_below_half"] = "EXPECTED_FULL"
        return DirectionSetEstimate(
            grid=self.grid, config=cfg, verdicts=verdicts, top_level=top,
            top_level_per_point=tops, visits=self.visits.copy(),
            graded_in=graded, graded_max=self.graded_max.copy(), notes=notes,
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
    notes: dict = field(default_factory=dict)
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
