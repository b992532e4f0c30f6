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
from .walk import NEG_INF, ObserverBase, WalkBlock, format_number

__all__ = [
    "EstimatorConfig",
    "CapVisitAccumulator",
    "DirectionSetEstimate",
    "ConsensusEstimate",
    "combine_runs",
    "IN", "OUT", "UNDECIDED",
]

IN, UNDECIDED, OUT = 1, 0, -1
_VERDICT_NAMES = {IN: "IN", OUT: "OUT", UNDECIDED: "UNDECIDED"}
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
        if not (0 < self.cap_radius <= 2):
            raise ValueError("estimator.cap_radius must be in (0, 2]")
        if self.escape_r0 <= 0:
            raise ValueError("estimator.escape_r0 must be positive")
        if self.escape_levels < 0:
            raise ValueError("estimator.escape_levels must be >= 0")
        if self.v_min < 1:
            raise ValueError("estimator.v_min must be >= 1")

    @classmethod
    def defaults_for(cls, spec) -> "EstimatorConfig":
        """Default knobs: larger grids for d >= 3, higher escape floor for
        log-tailed radial specs whose norms explode."""
        return cls(grid_m=64 if spec.dimension == 2 else 256,
                   escape_r0=1e3 if spec.scale_mode == "log" else 10.0)

    def levels(self) -> np.ndarray:
        return self.escape_r0 * 2.0 ** np.arange(self.escape_levels + 1)


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
        self._dot_min = 1.0 - config.cap_radius ** 2 / 2.0  # chord < r as a dot bound
        self._log_r0 = math.log(config.escape_r0)
        self._band_axis = None if config.band_axis is None \
            else np.asarray(config.band_axis, dtype=float)

    # level index of each norm: largest l with norm > r0 * 2**l, or -1
    def _levels_of(self, log_norms: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            ratio = (log_norms - self._log_r0) / _LN2
        lvl = np.floor(ratio)
        lvl = np.where(ratio == lvl, lvl - 1, lvl)  # strict inequality at level edges
        lvl = np.where(np.isfinite(ratio), lvl, -1.0)
        return np.clip(lvl, -1, self.config.escape_levels).astype(np.int64)

    def observe(self, block: WalkBlock) -> None:
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
        mask = (dirs @ self.grid.T) > self._dot_min      # (B', M)
        rows, cols = np.nonzero(mask)
        if len(rows) == 0:
            return
        hit_bucket = bucket[rows]
        in_lv = hit_bucket >= 0
        if np.any(in_lv):
            flat = cols[in_lv] * n_lv + hit_bucket[in_lv]
            by_bucket = np.bincount(flat, minlength=len(self.grid) * n_lv)
            by_bucket = by_bucket.reshape(len(self.grid), n_lv)
            # visits at level l count every step beyond it: suffix sums
            self.visits += by_bucket[:, ::-1].cumsum(axis=1)[:, ::-1]
        # graded records: log(||S||/n^a) maxima and qualifying dyadic windows
        order = np.argsort(cols, kind="stable")
        o_rows, o_cols = rows[order], cols[order]
        seg_starts = np.flatnonzero(np.diff(o_cols)) + 1
        seg_starts = np.concatenate([[0], seg_starts])
        seg_cols = o_cols[seg_starts]
        log_n = np.log(steps.astype(float))
        windows = np.floor(np.log2(steps.astype(float))).astype(np.int64)
        log_kappa = math.log(cfg.kappa)
        for j, a in enumerate(cfg.alphas):
            stat = log_norms - a * log_n
            seg_max = np.maximum.reduceat(stat[o_rows], seg_starts)
            np.maximum.at(self.graded_max[:, j], seg_cols, seg_max)
            qual = stat[o_rows] > log_kappa
            if np.any(qual):
                keys = o_cols[qual] * 64 + windows[o_rows[qual]]
                present = np.flatnonzero(np.bincount(keys, minlength=len(self.grid) * 64))
                self.graded_windows[present // 64, j] |= (
                    np.int64(1) << (present % 64).astype(np.int64))

    def record_visit(self, position, n: int) -> "CapVisitAccumulator":
        """Single-step entry point; the origin is recorded nowhere."""
        pos = np.asarray(position, dtype=float)
        norm = float(np.linalg.norm(pos))
        if norm == 0.0:
            block = WalkBlock(first_n=n, dirs=np.zeros((1, len(pos))),
                              log_norms=np.array([NEG_INF]), positions=pos[None, :])
        else:
            block = WalkBlock(first_n=n, dirs=pos[None, :] / norm,
                              log_norms=np.array([math.log(norm)]),
                              positions=pos[None, :])
        self.observe(block)
        return self

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
        graded = self._popcount(self.graded_windows) >= 2
        notes = {}
        if self.grid.shape[1] >= 3:
            notes["graded_alpha_below_half"] = "EXPECTED_FULL"
        return DirectionSetEstimate(
            grid=self.grid, config=cfg, verdicts=verdicts, top_level=top,
            top_level_per_point=tops, visits=self.visits.copy(),
            graded_in=graded, graded_max=self.graded_max.copy(), notes=notes,
            band_fraction_top=self.band_fraction_at_top()
            if self._band_axis is not None else math.nan)

    @staticmethod
    def _popcount(arr: np.ndarray) -> np.ndarray:
        out = np.zeros(arr.shape, dtype=np.int64)
        work = arr.copy()
        while np.any(work):
            out += work & 1
            work >>= 1
        return out


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
        lines = [",".join(cols)]
        for i in range(len(self.grid)):
            cells = [str(i)] + [format_number(x) for x in self.grid[i]]
            cells += [_VERDICT_NAMES[int(self.verdicts[i])], str(int(self.top_level_per_point[i]))]
            cells += [str(int(v)) for v in self.visits[i]]
            cells += [format_number(x) for x in self.graded_max[i]]
            cells += [str(bool(b)) for b in self.graded_in[i]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


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
