"""One-dimensional projection tracking and trend classification.

For each tracked direction u the observer keeps the running minimum and
maximum of S_n . u in O(1) memory, snapshotting both at every checkpoint.
The classifier then sorts each direction into PLUS (drifts to +infinity),
MINUS, OSC (explores both signs without bound), or UNDECIDED.  Limits are
not observable from finite runs, so the rules are calibrated heuristics and
every threshold lives in :class:`ClassifierThresholds`.

Walks in mantissa/log-scale arithmetic are tracked through an order-
preserving signed-log encoding (``psi``): psi = sign * (max(log|v|, -OFFSET)
+ OFFSET), with psi = 0 for v = 0.  Comparisons, stabilization and growth
ratios all work unchanged in that encoding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sphere import direction_grid
from .walk import NEG_INF, ObserverBase, WalkBlock, csv_text

__all__ = [
    "PLUS", "MINUS", "OSC", "UNDECIDED",
    "ClassifierThresholds",
    "ProjectionStats",
    "ProjectionTracker",
    "project_series",
    "classify",
    "scan_exceptional",
]

PLUS, MINUS, OSC, UNDECIDED = "PLUS", "MINUS", "OSC", "UNDECIDED"
PSI_OFFSET = 2048.0


@dataclass(frozen=True)
class ClassifierThresholds:
    growth: float = 1.5          # per-doubling growth required of the winning side
    final_scale: float = 0.1     # PLUS needs final value > final_scale * sqrt(N)
    osc_scale: float = 0.004     # OSC needs both extremes > osc_scale * sqrt(N)
    side_ratio: float = 0.02     # PLUS needs |min| <= side_ratio * max (and mirrored)
    min_checkpoints: int = 4

    def __post_init__(self):
        if self.growth <= 1:
            raise ValueError("classifier.growth must exceed 1")
        if self.osc_scale <= 0 or self.final_scale <= 0:
            raise ValueError("classifier.osc_scale and classifier.final_scale must be positive")
        if self.min_checkpoints < 3:
            # the growth test reads the last three checkpoints
            raise ValueError("classifier.min_checkpoints must be >= 3")


def _psi_from_signed_log(sign: np.ndarray, log_abs: np.ndarray) -> np.ndarray:
    out = np.sign(sign) * (np.maximum(log_abs, -PSI_OFFSET) + PSI_OFFSET)
    return np.where((sign == 0) | (log_abs == NEG_INF), 0.0, out)


def _psi_log_abs(psi: float) -> float:
    return NEG_INF if psi == 0.0 else abs(psi) - PSI_OFFSET


@dataclass
class ProjectionStats:
    """Running extreme ladder of S_n . u at dyadic checkpoints.

    ``log_scale`` is False for walks tracked in plain floats (mins/maxes and
    the final value are ordinary numbers) and True for log-scale walks, in
    which case the same fields hold psi encodings.
    """

    direction: np.ndarray
    checkpoints: list[int]
    mins: np.ndarray
    maxes: np.ndarray
    final: float
    n_steps: int
    log_scale: bool = False

class ProjectionTracker(ObserverBase):
    """Per-step running min/max of the projections onto a direction grid.

    After ``finish``, ``mins`` and ``maxes`` are (checkpoints reached x M)
    arrays: row k holds every direction's running extreme at
    ``checkpoint_ns[k]``.
    """

    def __init__(self, directions: np.ndarray | None = None, grid_m: int = 64):
        self._dirs = None if directions is None else np.atleast_2d(
            np.asarray(directions, dtype=float))
        self._grid_m = grid_m
        self.log_scale = False
        self.checkpoint_ns: list[int] = []
        self.mins: np.ndarray | None = None
        self.maxes: np.ndarray | None = None
        self.final_values: np.ndarray | None = None
        self.n_steps = 0

    def begin(self, spec, n_steps, checkpoints):
        if self._dirs is None:
            self._dirs = direction_grid(spec.dimension, self._grid_m)
        self.log_scale = spec.scale_mode == "log"
        self._cps = set(checkpoints)
        self.n_steps = n_steps
        m = len(self._dirs)
        # S_0 = 0 is part of every trajectory
        self._cur_min = np.zeros(m)
        self._cur_max = np.zeros(m)
        self._last = np.zeros(m)
        self.mins = np.empty((len(checkpoints), m))
        self.maxes = np.empty((len(checkpoints), m))

    @property
    def directions(self) -> np.ndarray:
        return self._dirs

    def observe(self, block: WalkBlock) -> None:
        if self.log_scale:
            dots = block.dirs @ self._dirs.T                     # (B, M)
            with np.errstate(divide="ignore"):
                log_abs = np.where(dots != 0.0,
                                   block.log_norms[:, None] + np.log(np.abs(np.where(dots != 0, dots, 1.0))),
                                   NEG_INF)
            vals = _psi_from_signed_log(np.sign(dots), log_abs)
        else:
            vals = block.positions @ self._dirs.T
        np.minimum(self._cur_min, vals.min(axis=0), out=self._cur_min)
        np.maximum(self._cur_max, vals.max(axis=0), out=self._cur_max)
        self._last = vals[-1]
        if block.last_n in self._cps:
            k = len(self.checkpoint_ns)
            self.mins[k] = self._cur_min
            self.maxes[k] = self._cur_max
            self.checkpoint_ns.append(block.last_n)

    def finish(self, state) -> None:
        # a walk that halts early reaches only the first checkpoints
        k = len(self.checkpoint_ns)
        self.mins, self.maxes = self.mins[:k], self.maxes[:k]
        self.final_values = self._last.copy()

    def stats_for(self, index: int) -> ProjectionStats:
        return ProjectionStats(
            direction=self._dirs[index],
            checkpoints=list(self.checkpoint_ns),
            mins=self.mins[:, index],
            maxes=self.maxes[:, index],
            final=float(self.final_values[index]),
            n_steps=self.n_steps,
            log_scale=self.log_scale)

    def all_stats(self) -> list[ProjectionStats]:
        return [self.stats_for(i) for i in range(len(self._dirs))]

    def to_csv(self, verdicts: list[str]) -> str:
        """One row per direction; ``verdicts[i]`` is direction i's classification."""
        d = self._dirs.shape[1]
        cols = ([f"u_{i+1}" for i in range(d)]
                + [f"min_n{n}" for n in self.checkpoint_ns]
                + [f"max_n{n}" for n in self.checkpoint_ns]
                + ["final", "verdict"])
        return csv_text(cols, [*self._dirs.T, *self.mins, *self.maxes,
                               self.final_values, verdicts])


def project_series(positions, u, checkpoints=None) -> ProjectionStats:
    """Stats for one direction from a dense position array (S_1, S_2, ...).

    S_0 = 0 is prepended automatically.  For checkpoint-only traces the
    extremes are lower-resolution; dense observation is required for exact
    minima.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    u = np.asarray(u, dtype=float)
    proj = np.concatenate([[0.0], pos @ u])
    n = len(proj) - 1
    if checkpoints is None:
        from .walk import dyadic_checkpoints
        checkpoints = dyadic_checkpoints(n)
    checkpoints = [c for c in checkpoints if c <= n]
    run_min = np.minimum.accumulate(proj)
    run_max = np.maximum.accumulate(proj)
    return ProjectionStats(
        direction=u, checkpoints=list(checkpoints),
        mins=run_min[list(checkpoints)], maxes=run_max[list(checkpoints)],
        final=float(proj[-1]), n_steps=n, log_scale=False)


# ---------------------------------------------------------------------------
# classification

def _stabilized(values: np.ndarray) -> bool:
    """Exactly constant over the last half of the checkpoint ladder."""
    half = (len(values) + 1) // 2
    tail = values[-half:]
    return bool(np.all(tail == tail[0]))


def _grew_each(values: np.ndarray, ns: list[int], factor: float,
               log_scale: bool) -> bool:
    """Growth of at least ``factor`` per doubling over the last two checkpoint
    steps.  The final checkpoint may be a partial doubling (n need not be a
    power of two), so each step's requirement scales with log2 of its actual
    time ratio."""
    a, b, c = values[-3], values[-2], values[-1]
    w1 = math.log2(ns[-2] / ns[-3])
    w2 = math.log2(ns[-1] / ns[-2])
    need1, need2 = w1 * math.log(factor), w2 * math.log(factor)
    if log_scale:
        if min(a, b, c) <= 0:       # psi > 0 means a positive value
            return False
        return (b - a) >= need1 - 1e-12 and (c - b) >= need2 - 1e-12
    if a <= 0 or b <= 0 or c <= 0:
        return False
    return (math.log(b / a) >= need1 - 1e-12
            and math.log(c / b) >= need2 - 1e-12)


def _exceeds_scale(psi_or_value: float, threshold: float, log_scale: bool) -> bool:
    """|value| > threshold, in the right encoding."""
    if threshold <= 0:
        return True
    if log_scale:
        return _psi_log_abs(abs(psi_or_value)) > math.log(threshold)
    return abs(psi_or_value) > threshold


def classify(stats: ProjectionStats,
             thresholds: ClassifierThresholds = ClassifierThresholds()) -> str:
    """Trend verdict for one direction's projection ladder."""
    if len(stats.checkpoints) < thresholds.min_checkpoints:
        raise ValueError(
            f"classification needs >= {thresholds.min_checkpoints} checkpoints")
    mins, maxes = stats.mins, stats.maxes
    ls = stats.log_scale
    sqrt_n = math.sqrt(stats.n_steps)
    final_floor = thresholds.final_scale * sqrt_n
    osc_floor = thresholds.osc_scale * sqrt_n

    max_big = maxes[-1] > 0 and _exceeds_scale(maxes[-1], osc_floor, ls)
    min_big = mins[-1] < 0 and _exceeds_scale(mins[-1], osc_floor, ls)

    # PLUS: floor frozen, ceiling compounding, endpoint far out on + side,
    # and the negative side negligible next to the positive one.
    cps = stats.checkpoints
    if (_stabilized(mins) and _grew_each(maxes, cps, thresholds.growth, ls)
            and stats.final > 0 and _exceeds_scale(stats.final, final_floor, ls)
            and _side_dominates(maxes[-1], mins[-1], thresholds.side_ratio, ls)):
        return PLUS
    if (_stabilized(maxes) and _grew_each(-mins, cps, thresholds.growth, ls)
            and stats.final < 0 and _exceeds_scale(stats.final, final_floor, ls)
            and _side_dominates(-mins[-1], -maxes[-1], thresholds.side_ratio, ls)):
        return MINUS
    if max_big and min_big:
        return OSC
    return UNDECIDED


def _side_dominates(big: float, small: float, ratio: float, log_scale: bool) -> bool:
    """|small| <= ratio * big, where big is the winning side's extreme (> 0)."""
    if small >= 0:      # the losing side never crossed zero
        return True
    if log_scale:
        return _psi_log_abs(-small) <= _psi_log_abs(big) + math.log(ratio)
    return -small <= ratio * big


def scan_exceptional(tracker: ProjectionTracker, verdicts: list[str],
                     thresholds: ClassifierThresholds = ClassifierThresholds()):
    """Directions whose projections look boundedly exceptional.

    ``verdicts[i]`` is the classification of direction i under
    ``thresholds``.  Returns the directions classified UNDECIDED whose
    running max (or min) stayed inside the oscillation floor -- a
    finite-sample proxy for a finite limsup (or liminf).  For planar walks
    the expectation at large N is an empty list; nonempty output is a
    finite-N artifact worth a look, not a discovery.
    """
    out = []
    for i, verdict in enumerate(verdicts):
        if verdict != UNDECIDED:
            continue
        st = tracker.stats_for(i)
        osc_floor = thresholds.osc_scale * math.sqrt(st.n_steps)
        bounded_above = not (st.maxes[-1] > 0 and _exceeds_scale(st.maxes[-1], osc_floor, st.log_scale))
        bounded_below = not (st.mins[-1] < 0 and _exceeds_scale(st.mins[-1], osc_floor, st.log_scale))
        if bounded_above or bounded_below:
            out.append((st.direction, st))
    return out
