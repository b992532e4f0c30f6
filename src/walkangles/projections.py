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

from .samplers import check_finite
from .sphere import direction_grid
from .walk import NEG_INF, ObserverBase, WalkBlock, csv_text, dyadic_checkpoints

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
        check_finite(self, "classifier")
        if self.growth <= 1:
            raise ValueError("classifier.growth must exceed 1")
        if self.osc_scale <= 0 or self.final_scale <= 0:
            raise ValueError("classifier.osc_scale and classifier.final_scale must be positive")
        if self.min_checkpoints < 3:
            # the growth test reads the last three checkpoints
            raise ValueError("classifier.min_checkpoints must be >= 3")


@dataclass
class ProjectionStats:
    """Running extreme ladders of S_n . u for M directions at dyadic checkpoints.

    Row k of ``mins`` and ``maxes`` (K x M) holds every direction's running
    extreme at ``checkpoints[k]``; ``final`` (M,) holds S_n . u at the last
    step.  ``log_scale`` is False for walks tracked in plain floats (the
    values are ordinary numbers) and True for log-scale walks, in which case
    they are psi encodings.
    """

    directions: np.ndarray
    checkpoints: list[int]
    mins: np.ndarray
    maxes: np.ndarray
    final: np.ndarray
    n_steps: int
    log_scale: bool = False


class ProjectionTracker(ObserverBase):
    """Per-step running min/max of the projections onto a direction grid.

    ``running_min`` and ``running_max`` hold the extremes so far; after the
    k-th checkpoint, ``stats`` holds the (k x M) ladder of every direction.
    """

    def __init__(self, directions: np.ndarray | None = None, grid_m: int = 64):
        self.directions = None if directions is None else np.atleast_2d(
            np.asarray(directions, dtype=float))
        self._grid_m = grid_m
        self.stats: ProjectionStats | None = None

    def begin(self, spec, n_steps):
        if self.directions is None:
            self.directions = direction_grid(spec.dimension, self._grid_m)
        m = len(self.directions)
        # S_0 = 0 is part of every trajectory
        self.running_min, self.running_max = np.zeros(m), np.zeros(m)
        self._argmax_cols, self.argmax_rows = None, np.zeros((m, spec.dimension))
        self.stats = ProjectionStats(
            directions=self.directions, checkpoints=[], mins=np.zeros((0, m)),
            maxes=np.zeros((0, m)), final=np.zeros(m), n_steps=n_steps,
            log_scale=spec.scale_mode == "log")

    def columns(self, directions: np.ndarray, argmax: bool = False) -> np.ndarray | None:
        """The columns whose directions equal the rows of ``directions`` bitwise,
        or None when one is absent.  With ``argmax``, row c of ``argmax_rows``
        is from then on the first S_k at which column c reached its maximum."""
        if self.stats is None:
            raise ValueError("the projection ladder has not begun")
        index = {row.tobytes(): i for i, row in enumerate(self.directions)}
        cols = [index.get(row.tobytes()) for row in directions]
        if argmax and None not in cols:
            self._argmax_cols = np.array(cols)
        return None if None in cols else np.array(cols)

    def observe(self, block: WalkBlock) -> None:
        """Fold one block into the running extremes and ``final``.

        On a log-scale walk psi is evaluated once per run of equal columns of
        the (M, B) product: column i is fresh when its log-norm or any of its
        dots differs (``!=``) from column i - 1's, and psi runs on the fresh
        columns alone.  This is exact: psi is an elementwise function of
        (dot, log_norm); a dropped column equals the fresh column before it
        under ``==``; the only values equal under ``==`` but not in bits are
        +-0.0, which psi both maps to +0.0; and every dot still comes from
        the one product over the whole block.  The last fresh column has the
        last row's inputs, so it gives ``final``.  Heavy-tailed walks, whose
        later steps underflow beside one dominating jump, repeat whole rows.
        ``argmax_rows`` is for linear walks: a log-scale block has no
        positions.
        """
        st = self.stats
        # (M, B) values, so the extremes reduce along the block
        if st.log_scale:
            dots = self.directions @ block.dirs.T
            log_norms = block.log_norms
            fresh = np.empty(len(log_norms), dtype=bool)
            fresh[0] = True
            np.not_equal(dots[:, 1:], dots[:, :-1]).any(axis=0, out=fresh[1:])
            fresh[1:] |= log_norms[1:] != log_norms[:-1]
            if not fresh.all():
                # kept: always gathering took one plateau-free 16,384-row,
                # 64-direction block from 15.8-17.3 ms to 25.5-30.4 ms
                dots, log_norms = dots[:, fresh], log_norms[fresh]
            # psi in place on one array: a zero dot's log is -inf, which the
            # clamp and offset take to 0, and np.sign(+-0.0) is +0.0
            vals = np.abs(dots)
            with np.errstate(divide="ignore"):
                np.log(vals, out=vals)
            vals += log_norms
            np.maximum(vals, -PSI_OFFSET, out=vals)
            vals += PSI_OFFSET
            vals *= np.sign(dots)
        else:
            vals = self.directions @ np.asarray(block.positions, dtype=float).T
        top = vals.max(axis=1)
        if self._argmax_cols is not None:
            cols = self._argmax_cols
            grew = cols[top[cols] > self.running_max[cols]]
            self.argmax_rows[grew] = block.positions[vals[grew].argmax(axis=1)]
        self.running_min = np.minimum(self.running_min, vals.min(axis=1))
        self.running_max = np.maximum(self.running_max, top)
        st.final = vals[:, -1].copy()
        if block.at_checkpoint:
            st.checkpoints.append(block.last_n)
            st.mins = np.vstack((st.mins, self.running_min))
            st.maxes = np.vstack((st.maxes, self.running_max))

    def to_csv(self, verdicts: list[str]) -> str:
        """One row per direction; ``verdicts[i]`` is direction i's classification."""
        st = self.stats
        cols = ([f"u_{i+1}" for i in range(st.directions.shape[1])]
                + [f"min_n{n}" for n in st.checkpoints]
                + [f"max_n{n}" for n in st.checkpoints]
                + ["final", "verdict"])
        return csv_text(cols, [*st.directions.T, *st.mins, *st.maxes,
                               st.final, verdicts])


def project_series(positions, u, checkpoints=None) -> ProjectionStats:
    """Stats for one direction ``u`` (d,) or several (M, d) from a dense
    position array (S_1, S_2, ...).

    S_0 = 0 is prepended automatically.  For checkpoint-only traces the
    extremes are lower-resolution; dense observation is required for exact
    minima.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    dirs = np.atleast_2d(np.asarray(u, dtype=float))
    proj = np.concatenate([np.zeros((1, len(dirs))), pos @ dirs.T])   # (n + 1, M)
    n = len(proj) - 1
    if checkpoints is None:
        checkpoints = dyadic_checkpoints(n)
    checkpoints = list(checkpoints)
    if any(not isinstance(b, (int, np.integer)) or a >= b
           for a, b in zip([0] + checkpoints, checkpoints)):
        raise ValueError("checkpoints must be strictly increasing positive integers")
    checkpoints = [c for c in checkpoints if c <= n]
    return ProjectionStats(
        directions=dirs, checkpoints=checkpoints,
        mins=np.minimum.accumulate(proj)[checkpoints],
        maxes=np.maximum.accumulate(proj)[checkpoints],
        final=proj[-1], n_steps=n, log_scale=False)


# ---------------------------------------------------------------------------
# classification: every helper maps (K x M) ladders or (M,) rows to one
# boolean per direction, comparing element by element

def stabilized(values: np.ndarray) -> np.ndarray:
    """Exactly constant over the last half of the checkpoint ladder."""
    half = (len(values) + 1) // 2
    tail = values[-half:]
    return np.all(tail == tail[0], axis=0)


def _grew_each(values: np.ndarray, ns: list[int], factor: float,
               log_scale: bool, among: np.ndarray) -> np.ndarray:
    """Growth of at least ``factor`` per doubling over the last two checkpoint
    steps, tested in the columns ``among`` (False elsewhere).  The final
    checkpoint may be a partial doubling (n need not be a power of two), so
    each step's requirement scales with log2 of its actual time ratio."""
    a, b, c = values[-3], values[-2], values[-1]
    w1 = math.log2(ns[-2] / ns[-3])
    w2 = math.log2(ns[-1] / ns[-2])
    need1, need2 = w1 * math.log(factor), w2 * math.log(factor)
    ok = among & (a > 0) & (b > 0) & (c > 0)      # psi > 0 means a positive value
    if log_scale:
        return ok & ((b - a) >= need1 - 1e-12) & ((c - b) >= need2 - 1e-12)
    # math.log on each ratio, not np.log: the two can differ in the last bit
    ok[ok] = [math.log(r1) >= need1 - 1e-12 and math.log(r2) >= need2 - 1e-12
              for r1, r2 in zip((b[ok] / a[ok]).tolist(), (c[ok] / b[ok]).tolist())]
    return ok


def _exceeds_scale(values: np.ndarray, threshold: float, log_scale: bool) -> np.ndarray:
    """|value| > threshold, in the right encoding."""
    if threshold <= 0:
        return np.ones(values.shape, dtype=bool)
    if log_scale:
        return (values != 0) & (np.abs(values) - PSI_OFFSET > math.log(threshold))
    return np.abs(values) > threshold


def _side_dominates(big: np.ndarray, small: np.ndarray, ratio: float,
                    log_scale: bool) -> np.ndarray:
    """|small| <= ratio * big, where big is the winning side's extreme (> 0);
    true where the losing side never crossed zero (small >= 0)."""
    if log_scale:
        # ClassifierThresholds accepts side_ratio <= 0, where math.log raises
        log_ratio = math.log(ratio) if ratio > 0 else NEG_INF
        big_log = np.where(big == 0, NEG_INF, np.abs(big) - PSI_OFFSET)
        within = np.abs(small) - PSI_OFFSET <= big_log + log_ratio
    else:
        within = -small <= ratio * big
    return (small >= 0) | within


def _past_floor(stats: ProjectionStats, thresholds: ClassifierThresholds):
    """Per direction: did the running max, and the running min, pass the
    oscillation floor osc_scale * sqrt(N) at the last checkpoint?  A ladder
    with no checkpoint holds only S_0 = 0."""
    floor = thresholds.osc_scale * math.sqrt(stats.n_steps)
    # the extremes of the last row, or 0 on an empty ladder; taking 0 in too
    # changes no result, as each test below also asks for the sign
    top = stats.maxes[-1:].max(axis=0, initial=0.0)
    bottom = stats.mins[-1:].min(axis=0, initial=0.0)
    return ((top > 0) & _exceeds_scale(top, floor, stats.log_scale),
            (bottom < 0) & _exceeds_scale(bottom, floor, stats.log_scale))


def classify(stats: ProjectionStats,
             thresholds: ClassifierThresholds = ClassifierThresholds()) -> list[str]:
    """Trend verdict of every direction's projection ladder, in order."""
    if len(stats.checkpoints) < thresholds.min_checkpoints:
        raise ValueError(
            f"classification needs >= {thresholds.min_checkpoints} checkpoints")
    mins, maxes, final = stats.mins, stats.maxes, stats.final
    ls, cps, growth = stats.log_scale, stats.checkpoints, thresholds.growth
    final_far = _exceeds_scale(final, thresholds.final_scale * math.sqrt(stats.n_steps), ls)
    # PLUS: floor frozen, ceiling compounding, endpoint far out on + side,
    # and the negative side negligible next to the positive one.
    plus = (stabilized(mins) & (final > 0) & final_far
            & _side_dominates(maxes[-1], mins[-1], thresholds.side_ratio, ls))
    plus = _grew_each(maxes, cps, growth, ls, among=plus)
    minus = (stabilized(maxes) & (final < 0) & final_far
             & _side_dominates(-mins[-1], -maxes[-1], thresholds.side_ratio, ls))
    minus = _grew_each(-mins, cps, growth, ls, among=minus)
    above, below = _past_floor(stats, thresholds)
    return np.where(plus, PLUS, np.where(minus, MINUS, np.where(
        above & below, OSC, UNDECIDED))).tolist()


def scan_exceptional(stats: ProjectionStats, verdicts: list[str],
                     thresholds: ClassifierThresholds = ClassifierThresholds()) -> np.ndarray:
    """Indices of the directions whose projections look boundedly exceptional.

    ``verdicts[i]`` is the verdict of direction i.  Returns the UNDECIDED
    directions whose running max or min stayed inside the oscillation floor
    -- a finite-sample proxy for a finite limsup or liminf.  When
    ``verdicts`` came from :func:`classify` with the same thresholds, that is
    every UNDECIDED direction, since a direction with both extremes past the
    floor classifies OSC if not PLUS or MINUS; the bound test matters for
    verdicts set otherwise, such as a halted walk's.  For planar walks the
    expectation at large N is an empty result; a nonempty one is a finite-N
    artifact worth a look, not a discovery.
    """
    above, below = _past_floor(stats, thresholds)
    return np.flatnonzero((np.asarray(verdicts) == UNDECIDED) & ~(above & below))
