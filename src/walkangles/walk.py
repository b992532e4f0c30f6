"""Random walk driver with biggest-jump bookkeeping.

Positions use one of three arithmetic modes, chosen from the increment spec:

* ``lattice`` -- exact int64 coordinates with saturation detection.  A walk
  that would leave the int64 range halts with its record flagged.
* ``float``   -- float64 coordinates.
* ``log``     -- mantissa-and-log-scale coordinates, used for radial products
  whose magnitudes (log tails, stretched-exponential tails) exceed float64
  range after a few hundred steps.  Directions and log-norms stay exact to
  float precision no matter how large the walk gets.

For radial products the engine tracks the running magnitude sum, the largest
magnitude so far, its step index (ties keep the earlier index), the atom that
produced it, and the remainder sum.  The dominance ratio remainder/largest
controls how far the walk's direction can sit from the biggest jump's atom:
``||hat(S) - Q|| <= 2*rho/(1 - rho)`` whenever ``rho < 1``.  One array
function, ``_dominance_terms``, evaluates it row by row;
:func:`biggest_jump_bound_check` calls it on one state and
:class:`BoundCheckObserver` on every step of each block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import stream
from .samplers import RADIAL_PRODUCT, IncrementSampler, IncrementSpec
from .sphere import normalize, normalize_rows, row_norms

__all__ = [
    "BLOCK",
    "INT_SAT_LIMIT",
    "UnsupportedSpecError",
    "WalkState",
    "WalkBlock",
    "ObserverBase",
    "BoundCheck",
    "BoundCheckObserver",
    "TrajectoryRecord",
    "run_walk",
    "dyadic_checkpoints",
    "biggest_jump_bound_check",
    "csv_text",
]

BLOCK = 1 << 14          # fixed: the engine's draw order is part of determinism
INT_SAT_LIMIT = 2**63 - 1
_INT64_MIN = np.int64(-2**63)
NEG_INF = float("-inf")
_LOG10_E = math.log10(math.e)
# beyond this magnitude a float64 cannot hold the value; serialize from logs
_FLOAT_SAFE_LOG = math.log(1e300)
# A reporting threshold, not a float shortcut in front of an exact
# computation: the dominance bound is an identity of the decomposition, and a
# step counts as a violation (a bug) when its float margin
# ||hat(S) - Q|| - 2*rho/(1 - rho) exceeds this.
BOUND_TOL = 1e-9


class UnsupportedSpecError(TypeError):
    """Operation requires a different increment-spec form."""


@dataclass
class WalkState:
    """Walk position and biggest-jump statistics after ``n`` steps.

    Linear modes use ``position``; log mode uses ``mantissa`` (unit length
    once the walk is nonzero) and ``scale`` with position = mantissa*e**scale.
    Radial statistics are linear values in linear modes and natural logs in
    log mode (log of 0 is -inf).  ``xi_total`` is kept in linear modes only,
    where the rest is the total less the maximum; in log mode it stays -inf.
    """

    spec: IncrementSpec
    mode: str
    n: int = 0
    position: np.ndarray | None = None
    mantissa: np.ndarray | None = None
    scale: float = NEG_INF
    xi_total: float = 0.0
    xi_max: float = 0.0
    xi_rest: float = 0.0
    max_index: int = 0
    atom_at_max: int = -1

    @classmethod
    def initial(cls, spec: IncrementSpec) -> "WalkState":
        mode = spec.scale_mode
        st = cls(spec=spec, mode=mode)
        if mode == "lattice":
            st.position = np.zeros(spec.dimension, dtype=np.int64)
        elif mode == "float":
            st.position = np.zeros(spec.dimension, dtype=float)
        else:
            st.mantissa = np.zeros(spec.dimension, dtype=float)
            st.xi_total = st.xi_max = st.xi_rest = NEG_INF
        return st

    def norm(self) -> float:
        if self.mode == "log":
            ln = self.log_norm()
            return math.exp(ln) if ln < _FLOAT_SAFE_LOG else math.inf
        return normalize(self.position)[1]

    def log_norm(self) -> float:
        if self.mode == "log":
            return self.scale + normalize(self.mantissa)[2]
        return normalize(self.position)[2]

    def direction(self) -> np.ndarray:
        return normalize(self.mantissa if self.mode == "log" else self.position)[0]


# ---------------------------------------------------------------------------
# block data handed to observers

@dataclass
class WalkBlock:
    """Per-step arrays for steps first_n .. first_n + len - 1 (inclusive)."""

    first_n: int
    dirs: np.ndarray                 # (B, d) unit directions, zero rows where S=0
    log_norms: np.ndarray            # (B,) natural logs, -inf where S=0
    positions: np.ndarray | None     # (B, d) in linear modes, else None
    # radial products only: running statistics after each step (logs in log mode)
    xi_max: np.ndarray | None = None     # running largest (log in log mode)
    xi_rest: np.ndarray | None = None
    max_index: np.ndarray | None = None
    atom_at_max: np.ndarray | None = None
    # the block's last step is on the checkpoint ladder of ``run_walk``
    at_checkpoint: bool = False
    # the last piece of an engine block, or of a halted walk (``run_walk``);
    # an observer may hold a block's pieces until this one, so a block built
    # by hand, which keeps the default, is taken at once
    block_end: bool = True

    def __len__(self) -> int:
        return len(self.log_norms)

    @property
    def last_n(self) -> int:
        return self.first_n + len(self) - 1


class ObserverBase:
    """No-op observer; subclasses override what they need."""

    def begin(self, spec: IncrementSpec, n_steps: int) -> None:
        pass

    def observe(self, block: WalkBlock) -> None:
        pass

    def finish(self) -> None:
        pass


# ---------------------------------------------------------------------------
# trajectory record

def dyadic_checkpoints(n_steps: int) -> list[int]:
    """1, 2, 4, ... up to n_steps, plus n_steps itself."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pts = []
    k = 1
    while k <= n_steps:
        pts.append(k)
        k *= 2
    if pts[-1] != n_steps:
        pts.append(n_steps)
    return pts


def csv_text(header: Sequence[str], columns: Sequence) -> str:
    """CSV text: the ``header`` line, then one line per row of ``columns``.

    Each column is a 1-d array or a list; arrays become Python values with
    ``tolist()``.  Every cell is ``str()`` of its value, so a float64 is its
    shortest round-trip ``repr`` and an int64 its decimal digits.  Columns of
    unequal length raise ``ValueError``.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in zip(*cols, strict=True)]
    return "\n".join(lines) + "\n"


def _format_log_value(log_abs: float, sign: float = 1.0) -> str:
    """Cell text for ``sign * e**log_abs``; extended notation beyond float range."""
    if log_abs == NEG_INF:
        return "0"
    if log_abs < _FLOAT_SAFE_LOG:
        return repr(math.copysign(math.exp(log_abs), sign))
    log10_value = log_abs * _LOG10_E
    expo = math.floor(log10_value)
    mant = f"{10.0 ** (log10_value - expo):.12g}"
    if mant == "10":           # rounding pushed the mantissa over
        mant, expo = "1", expo + 1
    return f"{'' if sign > 0 else '-'}{mant}e{expo:+d}"


@dataclass
class CheckpointRow:
    n: int
    position: np.ndarray | None
    direction: np.ndarray
    log_norm: float
    xi_max: float | None = None
    xi_rest: float | None = None
    max_index: int | None = None


@dataclass
class TrajectoryRecord:
    """Checkpoint trace of one walk, serializable to CSV."""

    spec: IncrementSpec
    checkpoints: list[CheckpointRow] = field(default_factory=list)
    overflowed: bool = False
    saturations: int = 0
    final_state: WalkState | None = None

    def to_csv(self) -> str:
        d = self.spec.dimension
        rows = self.checkpoints
        header = (["n"] + [f"s_{i+1}" for i in range(d)] + ["norm"]
                  + [f"shat_{i+1}" for i in range(d)])
        dirs = np.array([row.direction for row in rows]).reshape(len(rows), d)
        if self.spec.scale_mode == "log":
            log_norms = [row.log_norm for row in rows]
            positions = [[_format_log_value(ln + math.log(abs(c)), c) if c != 0.0 else "0"
                          for ln, c in zip(log_norms, col)] for col in dirs.T.tolist()]
            norms = [_format_log_value(ln) for ln in log_norms]
        else:
            positions = np.array([row.position for row in rows]).reshape(len(rows), d).T
            norms = [normalize(row.position)[1] for row in rows]
        columns = [[row.n for row in rows], *positions, norms, *dirs.T]
        if self.spec.form == RADIAL_PRODUCT:
            header += ["xi_max", "xi_rest", "max_index"]
            xi = [[row.xi_max for row in rows], [row.xi_rest for row in rows]]
            if self.spec.scale_mode == "log":
                xi = [[_format_log_value(x) for x in col] for col in xi]
            columns += xi + [[row.max_index for row in rows]]
        return csv_text(header, columns)


# ---------------------------------------------------------------------------
# vectorized engine

def _advance_radial(state: WalkState, xi: np.ndarray, atom_idx: np.ndarray,
                    first_n: int) -> dict:
    """Carry ``state``'s radial statistics (max, rest, max index, atom, and
    in linear modes the total) across one block of magnitudes (logs in log
    mode).  Returns the per-step running values as ``WalkBlock`` fields.

    In log mode the rest is one ``logaddexp`` prefix scan in step order: a
    step that sets a new maximum adds the old maximum, any other step itself.
    """
    b = len(xi)
    running = np.maximum(np.maximum.accumulate(xi), state.xi_max)
    prev_max = np.empty(b)
    prev_max[0] = state.xi_max
    prev_max[1:] = running[:-1]
    newmax = xi > prev_max
    if state.mode == "log":
        rest = np.logaddexp.accumulate(
            np.concatenate(([state.xi_rest], np.where(newmax, prev_max, xi))))[1:]
    else:
        # a magnitude sum past float range is inf, where the bound does not apply
        with np.errstate(over="ignore"):
            total = state.xi_total + np.cumsum(xi)
        rest = total - running
        state.xi_total = float(total[-1])
    steps = np.arange(first_n, first_n + b, dtype=np.int64)
    k_seq = np.maximum.accumulate(
        np.concatenate(([np.int64(state.max_index)], np.where(newmax, steps, 0))))[1:]
    # k_seq reaches first_n at the block's first new maximum (state.max_index < first_n)
    atom_seq = np.where(k_seq >= first_n, atom_idx[np.maximum(k_seq - first_n, 0)],
                        state.atom_at_max)
    state.xi_max = float(running[-1])
    state.xi_rest = float(rest[-1])
    state.max_index = int(k_seq[-1])
    state.atom_at_max = int(atom_seq[-1])
    return dict(xi_max=running, xi_rest=rest, max_index=k_seq, atom_at_max=atom_seq)


def _scaled_accumulate(state: WalkState, xi_log: np.ndarray, atom_vecs: np.ndarray):
    """Accumulate radial jumps in mantissa/log-scale arithmetic.

    The block is cut into segments at jumps that dwarf the current scale;
    within a segment one shared scale keeps every term representable, and
    terms more than ~e**-745 below the scale underflow to zero, which is the
    correct limit.  Updates ``state`` (mantissa, scale) and returns per-step
    unit directions and log-norms.
    """
    b = len(xi_log)
    d = atom_vecs.shape[1]
    dirs = np.zeros((b, d))
    log_norms = np.full(b, NEG_INF)
    u, s = state.mantissa, state.scale
    start = 0
    while start < b:
        c = max(s, float(xi_log[start]))
        rest = xi_log[start:] > c + 10.0
        nxt = start + 1 + int(np.argmax(rest[1:])) if rest[1:].any() else b
        seg = slice(start, nxt)
        pref = u * math.exp(s - c) if s != NEG_INF else np.zeros(d)
        rows = pref + np.cumsum(np.exp(xi_log[seg] - c)[:, None] * atom_vecs[seg], axis=0)
        dirs[seg], norms, seg_logs = normalize_rows(rows)
        log_norms[seg] = c + seg_logs
        # math.log, not the block's numpy log: the carry is pinned on it
        u = dirs[nxt - 1].copy()
        s = c + math.log(norms[-1]) if norms[-1] > 0.0 else NEG_INF
        start = nxt
    state.mantissa, state.scale = u, s
    return dirs, log_norms


def _finite_prefix(values: np.ndarray) -> int:
    """Number of leading entries (rows, for a 2-d array) that are all finite."""
    cols = values.reshape(len(values), -1).T
    finite = np.isfinite(cols[0])
    for col in cols[1:]:
        finite &= np.isfinite(col)
    return len(finite) if finite.all() else int(np.argmin(finite))


def _lattice_cumsum(prev: np.ndarray, vectors: np.ndarray):
    """Exact int64 running sums, cut at the first position outside the int64 range.

    The int64 ``cumsum`` wraps modulo 2^64, so every position up to the first
    out-of-range one is exact, and that one is the first row whose addition
    ``before + vector`` overflowed: ``before`` and ``vector`` share a sign that
    the wrapped sum lacks, ``((before ^ pos) & (vector ^ pos)) < 0``.  This
    holds because ``is_lattice`` bounds every increment coordinate by
    2^63 - 1.  A position of -2^63 fits int64 but not the symmetric range
    ``|p| <= INT_SAT_LIMIT`` and halts too.

    Returns (positions, ok_upto): ok_upto < len means the walk saturated at
    that in-block offset, and only ``positions[:ok_upto]`` are valid.
    """
    pos = np.cumsum(vectors, axis=0, dtype=np.int64)
    pos += prev
    flags = np.empty_like(pos)             # before ^ pos, then & (vector ^ pos)
    flags[0] = prev
    flags[1:] = pos[:-1]
    flags ^= pos
    flags &= vectors ^ pos
    if flags.min() >= 0 and pos.min() > _INT64_MIN:
        return pos, len(vectors)
    bad = ((flags < 0) | (pos == _INT64_MIN)).any(axis=1)
    return pos, int(np.argmax(bad))


def run_walk(spec: IncrementSpec, n_steps: int, seed: int,
             observers: Sequence[ObserverBase] = ()) -> TrajectoryRecord:
    """Drive a walk for ``n_steps``; deterministic given (spec, n_steps, seed).

    Every observer sees every step, in vectorized blocks split so that each
    checkpoint of ``dyadic_checkpoints(n_steps)`` ends one, marked
    ``at_checkpoint``; a halted walk reaches the checkpoints up to its halt.
    Only the last piece of each engine block of ``BLOCK`` steps (or of the
    halted walk) keeps ``block_end`` set.
    """
    cp_set = set(dyadic_checkpoints(n_steps))           # raises for n_steps < 1
    sampler = IncrementSampler(spec)
    rng = stream(seed)
    mode = spec.scale_mode
    record = TrajectoryRecord(spec=spec)
    for obs in observers:
        obs.begin(spec, n_steps)

    state = WalkState.initial(spec)
    atoms = sampler.atoms
    n_done = 0
    halted = False
    while n_done < n_steps and not halted:
        b = min(BLOCK, n_steps - n_done)
        sb = sampler.sample_block(rng, b)
        first_n = n_done + 1
        # positions / directions for the whole block, cut at the first step
        # past the range of the mode's arithmetic
        if mode == "lattice":
            positions, ok = _lattice_cumsum(state.position, sb.vectors)
        elif mode == "float":
            # a sum past float range is inf, or nan after opposite infinities:
            # the walk halts there
            with np.errstate(over="ignore", invalid="ignore"):
                positions = state.position + np.cumsum(sb.vectors, axis=0)
            ok = _finite_prefix(positions)
        else:
            positions = None
            ok = _finite_prefix(sb.xi_log)
        if ok < b:
            b = ok
            halted = True
            record.overflowed = True
            if b == 0:
                break
        if mode == "log":
            dirs, log_norms = _scaled_accumulate(state, sb.xi_log[:b], atoms[sb.atom_idx[:b]])
        else:
            positions = positions[:b]
            dirs, _, log_norms = normalize_rows(positions)
            state.position = positions[-1].copy()

        radial = {}
        if spec.form == RADIAL_PRODUCT:
            xi = sb.xi_log if mode == "log" else sb.xi
            radial = _advance_radial(state, xi[:b], sb.atom_idx[:b], first_n)
        state.n = n_done + b

        block = WalkBlock(first_n=first_n, dirs=dirs, log_norms=log_norms,
                          positions=positions, **radial)
        # split so each checkpoint ends a sub-block
        cuts = sorted({n - first_n + 1 for n in cp_set
                       if first_n <= n < first_n + b} | {b})
        start = 0
        for cut in cuts:
            sub = _slice_block(block, start, cut)
            sub.at_checkpoint = first_n + cut - 1 in cp_set
            sub.block_end = cut == b
            for obs in observers:
                obs.observe(sub)
            if sub.at_checkpoint:
                record.checkpoints.append(_checkpoint_from_block(sub, spec))
            start = cut
        n_done += b

    record.saturations = sampler.saturations.count
    for obs in observers:
        obs.finish()
    record.final_state = state
    return record


def _slice_block(block: WalkBlock, a: int, b: int) -> WalkBlock:
    pick = lambda arr: None if arr is None else arr[a:b]
    return WalkBlock(first_n=block.first_n + a, dirs=block.dirs[a:b],
                     log_norms=block.log_norms[a:b],
                     positions=pick(block.positions), xi_max=pick(block.xi_max),
                     xi_rest=pick(block.xi_rest), max_index=pick(block.max_index),
                     atom_at_max=pick(block.atom_at_max))


def _checkpoint_from_block(block: WalkBlock, spec: IncrementSpec) -> CheckpointRow:
    """The row for the block's last step."""
    row = CheckpointRow(
        n=block.last_n,
        position=None if block.positions is None else block.positions[-1].copy(),
        direction=block.dirs[-1].copy(),
        log_norm=float(block.log_norms[-1]),
    )
    if spec.form == RADIAL_PRODUCT:
        row.xi_max = float(block.xi_max[-1])
        row.xi_rest = float(block.xi_rest[-1])
        row.max_index = int(block.max_index[-1])
    return row


# ---------------------------------------------------------------------------
# the biggest-jump bound

@dataclass(frozen=True)
class BoundCheck:
    rho: float
    bound: float
    actual: float
    ok: bool
    applicable: bool


def _dominance_terms(spec: IncrementSpec, xi_max, xi_rest, dirs, atom_at_max):
    """Per step (row) of a radial walk of ``spec``: rho = rest/largest (NaN
    unless largest > 0; the statistics are logs in log mode), the bound,
    actual = ||hat(S) - Q_at_max|| and whether the step is applicable: rho < 1
    and S != 0 (``dirs`` has zero rows where S = 0).  The bound is
    2*rho/(1 - rho) there and inf elsewhere, so a margin ``actual - bound``
    above ``BOUND_TOL`` is a violation."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.scale_mode == "log":
            rho = np.exp(np.minimum(xi_rest - xi_max, 700.0))
        else:
            rho = np.where(xi_max > 0, xi_rest / np.maximum(xi_max, 1e-300), np.nan)
        nonzero = dirs.T[0] != 0.0
        for col in dirs.T[1:]:
            nonzero |= col != 0.0
        applicable = (rho < 1.0) & nonzero
        bound = np.where(applicable, 2.0 * rho / (1.0 - rho), np.inf)
    actual = row_norms(dirs - np.asarray(spec.atoms, dtype=float)[atom_at_max])
    return rho, bound, actual, applicable


def biggest_jump_bound_check(state: WalkState) -> BoundCheck:
    """Evaluate ||hat(S) - Q_at_max|| against 2*rho/(1-rho) for one state."""
    if state.spec.form != RADIAL_PRODUCT:
        raise UnsupportedSpecError("the biggest-jump bound applies to radial products")
    direction = state.direction()
    if state.n < 1 or not direction.any():
        raise ValueError("bound check requires S != 0 after at least one step")
    rho, bound, actual, applicable = (a.item() for a in _dominance_terms(
        state.spec, np.array([state.xi_max]), np.array([state.xi_rest]),
        direction[None, :], np.array([state.atom_at_max])))
    if math.isnan(rho):
        raise ValueError("bound check requires a positive largest magnitude")
    return BoundCheck(rho=rho, bound=bound, actual=actual,
                      ok=not actual - bound > BOUND_TOL, applicable=applicable)


class BoundCheckObserver(ObserverBase):
    """Checks the dominance bound at every step of a radial walk.

    Collects the number of applicable steps (rho < 1) and any violations
    beyond tolerance; the bound is a mathematical identity of the
    decomposition, so any violation indicates a bug.
    """

    def __init__(self):
        self.checked = 0
        self.applicable = 0
        self.violations = 0
        self.worst_margin = NEG_INF
        self._spec = None

    def begin(self, spec, n_steps):
        if spec.form != RADIAL_PRODUCT:
            raise UnsupportedSpecError("bound checking needs a radial-product spec")
        self._spec = spec

    def observe(self, block: WalkBlock) -> None:
        _, bound, actual, applicable = _dominance_terms(
            self._spec, block.xi_max, block.xi_rest, block.dirs, block.atom_at_max)
        margin = actual - bound          # -inf where not applicable
        self.checked += len(block)
        self.applicable += int(np.count_nonzero(applicable))
        self.worst_margin = max(self.worst_margin, float(margin.max()))
        self.violations += int(np.count_nonzero(margin > BOUND_TOL))
