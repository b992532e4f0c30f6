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
``||hat(S) - Q|| <= 2*rho/(1 - rho)`` whenever ``rho < 1``, which
:func:`biggest_jump_bound_check` evaluates per state and
:class:`BoundCheckObserver` enforces per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import stream
from .samplers import RADIAL_PRODUCT, IncrementSampler, IncrementSpec

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
NEG_INF = float("-inf")
_LOG10_E = math.log10(math.e)
# beyond this magnitude a float64 cannot hold the value; serialize from logs
_FLOAT_SAFE_LOG = math.log(1e300)
# slack on the dominance bound for float rounding in hat(S) and rho
BOUND_TOL = 1e-9


class UnsupportedSpecError(TypeError):
    """Operation requires a different increment-spec form."""


@dataclass
class WalkState:
    """Walk position and biggest-jump statistics after ``n`` steps.

    Linear modes use ``position``; log mode uses ``mantissa`` (unit length
    once the walk is nonzero) and ``scale`` with position = mantissa*e**scale.
    Radial statistics are linear values in linear modes and natural logs in
    log mode (log of 0 is -inf).
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
    overflowed: bool = False

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

    @property
    def is_radial(self) -> bool:
        return self.spec.form == RADIAL_PRODUCT

    def norm(self) -> float:
        if self.mode == "log":
            ln = self.log_norm()
            return math.exp(ln) if ln < _FLOAT_SAFE_LOG else math.inf
        return float(np.linalg.norm(self.position))

    def log_norm(self) -> float:
        if self.mode == "log":
            m = float(np.linalg.norm(self.mantissa))
            return NEG_INF if m == 0.0 else self.scale + math.log(m)
        v = self.norm()
        return NEG_INF if v == 0.0 else math.log(v)

    def direction(self) -> np.ndarray:
        if self.mode == "log":
            m = float(np.linalg.norm(self.mantissa))
            return np.zeros_like(self.mantissa) if m == 0.0 else self.mantissa / m
        n = self.norm()
        if n == 0.0:
            return np.zeros(self.spec.dimension)
        return np.asarray(self.position, dtype=float) / n

    def rest_to_max(self) -> float:
        """Dominance ratio rho = rest/largest for radial walks."""
        if not self.is_radial:
            raise UnsupportedSpecError("rest_to_max applies to radial products only")
        if self.mode == "log":
            if self.xi_max == NEG_INF:
                return math.nan
            if self.xi_rest == NEG_INF:
                return 0.0
            return math.exp(min(self.xi_rest - self.xi_max, 700.0))
        if self.xi_max <= 0:
            return math.nan
        return self.xi_rest / self.xi_max


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

    def __len__(self) -> int:
        return len(self.log_norms)

    @property
    def last_n(self) -> int:
        return self.first_n + len(self) - 1


class ObserverBase:
    """No-op observer; subclasses override what they need."""

    def begin(self, spec: IncrementSpec, n_steps: int, checkpoints: Sequence[int]) -> None:
        pass

    def observe(self, block: WalkBlock) -> None:
        pass

    def finish(self, state: WalkState) -> None:
        pass


# ---------------------------------------------------------------------------
# trajectory record

def dyadic_checkpoints(n_steps: int) -> list[int]:
    """1, 2, 4, ... up to n_steps, plus n_steps itself."""
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
    mant = 10.0 ** (log10_value - expo)
    if mant >= 10.0:           # rounding pushed the mantissa over
        mant /= 10.0
        expo += 1
    return f"{'' if sign > 0 else '-'}{mant:.12g}e{expo:+d}"


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
    seed: int
    n_steps: int
    mode: str
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
        if self.mode == "log":
            log_norms = [row.log_norm for row in rows]
            positions = [[_format_log_value(ln + math.log(abs(c)), c) if c != 0.0 else "0"
                          for ln, c in zip(log_norms, col)] for col in dirs.T.tolist()]
            norms = [_format_log_value(ln) for ln in log_norms]
        else:
            positions = np.array([row.position for row in rows]).reshape(len(rows), d).T
            norms = [float(np.linalg.norm(row.position)) for row in rows]
        columns = [[row.n for row in rows], *positions, norms, *dirs.T]
        if self.spec.form == RADIAL_PRODUCT:
            header += ["xi_max", "xi_rest", "max_index"]
            xi = [[row.xi_max for row in rows], [row.xi_rest for row in rows]]
            if self.mode == "log":
                xi = [[_format_log_value(x) for x in col] for col in xi]
            columns += xi + [[row.max_index for row in rows]]
        return csv_text(header, columns)


# ---------------------------------------------------------------------------
# vectorized engine

def _forward_fill_indices(flags: np.ndarray) -> np.ndarray:
    """Index of the most recent True at or before each slot, -1 before any."""
    idx = np.where(flags, np.arange(len(flags)), -1)
    return np.maximum.accumulate(idx)


def _advance_radial(state: WalkState, xi: np.ndarray, atom_idx: np.ndarray,
                    first_n: int) -> dict:
    """Carry ``state``'s radial statistics (total, max, rest, max index, atom)
    across one block of magnitudes (logs in log mode).  Returns the per-step
    running values as ``WalkBlock`` fields."""
    b = len(xi)
    running = np.maximum(np.maximum.accumulate(xi), state.xi_max)
    prev_max = np.empty(b)
    prev_max[0] = state.xi_max
    prev_max[1:] = running[:-1]
    newmax = xi > prev_max
    if state.mode == "log":
        state.xi_total = float(np.logaddexp.accumulate(
            np.concatenate(([state.xi_total], xi)))[-1])
        rest = np.empty(b)
        cur_rest, cur_max = state.xi_rest, state.xi_max
        events = np.flatnonzero(newmax)
        start = 0
        for e in events:
            if e > start:
                seg = np.logaddexp.accumulate(
                    np.concatenate(([cur_rest], xi[start:e])))[1:]
                rest[start:e] = seg
                cur_rest = seg[-1]
            cur_rest = np.logaddexp(cur_rest, cur_max)
            rest[e] = cur_rest
            cur_max = xi[e]
            start = e + 1
        if start < b:
            seg = np.logaddexp.accumulate(
                np.concatenate(([cur_rest], xi[start:b])))[1:]
            rest[start:b] = seg
    else:
        total = state.xi_total + np.cumsum(xi)
        rest = total - running
        state.xi_total = float(total[-1])
    steps = np.arange(first_n, first_n + b, dtype=np.int64)
    k_seq = np.maximum.accumulate(
        np.concatenate(([np.int64(state.max_index)], np.where(newmax, steps, 0))))[1:]
    ff = _forward_fill_indices(newmax)
    atom_seq = np.where(ff >= 0, atom_idx[np.maximum(ff, 0)], state.atom_at_max)
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
        norms = np.linalg.norm(rows, axis=1)
        nz = norms > 0.0
        safe = np.where(nz, norms, 1.0)
        with np.errstate(divide="ignore"):
            log_norms[seg] = np.where(nz, c + np.log(safe), NEG_INF)
        dirs[seg] = np.where(nz[:, None], rows / safe[:, None], 0.0)
        if norms[-1] > 0.0:
            u = rows[-1] / norms[-1]
            s = c + math.log(norms[-1])
        else:
            u = np.zeros(d)
            s = NEG_INF
        start = nxt
    state.mantissa, state.scale = u, s
    return dirs, log_norms


def _lattice_cumsum(prev: np.ndarray, vectors: np.ndarray):
    """Exact int64 running sums with conservative overflow screening.

    Returns (positions, ok_upto): ok_upto < len means the walk saturated at
    that in-block offset (the first position outside the int64 range).
    """
    bound = np.abs(prev.astype(float)).max() + np.abs(vectors.astype(float)).sum()
    if bound < 2.0**62:
        return prev + np.cumsum(vectors, axis=0, dtype=np.int64), len(vectors)
    pos = [int(x) for x in prev]
    rows = np.empty((len(vectors), len(prev)), dtype=np.int64)
    for i, vec in enumerate(vectors):
        pos = [p + int(v) for p, v in zip(pos, vec)]
        if any(abs(p) > INT_SAT_LIMIT for p in pos):
            return rows, i
        rows[i] = pos
    return rows, len(vectors)


def run_walk(spec: IncrementSpec, n_steps: int, seed: int,
             observers: Sequence[ObserverBase] = (), *,
             checkpoints: Sequence[int] | None = None) -> TrajectoryRecord:
    """Drive a walk for ``n_steps``; deterministic given (spec, n_steps, seed).

    Every observer sees every step (in vectorized blocks, split so that each
    checkpoint ends a block).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    sampler = IncrementSampler(spec)
    rng = stream(seed)
    mode = spec.scale_mode
    cps = sorted(set(checkpoints)) if checkpoints is not None else dyadic_checkpoints(n_steps)
    cp_set = set(cps)
    record = TrajectoryRecord(spec=spec, seed=seed, n_steps=n_steps, mode=mode)
    for obs in observers:
        obs.begin(spec, n_steps, cps)

    state = WalkState.initial(spec)
    atoms = sampler.atoms
    n_done = 0
    halted = False
    while n_done < n_steps and not halted:
        b = min(BLOCK, n_steps - n_done)
        sb = sampler.sample_block(rng, b)
        first_n = n_done + 1
        # positions / directions for the whole block
        if mode == "log":
            dirs, log_norms = _scaled_accumulate(state, sb.xi_log, atoms[sb.atom_idx])
            positions = None
        else:
            if mode == "lattice":
                positions, ok = _lattice_cumsum(state.position, sb.vectors)
            else:
                positions = state.position + np.cumsum(sb.vectors, axis=0)
                finite = np.all(np.isfinite(positions), axis=1)
                ok = b if finite.all() else int(np.argmin(finite))
            if ok < b:
                positions = positions[:ok]
                b = ok
                halted = True
                record.overflowed = True
                if b == 0:
                    break
            fpos = positions.astype(float, copy=False)
            norms = np.linalg.norm(fpos, axis=1)
            with np.errstate(divide="ignore"):
                log_norms = np.where(norms > 0.0, np.log(np.where(norms > 0, norms, 1.0)), NEG_INF)
            dirs = np.where(norms[:, None] > 0.0, fpos / np.where(norms[:, None] > 0, norms[:, None], 1.0), 0.0)
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
            sub = _slice_block(block, start, cut) if (start, cut) != (0, b) else block
            for obs in observers:
                obs.observe(sub)
            end_n = first_n + cut - 1
            if end_n in cp_set:
                record.checkpoints.append(_checkpoint_from_block(sub, spec))
            start = cut
        n_done += b

    record.saturations = sampler.saturations.count
    for obs in observers:
        obs.finish(state)
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


def biggest_jump_bound_check(state: WalkState) -> BoundCheck:
    """Evaluate ||hat(S) - Q_at_max|| against 2*rho/(1-rho) for one state."""
    if state.spec.form != RADIAL_PRODUCT:
        raise UnsupportedSpecError("the biggest-jump bound applies to radial products")
    if state.n < 1 or state.log_norm() == NEG_INF:
        raise ValueError("bound check requires S != 0 after at least one step")
    rho = state.rest_to_max()
    if math.isnan(rho):
        raise ValueError("bound check requires a positive largest magnitude")
    q = np.asarray(state.spec.atoms[state.atom_at_max], dtype=float)
    actual = float(np.linalg.norm(state.direction() - q))
    if rho >= 1.0:
        return BoundCheck(rho=rho, bound=math.inf, actual=actual, ok=True,
                          applicable=False)
    bound = 2.0 * rho / (1.0 - rho)
    return BoundCheck(rho=rho, bound=bound, actual=actual,
                      ok=actual <= bound + BOUND_TOL, applicable=True)


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
        self._atoms = None
        self._log = False

    def begin(self, spec, n_steps, checkpoints):
        if spec.form != RADIAL_PRODUCT:
            raise UnsupportedSpecError("bound checking needs a radial-product spec")
        self._atoms = np.asarray(spec.atoms, dtype=float)
        self._log = spec.scale_mode == "log"

    def observe(self, block: WalkBlock) -> None:
        self.checked += len(block)
        if self._log:
            with np.errstate(over="ignore"):
                rho = np.exp(np.minimum(block.xi_rest - block.xi_max, 700.0))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                rho = np.where(block.xi_max > 0, block.xi_rest / np.maximum(block.xi_max, 1e-300), np.nan)
        nonzero = block.log_norms > NEG_INF
        ok = (rho < 1.0) & nonzero
        if not np.any(ok):
            return
        self.applicable += int(np.count_nonzero(ok))
        q = self._atoms[block.atom_at_max[ok]]
        actual = np.linalg.norm(block.dirs[ok] - q, axis=1)
        bound = 2.0 * rho[ok] / (1.0 - rho[ok])
        margin = actual - bound
        self.worst_margin = max(self.worst_margin, float(np.max(margin)))
        self.violations += int(np.count_nonzero(margin > BOUND_TOL))
