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

import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import stream
from .samplers import RADIAL_PRODUCT, IncrementSampler, IncrementSpec, spec_to_json

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
    "format_number",
    "format_signed_log10",
]

BLOCK = 1 << 14          # fixed: the engine's draw order is part of determinism
INT_SAT_LIMIT = 2**63 - 1
NEG_INF = float("-inf")
_LOG10_E = math.log10(math.e)
# beyond this magnitude a float64 cannot hold the value; serialize from logs
_FLOAT_SAFE_LOG = math.log(1e300)


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
    mode: str
    dirs: np.ndarray                 # (B, d) unit directions, zero rows where S=0
    log_norms: np.ndarray            # (B,) natural logs, -inf where S=0
    positions: np.ndarray | None     # (B, d) in linear modes, else None
    xi: np.ndarray | None = None         # radial magnitude (or its log in log mode)
    atom_idx: np.ndarray | None = None
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


def format_number(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def format_signed_log10(sign: int, log10_value: float) -> str:
    """Extended scientific notation for values far beyond float64 range."""
    if sign == 0 or log10_value == NEG_INF:
        return "0"
    expo = math.floor(log10_value)
    mant = 10.0 ** (log10_value - expo)
    if mant >= 10.0:           # rounding pushed the mantissa over
        mant /= 10.0
        expo += 1
    return f"{'-' if sign < 0 else ''}{mant:.12g}e{expo:+d}"


def _format_log_component(dir_component: float, log_norm: float) -> str:
    if dir_component == 0.0 or log_norm == NEG_INF:
        return "0"
    val_log = log_norm + math.log(abs(dir_component))
    if val_log < _FLOAT_SAFE_LOG:
        return repr(math.copysign(math.exp(val_log), dir_component))
    return format_signed_log10(1 if dir_component > 0 else -1, val_log * _LOG10_E)


@dataclass
class CheckpointRow:
    n: int
    position: np.ndarray | None
    direction: np.ndarray
    log_norm: float
    xi_max: float | None = None
    xi_rest: float | None = None
    max_index: int | None = None

    def norm(self) -> float:
        return math.exp(self.log_norm) if self.log_norm < _FLOAT_SAFE_LOG else math.inf


@dataclass
class TrajectoryRecord:
    """Checkpoint trace of one walk, serializable to CSV and JSON."""

    spec: IncrementSpec
    seed: int
    n_steps: int
    mode: str
    checkpoints: list[CheckpointRow] = field(default_factory=list)
    dense_positions: np.ndarray | None = None
    overflowed: bool = False
    saturations: int = 0
    final_state: WalkState | None = None

    def _row_cells(self, row: CheckpointRow) -> list[str]:
        d = self.spec.dimension
        cells = [str(row.n)]
        if row.position is not None:
            cells += [format_number(x) for x in row.position]
            cells.append(format_number(float(np.linalg.norm(row.position))))
        else:
            cells += [_format_log_component(row.direction[i], row.log_norm)
                      for i in range(d)]
            if row.log_norm == NEG_INF:
                cells.append("0")
            elif row.log_norm < _FLOAT_SAFE_LOG:
                cells.append(repr(math.exp(row.log_norm)))
            else:
                cells.append(format_signed_log10(1, row.log_norm * _LOG10_E))
        cells += [format_number(x) for x in row.direction]
        if self.spec.form == RADIAL_PRODUCT:
            if self.mode == "log":
                for v in (row.xi_max, row.xi_rest):
                    if v == NEG_INF:
                        cells.append("0")
                    elif v < _FLOAT_SAFE_LOG:
                        cells.append(repr(math.exp(v)))
                    else:
                        cells.append(format_signed_log10(1, v * _LOG10_E))
            else:
                cells += [format_number(row.xi_max), format_number(row.xi_rest)]
            cells.append(str(row.max_index))
        return cells

    def csv_header(self) -> list[str]:
        d = self.spec.dimension
        cols = ["n"] + [f"s_{i+1}" for i in range(d)] + ["norm"]
        cols += [f"shat_{i+1}" for i in range(d)]
        if self.spec.form == RADIAL_PRODUCT:
            cols += ["xi_max", "xi_rest", "max_index"]
        return cols

    def to_csv(self, fh=None) -> str | None:
        own = fh is None
        out = io.StringIO() if own else fh
        out.write(",".join(self.csv_header()) + "\n")
        for row in self.checkpoints:
            out.write(",".join(self._row_cells(row)) + "\n")
        if own:
            return out.getvalue()
        return None

    def to_json(self) -> str:
        rows = []
        for row in self.checkpoints:
            cells = self._row_cells(row)
            rows.append(dict(zip(self.csv_header(), cells)))
        return json.dumps({
            "spec": json.loads(spec_to_json(self.spec)),
            "seed": self.seed,
            "n_steps": self.n_steps,
            "mode": self.mode,
            "overflowed": self.overflowed,
            "saturations": self.saturations,
            "checkpoints": rows,
        }, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# vectorized engine

def _forward_fill_indices(flags: np.ndarray) -> np.ndarray:
    """Index of the most recent True at or before each slot, -1 before any."""
    idx = np.where(flags, np.arange(len(flags)), -1)
    return np.maximum.accumulate(idx)


class _RadialTracker:
    """Carries (total, max, rest, k, atom) across blocks, vectorized per block."""

    def __init__(self, log_mode: bool):
        self.log = log_mode
        self.total = NEG_INF if log_mode else 0.0
        self.max = NEG_INF if log_mode else 0.0
        self.rest = NEG_INF if log_mode else 0.0
        self.k = 0
        self.atom = -1

    def advance(self, xi: np.ndarray, atom_idx: np.ndarray, first_n: int):
        b = len(xi)
        running = np.maximum(np.maximum.accumulate(xi), self.max)
        prev_max = np.empty(b)
        prev_max[0] = self.max
        prev_max[1:] = running[:-1]
        newmax = xi > prev_max
        if self.log:
            total = np.logaddexp.accumulate(np.concatenate(([self.total], xi)))[1:]
            rest = np.empty(b)
            cur_rest, cur_max = self.rest, self.max
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
                cur_rest = seg[-1]
            self.rest = float(cur_rest)
        else:
            total = self.total + np.cumsum(xi)
            rest = total - running
            self.rest = float(rest[-1])
        steps = np.arange(first_n, first_n + b, dtype=np.int64)
        k_seq = np.maximum.accumulate(
            np.concatenate(([np.int64(self.k)], np.where(newmax, steps, 0))))[1:]
        ff = _forward_fill_indices(newmax)
        atom_seq = np.where(ff >= 0, atom_idx[np.maximum(ff, 0)], self.atom)
        self.total = float(total[-1])
        self.max = float(running[-1])
        self.k = int(k_seq[-1])
        self.atom = int(atom_seq[-1])
        return total, running, rest, k_seq, atom_seq


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
             dense: bool = False,
             checkpoints: Sequence[int] | None = None) -> TrajectoryRecord:
    """Drive a walk for ``n_steps``; deterministic given (spec, n_steps, seed).

    Every observer sees every step (in vectorized blocks, split so that each
    checkpoint ends a block).  ``dense=True`` additionally stores the full
    position array on the record (linear modes only).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    sampler = IncrementSampler(spec)
    rng = stream(seed)
    mode = spec.scale_mode
    cps = sorted(set(checkpoints)) if checkpoints is not None else dyadic_checkpoints(n_steps)
    cp_set = set(cps)
    record = TrajectoryRecord(spec=spec, seed=seed, n_steps=n_steps, mode=mode)
    if dense and mode != "log":
        record.dense_positions = np.zeros(
            (n_steps, spec.dimension), dtype=np.int64 if mode == "lattice" else float)
    for obs in observers:
        obs.begin(spec, n_steps, cps)

    state = WalkState.initial(spec)
    tracker = _RadialTracker(mode == "log") if spec.form == RADIAL_PRODUCT else None
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
                for name in ("xi", "atom_idx"):
                    arr = getattr(sb, name)
                    if arr is not None:
                        setattr(sb, name, arr[:b])
            fpos = positions.astype(float, copy=False)
            norms = np.linalg.norm(fpos, axis=1)
            with np.errstate(divide="ignore"):
                log_norms = np.where(norms > 0.0, np.log(np.where(norms > 0, norms, 1.0)), NEG_INF)
            dirs = np.where(norms[:, None] > 0.0, fpos / np.where(norms[:, None] > 0, norms[:, None], 1.0), 0.0)
            state.position = positions[-1].copy()

        if tracker is not None:
            xi_arr = sb.xi_log if mode == "log" else sb.xi
            tot, mx, rest, kseq, atomseq = tracker.advance(xi_arr, sb.atom_idx, first_n)
            state.xi_total, state.xi_max, state.xi_rest = tracker.total, tracker.max, tracker.rest
            state.max_index, state.atom_at_max = tracker.k, tracker.atom
        else:
            xi_arr = mx = rest = kseq = atomseq = None
        state.n = n_done + b

        if record.dense_positions is not None:
            record.dense_positions[first_n - 1:first_n - 1 + b] = positions

        block = WalkBlock(first_n=first_n, mode=mode, dirs=dirs, log_norms=log_norms,
                          positions=positions, xi=xi_arr, atom_idx=sb.atom_idx,
                          xi_max=mx, xi_rest=rest, max_index=kseq, atom_at_max=atomseq)
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
                record.checkpoints.append(_checkpoint_from_block(sub, -1, spec, mode))
            start = cut
        n_done += b

    record.saturations = sampler.saturations.count
    for obs in observers:
        obs.finish(state)
    record.final_state = state
    return record


def _slice_block(block: WalkBlock, a: int, b: int) -> WalkBlock:
    pick = lambda arr: None if arr is None else arr[a:b]
    return WalkBlock(first_n=block.first_n + a, mode=block.mode,
                     dirs=block.dirs[a:b], log_norms=block.log_norms[a:b],
                     positions=pick(block.positions), xi=pick(block.xi),
                     atom_idx=pick(block.atom_idx), xi_max=pick(block.xi_max),
                     xi_rest=pick(block.xi_rest), max_index=pick(block.max_index),
                     atom_at_max=pick(block.atom_at_max))


def _checkpoint_from_block(block: WalkBlock, i: int, spec: IncrementSpec,
                           mode: str) -> CheckpointRow:
    row = CheckpointRow(
        n=block.first_n + (len(block) + i if i < 0 else i),
        position=None if block.positions is None else block.positions[i].copy(),
        direction=block.dirs[i].copy(),
        log_norm=float(block.log_norms[i]),
    )
    if spec.form == RADIAL_PRODUCT:
        row.xi_max = float(block.xi_max[i])
        row.xi_rest = float(block.xi_rest[i])
        row.max_index = int(block.max_index[i])
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


def biggest_jump_bound_check(state: WalkState, tol: float = 1e-9) -> BoundCheck:
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
                      ok=actual <= bound + tol, applicable=True)


class BoundCheckObserver(ObserverBase):
    """Checks the dominance bound at every step of a radial walk.

    Collects the number of applicable steps (rho < 1) and any violations
    beyond tolerance; the bound is a mathematical identity of the
    decomposition, so any violation indicates a bug.
    """

    def __init__(self, tol: float = 1e-9):
        self.tol = tol
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
        self.violations += int(np.count_nonzero(margin > self.tol))
