"""Dyadic hazard ratios for the biggest-jump dominance condition.

For a magnitude tail T(r) = P(xi > r), the ratio
``u_k = (T(2**k) - T(2**(k+1))) / T(2**k)`` measures how much of the
remaining tail mass each dyadic octave consumes.  Square-summability of the
u_k is equivalent to the biggest jump asymptotically dwarfing the sum of all
the others; the diagnostic here reports a finite-data trend verdict on that
series, labeled as the heuristic it is, since convergence is not decidable
from finitely many terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import csv_text

__all__ = [
    "CONVERGENT_TREND", "DIVERGENT_TREND", "INCONCLUSIVE",
    "TailExhaustedError",
    "TailFunction",
    "u_sequence",
    "pruitt_diagnostic",
    "PruittDiagnostic",
]

CONVERGENT_TREND = "CONVERGENT_TREND"
DIVERGENT_TREND = "DIVERGENT_TREND"
INCONCLUSIVE = "INCONCLUSIVE"


class TailExhaustedError(ValueError):
    """The tail function hit zero before the requested index."""


@dataclass(frozen=True)
class TailFunction:
    """Closed-form or tabulated survival function P(xi > r).

    kinds: ``poly`` (r**-alpha), ``log_tail`` (1/log r for r >= e),
    ``stretched_exp`` (exp(-(log r)**beta) for r >= 1), and ``custom``
    (right-continuous step function through (r, p) pairs).
    """

    kind: str
    param: float | None = None
    table: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "poly":
            if self.param is None or self.param <= 0:
                raise ValueError("poly tail requires alpha > 0")
        elif self.kind == "stretched_exp":
            if self.param is None or not (0 < self.param < 0.5):
                raise ValueError("stretched_exp tail requires beta in (0, 1/2)")
        elif self.kind == "log_tail":
            pass
        elif self.kind == "custom":
            if not self.table:
                raise ValueError("custom tail requires a nonempty table")
            rs = [r for r, _ in self.table]
            ps = [p for _, p in self.table]
            if sorted(rs) != rs:
                raise ValueError("custom tail radii must be sorted")
            if any(not (0 < p <= 1) for p in ps):
                raise ValueError("custom tail values must lie in (0, 1]")
            for i, (a, b) in enumerate(zip(ps, ps[1:])):
                if b > a + 1e-12:
                    raise ValueError(f"custom tail increases at entry {i + 1}")
        else:
            raise ValueError(f"unknown tail kind {self.kind!r}")

    def __call__(self, r: float) -> float:
        if self.kind == "poly":
            return 1.0 if r < 1.0 else r ** (-self.param)
        if self.kind == "log_tail":
            return 1.0 if r < math.e else 1.0 / math.log(r)
        if self.kind == "stretched_exp":
            return 1.0 if r < 1.0 else math.exp(-(math.log(r) ** self.param))
        value = 1.0
        for rr, pp in self.table:
            if r >= rr:
                value = pp
            else:
                break
        return value


def u_sequence(tail: TailFunction, k_max: int) -> np.ndarray:
    """u_k for k = 0..k_max; requires the tail positive at 2**k_max."""
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        t0 = tail(2.0 ** k)
        t1 = tail(2.0 ** (k + 1))
        if t0 <= 0.0:
            raise TailExhaustedError(f"tail vanished at 2**{k}")
        out[k] = (t0 - t1) / t0
    return np.clip(out, 0.0, 1.0)


@dataclass
class PruittDiagnostic:
    u: np.ndarray
    partial_sums: np.ndarray        # running sums of u_k**2
    verdict: str
    fitted_slope: float

    def to_csv(self, tail: TailFunction) -> str:
        ks = range(len(self.u))
        return csv_text(["k", "tail_at_2k", "u_k", "partial_sum_sq"],
                        [ks, [tail(2.0 ** k) for k in ks], self.u, self.partial_sums])


def pruitt_diagnostic(u, min_terms: int = 16) -> PruittDiagnostic:
    """Trend verdict on sum(u_k**2) from the last half of the sequence.

    CONVERGENT_TREND when the squared terms decay faster than 1/k (fitted
    log-log slope below -1); DIVERGENT_TREND when they sit on a positive
    constant; INCONCLUSIVE otherwise (including non-monotone sequences).
    """
    u = np.asarray(u, dtype=float)
    if len(u) < min_terms:
        raise ValueError(f"diagnostic needs at least {min_terms} terms")
    sq = u ** 2
    partial = np.cumsum(sq)
    half = len(u) // 2
    ks = np.arange(half, len(u))
    tail_sq = sq[half:]
    slope = math.nan
    if np.all(tail_sq == 0.0):
        verdict = CONVERGENT_TREND
    elif np.any(tail_sq == 0.0):
        verdict = INCONCLUSIVE
    else:
        slope_arr = np.polyfit(np.log(ks.astype(float)), np.log(tail_sq), 1)
        slope = float(slope_arr[0])
        med = float(np.median(tail_sq))
        if slope < -1.0:
            verdict = CONVERGENT_TREND
        elif slope > -0.5 and float(tail_sq.min()) >= 0.25 * med and med > 0:
            verdict = DIVERGENT_TREND
        else:
            verdict = INCONCLUSIVE
    return PruittDiagnostic(u=u, partial_sums=partial, verdict=verdict,
                            fitted_slope=slope)
