"""Splittable counter-based random streams.

Every simulation draws from a Philox counter-based generator.  Run ``i`` of a
batch gets its own seed derived from ``(base_seed, i)`` through numpy's
SeedSequence spawning, so runs are independent and individually reproducible.
"""
from __future__ import annotations

import numpy as np

__all__ = ["stream", "run_seed", "uniform_open"]


def stream(seed: int) -> np.random.Generator:
    """Philox generator for a single seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def run_seed(base_seed: int, run_index: int) -> int:
    """Seed of run ``run_index`` in a batch keyed by ``base_seed``.

    The run index is folded into the base seed through SeedSequence hashing.
    Manifests record these seeds, so the derivation must never change.
    """
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws on (0, 1], never 0.

    Inverse-transform samplers divide by U or take U to a negative power, so
    zero must be impossible.  ``1 - random()`` maps [0, 1) onto (0, 1].
    """
    return 1.0 - rng.random(size)
