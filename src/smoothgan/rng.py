"""Deterministic seed derivation.

Every randomized routine takes one 64-bit master seed and derives one child
seed per independent component (trial, run, layer, ...) with a splitmix64
walk.  Results are therefore reproducible per implementation and independent
of evaluation order, which lets estimator trials run in any order or in
parallel without changing the reported sup.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionViolated, need_count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """Advance the splitmix64 state once; return (output, new_state)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z, state


def child_seed(seed: int, *indices: int) -> int:
    """Fold integer indices into a nonnegative master seed, one splitmix64 step each."""
    need_count(seed, "seed", 0, PreconditionViolated)
    state = int(seed) & _MASK64
    out, state = splitmix64(state)
    for ix in indices:
        state ^= (int(ix) & _MASK64) * 0xD1342543DE82EF95 & _MASK64
        out, state = splitmix64(state)
    return out


def child_rng(seed: int, *indices: int) -> np.random.Generator:
    """A numpy Generator seeded from the derived child seed."""
    return np.random.default_rng(child_seed(seed, *indices))
