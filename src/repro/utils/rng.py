"""Seeded random-number-generation helpers.

All stochastic inputs in this package (YET/ELT/portfolio generators,
secondary-uncertainty sampling) accept either a seed or a
``numpy.random.Generator``; these helpers normalise that and provide
independent child streams for parallel workers.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def default_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any seed-like input.

    Passing an existing generator returns it unchanged, so library code can
    accept ``seed`` arguments uniformly without re-seeding caller state.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Return ``n`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` so parallel workers (e.g. the multicore
    engine's per-thread workload generators) never share a stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.SeedSequence):
        seq = seed
    elif isinstance(seed, np.random.Generator):
        # Derive a fresh sequence from the generator's bit stream.
        seq = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


#: 64-bit FNV-1a parameters.
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def stable_hash_seed(*parts: Union[int, str]) -> int:
    """Deterministically derive a 63-bit seed from mixed int/str parts.

    Used by generators to give every (trial chunk, ELT id, ...) a
    reproducible stream independent of generation order.  64-bit
    FNV-1a over each str's UTF-8 bytes and each int's 8 little-endian
    two's-complement bytes, top bit dropped; plain Python ints keep it
    cheap enough for plan fingerprints of thousands of tasks.
    """
    acc = _FNV_OFFSET
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        else:
            data = int(part).to_bytes(8, "little", signed=True)
        for byte in data:
            acc = ((acc ^ byte) * _FNV_PRIME) & _MASK64
    return acc & 0x7FFF_FFFF_FFFF_FFFF
