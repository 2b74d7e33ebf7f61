"""Deterministic random-stream derivation.

Every consumer of randomness derives its generator from (master seed, path),
where the path is a tuple of small integers and short labels.  Identical
paths give identical streams on every platform and under any thread count,
so replicate batches can be computed concurrently and merged in path order
without changing any result.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "spawn_key"]

_U64 = (1 << 64) - 1


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if not 0 <= value <= _U64:
            raise ValueError(f"stream path integers must lie in [0, 2^64), got {value}")
        return value
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream path parts must be ints or strings, got {type(part)!r}")


def spawn_key(seed: int, *path) -> list[int]:
    return [_encode(seed)] + [_encode(p) for p in path]


def stream(seed: int, *path) -> np.random.Generator:
    """Child generator for (seed, *path)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(spawn_key(seed, *path))))
