"""Deterministic message-bit generator.

SplitMix64 is fully specified by a dozen integer operations, so the same
seed yields the same bit stream on any platform or implementation; that is
what makes benchmark output reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def seeded_bytes(seed: int, count: int) -> bytes:
    """First count bytes of the stream, words serialized big-endian.

    Word i mixes the state seed + (i+1)*gamma, so all words are computed at
    once; uint64 arithmetic wraps mod 2**64 as SplitMix64's state does. The
    words are mixed and byte-swapped in place, so the peak is twice count.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    x = np.arange(1, -(-count // 8) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x *= np.uint64(_GAMMA)
        x += np.uint64(seed & _MASK)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    if np.little_endian:
        x.byteswap(inplace=True)
    return x.view(np.uint8)[:count].tobytes()


def seeded_bits(seed: int, count: int) -> np.ndarray:
    """First count bits of the stream as a uint8 array, MSB-first within each byte."""
    if count < 0:
        raise ValueError("count must be >= 0")
    data = seeded_bytes(seed, -(-count // 8))
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)
