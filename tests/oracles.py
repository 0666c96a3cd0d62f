"""Slow reference implementations that only the tests use.

Each recomputes, in its plainest form, something emdsteg computes with its
own fast path, so a test can compare the two: the bound's state counts by
walking every change vector, a change budget check per vector, one group's
extraction value, a split scheme's digits by floor division, the distortion
profile by embedding every symbol, the inverse of psnr, and SplitMix64 word
by word.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from emdsteg.bound import BoundError
from emdsteg.metrics import PEAK_SQ, DistortionProfile
from emdsteg.rng import _GAMMA, _MASK, _MIX1, _MIX2
from emdsteg.schemes import (
    ChangeConstraint,
    SchemeSpec,
    _embed_groups,
    _extract_groups,
    _parts,
)

_ORACLE_LIMIT = 10**8


class QueryTooLarge(BoundError):
    """Brute-force enumeration would exceed the state guard."""


def enumerate_oracle(n: int, z: int, q: int) -> tuple[int, int, int]:
    """(states, sum |delta|, sum delta^2) of a bound query, by walking every
    vector in [-z, z]^n.

    Independent of bound's closed-form running sum on purpose; guarded so a
    desk run stays bounded.
    """
    if (2 * z + 1) ** n > _ORACLE_LIMIT:
        raise QueryTooLarge(f"(2*{z}+1)^{n} states exceed the enumeration guard")
    states = 0
    lin = 0
    sq = 0
    for deltas in itertools.product(range(-z, z + 1), repeat=n):
        at_cap = sum(1 for d in deltas if abs(d) == z)
        if at_cap > q:
            continue
        states += 1
        lin += sum(abs(d) for d in deltas)
        sq += sum(d * d for d in deltas)
    return states, lin, sq


def allows(constraint: ChangeConstraint, deltas: Sequence[int]) -> bool:
    """Whether one change vector is within a scheme's change budget."""
    total = 0
    for d in deltas:
        if abs(d) > constraint.per_pixel_max:
            return False
        total += abs(d)
    if constraint.l1_radius is not None and total > constraint.l1_radius:
        return False
    return True


def extraction_value(spec: SchemeSpec, group: Sequence[int]) -> int:
    """Symbol a receiver reads from one pixel group: a one-row _extract_groups."""
    return int(_extract_groups(spec, np.array([group], dtype=np.int64))[0])


def split_embed(spec: SchemeSpec, groups: np.ndarray, symbols: np.ndarray) -> None:
    """_embed_groups with each split part's digit taken as symbols // place % part M,
    each part on its own, in place."""
    if not spec.is_composite:
        _embed_groups(spec, groups, symbols)
        return
    for sub, first, place in _parts(spec):
        split_embed(sub, groups[:, first : first + sub.n], symbols // place % sub.modulus)


def embedded_distortion(spec: SchemeSpec) -> DistortionProfile:
    """theoretical_distortion by embedding every symbol once into an interior group."""
    # one reference group per symbol; the kernel embeds in place, and less
    # the reference value the groups hold the changes. int32 holds 128 + z
    # for any budget far past a buildable table; squares pass 2^31 from
    # z = 46341 on, and einsum sums them in int64 without an int64 copy.
    deltas = np.full((spec.modulus, spec.n), 128, dtype=np.int32)
    _embed_groups(spec, deltas, np.arange(spec.modulus))
    deltas -= 128
    sq_sum = int(np.einsum("ij,ij->", deltas, deltas, dtype=np.int64))
    abs_sums = np.abs(deltas, out=deltas).sum(axis=1, dtype=np.int64)
    denom = spec.modulus * spec.n
    return DistortionProfile(
        expected_abs_per_pixel=int(abs_sums.sum()) / denom,
        expected_sq_per_pixel=sq_sum / denom,
        max_group_change=int(abs_sums.max()),
    )


def mse_from_psnr(psnr_db: float) -> float:
    """Algebraic inverse of psnr() for finite values."""
    return PEAK_SQ / (10.0 ** (psnr_db / 10.0))


def splitmix64(seed: int) -> Iterator[int]:
    """Yield the 64-bit output words of SplitMix64 for a given seed."""
    state = seed & _MASK
    while True:
        state = (state + _GAMMA) & _MASK
        x = state
        x ^= x >> 30
        x = (x * _MIX1) & _MASK
        x ^= x >> 27
        x = (x * _MIX2) & _MASK
        x ^= x >> 31
        yield x
