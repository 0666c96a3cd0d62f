import numpy as np
import pytest

from emdsteg.rng import seeded_bits, seeded_bytes

from oracles import splitmix64


def test_known_first_word():
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF


def test_known_stream_continuation():
    gen = splitmix64(0)
    words = [next(gen) for _ in range(3)]
    assert words[0] == 0xE220A8397B1DCDAF
    assert all(0 <= w < 2**64 for w in words)
    assert len(set(words)) == 3


def test_bits_match_big_endian_bytes():
    bits = seeded_bits(0, 64)
    value = 0
    for b in bits.tolist():
        value = (value << 1) | b
    assert value == 0xE220A8397B1DCDAF


def test_zero_count():
    assert seeded_bits(1, 0).tolist() == []
    assert seeded_bytes(1, 0) == b""


def test_repeatable():
    assert np.array_equal(seeded_bits(123, 1000), seeded_bits(123, 1000))
    assert np.array_equal(seeded_bits(123, 1000)[:500], seeded_bits(123, 500))


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        seeded_bits(0, -1)
    with pytest.raises(ValueError, match=r"^count must be >= 0$"):
        seeded_bytes(0, -1)


# The per-word, per-bit implementations the vectorized stream replaced.
def reference_bytes(seed, count):
    words = splitmix64(seed)
    out = bytearray()
    while len(out) < count:
        out += next(words).to_bytes(8, "big")
    return bytes(out[:count])


def reference_bits(seed, count):
    data = reference_bytes(seed, -(-count // 8))
    bits = [(byte >> shift) & 1 for byte in data for shift in range(7, -1, -1)]
    return bits[:count]


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 1000])
def test_vectorized_stream_matches_generator(seed, count):
    assert seeded_bytes(seed, count) == reference_bytes(seed, count)
    bits = seeded_bits(seed, count)
    assert bits.dtype == np.uint8
    assert bits.tolist() == reference_bits(seed, count)
