import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdsteg.image import (
    GrayImage,
    PgmError,
    bits_to_symbols,
    bytes_to_symbols,
    clamp_for_scheme,
    load_pgm,
    save_pgm,
    symbol_bit_width,
    symbols_to_bits,
    symbols_to_bytes,
)


class TestPgm:
    def test_minimal_file_decodes(self):
        img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        assert (img.width, img.height) == (2, 2)
        assert list(img.pixels) == [0, 1, 2, 3]

    def test_wrong_maxval_rejected(self):
        with pytest.raises(PgmError, match=r"^maxval 65535 not supported, expected 255$"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_short_raster_rejected(self):
        with pytest.raises(PgmError, match=r"^raster has 5 bytes, needs 6$"):
            load_pgm(b"P5\n3 2\n255\n" + bytes(5))

    def test_bad_magic_rejected(self):
        with pytest.raises(PgmError, match=r"^not a binary PGM \(magic b'P6'\)$"):
            load_pgm(b"P6\n1 1\n255\n\x00")

    def test_missing_dimensions_rejected(self):
        with pytest.raises(PgmError, match=r"^missing or non-numeric height$"):
            load_pgm(b"P5\n255\n")

    def test_zero_dimension_rejected(self):
        with pytest.raises(PgmError, match=r"^zero image dimension$"):
            load_pgm(b"P5 0 5 255\n")

    def test_header_is_canonical(self):
        data = save_pgm(GrayImage(1, 1, [128]))
        assert data == b"P5\n1 1\n255\n" + bytes([128])
        assert save_pgm(GrayImage(2, 1, [0, 255])) == b"P5\n2 1\n255\n" + bytes(
            [0, 255]
        )

    def test_header_comments_skipped(self):
        img = load_pgm(b"P5\n# gimp\n2 1\n255\n" + bytes([4, 5]))
        assert list(img.pixels) == [4, 5]
        img = load_pgm(b"P5 # magic\r\n2# w\n#\n1\n# maxval next\n255\n" + bytes([4, 5]))
        assert list(img.pixels) == [4, 5]

    def test_raster_starts_after_one_separator(self):
        # a '#' byte in the raster is a pixel, not a comment
        assert list(load_pgm(b"P5\n# c\n1 1\n255\n#").pixels) == [ord("#")]
        with pytest.raises(PgmError, match=r"^missing separator before raster$"):
            load_pgm(b"P5\n1 1\n255# c\n\x00")

    def test_multiline_whitespace_header(self):
        img = load_pgm(b"P5\n2\t2\r\n255 " + bytes([9, 8, 7, 6]))
        assert list(img.pixels) == [9, 8, 7, 6]

    @given(
        st.integers(1, 24),
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50)
    def test_round_trip_identity(self, width, height, seed):
        rng = np.random.default_rng(seed)
        img = GrayImage(width, height, rng.integers(0, 256, width * height))
        assert load_pgm(save_pgm(img)) == img


# Fuzz inputs stay at 512 bytes or fewer: a header may still claim a huge
# raster, which load_pgm must reject without allocating it.
_HEADER_PIECES = [b"P5", b"P6", b" ", b"\n", b"\r", b"\t", b"#", b"# c\n", b"0", b"1",
                  b"2", b"255", b"256", b"65535", b"99999999999", b"-1", b"x", b"\x00", b"\xff"]


class TestPgmFuzz:
    @given(
        st.binary(max_size=512)
        | st.builds(
            lambda pieces, raster: b"P5" + b"".join(pieces) + raster,
            st.lists(st.sampled_from(_HEADER_PIECES), max_size=20),
            st.binary(max_size=256),
        )
    )
    @settings(max_examples=400)
    def test_only_pgm_errors(self, data):
        assert len(data) <= 512
        try:
            img = load_pgm(data)
        except PgmError:
            return
        assert img.size == img.width * img.height == len(img.pixels)


class TestGrayImage:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            GrayImage(1, 1, [256])

    def test_rejects_wrong_pixel_count(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, [1, 2, 3])

    def test_pixels_are_read_only(self):
        img = GrayImage.flat(2, 2, 10)
        with pytest.raises(ValueError):
            img.pixels[0] = 5

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError, match=r"^bad dimensions 0x5$"):
            GrayImage(0, 5, [])

    @pytest.mark.parametrize("args", [(0, 4, 5), (4, -1, 5), (2, 2, 256), (2, 2, -1)])
    def test_flat_checks_size_and_value(self, args):
        with pytest.raises(ValueError):
            GrayImage.flat(*args)


class TestBufferOwnership:
    def test_caller_array_is_copied(self):
        pixels = np.arange(16, dtype=np.uint8)
        img = GrayImage(4, 4, pixels)
        pixels[:] = 0
        assert img.pixels.tolist() == list(range(16))
        assert not img.pixels.flags.writeable

    def test_pgm_bytes_are_read_in_place(self):
        data = save_pgm(GrayImage(4, 2, list(range(8))))
        img = load_pgm(data)
        assert np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
        assert not img.pixels.flags.writeable

    def test_pgm_bytearray_is_copied(self):
        data = bytearray(save_pgm(GrayImage(4, 2, list(range(8)))))
        img = load_pgm(data)
        assert not img.pixels.flags.writeable
        data[-8:] = bytes(8)
        assert img.pixels.tolist() == list(range(8))

    def test_clamp_makes_a_new_read_only_buffer(self):
        img = GrayImage(4, 1, [0, 1, 254, 255])
        out = clamp_for_scheme(img, 1)
        assert out.pixels.tolist() == [1, 1, 254, 254]
        assert not out.pixels.flags.writeable
        assert not np.shares_memory(out.pixels, img.pixels)


def _traced_peak(fn, *args) -> int:
    """Peak bytes fn(*args) holds at once, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRasterCopies:
    """How many pixel-raster copies each PGM and clamp step holds at its peak."""

    SIDE = 512
    RASTER = SIDE * SIDE

    def test_load_makes_no_copy(self):
        data = save_pgm(GrayImage.flat(self.SIDE, self.SIDE, 7))
        assert _traced_peak(load_pgm, data) < self.RASTER // 4

    def test_save_makes_one_copy(self):
        img = GrayImage.flat(self.SIDE, self.SIDE, 7)
        assert _traced_peak(save_pgm, img) < 1.5 * self.RASTER

    def test_clamp_makes_one_copy(self):
        img = GrayImage.flat(self.SIDE, self.SIDE, 7)
        assert _traced_peak(clamp_for_scheme, img, 2) < 1.5 * self.RASTER


class TestClamp:
    @pytest.mark.parametrize(
        "pixel,z,expected", [(0, 1, 1), (255, 2, 253), (128, 127, 128)]
    )
    def test_boundary_values(self, pixel, z, expected):
        out = clamp_for_scheme(GrayImage(1, 1, [pixel]), z)
        assert int(out.pixels[0]) == expected

    def test_rejects_oversized_bound(self):
        with pytest.raises(ValueError):
            clamp_for_scheme(GrayImage.flat(1, 1, 0), 128)

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=40),
        st.integers(0, 127),
    )
    @settings(max_examples=60)
    def test_idempotent_and_in_range(self, pixels, z):
        img = GrayImage(len(pixels), 1, pixels)
        once = clamp_for_scheme(img, z)
        assert clamp_for_scheme(once, z) == once
        assert int(once.pixels.min()) >= z
        assert int(once.pixels.max()) <= 255 - z


class TestSymbolCodec:
    def test_chunking_msb_first(self):
        assert bits_to_symbols([1, 1, 0, 1], 5).tolist() == [3, 1]

    def test_single_full_chunk(self):
        assert bits_to_symbols([1, 0, 1], 8).tolist() == [5]

    def test_empty_stream(self):
        assert bits_to_symbols([], 5).tolist() == []

    @pytest.mark.parametrize("modulus", [2, 5, 8, 257, 4096])
    def test_list_matches_array(self, modulus):
        bits = np.random.default_rng(modulus).integers(0, 2, 1000, dtype=np.uint8)
        symbols = bits_to_symbols(bits.tolist(), modulus)
        assert symbols.dtype == bits_to_symbols(bits, modulus).dtype
        assert symbols.tolist() == bits_to_symbols(bits, modulus).tolist()

    @pytest.mark.parametrize(
        "bits,bad", [([0, 1, 2], 2), ([256], 256), ([-1], -1), ([0.5], 0.5), ([None], None)]
    )
    def test_list_with_non_bit_rejected(self, bits, bad):
        with pytest.raises(ValueError, match=f"^bit stream contains {bad}$"):
            bits_to_symbols(bits, 5)

    @pytest.mark.parametrize("bits", [[], [True, False], [[1], [0]]])
    def test_list_forms_match_array(self, bits):
        assert bits_to_symbols(bits, 5).tolist() == bits_to_symbols(np.asarray(bits), 5).tolist()

    def test_inverse_of_chunking(self):
        assert symbols_to_bits([3, 1], 5, 4).tolist() == [1, 1, 0, 1]

    def test_zero_length(self):
        assert symbols_to_bits([], 5, 0).tolist() == []

    def test_overrun_rejected(self):
        with pytest.raises(ValueError, match=r"^9 bits requested, stream encodes 2$"):
            symbols_to_bits([3], 5, 9)

    def test_oversized_symbol_rejected(self):
        with pytest.raises(ValueError):
            symbols_to_bits([4], 5, 2)

    @given(
        st.lists(st.integers(0, 1), max_size=200),
        st.integers(2, 4096),
    )
    @settings(max_examples=120)
    def test_round_trip(self, bits, modulus):
        symbols = bits_to_symbols(bits, modulus)
        assert all(0 <= s < modulus for s in symbols)
        assert symbols_to_bits(symbols, modulus, len(bits)).tolist() == bits


class TestByteCodec:
    def test_pad_bits_ignored_on_the_way_in(self):
        # 13 bits: 0110 0011 0000 0|011 -> 2-bit symbols 01 10 00 11 00 00 0(0)
        assert bytes_to_symbols(b"\x63\x03", 4, 13).tolist() == [1, 2, 0, 3, 0, 0, 0]
        assert bytes_to_symbols(b"\x63\x03\xff", 4, 13).tolist() == [1, 2, 0, 3, 0, 0, 0]

    def test_pad_bits_zeroed_on_the_way_out(self):
        # the last symbol carries one bit of the message and a one past it
        assert symbols_to_bytes([1, 2, 0, 3, 0, 0, 1], 4, 13).tolist() == [0x63, 0x00]
        assert symbols_to_bytes([1, 2, 0, 3, 3, 3, 3], 4, 13).tolist() == [0x63, 0xF8]

    def test_input_forms_agree(self):
        data = bytes(range(1, 40, 3))
        expected = bytes_to_symbols(data, 1000, 100).tolist()
        for form in (bytearray(data), memoryview(data), np.frombuffer(data, np.uint8)):
            assert bytes_to_symbols(form, 1000, 100).tolist() == expected

    @pytest.mark.parametrize(
        "data,bit_length",
        [(b"\x00", 9), (b"\x00", -1), (np.zeros(2, dtype=np.int64), 8)],
        ids=["past-the-end", "negative", "not-uint8"],
    )
    def test_bad_input_rejected(self, data, bit_length):
        with pytest.raises(ValueError):
            bytes_to_symbols(data, 5, bit_length)

    def test_zero_length(self):
        assert bytes_to_symbols(b"", 5, 0).tolist() == []
        assert symbols_to_bytes([], 5, 0).tolist() == []

    def test_unpack_rejects_negative_length(self):
        with pytest.raises(ValueError, match=r"^bit_length must be >= 0$"):
            symbols_to_bytes([], 5, -1)

    def test_modulus_below_two_carries_no_bits(self):
        with pytest.raises(ValueError, match=r"^modulus must be >= 2$"):
            symbol_bit_width(1)

    @given(st.integers(1, 63), st.data())
    @settings(max_examples=200)
    def test_matches_bit_codec(self, width, data):
        modulus = data.draw(st.integers(1 << width, (2 << width) - 1), label="modulus")
        bit_length = data.draw(st.integers(1, 700).filter(lambda n: n % 8), label="bits")
        nbytes = -(-bit_length // 8)
        raw = bytearray(data.draw(st.binary(min_size=nbytes, max_size=nbytes)))
        raw[-1] |= 1  # the lowest bit of the last byte is always a pad bit here
        bits = np.unpackbits(np.frombuffer(bytes(raw), dtype=np.uint8), count=bit_length)
        packed = np.packbits(bits)
        assert packed[-1] != raw[-1]

        symbols = bits_to_symbols(bits, modulus)
        assert np.array_equal(symbols, bytes_to_symbols(packed, modulus, bit_length))
        got = bytes_to_symbols(raw + data.draw(st.binary(max_size=3)), modulus, bit_length)
        assert got.dtype == symbols.dtype
        assert np.array_equal(got, symbols)

        # the last symbol's bits past bit_length, and any later symbol, are ignored
        noisy = symbols.copy()
        noisy[-1] |= (1 << (len(symbols) * width - bit_length)) - 1
        noisy = np.append(noisy, noisy.dtype.type(1))
        out = symbols_to_bytes(noisy, modulus, bit_length)
        assert out.dtype == np.uint8
        assert out.tobytes() == packed.tobytes()
        assert np.array_equal(symbols_to_bits(noisy, modulus, bit_length), bits)


# The per-bit loops the vectorized codec replaced, kept as its oracle.
def reference_bits_to_symbols(bits, modulus):
    width = modulus.bit_length() - 1
    out = []
    value = 0
    filled = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit stream contains {bit!r}")
        value = (value << 1) | bit
        filled += 1
        if filled == width:
            out.append(value)
            value = 0
            filled = 0
    if filled:
        out.append(value << (width - filled))
    return out


def reference_symbols_to_bits(symbols, modulus, bit_length):
    width = modulus.bit_length() - 1
    if bit_length < 0:
        raise ValueError("bit_length must be >= 0")
    if bit_length > len(symbols) * width:
        raise ValueError(
            f"{bit_length} bits requested, stream encodes {len(symbols) * width}"
        )
    bits = []
    for sym in symbols:
        if not 0 <= sym < (1 << width):
            raise ValueError(f"symbol {sym} wider than {width} bits")
        for shift in range(width - 1, -1, -1):
            bits.append((sym >> shift) & 1)
        if len(bits) >= bit_length:
            break
    return bits[:bit_length]


class TestCodecMatchesScalarReference:
    @given(st.lists(st.integers(0, 1), max_size=1100), st.integers(2, 2**63))
    @settings(max_examples=150)
    def test_bits_to_symbols(self, bits, modulus):
        symbols = bits_to_symbols(bits, modulus)
        width = modulus.bit_length() - 1
        assert symbols.dtype == np.min_scalar_type((1 << width) - 1)
        assert symbols.tolist() == reference_bits_to_symbols(bits, modulus)
        assert bits_to_symbols(np.array(bits, dtype=np.uint8), modulus).tolist() == (
            symbols.tolist()
        )

    @given(st.integers(2, 2**63), st.data())
    @settings(max_examples=150)
    def test_symbols_to_bits(self, modulus, data):
        width = modulus.bit_length() - 1
        symbols = data.draw(
            st.lists(st.integers(0, (1 << width) - 1), max_size=1100 // width + 1)
        )
        bit_length = data.draw(st.integers(0, len(symbols) * width))
        bits = symbols_to_bits(symbols, modulus, bit_length)
        assert bits.dtype == np.uint8
        assert bits.tolist() == reference_symbols_to_bits(symbols, modulus, bit_length)

    def test_only_consumed_symbols_are_checked(self):
        assert symbols_to_bits([1, 99], 5, 2).tolist() == [0, 1]
        assert reference_symbols_to_bits([1, 99], 5, 2) == [0, 1]

    @pytest.mark.parametrize(
        "codec,args,message",
        [
            ("pack", ([1, 2, 0], 5), "bit stream contains 2"),
            ("pack", ([0, -1], 8), "bit stream contains -1"),
            ("unpack", ([1, 4], 5, 4), "symbol 4 wider than 2 bits"),
            ("unpack", ([1, -1], 5, 4), "symbol -1 wider than 2 bits"),
            ("unpack", ([3], 5, 9), "9 bits requested, stream encodes 2"),
        ],
        ids=["bit-2", "bit-minus-1", "symbol-too-wide", "symbol-negative", "length-overrun"],
    )
    def test_error_paths(self, codec, args, message):
        fast, slow = {
            "pack": (bits_to_symbols, reference_bits_to_symbols),
            "unpack": (symbols_to_bits, reference_symbols_to_bits),
        }[codec]
        for fn in (fast, slow):
            with pytest.raises(ValueError, match=f"^{message}$") as excinfo:
                fn(*args)
            assert excinfo.type is ValueError
