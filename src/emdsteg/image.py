"""8-bit grayscale images plus the bit-level plumbing shared by all schemes.

Three small jobs live here: binary PGM (P5) decode/encode, range clamping
so a bounded embedding change can never leave [0, 255], and the codec
between packed message bytes and M-ary message symbols, with bit-array
wrappers around it.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

_WHITESPACE = b" \t\n\r\v\f"


class PgmError(ValueError):
    """A PGM byte stream that cannot be decoded: a bad header, a maxval
    other than 255, or a raster shorter than width * height."""


class GrayImage:
    """Immutable 8-bit grayscale raster, pixels stored row-major.

    The pixel buffer is a read-only numpy array; instances are safe to
    share between threads. The constructor copies the caller's pixels;
    buffers emdsteg has just made and holds no other reference to are
    adopted without a copy through _adopt.
    """

    __slots__ = ("width", "height", "_pixels")

    def __init__(self, width: int, height: int, pixels) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"bad dimensions {width}x{height}")
        arr = np.asarray(pixels)
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} pixels, got {arr.size}")
        if arr.dtype != np.uint8:
            arr = arr.astype(np.int64, copy=False)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 255):
                raise ValueError("pixel values outside [0, 255]")
        store = arr.astype(np.uint8).ravel()
        store.flags.writeable = False
        self.width = width
        self.height = height
        self._pixels = store

    @classmethod
    def _adopt(cls, width: int, height: int, pixels: np.ndarray) -> "GrayImage":
        """Wrap a fresh uint8 buffer of width * height pixels, no copy or checks.

        The buffer is made read-only; the caller must hold no writable view of it.
        """
        pixels.flags.writeable = False
        img = cls.__new__(cls)
        img.width = width
        img.height = height
        img._pixels = pixels
        return img

    @property
    def pixels(self) -> np.ndarray:
        """Read-only row-major pixel array of length width * height."""
        return self._pixels

    @property
    def size(self) -> int:
        return self.width * self.height

    @classmethod
    def flat(cls, width: int, height: int, value: int) -> "GrayImage":
        """Synthetic cover of a single gray value, adopted without a copy."""
        if width <= 0 or height <= 0:
            raise ValueError(f"bad dimensions {width}x{height}")
        if not 0 <= value <= 255:
            raise ValueError("pixel values outside [0, 255]")
        return cls._adopt(width, height, np.full(width * height, value, dtype=np.uint8))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and bool(np.array_equal(self._pixels, other._pixels))
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height, self._pixels.tobytes()))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


# Header tokens are separated by whitespace and by '#' comments, each of
# which runs to the end of its line (netpbm allows them anywhere in the header).
_HEADER_GAP = re.compile(b"(?:[%s]|#[^\r\n]*)*" % _WHITESPACE)
_HEADER_TOKEN = re.compile(b"[^#%s]*" % _WHITESPACE)


def _token(data: bytes, pos: int) -> tuple[bytes, int]:
    start = _HEADER_GAP.match(data, pos).end()
    end = _HEADER_TOKEN.match(data, start).end()
    return data[start:end], end


def load_pgm(data: bytes) -> GrayImage:
    """Decode a binary PGM ("P5") byte stream with maxval 255.

    Header tokens may be separated by any run of whitespace and '#' comment
    lines; exactly one whitespace byte separates the maxval from the raster.
    The image reads its pixels straight out of an immutable bytes object;
    any other buffer, such as a bytearray, is copied.
    """
    magic, pos = _token(data, 0)
    if magic != b"P5":
        raise PgmError(f"not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _token(data, pos)
        if not tok or not tok.isdigit():
            raise PgmError(f"missing or non-numeric {name}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise PgmError("zero image dimension")
    if maxval != 255:
        raise PgmError(f"maxval {maxval} not supported, expected 255")
    if pos < len(data):
        if data[pos] not in _WHITESPACE:
            raise PgmError("missing separator before raster")
        pos += 1
    size = width * height
    if len(data) - pos < size:
        raise PgmError(f"raster has {len(data) - pos} bytes, needs {size}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    if not isinstance(data, bytes):
        pixels = pixels.copy()
    return GrayImage._adopt(width, height, pixels)


def save_pgm(img: GrayImage) -> bytes:
    """Encode as binary PGM with the canonical single-space header."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, img.pixels))


def clamped_pixels(img: GrayImage, z: int) -> np.ndarray:
    """A new writable array of img's pixels clamped into [z, 255 - z].

    Any later change of at most z per pixel then stays inside [0, 255].
    """
    if not 0 <= z <= 127:
        raise ValueError(f"per-pixel change bound {z} outside [0, 127]")
    return np.clip(img.pixels, z, 255 - z)


def clamp_for_scheme(img: GrayImage, z: int) -> GrayImage:
    """Clamp every pixel into [z, 255 - z], as an image.

    Idempotent; the clamping distortion is charged to the stego MSE.
    """
    return GrayImage._adopt(img.width, img.height, clamped_pixels(img, z))


def symbol_bit_width(modulus: int) -> int:
    """Bits carried per symbol when packing chunks of floor(log2 M)."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    return modulus.bit_length() - 1


def _symbol_layout(modulus: int) -> tuple[int, np.dtype, int, int]:
    """(width, dtype, symbols, bytes) of one byte period of the symbol stream.

    A period is lcm(width, 8) bits: a whole number of symbols in a whole
    number of bytes. Symbols take the narrowest unsigned dtype that holds
    width bits.
    """
    width = symbol_bit_width(modulus)
    period = math.lcm(width, 8)
    dtype = np.min_scalar_type((1 << width) - 1)
    return width, dtype, period // width, period // 8


def bytes_to_symbols(
    data: bytes | np.ndarray, modulus: int, bit_length: int
) -> np.ndarray:
    """Cut the first bit_length bits of packed bytes into floor(log2 M)-bit symbols.

    data is bytes-like or a uint8 array, read MSB first; bits past
    bit_length, in its last byte or in later bytes, are ignored. A trailing
    partial symbol is zero-padded on the right, so every symbol is
    < 2**width <= M. The symbols come in the narrowest unsigned dtype that
    holds width bits.
    """
    width, dtype, per_row, row_bytes = _symbol_layout(modulus)
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise ValueError(f"message bytes must be uint8, not {data.dtype}")
        raw = data.ravel()
    else:
        raw = np.frombuffer(data, dtype=np.uint8)
    if not 0 <= bit_length <= 8 * raw.size:
        raise ValueError(f"bit_length {bit_length} outside [0, {8 * raw.size}]")
    count = -(-bit_length // width)
    used = -(-bit_length // 8)
    rows = np.zeros((-(-count // per_row), row_bytes), dtype=np.uint8)
    flat = rows.reshape(-1)
    flat[:used] = raw[:used]
    if used:
        # keep the last byte's bit_length % 8 leading bits (all 8 if 0)
        flat[used - 1] &= (0xFF << (-bit_length % 8)) & 0xFF
    symbols = np.empty((len(rows), per_row), dtype=dtype)
    # symbol j of a period is bits [start, end) of the period's bytes; shifts
    # past the dtype's top drop the bits before start, the mask clears the rest
    for j, column in enumerate(symbols.T):
        start, end = j * width, (j + 1) * width
        first, last = start // 8, (end - 1) // 8
        np.right_shift(rows[:, first], max(0, 8 * (first + 1) - end), out=column)
        for byte in range(first + 1, last + 1):
            take = min(8, end - 8 * byte)
            column <<= take
            column |= rows[:, byte] >> (8 - take)
        if start % 8:
            column &= (1 << width) - 1
    return symbols.reshape(-1)[:count]


def symbols_to_bytes(
    symbols: Sequence[int] | np.ndarray, modulus: int, bit_length: int
) -> np.ndarray:
    """Inverse of bytes_to_symbols: the first bit_length bits the symbols carry, packed.

    Returns ceil(bit_length / 8) bytes as a uint8 array, MSB first, with the
    pad bits past bit_length zeroed. bit_length must be known out of band.
    The symbols that carry those bits are required to fit the operational
    width, i.e. to have come out of bytes_to_symbols.
    """
    width, dtype, per_row, row_bytes = _symbol_layout(modulus)
    if bit_length < 0:
        raise ValueError("bit_length must be >= 0")
    arr = np.asarray(symbols).ravel()
    if bit_length > arr.size * width:
        raise ValueError(
            f"{bit_length} bits requested, stream encodes {arr.size * width}"
        )
    used = arr[: -(-bit_length // width)]
    if used.size and (int(used.min()) < 0 or int(used.max()) >> width):
        bad = (used < 0) | (used >= 1 << width)
        raise ValueError(f"symbol {used[bad][0]} wider than {width} bits")
    narrow = np.zeros((-(-len(used) // per_row), per_row), dtype=dtype)
    narrow.reshape(-1)[: len(used)] = used
    rows = np.zeros((len(narrow), row_bytes), dtype=np.uint8)
    # each byte a symbol straddles takes its bits, shifted into place; the
    # unsafe cast to uint8 keeps the low eight bits
    for j, column in enumerate(narrow.T):
        start, end = j * width, (j + 1) * width
        for byte in range(start // 8, (end - 1) // 8 + 1):
            shift = 8 * (byte + 1) - end
            part = column << shift if shift >= 0 else column >> -shift
            np.bitwise_or(rows[:, byte], part, out=rows[:, byte], casting="unsafe")
    data = rows.reshape(-1)[: -(-bit_length // 8)]
    if data.size:
        data[-1] &= (0xFF << (-bit_length % 8)) & 0xFF
    return data


def bits_to_symbols(bits: Sequence[int] | np.ndarray, modulus: int) -> np.ndarray:
    """bytes_to_symbols for a list or array of 0/1 bits: check, then np.packbits."""
    arr = None
    if isinstance(bits, list):
        # bytes() reads a list of small ints far faster than np.asarray; what
        # it refuses takes the general path below, with its error messages
        try:
            arr = np.frombuffer(bytes(bits), np.uint8)
        except (TypeError, ValueError):
            pass
    if arr is None:
        arr = np.asarray(bits).ravel()
    if arr.dtype != np.uint8:
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            raise ValueError(f"bit stream contains {arr[bad].tolist()[0]!r}")
        arr = arr.astype(np.uint8)
    elif arr.size and arr.max() > 1:
        raise ValueError(f"bit stream contains {arr[arr > 1].tolist()[0]!r}")
    return bytes_to_symbols(np.packbits(arr), modulus, arr.size)


def symbols_to_bits(
    symbols: Sequence[int] | np.ndarray, modulus: int, bit_length: int
) -> np.ndarray:
    """symbols_to_bytes unpacked with np.unpackbits: bit_length bits as uint8 0/1."""
    data = symbols_to_bytes(symbols, modulus, bit_length)
    return np.unpackbits(data, count=bit_length)
