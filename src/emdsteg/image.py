"""8-bit grayscale images plus the bit-level plumbing shared by all schemes.

Three small jobs live here: binary PGM (P5) decode/encode, range clamping
so a bounded embedding change can never leave [0, 255], and the codec
between raw bits and M-ary message symbols.
"""

from __future__ import annotations

import math
import re
from typing import Sequence

import numpy as np

_WHITESPACE = b" \t\n\r\v\f"


class PgmError(ValueError):
    """A PGM byte stream that cannot be decoded."""


class MalformedHeader(PgmError):
    """Missing P5 magic, or unreadable width/height/maxval fields."""


class UnsupportedMaxval(PgmError):
    """Only maxval 255 (one byte per pixel) is supported."""


class TruncatedPayload(PgmError):
    """Raster holds fewer bytes than width * height."""


class LengthOverrun(ValueError):
    """Requested more bits than the symbol stream encodes."""


class GrayImage:
    """Immutable 8-bit grayscale raster, pixels stored row-major.

    The pixel buffer is a read-only numpy array; instances are safe to
    share between threads.
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

    @property
    def pixels(self) -> np.ndarray:
        """Read-only row-major pixel array of length width * height."""
        return self._pixels

    @property
    def size(self) -> int:
        return self.width * self.height

    @classmethod
    def flat(cls, width: int, height: int, value: int) -> "GrayImage":
        """Synthetic cover of a single gray value."""
        return cls(width, height, np.full(width * height, value, dtype=np.uint8))

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
    """
    magic, pos = _token(data, 0)
    if magic != b"P5":
        raise MalformedHeader(f"not a binary PGM (magic {magic!r})")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _token(data, pos)
        if not tok or not tok.isdigit():
            raise MalformedHeader(f"missing or non-numeric {name}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise MalformedHeader("zero image dimension")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} not supported, expected 255")
    if pos < len(data):
        if data[pos] not in _WHITESPACE:
            raise MalformedHeader("missing separator before raster")
        pos += 1
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise TruncatedPayload(
            f"raster has {len(raster)} bytes, needs {width * height}"
        )
    return GrayImage(width, height, np.frombuffer(raster, dtype=np.uint8))


def save_pgm(img: GrayImage) -> bytes:
    """Encode as binary PGM with the canonical single-space header."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def clamp_for_scheme(img: GrayImage, z: int) -> GrayImage:
    """Clamp every pixel into [z, 255 - z].

    Any later change of at most z per pixel then stays inside [0, 255].
    Idempotent; the clamping distortion is charged to the stego MSE.
    """
    if not 0 <= z <= 127:
        raise ValueError(f"per-pixel change bound {z} outside [0, 127]")
    return GrayImage(img.width, img.height, np.clip(img.pixels, z, 255 - z))


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


def bits_to_symbols(bits: Sequence[int] | np.ndarray, modulus: int) -> np.ndarray:
    """Pack a bit sequence into symbols of floor(log2 M) bits, MSB first.

    A trailing partial chunk is zero-padded on the right, so every output
    symbol is < 2**width <= M. The symbols come in the narrowest unsigned
    dtype that holds width bits.
    """
    width, dtype, per_row, row_bytes = _symbol_layout(modulus)
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
    count = -(-arr.size // width)
    packed = np.packbits(arr)
    data = np.zeros((-(-count // per_row), row_bytes), dtype=np.uint8)
    data.reshape(-1)[: packed.size] = packed
    symbols = np.empty((len(data), per_row), dtype=dtype)
    # symbol j of a period is bits [start, end) of the period's bytes; shifts
    # past the dtype's top drop the bits before start, the mask clears the rest
    for j, column in enumerate(symbols.T):
        start, end = j * width, (j + 1) * width
        first, last = start // 8, (end - 1) // 8
        np.right_shift(data[:, first], max(0, 8 * (first + 1) - end), out=column)
        for byte in range(first + 1, last + 1):
            used = min(8, end - 8 * byte)
            column <<= used
            column |= data[:, byte] >> (8 - used)
        if start % 8:
            column &= (1 << width) - 1
    return symbols.reshape(-1)[:count]


def symbols_to_bits(
    symbols: Sequence[int] | np.ndarray, modulus: int, bit_length: int
) -> np.ndarray:
    """Inverse of bits_to_symbols: emit width bits per symbol, MSB first, as uint8.

    The result is truncated to bit_length, which the receiver must know
    out of band. The symbols that carry those bits are required to fit the
    operational width, i.e. to have come out of bits_to_symbols.
    """
    width, dtype, per_row, row_bytes = _symbol_layout(modulus)
    if bit_length < 0:
        raise ValueError("bit_length must be >= 0")
    arr = np.asarray(symbols).ravel()
    if bit_length > arr.size * width:
        raise LengthOverrun(
            f"{bit_length} bits requested, stream encodes {arr.size * width}"
        )
    used = arr[: -(-bit_length // width)]
    if used.size and (int(used.min()) < 0 or int(used.max()) >> width):
        bad = (used < 0) | (used >= 1 << width)
        raise ValueError(f"symbol {used[bad][0]} wider than {width} bits")
    narrow = np.zeros((-(-len(used) // per_row), per_row), dtype=dtype)
    narrow.reshape(-1)[: len(used)] = used
    data = np.zeros((len(narrow), row_bytes), dtype=np.uint8)
    # each byte a symbol straddles takes its bits, shifted into place; the
    # unsafe cast to uint8 keeps the low eight bits
    for j, column in enumerate(narrow.T):
        start, end = j * width, (j + 1) * width
        for byte in range(start // 8, (end - 1) // 8 + 1):
            shift = 8 * (byte + 1) - end
            part = column << shift if shift >= 0 else column >> -shift
            np.bitwise_or(data[:, byte], part, out=data[:, byte], casting="unsafe")
    return np.unpackbits(data.reshape(-1), count=bit_length)
