"""Image-quality and embedding-efficiency metrics.

MSE/PSNR between cover and stego, the payload and efficiency figures used
to compare schemes (bits per pixel, bits per change unit, bits per RMSE
unit), and exact per-scheme distortion expectations read off the embed
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage
from .schemes import SchemeSpec, _int_type, _parts

PEAK_SQ = 255.0 * 255.0


class MetricsError(ValueError):
    """A metric undefined for its inputs: a negative MSE, a zero budget or
    zero distortion."""


class DimensionMismatch(MetricsError):
    """Cover and stego differ in size: a data error, not a usage error."""


@dataclass(frozen=True)
class DistortionProfile:
    """Exact distortion expectations over a uniform symbol distribution."""

    expected_abs_per_pixel: float
    expected_sq_per_pixel: float
    max_group_change: int


@dataclass(frozen=True)
class MetricsReport:
    """One comparison row; provenance separates measured from quoted values."""

    scheme_id: str
    params: dict
    alpha: float
    mse: float | None
    psnr_db: float | None
    efficiency_standard: float | None
    efficiency_proposed: float | None

    def to_record(self) -> dict:
        """Flat record with the fixed serialization field names; callers fill distance."""
        return {
            "scheme": self.scheme_id,
            "params": ";".join(f"{k}={v}" for k, v in sorted(self.params.items())),
            "alpha": self.alpha,
            "mse": self.mse,
            "psnr_db": self.psnr_db,
            "eff_standard": self.efficiency_standard,
            "eff_proposed": self.efficiency_proposed,
            "distance": None,
            "provenance": "computed",
        }


def mse(cover: GrayImage, stego: GrayImage) -> float:
    """Mean squared pixel error between two equally-sized images.

    The squares fit int32 and their sum int64. Dividing the exact sum gives
    the float np.mean of the int64 squares would, while the sum stays below
    2**53: up to 1.3 * 10**11 pixels.
    """
    if cover.width != stego.width or cover.height != stego.height:
        raise DimensionMismatch(
            f"{cover.width}x{cover.height} vs {stego.width}x{stego.height}"
        )
    diff = np.subtract(cover.pixels, stego.pixels, dtype=np.int16)
    total = np.square(diff, dtype=np.int32).sum(dtype=np.int64)
    return int(total) / cover.size


def psnr(mse_value: float) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    if mse_value < 0:
        raise MetricsError(f"mse {mse_value} < 0")
    if mse_value == 0:
        return math.inf
    return 10.0 * math.log10(PEAK_SQ / mse_value)


def relative_payload(spec: SchemeSpec) -> float:
    """Embedded bits per cover pixel at the information-theoretic rate log2(M).

    The codec packs floor(log2 M) bits per group, spec.payload_bits_operational.
    """
    return spec.payload_bits_exact / spec.n


def standard_efficiency(payload_bits: float, rho: float) -> float:
    """Bits embedded per unit of worst-case group change."""
    if rho <= 0:
        raise MetricsError("change budget must be positive")
    return payload_bits / rho


def proposed_efficiency(alpha: float, mse_value: float) -> float:
    """Bits per pixel divided by RMSE; undefined at zero distortion."""
    if mse_value <= 0:
        raise MetricsError("efficiency undefined for zero distortion")
    return alpha / math.sqrt(mse_value)


def _change_sums(spec: SchemeSpec) -> tuple[int, int, int]:
    """Sum of squared changes, sum of absolute changes and the largest group
    L1 over embedding every symbol once, read off the embed tables.

    A plain scheme applies row (s - key - sum(pixel * weight)) mod M for
    symbol s, so the M symbols apply every row once. A split scheme's
    symbols run over every pair of part digits once, so each part's sums
    count M / M_part times, and the largest L1 values of the parts add up.
    """
    if spec.is_composite:
        sq_sum = abs_sum = worst = 0
        for sub, _, _ in _parts(spec):
            sub_sq, sub_abs, sub_worst = _change_sums(sub)
            repeats = spec.modulus // sub.modulus
            sq_sum += repeats * sub_sq
            abs_sum += repeats * sub_abs
            worst += sub_worst
        return sq_sum, abs_sum, worst
    table = spec.embed_array
    # the row L1s add up one column at a time in a dtype that holds n * z,
    # int32 at most for a buildable table; einsum sums the squares in int64
    # without an int64 copy
    acc = _int_type(spec.n * spec.constraint.per_pixel_max, table.dtype)
    first, *rest = table.T
    row_l1 = np.abs(first).astype(acc)
    for column in rest:
        row_l1 += np.abs(column)
    sq_sum = int(np.einsum("ij,ij->", table, table, dtype=np.int64))
    return sq_sum, int(row_l1.sum(dtype=np.int64)), int(row_l1.max())


def theoretical_distortion(spec: SchemeSpec) -> DistortionProfile:
    """Exact distortion of embedding a uniform symbol into an interior group.

    Valid for any scheme whose change vector depends on the group only
    through the extraction residue, which holds for the whole registry on
    interior (pre-clamped) pixels. The sums are Python ints, so the profile
    holds plain floats.
    """
    sq_sum, abs_sum, worst = _change_sums(spec)
    denom = spec.modulus * spec.n
    return DistortionProfile(
        expected_abs_per_pixel=abs_sum / denom,
        expected_sq_per_pixel=sq_sum / denom,
        max_group_change=worst,
    )


def analyze_pair(cover: GrayImage, stego: GrayImage, spec: SchemeSpec) -> MetricsReport:
    """Measure a cover/stego pair and fill the computed comparison row.

    alpha and the standard efficiency are analytic properties of the
    scheme; mse/psnr and the proposed efficiency come from the images. The
    proposed efficiency is left undefined when the pair is identical.
    """
    measured = mse(cover, stego)
    alpha = relative_payload(spec)
    eff_std = standard_efficiency(spec.payload_bits_exact, spec.rho)
    eff_prop = None
    if measured > 0:
        eff_prop = proposed_efficiency(alpha, measured)
    return MetricsReport(
        scheme_id=spec.id,
        params=dict(spec.params),
        alpha=alpha,
        mse=measured,
        psnr_db=psnr(measured),
        efficiency_standard=eff_std,
        efficiency_proposed=eff_prop,
    )
