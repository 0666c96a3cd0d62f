"""Exact state counting behind the embedding-efficiency upper bound.

For a group of n pixels, a per-pixel change cap z, and a quota q of pixels
allowed to use the full +/-z change (the rest stay within +/-(z-1)), this
module counts the admissible change states and their total linear and
squared change, exactly, with arbitrary-precision integers.

On top of the counts sit the chart primitives: efficiency points per
(n, z, q) query, the upper envelope over a sweep, cubic least-squares
fitting of envelope points, and point-to-curve distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

METRIC_STANDARD = "standard"
METRIC_PROPOSED = "proposed"
NORM_LITERAL = "literal"
NORM_MEAN = "mean"
NORM_MEAN_PER_PIXEL = "mean-per-pixel"

METRICS = (METRIC_STANDARD, METRIC_PROPOSED)
NORMALIZATIONS = (NORM_LITERAL, NORM_MEAN, NORM_MEAN_PER_PIXEL)
DISTANCE_MODES = ("euclidean", "vertical")


class BoundError(ValueError):
    """A bad query, sweep range, fit sample or domain, or a count past the
    float range."""


class DegenerateQuery(BoundError):
    """Only the all-zero state exists; efficiency is unbounded."""


@dataclass(frozen=True, slots=True)
class BoundQuery:
    """State-family query: n pixels, cap z, at most q pixels at the full cap."""

    n: int
    z: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.z < 1 or not 0 <= self.q <= self.n:
            raise BoundError(f"bad query n={self.n} z={self.z} q={self.q}")


@dataclass(frozen=True, slots=True)
class BoundResult:
    """Exact counts for one query: states, sum |delta|, sum delta^2."""

    state_count: int
    change_sum_linear: int
    change_sum_squared: int


@dataclass(frozen=True, slots=True)
class BoundPoint:
    """One chart point: payload and efficiencies derived from the counts.

    Under the mean-per-pixel normalization the standard efficiency equals
    its mean value (the per-pixel factors cancel), so eff_standard is
    always populated; eff_proposed carries the requested normalization.
    counts holds the exact sums the point was derived from.
    """

    query: BoundQuery
    counts: BoundResult
    alpha: float
    inv_alpha: float
    eff_standard: float
    eff_proposed: float

    def efficiency(self, metric: str) -> float:
        if metric == METRIC_STANDARD:
            return self.eff_standard
        if metric == METRIC_PROPOSED:
            return self.eff_proposed
        raise ValueError(f"metric {metric!r} not one of {METRICS}")


def _running_sums(n: int, z: int, q: int) -> Iterator[tuple[int, int, int]]:
    """(states, sum |delta|, sum delta^2) of every quota 0..q of (n, z), in order.

    Sums over j, the number of pixels at +/-z: the counts of quota q are those
    of q - 1 plus the j = q term. comb(n, j) * 2^j placements and signs put j
    pixels at the cap; each of the other n - j pixels takes one of the 2z - 1
    values in [-(z-1), z-1]. Per state the capped pixels add j * z (or
    j * z^2); one inner pixel's values total z(z-1) (or z(z-1)(2z-1)/3), times
    the states of the other n - j - 1.
    """
    inner = 2 * z - 1
    inner_lin = z * (z - 1)
    inner_sq = inner_lin * inner // 3
    powers = [1]  # inner**k for k = 0..n
    for _ in range(n):
        powers.append(powers[-1] * inner)
    states = lin = sq = 0
    ways = 1  # comb(n, j) * 2^j
    for j in range(q + 1):
        rest = n - j
        count = ways * powers[rest]
        # rest pixels, each with the states of the other rest - 1 pixels (at
        # rest = 0 the factor rest zeroes the wrapped-around powers[-1])
        spread = ways * rest * powers[rest - 1]
        states += count
        lin += j * z * count + inner_lin * spread
        sq += j * z * z * count + inner_sq * spread
        yield states, lin, sq
        ways = ways * 2 * rest // (j + 1)


def quota_counts(query: BoundQuery) -> list[BoundResult]:
    """Exact counts of every quota 0..query.q for query's n and z, one running sum."""
    return [BoundResult(*sums) for sums in _running_sums(query.n, query.z, query.q)]


def bound_counts(query: BoundQuery) -> BoundResult:
    """States, sum |delta| and sum delta^2 for one query, exactly: O(q) terms."""
    return quota_counts(query)[-1]


def _check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization {normalization!r} not one of {NORMALIZATIONS}"
        )


def _chart_values(
    n: int, z: int, states: int, lin: int, sq: int, normalization: str
) -> tuple[float, float, float, float]:
    """(alpha, inv_alpha, eff_standard, eff_proposed) of one (n, z) query's exact sums.

    The normalization is one of bound_point's. Raises BoundError once a sum
    no longer fits a float (about (2z+1)^n > 1e308).
    """
    payload = math.log2(states)
    alpha = payload / n
    try:
        if normalization == NORM_LITERAL:
            eff_std = payload / lin
            eff_prop = payload / math.sqrt(sq)
        else:
            eff_std = payload * states / lin
            if eff_std == math.inf:
                # payload * states passed the float range; the ratio did not
                eff_std = payload * (states / lin)
            if normalization == NORM_MEAN:
                eff_prop = payload / math.sqrt(sq / states)
            else:
                eff_prop = alpha / math.sqrt(sq / (states * n))
    except OverflowError:
        raise BoundError(f"n={n} z={z}: state counts overflow a float") from None
    return alpha, 1.0 / alpha, eff_std, eff_prop


def bound_point(
    query: BoundQuery,
    normalization: str = NORM_MEAN_PER_PIXEL,
    counts: BoundResult | None = None,
) -> BoundPoint:
    """Efficiency chart point for one query; point.efficiency(metric) reads either.

    literal divides the payload by the raw change totals as the defining
    equations read; mean divides by the per-state average; mean-per-pixel
    additionally spreads the average over the n pixels so the value is
    commensurate with per-pixel MSE. A caller that already holds the query's
    exact sums passes them as counts; otherwise they are computed here.
    """
    _check_normalization(normalization)
    if counts is None:
        counts = bound_counts(query)
    if counts.state_count < 2 or counts.change_sum_linear == 0:
        raise DegenerateQuery(
            f"query {query} admits only the zero state; efficiency unbounded"
        )
    values = _chart_values(
        query.n,
        query.z,
        counts.state_count,
        counts.change_sum_linear,
        counts.change_sum_squared,
        normalization,
    )
    return BoundPoint(query, counts, *values)


def frontier(
    n_values: Iterable[int],
    z_values: Iterable[int],
    metric: str = METRIC_PROPOSED,
    normalization: str = NORM_MEAN_PER_PIXEL,
) -> list[BoundPoint]:
    """Upper envelope of the (inv_alpha, efficiency) sweep.

    Generates every (n, z, q) point with q in [1, n] from one running sum
    per (n, z), sorts by inverse payload, and keeps only points whose
    efficiency strictly exceeds everything at smaller-or-equal inverse
    payload. Points are plain tuples until they reach the envelope.
    """
    ns = sorted(set(n_values))
    zs = sorted(set(z_values))
    if not ns or not zs:
        raise BoundError("need at least one n and one z")
    # the smallest n and z are the first the sweep would reject
    BoundQuery(ns[0], zs[0], ns[0])
    if metric not in METRICS:
        raise ValueError(f"metric {metric!r} not one of {METRICS}")
    _check_normalization(normalization)
    eff_at = 3 if metric == METRIC_PROPOSED else 2
    # sorted by (inv_alpha, -efficiency, generation index): ties in inverse
    # payload put the higher efficiency first, then keep the generation order.
    # Only the sort key and the exact sums are kept per point; envelope
    # points recompute their floats, which keeps the sweep's peak small.
    points = []
    for n in ns:
        for z in zs:
            sums = _running_sums(n, z, n)
            next(sums)  # quota 0 is not swept
            for q, (states, lin, sq) in enumerate(sums, 1):
                values = _chart_values(n, z, states, lin, sq, normalization)
                points.append(
                    (values[1], -values[eff_at], len(points), n, z, q, states, lin, sq)
                )
    points.sort()
    envelope: list[BoundPoint] = []
    best = -math.inf
    for _, neg_eff, _, n, z, q, states, lin, sq in points:
        if -neg_eff > best:
            best = -neg_eff
            envelope.append(
                BoundPoint(
                    BoundQuery(n, z, q),
                    BoundResult(states, lin, sq),
                    *_chart_values(n, z, states, lin, sq, normalization),
                )
            )
    return envelope


# ---------------------------------------------------------------------------
# cubic reference curve


@dataclass(frozen=True)
class CubicPoly:
    """y = c3 x^3 + c2 x^2 + c1 x + c0."""

    c3: float
    c2: float
    c1: float
    c0: float

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.c3, self.c2, self.c1, self.c0)


# Reference cubic fit of the proposed-efficiency bound used by the distance
# reports (the CLI's --eq43 preset).
REFERENCE_BOUND_POLY = CubicPoly(2.994, -10.5, 10.82, -1.098)


def cubic_eval(poly: CubicPoly, x: float) -> float:
    """Horner evaluation."""
    return ((poly.c3 * x + poly.c2) * x + poly.c1) * x + poly.c0


def cubic_fit(points: Sequence[tuple[float, float]]) -> CubicPoly:
    """Ordinary least-squares cubic through (x, y) samples.

    Needs at least four distinct x values; solved with numpy's QR-based
    least squares, so exact samples of a cubic are recovered to rounding.
    Raises BoundError for a non-finite sample, or for an x whose cube
    overflows: LAPACK cannot fit either, and may not return on an inf.
    """
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise BoundError("fit samples must be finite")
    if len(set(xs.tolist())) < 4:
        raise BoundError("need at least 4 distinct x values")
    with np.errstate(over="ignore"):
        design = np.vander(xs, 4)
    if not np.isfinite(design).all():
        raise BoundError("fit samples overflow: some x^3 is not finite")
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return CubicPoly(*(float(c) for c in coeffs))


def fit_residual(poly: CubicPoly, points: Sequence[tuple[float, float]]) -> float:
    """Sum of squared residuals of a fit."""
    return float(sum((cubic_eval(poly, x) - y) ** 2 for x, y in points))


def check_domain(domain: tuple[float, float]) -> tuple[float, float]:
    """The domain as floats (lo, hi); raises BoundError unless both are finite and lo < hi."""
    lo, hi = map(float, domain)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BoundError(f"domain [{lo}, {hi}] must be finite")
    if not lo < hi:
        raise BoundError(f"domain [{lo}, {hi}] is empty")
    return lo, hi


def distance_to_curve(
    poly: CubicPoly,
    point: tuple[float, float],
    mode: str = "euclidean",
    domain: tuple[float, float] = (0.0, 3.0),
) -> float:
    """Distance from a point to the curve.

    vertical is |poly(x0) - y0|. euclidean is the exact minimum of the
    straight-line distance over the domain: the nearest point is an endpoint
    or a root of the quintic (x - x0) + (poly(x) - y0) * poly'(x). Complex
    roots only add their clipped real parts as harmless extra candidates.
    Raises BoundError when the polynomial, the point or the domain is not
    finite, the domain is empty, or a value on the way overflows: the
    quintic's coefficients or the distance itself.
    """
    if not all(math.isfinite(v) for v in (*poly.coefficients(), *point)):
        raise BoundError(f"polynomial {poly} and point {point} must be finite")
    x0, y0 = map(float, point)
    lo, hi = check_domain(domain)
    if mode == "vertical":
        distance = abs(cubic_eval(poly, x0) - y0)
    elif mode == "euclidean":
        distance = _euclidean_distance(poly, x0, y0, lo, hi)
    else:
        raise ValueError(f"mode {mode!r} not one of {DISTANCE_MODES}")
    if not math.isfinite(distance):
        raise BoundError(f"distance from {point} to {poly} overflows")
    return distance


def _euclidean_distance(
    poly: CubicPoly, x0: float, y0: float, lo: float, hi: float
) -> float:
    shifted = (poly.c3, poly.c2, poly.c1, poly.c0 - y0)
    with np.errstate(over="ignore", invalid="ignore"):
        quintic = np.convolve(shifted, (3.0 * poly.c3, 2.0 * poly.c2, poly.c1))
        quintic[-2:] += (1.0, -x0)
    if not np.isfinite(quintic).all():
        raise BoundError(f"polynomial {poly} overflows the distance equation")
    slope = quintic[:-1] * np.arange(5, 0, -1)
    # Leading terms under rounding on the whole domain only add huge roots,
    # which cost the eigenvalue solver accuracy on all the others: drop them,
    # and polish the roots that are left with one Newton step.
    with np.errstate(all="ignore"):
        sizes = np.abs(quintic) * max(abs(lo), abs(hi)) ** np.arange(5, -1, -1)
        first = int(np.argmax(sizes > np.finfo(float).eps * sizes.max()))
        xs = np.clip(np.roots(quintic[first:]).real, lo, hi)
        polished = np.clip(xs - np.polyval(quintic, xs) / np.polyval(slope, xs), lo, hi)
    xs = np.concatenate(((lo, hi), xs, polished[np.isfinite(polished)]))
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(np.min((xs - x0) ** 2 + (cubic_eval(poly, xs) - y0) ** 2))
