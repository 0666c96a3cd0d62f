import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdsteg.bound import (
    BoundError,
    BoundQuery,
    BoundResult,
    CubicPoly,
    DegenerateQuery,
    REFERENCE_BOUND_POLY,
    bound_counts,
    bound_point,
    cubic_eval,
    cubic_fit,
    distance_to_curve,
    frontier,
    quota_counts,
)
from emdsteg.metrics import theoretical_distortion
from emdsteg.schemes import make_scheme

from oracles import QueryTooLarge, enumerate_oracle


# Reference for bound_counts: the same three totals by cached recursions
# (count by the first pixel, full-cube sums by halving the group, one shell
# per number of capped pixels). Large q overflows Python's stack.
@cache
def _count(n: int, z: int, q: int) -> int:
    if q == 0:
        return (2 * z - 1) ** n
    if q == n:
        return (2 * z + 1) ** n
    return 2 * _count(n - 1, z, q - 1) + (2 * z - 1) * _count(n - 1, z, q)


@cache
def _sum_full_cube(n: int, z: int, squared: bool) -> int:
    """Total change over every state of [-z, z]^n, splitting the group in two."""
    if n == 0 or z == 0:
        return 0
    if n == 1:
        return 2 * sum(i * i if squared else i for i in range(1, z + 1))
    a = n // 2
    b = n - a
    return (2 * z + 1) ** a * _sum_full_cube(b, z, squared) + (
        2 * z + 1
    ) ** b * _sum_full_cube(a, z, squared)


def _shell_sum(n: int, z: int, q: int, squared: bool) -> int:
    """Total change over states with exactly q pixels at magnitude z."""
    unit = z * z if squared else z
    rest_states = (2 * (z - 1) + 1) ** (n - q)
    return (2**q) * math.comb(n, q) * (
        q * unit * rest_states + _sum_full_cube(n - q, z - 1, squared)
    )


def _sum_changes(n: int, z: int, q: int, squared: bool) -> int:
    if q == n:
        return _sum_full_cube(n, z, squared)
    return _sum_full_cube(n, z - 1, squared) + sum(
        _shell_sum(n, z, i, squared) for i in range(1, q + 1)
    )


def recursive_counts(query: BoundQuery) -> BoundResult:
    n, z, q = query.n, query.z, query.q
    return BoundResult(
        _count(n, z, q),
        _sum_changes(n, z, q, squared=False),
        _sum_changes(n, z, q, squared=True),
    )


def per_query_frontier(n_values, z_values, metric, normalization):
    """Reference for frontier: one bound_point per query, each with its own count."""
    points = [
        bound_point(BoundQuery(n, z, q), normalization)
        for n in sorted(set(n_values))
        for z in sorted(set(z_values))
        for q in range(1, n + 1)
    ]
    points.sort(key=lambda p: p.efficiency(metric), reverse=True)
    points.sort(key=lambda p: p.inv_alpha)
    envelope = []
    best = -math.inf
    for point in points:
        if point.efficiency(metric) > best:
            envelope.append(point)
            best = point.efficiency(metric)
    return envelope


def scan_golden_distance(poly, point, domain):
    """Reference euclidean distance for distance_to_curve.

    A 10^4-sample scan brackets the minimum and golden-section search
    refines it. Every value it takes is the distance to a curve point in
    the domain, so up to rounding it never falls below the exact minimum.
    """
    x0, y0 = point
    lo, hi = domain

    def dist_sq(x):
        dy = cubic_eval(poly, x) - y0
        dx = x - x0
        return dx * dx + dy * dy

    xs = np.linspace(lo, hi, 10_001)
    values = (xs - x0) ** 2 + (cubic_eval(poly, xs) - y0) ** 2
    idx = int(np.argmin(values))
    a = xs[max(idx - 1, 0)]
    b = xs[min(idx + 1, len(xs) - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    while b - a > 1e-12:
        if dist_sq(c) < dist_sq(d):
            b = d
        else:
            a = c
        c = b - ratio * (b - a)
        d = a + ratio * (b - a)
    return math.sqrt(min(dist_sq((a + b) / 2.0), float(values[idx])))


class TestCounts:
    def test_spot_values(self):
        assert bound_counts(BoundQuery(2, 1, 1)).state_count == 5
        assert bound_counts(BoundQuery(2, 1, 2)).state_count == 9
        assert bound_counts(BoundQuery(2, 2, 1)).state_count == 21
        assert bound_counts(BoundQuery(2, 1, 1)).change_sum_linear == 4
        assert bound_counts(BoundQuery(2, 1, 2)).change_sum_linear == 12
        assert bound_counts(BoundQuery(3, 1, 0)).change_sum_linear == 0
        assert bound_counts(BoundQuery(2, 1, 2)).change_sum_squared == 12
        assert bound_counts(BoundQuery(2, 2, 1)).change_sum_squared == 68
        assert bound_counts(BoundQuery(1, 2, 1)).change_sum_squared == 10

    def test_boundary_identities(self):
        for n in range(1, 9):
            for z in range(1, 4):
                assert bound_counts(BoundQuery(n, z, n)).state_count == (2 * z + 1) ** n
                assert bound_counts(BoundQuery(n, z, 0)).state_count == (2 * z - 1) ** n
            assert bound_counts(BoundQuery(n, 1, 1)).state_count == 2 * n + 1

    def test_monotonicity(self):
        for n in range(1, 7):
            for z in range(1, 4):
                counts = [
                    bound_counts(BoundQuery(n, z, q)).state_count for q in range(n + 1)
                ]
                assert counts == sorted(counts)
                assert all(a < b for a, b in zip(counts, counts[1:]))
        for n in range(1, 7):
            for q in range(1, n + 1):
                by_z = [
                    bound_counts(BoundQuery(n, z, q)).state_count for z in range(1, 5)
                ]
                assert all(a < b for a, b in zip(by_z, by_z[1:]))

    def test_unit_cap_sums_coincide(self):
        for n in range(1, 7):
            for q in range(n + 1):
                counts = bound_counts(BoundQuery(n, 1, q))
                assert counts.change_sum_linear == counts.change_sum_squared

    def test_matches_enumeration_everywhere(self):
        for n in range(1, 7):
            for z in range(1, 4):
                for q in range(n + 1):
                    query = BoundQuery(n, z, q)
                    assert bound_counts(query) == enumerate_oracle(query)

    def test_matches_recursions(self):
        for n in range(1, 41):
            for z in range(1, 11):
                for q in range(n + 1):
                    query = BoundQuery(n, z, q)
                    assert bound_counts(query) == recursive_counts(query), query

    def test_quota_counts_hold_every_smaller_quota(self):
        for n in range(1, 41):
            for z in range(1, 11):
                want = [recursive_counts(BoundQuery(n, z, q)) for q in range(n + 1)]
                assert quota_counts(BoundQuery(n, z, n)) == want, (n, z)
        # a smaller quota stops the same sum early
        assert quota_counts(BoundQuery(9, 3, 4)) == quota_counts(BoundQuery(9, 3, 9))[:5]

    def test_deep_quota_obeys_first_pixel_recurrence(self):
        # beyond recursive_counts' reach (RecursionError); split on the first
        # pixel: at +/-z (2 ways, quota q - 1 left) or inside the cap
        n, z, q = 1500, 2, 700
        inner = range(-(z - 1), z)
        capped = bound_counts(BoundQuery(n - 1, z, q - 1))
        free = bound_counts(BoundQuery(n - 1, z, q))
        got = bound_counts(BoundQuery(n, z, q))
        assert got.state_count == 2 * capped.state_count + len(inner) * free.state_count
        assert got.change_sum_linear == (
            2 * (capped.change_sum_linear + z * capped.state_count)
            + len(inner) * free.change_sum_linear
            + sum(abs(v) for v in inner) * free.state_count
        )
        assert got.change_sum_squared == (
            2 * (capped.change_sum_squared + z * z * capped.state_count)
            + len(inner) * free.change_sum_squared
            + sum(v * v for v in inner) * free.state_count
        )

    def test_arbitrary_precision(self):
        big = bound_counts(BoundQuery(48, 3, 20)).state_count
        assert big > 2**64
        assert isinstance(big, int)

    def test_invalid_query(self):
        with pytest.raises(BoundError, match=r"^bad query n=0 z=1 q=0$"):
            BoundQuery(0, 1, 0)
        with pytest.raises(BoundError, match=r"^bad query n=2 z=0 q=1$"):
            BoundQuery(2, 0, 1)
        with pytest.raises(BoundError, match=r"^bad query n=2 z=1 q=3$"):
            BoundQuery(2, 1, 3)

    def test_oracle_guard(self):
        with pytest.raises(QueryTooLarge):
            enumerate_oracle(BoundQuery(40, 3, 20))


class TestBoundPoint:
    def test_literal_normalization(self):
        point = bound_point(BoundQuery(2, 1, 2), "literal")
        assert point.eff_standard == pytest.approx(math.log2(9) / 12)

    def test_carries_its_counts(self):
        for query in (BoundQuery(5, 3, 2), BoundQuery(30, 10, 30)):
            assert bound_point(query).counts == bound_counts(query)

    def test_degenerate_query(self):
        with pytest.raises(DegenerateQuery):
            bound_point(BoundQuery(3, 1, 0))

    @pytest.mark.parametrize("normalization", ["literal", "mean", "mean-per-pixel"])
    def test_float_overflow_names_the_query(self, normalization):
        query = BoundQuery(400, 4, 400)
        with pytest.raises(BoundError, match="n=400 z=4"):
            bound_point(query, normalization)
        with pytest.raises(BoundError, match="n=400 z=4"):
            frontier([400], [4], "standard", normalization)

    @pytest.mark.parametrize("normalization", ["mean", "mean-per-pixel"])
    def test_standard_efficiency_finite_at_float_edge(self, normalization):
        # at n = 640, z = 1 payload * states passes the float range for q >= 436,
        # though the efficiency itself is about 2.38
        all_counts = quota_counts(BoundQuery(640, 1, 640))
        for q in range(1, 641):
            counts = all_counts[q]
            point = bound_point(BoundQuery(640, 1, q), normalization, counts)
            exact = (
                Fraction(math.log2(counts.state_count))
                * counts.state_count
                / counts.change_sum_linear
            )
            assert abs(Fraction(point.eff_standard) - exact) <= 2 * math.ulp(point.eff_standard)
        envelope = frontier([640], [1], "standard", normalization)
        assert all(math.isfinite(point.eff_standard) for point in envelope)

    def test_inverse_payload(self):
        point = bound_point(BoundQuery(2, 1, 1))
        assert point.inv_alpha * point.alpha == pytest.approx(1.0, abs=1e-12)

    def test_single_change_family_matches_scheme_expectation(self):
        # bits per expected unit change of the single-change scheme equals
        # the mean-normalized standard efficiency of its state family
        for n in range(2, 9):
            point = bound_point(BoundQuery(n, 1, 1), "mean")
            spec = make_scheme("emd", n=n)
            profile = theoretical_distortion(spec)
            expected = spec.payload_bits_exact / (
                profile.expected_abs_per_pixel * n
            )
            assert point.eff_standard == pytest.approx(expected, rel=1e-9)


class TestFrontier:
    def test_single_point(self):
        points = frontier([2], [1], "proposed", "mean-per-pixel")
        assert len(points) >= 1

    def test_dominated_point_removed(self):
        envelope = frontier(range(1, 4), [1], "proposed", "mean-per-pixel")
        effs = [p.eff_proposed for p in envelope]
        invs = [p.inv_alpha for p in envelope]
        assert effs == sorted(effs)
        assert all(a < b for a, b in zip(effs, effs[1:]))
        assert invs == sorted(invs)

    def test_envelope_dominates_sweep(self):
        envelope = frontier(range(2, 7), range(1, 4), "proposed", "mean-per-pixel")
        for n in range(2, 7):
            for z in range(1, 4):
                for q in range(1, n + 1):
                    point = bound_point(BoundQuery(n, z, q), "mean-per-pixel")
                    # best envelope efficiency at inverse payload <= the point's
                    reachable = [
                        p.eff_proposed
                        for p in envelope
                        if p.inv_alpha <= point.inv_alpha + 1e-12
                    ]
                    ceiling = max(reachable, default=-math.inf)
                    assert point.eff_proposed <= ceiling + 1e-9

    def test_empty_range(self):
        with pytest.raises(BoundError, match=r"^need at least one n and one z$"):
            frontier([], [1])

    @pytest.mark.parametrize("ns,zs", [([0, 2], [1]), ([2], [1, 0])])
    def test_invalid_range(self, ns, zs):
        # the smallest n and z are checked, with q = n
        n, z = min(ns), min(zs)
        with pytest.raises(BoundError, match=rf"^bad query n={n} z={z} q={n}$"):
            frontier(ns, zs)

    @pytest.mark.parametrize(
        "metric,normalization", [("rmse", "mean"), ("standard", "per-pixel")]
    )
    def test_bad_chart_args_match_bound_point(self, metric, normalization):
        # bound_point takes no metric; its point names a bad one as frontier does
        with pytest.raises(ValueError) as expected:
            bound_point(BoundQuery(2, 1, 1), normalization).efficiency(metric)
        with pytest.raises(ValueError) as got:
            frontier([2], [1], metric, normalization)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("metric", ["standard", "proposed"])
    @pytest.mark.parametrize("normalization", ["literal", "mean", "mean-per-pixel"])
    @pytest.mark.parametrize(
        "ns,zs",
        [(range(1, 31), range(1, 11)), (range(3, 9), [5, 2, 2]), ([7], range(1, 4))],
        ids=["30x10", "unsorted", "one-n"],
    )
    def test_matches_per_query_sweep(self, metric, normalization, ns, zs):
        envelope = frontier(ns, zs, metric, normalization)
        # same points, same order, same floats and counts
        assert envelope == per_query_frontier(ns, zs, metric, normalization)
        for point in envelope:
            assert point.counts == recursive_counts(point.query)


class TestCubic:
    def test_reference_curve_values(self):
        assert cubic_eval(REFERENCE_BOUND_POLY, 0.0) == -1.098
        assert cubic_eval(REFERENCE_BOUND_POLY, 1.0) == pytest.approx(2.216, abs=1e-12)
        assert cubic_eval(REFERENCE_BOUND_POLY, 0.9357) == pytest.approx(
            2.286, abs=1e-3
        )

    def test_fit_recovers_exact_samples(self):
        xs = np.linspace(-1, 2, 4)
        points = [(x, cubic_eval(REFERENCE_BOUND_POLY, x)) for x in xs]
        fit = cubic_fit(points)
        for got, want in zip(fit.coefficients(), REFERENCE_BOUND_POLY.coefficients()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_fit_recovers_dense_samples(self):
        xs = np.linspace(0, 3, 20)
        points = [(x, cubic_eval(REFERENCE_BOUND_POLY, x)) for x in xs]
        fit = cubic_fit(points)
        for got, want in zip(fit.coefficients(), REFERENCE_BOUND_POLY.coefficients()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_rank_deficient(self):
        with pytest.raises(BoundError, match=r"^need at least 4 distinct x values$"):
            cubic_fit([(1.0, 2.0), (1.0, 3.0), (2.0, 4.0), (2.0, 5.0)])

    @pytest.mark.parametrize("bad", [(0.5, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_fit_rejects_non_finite_samples(self, bad):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 8.0), (3.0, 27.0), bad]
        with pytest.raises(BoundError, match=r"^fit samples must be finite$"):
            cubic_fit(points)

    def test_fit_rejects_overflowing_design(self, monkeypatch):
        # x^3 overflows to inf, on which LAPACK does not return
        def no_lstsq(*args, **kwargs):
            raise AssertionError("least squares ran on an overflowed design")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        with pytest.raises(BoundError, match=r"^fit samples overflow: some x\^3 is not finite$"):
            cubic_fit([(k * 1e200, float(k)) for k in range(1, 5)])

    def test_on_curve_distance_is_zero(self):
        rng = np.random.default_rng(21)
        for x in rng.uniform(0, 3, 100):
            y = cubic_eval(REFERENCE_BOUND_POLY, x)
            assert distance_to_curve(REFERENCE_BOUND_POLY, (x, y)) <= 1e-6

    def test_vertical_mode(self):
        assert distance_to_curve(
            REFERENCE_BOUND_POLY, (0.0, -1.098), "vertical"
        ) == pytest.approx(0.0)
        assert distance_to_curve(
            REFERENCE_BOUND_POLY, (1.0, 0.216), "vertical"
        ) == pytest.approx(2.0)

    def test_euclidean_matches_grid_search(self):
        point = (1.5, 1.9)
        xs = np.linspace(0.0, 2.0, 1_000_001)
        ys = cubic_eval(REFERENCE_BOUND_POLY, xs)
        brute = float(np.sqrt(np.min((xs - point[0]) ** 2 + (ys - point[1]) ** 2)))
        got = distance_to_curve(REFERENCE_BOUND_POLY, point, "euclidean", (0.0, 2.0))
        assert got == pytest.approx(brute, abs=1e-6)

    def test_bad_domain(self):
        with pytest.raises(BoundError, match=r"^domain \[2\.0, 2\.0\] is empty$"):
            distance_to_curve(REFERENCE_BOUND_POLY, (1, 1), "euclidean", (2.0, 2.0))

    def test_refit_of_envelope_is_reportable(self):
        # the envelope sweep always offers enough distinct points for a fit
        envelope = frontier(range(1, 7), range(1, 4), "proposed", "mean-per-pixel")
        points = [(p.inv_alpha, p.eff_proposed) for p in envelope]
        fit = cubic_fit(points)
        assert all(math.isfinite(c) for c in fit.coefficients())


coefficient = st.floats(-5.0, 5.0)


class TestDistance:
    @given(
        coefficient,
        coefficient,
        coefficient,
        coefficient,
        st.floats(-3.0, 4.0),
        st.floats(-10.0, 10.0),
        st.floats(-2.0, 2.0),
        st.floats(0.01, 4.0),
    )
    # tiny leading coefficients: huge roots cost the eigenvalue solver
    # accuracy (the first two) or overflow its companion matrix (the third)
    @example(2.0**-52, 3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0)
    @example(2.0**-126, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    @example(0.0, 8.864765692158108e-156, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    # a triple root at the minimum: the Newton step divides 0 by 0
    @example(0.0, 1.0, 0.0, 0.0, 0.0, 0.5, -1.0, 2.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_and_golden_section(self, c3, c2, c1, c0, x0, y0, lo, width):
        poly = CubicPoly(c3, c2, c1, c0)
        domain = (lo, lo + width)
        want = scan_golden_distance(poly, (x0, y0), domain)
        got = distance_to_curve(poly, (x0, y0), "euclidean", domain)
        assert got <= want + 1e-12 * max(1.0, want)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_minimum_at_domain_endpoint(self):
        line = CubicPoly(0.0, 0.0, 1.0, 0.0)
        domain = (1.0, 2.0)
        # the nearest points of the whole line, x = 0 and x = 2.5, lie outside
        assert distance_to_curve(line, (0.0, 0.0), "euclidean", domain) == math.sqrt(2.0)
        assert distance_to_curve(line, (5.0, 0.0), "euclidean", domain) == math.sqrt(13.0)

    def test_constant_polynomial(self):
        flat = CubicPoly(0.0, 0.0, 0.0, 2.5)
        assert distance_to_curve(flat, (1.25, -1.0)) == 3.5
        assert distance_to_curve(flat, (4.0, 0.0)) == math.sqrt(7.25)

    def test_point_on_curve(self):
        rng = np.random.default_rng(5)
        for coefficients in (REFERENCE_BOUND_POLY.coefficients(), (1.0, -2.0, 0.5, 3.0)):
            poly = CubicPoly(*coefficients)
            for x in rng.uniform(0.0, 3.0, 50):
                point = (float(x), cubic_eval(poly, float(x)))
                assert distance_to_curve(poly, point) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_polynomial(self, bad):
        for mode in ("vertical", "euclidean"):
            with pytest.raises(BoundError, match=r"^polynomial .* must be finite$"):
                distance_to_curve(CubicPoly(bad, 0.0, 0.0, 0.0), (1.0, 1.0), mode)

    def test_rejects_overflowing_quintic(self):
        with pytest.raises(BoundError, match=r"^polynomial .* overflows the distance equation$"):
            distance_to_curve(CubicPoly(1e200, 1e200, 0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("mode", ["vertical", "euclidean"])
    @pytest.mark.parametrize("domain", [(2.0, 2.0), (3.0, 0.0)], ids=["empty", "reversed"])
    def test_rejects_empty_domain(self, mode, domain):
        lo, hi = domain
        with pytest.raises(BoundError, match=rf"^domain \[{lo}, {hi}\] is empty$"):
            distance_to_curve(REFERENCE_BOUND_POLY, (1.0, 1.0), mode, domain)

    @pytest.mark.parametrize("mode", ["vertical", "euclidean"])
    def test_rejects_overflowing_distance(self, mode):
        # the true distance is about 1e200, but its square overflows
        with pytest.raises(BoundError, match=r"^distance from .* overflows$"):
            distance_to_curve(CubicPoly(1.0, 0.0, 0.0, 0.0), (1e200, 1.0), mode)
