import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdsteg.bound import (
    METRICS,
    NORMALIZATIONS,
    BoundError,
    CubicPoly,
    REFERENCE_BOUND_POLY,
    _corner_sums,
    _running_sums,
    bound_point,
    cubic_eval,
    cubic_fit,
    distance_to_curve,
    frontier,
    sweep,
)
from emdsteg.metrics import theoretical_distortion
from emdsteg.schemes import make_scheme

from oracles import QueryTooLarge, enumerate_oracle


# Reference for bound_point's counts: the same three totals by cached recursions
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


def recursive_counts(n: int, z: int, q: int) -> tuple[int, int, int]:
    """(states, sum |delta|, sum delta^2) of one query."""
    return (
        _count(n, z, q),
        _sum_changes(n, z, q, squared=False),
        _sum_changes(n, z, q, squared=True),
    )


def counts(n: int, z: int, q: int) -> tuple[int, int, int]:
    """(states, lin, sq) of bound_point's row."""
    return bound_point(n, z, q)[3:6]


def per_query_frontier(n_values, z_values, metric, normalization):
    """Reference for frontier: rows from one bound_point per query."""
    eff_at = 3 if metric == "proposed" else 2
    rows = [
        bound_point(n, z, q, normalization)
        for n in sorted(set(n_values))
        for z in sorted(set(z_values))
        for q in range(1, n + 1)
    ]
    rows.sort(key=lambda row: row[6][eff_at], reverse=True)
    rows.sort(key=lambda row: row[6][1])
    envelope = []
    best = -math.inf
    for row in rows:
        if row[6][eff_at] > best:
            envelope.append(row)
            best = row[6][eff_at]
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
    # a row is (n, z, q, states, lin, sq, values)
    def test_spot_values(self):
        assert bound_point(2, 1, 1)[3] == 5
        assert bound_point(2, 1, 2)[3] == 9
        assert bound_point(2, 2, 1)[3] == 21
        assert bound_point(2, 1, 1)[4] == 4
        assert bound_point(2, 1, 2)[4] == 12
        assert bound_point(3, 1, 0)[4] == 0
        assert bound_point(2, 1, 2)[5] == 12
        assert bound_point(2, 2, 1)[5] == 68
        assert bound_point(1, 2, 1)[5] == 10

    def test_boundary_identities(self):
        for n in range(1, 9):
            for z in range(1, 4):
                assert bound_point(n, z, n)[3] == (2 * z + 1) ** n
                assert bound_point(n, z, 0)[3] == (2 * z - 1) ** n
            assert bound_point(n, 1, 1)[3] == 2 * n + 1

    def test_monotonicity(self):
        for n in range(1, 7):
            for z in range(1, 4):
                states = [bound_point(n, z, q)[3] for q in range(n + 1)]
                assert states == sorted(states)
                assert all(a < b for a, b in zip(states, states[1:]))
        for n in range(1, 7):
            for q in range(1, n + 1):
                by_z = [bound_point(n, z, q)[3] for z in range(1, 5)]
                assert all(a < b for a, b in zip(by_z, by_z[1:]))

    def test_unit_cap_sums_coincide(self):
        for n in range(1, 7):
            for q in range(n + 1):
                _, lin, sq = counts(n, 1, q)
                assert lin == sq

    def test_matches_enumeration_everywhere(self):
        for n in range(1, 7):
            for z in range(1, 4):
                for q in range(n + 1):
                    assert counts(n, z, q) == enumerate_oracle(n, z, q)

    def test_matches_recursions(self):
        for n in range(1, 41):
            for z in range(1, 11):
                for q in range(n + 1):
                    assert counts(n, z, q) == recursive_counts(n, z, q), (n, z, q)

    def test_quota_counts_hold_every_smaller_quota(self):
        rows = {}
        for n, z, q, states, lin, sq, _ in sweep(range(1, 41), range(1, 11)):
            assert q == len(rows.setdefault((n, z), []))
            rows[n, z].append((states, lin, sq))
        assert list(rows) == [(n, z) for n in range(1, 41) for z in range(1, 11)]
        for (n, z), got in rows.items():
            want = [recursive_counts(n, z, q) for q in range(n + 1)]
            assert got == want, (n, z)
        # one running sum holds every quota's per-query count
        assert rows[9, 3] == [counts(9, 3, q) for q in range(10)]

    def test_corner_sums_close_the_running_sum(self):
        for n in range(1, 13):
            for z in range(1, 7):
                *_, last = _running_sums(n, z, n)
                assert _corner_sums(n, z) == last, (n, z)

    def test_deep_quota_obeys_first_pixel_recurrence(self):
        # beyond recursive_counts' reach (RecursionError), and past the float
        # edge that bound_point checks, so the exact sums come from the running
        # sum; split on the first pixel: at +/-z (2 ways, quota q - 1 left) or
        # inside the cap
        n, z, q = 1500, 2, 700
        inner = range(-(z - 1), z)
        capped_states, capped_lin, capped_sq = [*_running_sums(n - 1, z, q - 1)][-1]
        free_states, free_lin, free_sq = [*_running_sums(n - 1, z, q)][-1]
        states, lin, sq = [*_running_sums(n, z, q)][-1]
        assert states == 2 * capped_states + len(inner) * free_states
        assert lin == (
            2 * (capped_lin + z * capped_states)
            + len(inner) * free_lin
            + sum(abs(v) for v in inner) * free_states
        )
        assert sq == (
            2 * (capped_sq + z * z * capped_states)
            + len(inner) * free_sq
            + sum(v * v for v in inner) * free_states
        )

    def test_arbitrary_precision(self):
        big = bound_point(48, 3, 20)[3]
        assert big > 2**64
        assert isinstance(big, int)

    def test_invalid_query(self):
        with pytest.raises(BoundError, match=r"^bad query n=0 z=1 q=0$"):
            bound_point(0, 1, 0)
        with pytest.raises(BoundError, match=r"^bad query n=2 z=0 q=1$"):
            bound_point(2, 0, 1)
        with pytest.raises(BoundError, match=r"^bad query n=2 z=1 q=3$"):
            bound_point(2, 1, 3)

    def test_oracle_guard(self):
        with pytest.raises(QueryTooLarge):
            enumerate_oracle(40, 3, 20)


class TestBoundPoint:
    def test_literal_normalization(self):
        values = bound_point(2, 1, 2, "literal")[6]
        assert values[2] == pytest.approx(math.log2(9) / 12)

    def test_carries_its_counts(self):
        for n, z, q in ((5, 3, 2), (30, 10, 30)):
            assert bound_point(n, z, q)[:6] == (n, z, q, *recursive_counts(n, z, q))

    def test_degenerate_query(self):
        # only the zero state: no efficiency, as in sweep's row
        assert bound_point(3, 1, 0)[6] is None

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        z=st.integers(1, 12),
        data=st.data(),
        normalization=st.sampled_from(NORMALIZATIONS),
    )
    def test_is_the_sweep_row(self, n, z, data, normalization):
        q = data.draw(st.integers(0, n), label="q")
        assert bound_point(n, z, q, normalization) == list(sweep([n], [z], normalization))[q]

    @pytest.mark.parametrize("normalization", ["literal", "mean", "mean-per-pixel"])
    def test_float_overflow_names_the_query(self, normalization):
        with pytest.raises(BoundError, match="n=400 z=4"):
            bound_point(400, 4, 400, normalization)
        with pytest.raises(BoundError, match="n=400 z=4"):
            frontier([400], [4], "standard", normalization)

    def test_checks_only_its_own_row_against_the_float_edge(self):
        # the q = 700 corner of (700, 1) passes the float range; q = 1 does not
        assert all(math.isfinite(v) for v in bound_point(700, 1, 1)[6])
        with pytest.raises(BoundError, match=r"^n=700 z=1: state counts overflow a float$"):
            sweep([700], [1])

    @pytest.mark.parametrize("normalization", ["mean", "mean-per-pixel"])
    def test_standard_efficiency_finite_at_float_edge(self, normalization):
        # at n = 640, z = 1 payload * states passes the float range for q >= 436,
        # though the efficiency itself is about 2.38
        for _, _, q, states, lin, _, values in sweep([640], [1], normalization):
            if q == 0:
                continue
            eff_standard = bound_point(640, 1, q, normalization)[6][2]
            assert eff_standard == values[2]
            exact = Fraction(math.log2(states)) * states / lin
            assert abs(Fraction(eff_standard) - exact) <= 2 * math.ulp(eff_standard)
        envelope = frontier([640], [1], "standard", normalization)
        assert all(math.isfinite(values[2]) for *_, values in envelope)

    def test_inverse_payload(self):
        alpha, inv_alpha, *_ = bound_point(2, 1, 1)[6]
        assert inv_alpha * alpha == pytest.approx(1.0, abs=1e-12)

    def test_single_change_family_matches_scheme_expectation(self):
        # bits per expected unit change of the single-change scheme equals
        # the mean-normalized standard efficiency of its state family
        for n in range(2, 9):
            eff_standard = bound_point(n, 1, 1, "mean")[6][2]
            spec = make_scheme("emd", n=n)
            profile = theoretical_distortion(spec)
            expected = spec.payload_bits_exact / (
                profile.expected_abs_per_pixel * n
            )
            assert eff_standard == pytest.approx(expected, rel=1e-9)


class TestFrontier:
    def test_single_point(self):
        points = frontier([2], [1], "proposed", "mean-per-pixel")
        assert len(points) >= 1

    def test_dominated_point_removed(self):
        envelope = frontier(range(1, 4), [1], "proposed", "mean-per-pixel")
        effs = [values[3] for *_, values in envelope]
        invs = [values[1] for *_, values in envelope]
        assert effs == sorted(effs)
        assert all(a < b for a, b in zip(effs, effs[1:]))
        assert invs == sorted(invs)

    def test_envelope_dominates_sweep(self):
        envelope = frontier(range(2, 7), range(1, 4), "proposed", "mean-per-pixel")
        for n in range(2, 7):
            for z in range(1, 4):
                for q in range(1, n + 1):
                    _, inv_alpha, _, eff_proposed = bound_point(n, z, q, "mean-per-pixel")[6]
                    # best envelope efficiency at inverse payload <= the row's
                    reachable = [
                        values[3]
                        for *_, values in envelope
                        if values[1] <= inv_alpha + 1e-12
                    ]
                    ceiling = max(reachable, default=-math.inf)
                    assert eff_proposed <= ceiling + 1e-9

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
        # a bad normalization fails as in bound_point; bound_point takes no
        # metric, so a bad one is named against METRICS
        with pytest.raises(ValueError) as got:
            frontier([2], [1], metric, normalization)
        if normalization in NORMALIZATIONS:
            assert str(got.value) == f"metric {metric!r} not one of {METRICS}"
        else:
            with pytest.raises(ValueError) as expected:
                bound_point(2, 1, 1, normalization)
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
        # same rows, same order, same floats and counts
        assert envelope == per_query_frontier(ns, zs, metric, normalization)
        for n, z, q, *sums, _ in envelope:
            assert tuple(sums) == recursive_counts(n, z, q)

    @settings(max_examples=100, deadline=None)
    @given(
        ns=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        zs=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        metric=st.sampled_from(["standard", "proposed"]),
        normalization=st.sampled_from(["literal", "mean", "mean-per-pixel"]),
    )
    def test_matches_per_query_sweep_on_random_ranges(self, ns, zs, metric, normalization):
        # unsorted, duplicated n and z, merged in blocks of every size
        assert frontier(ns, zs, metric, normalization) == per_query_frontier(
            ns, zs, metric, normalization
        )

    # at n = 2 every row is on the envelope, so no merge drops a held row;
    # only the proposed metric's first row, (2, 1, 1), falls below the next,
    # (2, 1, 2)
    @pytest.mark.parametrize("metric,kept", [("standard", 4000), ("proposed", 3999)])
    def test_keeps_every_point_of_a_wide_sweep(self, metric, kept):
        envelope = frontier([2], range(1, 2001), metric)
        assert len(envelope) == kept
        assert envelope == per_query_frontier([2], range(1, 2001), metric, "mean-per-pixel")


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
        points = [(values[1], values[3]) for *_, values in envelope]
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

    def test_rejects_unknown_mode(self):
        with pytest.raises(
            ValueError, match=r"^mode 'bogus' not one of \('euclidean', 'vertical'\)$"
        ):
            distance_to_curve(REFERENCE_BOUND_POLY, (1.0, 1.0), "bogus")

    @pytest.mark.parametrize("mode", ["vertical", "euclidean"])
    def test_rejects_overflowing_distance(self, mode):
        # the true distance is about 1e200, but its square overflows
        with pytest.raises(BoundError, match=r"^distance from .* overflows$"):
            distance_to_curve(CubicPoly(1.0, 0.0, 0.0, 0.0), (1e200, 1.0), mode)
