import math

import numpy as np
import pytest

from emdsteg.bound import (
    BoundQuery,
    DegenerateQuery,
    EmptyRange,
    InvalidDomain,
    InvalidQuery,
    QueryTooLarge,
    RankDeficient,
    REFERENCE_BOUND_POLY,
    bound_counts,
    bound_point,
    count_states,
    cubic_eval,
    cubic_fit,
    distance_to_curve,
    enumerate_oracle,
    frontier,
    frontier_value_at,
    sum_changes_linear,
    sum_changes_squared,
)
from emdsteg.metrics import theoretical_distortion
from emdsteg.schemes import make_scheme


class TestCounts:
    def test_spot_values(self):
        assert count_states(BoundQuery(2, 1, 1)) == 5
        assert count_states(BoundQuery(2, 1, 2)) == 9
        assert count_states(BoundQuery(2, 2, 1)) == 21
        assert sum_changes_linear(BoundQuery(2, 1, 1)) == 4
        assert sum_changes_linear(BoundQuery(2, 1, 2)) == 12
        assert sum_changes_linear(BoundQuery(3, 1, 0)) == 0
        assert sum_changes_squared(BoundQuery(2, 1, 2)) == 12
        assert sum_changes_squared(BoundQuery(2, 2, 1)) == 68
        assert sum_changes_squared(BoundQuery(1, 2, 1)) == 10

    def test_boundary_identities(self):
        for n in range(1, 9):
            for z in range(1, 4):
                assert count_states(BoundQuery(n, z, n)) == (2 * z + 1) ** n
                assert count_states(BoundQuery(n, z, 0)) == (2 * z - 1) ** n
            assert count_states(BoundQuery(n, 1, 1)) == 2 * n + 1

    def test_monotonicity(self):
        for n in range(1, 7):
            for z in range(1, 4):
                counts = [count_states(BoundQuery(n, z, q)) for q in range(n + 1)]
                assert counts == sorted(counts)
                assert all(a < b for a, b in zip(counts, counts[1:]))
        for n in range(1, 7):
            for q in range(1, n + 1):
                by_z = [count_states(BoundQuery(n, z, q)) for z in range(1, 5)]
                assert all(a < b for a, b in zip(by_z, by_z[1:]))

    def test_unit_cap_sums_coincide(self):
        for n in range(1, 7):
            for q in range(n + 1):
                query = BoundQuery(n, 1, q)
                assert sum_changes_linear(query) == sum_changes_squared(query)

    def test_matches_enumeration_everywhere(self):
        for n in range(1, 7):
            for z in range(1, 4):
                for q in range(n + 1):
                    query = BoundQuery(n, z, q)
                    assert bound_counts(query) == enumerate_oracle(query)

    def test_arbitrary_precision(self):
        big = count_states(BoundQuery(48, 3, 20))
        assert big > 2**64
        assert isinstance(big, int)

    def test_invalid_query(self):
        with pytest.raises(InvalidQuery):
            BoundQuery(0, 1, 0)
        with pytest.raises(InvalidQuery):
            BoundQuery(2, 0, 1)
        with pytest.raises(InvalidQuery):
            BoundQuery(2, 1, 3)

    def test_oracle_guard(self):
        with pytest.raises(QueryTooLarge):
            enumerate_oracle(BoundQuery(40, 3, 20))


class TestBoundPoint:
    def test_literal_normalization(self):
        point = bound_point(BoundQuery(2, 1, 2), "standard", "literal")
        assert point.eff_standard == pytest.approx(math.log2(9) / 12)

    def test_degenerate_query(self):
        with pytest.raises(DegenerateQuery):
            bound_point(BoundQuery(3, 1, 0))

    def test_inverse_payload(self):
        point = bound_point(BoundQuery(2, 1, 1))
        assert point.inv_alpha * point.alpha == pytest.approx(1.0, abs=1e-12)

    def test_single_change_family_matches_scheme_expectation(self):
        # bits per expected unit change of the single-change scheme equals
        # the mean-normalized standard efficiency of its state family
        for n in range(2, 9):
            point = bound_point(BoundQuery(n, 1, 1), "standard", "mean")
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
                    point = bound_point(BoundQuery(n, z, q), "proposed", "mean-per-pixel")
                    ceiling = frontier_value_at(envelope, point.inv_alpha, "proposed")
                    assert point.eff_proposed <= ceiling + 1e-9

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            frontier([], [1])


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
        with pytest.raises(RankDeficient):
            cubic_fit([(1.0, 2.0), (1.0, 3.0), (2.0, 4.0), (2.0, 5.0)])

    @pytest.mark.parametrize("bad", [(0.5, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_fit_rejects_non_finite_samples(self, bad):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 8.0), (3.0, 27.0), bad]
        with pytest.raises(InvalidDomain):
            cubic_fit(points)

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
        from emdsteg.bound import InvalidDomain

        with pytest.raises(InvalidDomain):
            distance_to_curve(REFERENCE_BOUND_POLY, (1, 1), "euclidean", (2.0, 2.0))

    def test_refit_of_envelope_is_reportable(self):
        # the envelope sweep always offers enough distinct points for a fit
        envelope = frontier(range(1, 7), range(1, 4), "proposed", "mean-per-pixel")
        points = [(p.inv_alpha, p.eff_proposed) for p in envelope]
        fit = cubic_fit(points)
        assert all(math.isfinite(c) for c in fit.coefficients())
