import math

import numpy as np
import pytest

from emdsteg.image import GrayImage
from emdsteg.metrics import (
    DimensionMismatch,
    MetricsError,
    analyze_pair,
    mse,
    proposed_efficiency,
    psnr,
    relative_payload,
    standard_efficiency,
    theoretical_distortion,
)
from emdsteg.schemes import embed_message, make_scheme, operational_capacity

from oracles import mse_from_psnr


class TestMse:
    def test_identical_images(self):
        img = GrayImage.flat(4, 4, 50)
        assert mse(img, img) == 0.0

    def test_single_unit_difference(self):
        a = GrayImage(2, 2, [10, 10, 10, 10])
        b = GrayImage(2, 2, [11, 10, 10, 10])
        assert mse(a, b) == 0.25

    def test_single_two_step_difference(self):
        a = GrayImage(2, 2, [10, 10, 10, 10])
        b = GrayImage(2, 2, [12, 10, 10, 10])
        assert mse(a, b) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mse(GrayImage.flat(2, 2, 0), GrayImage.flat(4, 1, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs_match_int64_mean(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (
            GrayImage(256, 256, rng.integers(0, 256, 256 * 256, dtype=np.uint8))
            for _ in "ab"
        )
        assert mse(a, b) == int64_mean_squared_error(a, b)

    @pytest.mark.parametrize("side,low,high", [(1, 3, 250), (2048, 0, 255)])
    def test_flat_pairs_match_int64_mean(self, side, low, high):
        a, b = GrayImage.flat(side, side, low), GrayImage.flat(side, side, high)
        assert mse(a, b) == mse(b, a) == int64_mean_squared_error(a, b)


def int64_mean_squared_error(a, b):
    """Reference for mse: widen both images to int64 and take np.mean."""
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    return float(np.mean(diff * diff))


class TestPsnr:
    def test_reference_values(self):
        assert psnr(0.4) == pytest.approx(52.11, abs=0.01)
        assert psnr(0.25) == pytest.approx(54.15, abs=0.01)

    def test_zero_mse_is_infinite(self):
        assert math.isinf(psnr(0.0))

    def test_negative_rejected(self):
        with pytest.raises(MetricsError, match=r"^mse -1e-09 < 0$"):
            psnr(-1e-9)

    def test_inverse_round_trip(self):
        assert mse_from_psnr(52.11) == pytest.approx(0.4, abs=1e-3)
        assert mse_from_psnr(48.11) == pytest.approx(1.005, abs=1e-3)
        for p in np.linspace(20, 80, 241):
            assert psnr(mse_from_psnr(p)) == pytest.approx(p, rel=1e-9)


class TestPayloadAndEfficiency:
    def test_relative_payload_reference_points(self):
        assert relative_payload(make_scheme("emd", n=2)) == pytest.approx(
            1.1609, abs=1e-4
        )
        assert relative_payload(make_scheme("emd", n=3)) == pytest.approx(
            0.9357, abs=1e-4
        )
        assert relative_payload(make_scheme("gemd", n=2)) == pytest.approx(1.5)

    def test_operational_payload_is_floored(self):
        spec = make_scheme("emd", n=2)
        assert spec.payload_bits_operational / spec.n == 1.0

    def test_payload_decreases_with_group_size(self):
        values = [relative_payload(make_scheme("emd", n=n)) for n in range(2, 17)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_standard_efficiency(self):
        assert standard_efficiency(3.0, 2.0) == 1.5
        assert standard_efficiency(math.log2(27), 3.0) == pytest.approx(1.58, abs=0.01)
        assert standard_efficiency(2.0, 2.0) == 1.0
        with pytest.raises(MetricsError, match=r"^change budget must be positive$"):
            standard_efficiency(1.0, 0.0)

    def test_proposed_efficiency(self):
        assert proposed_efficiency(1.0, 1.0) == 1.0
        assert proposed_efficiency(0.9357, 0.8572) == pytest.approx(1.0107, abs=1e-3)
        assert proposed_efficiency(1.1609, 0.4) == pytest.approx(1.8356, abs=1e-3)
        with pytest.raises(MetricsError, match=r"^efficiency undefined for zero distortion$"):
            proposed_efficiency(1.0, 0.0)

    def test_quoted_efficiency_table_rows(self):
        # rows whose quoted standard efficiency agrees with payload/budget
        cases = [
            (make_scheme("iemd"), 1.5),
            (make_scheme("gemd", n=2), 1.5),
            (make_scheme("femd", t=2), 1.0),
            (make_scheme("de", k=2), 1.85),
            (make_scheme("emd2", n=2), 1.58),
            (make_scheme("hemd", n=3, w=3), 1.58),
            (make_scheme("pva", t=2), 1.0),
            (make_scheme("egemd", n=4), 1.5),
        ]
        for spec, expected in cases:
            eff = standard_efficiency(spec.payload_bits_exact, spec.rho)
            assert eff == pytest.approx(expected, abs=0.01), spec.id
        assert relative_payload(make_scheme("msd", n=3)) == pytest.approx(
            1.15, abs=0.01
        )

    def test_l1_budget_caps_group_change(self):
        # the diamond constraint, not z*k, is the real worst case for DE
        spec = make_scheme("de", k=2)
        assert spec.rho == 2
        assert theoretical_distortion(spec).max_group_change <= 2


class TestTheoreticalDistortion:
    def test_single_change_family(self):
        prof = theoretical_distortion(make_scheme("emd", n=2))
        assert prof.expected_sq_per_pixel == pytest.approx(0.4, abs=1e-12)
        assert prof.max_group_change == 1
        prof3 = theoretical_distortion(make_scheme("emd", n=3))
        assert prof3.expected_sq_per_pixel == pytest.approx(2 / 7, abs=1e-12)

    def test_unit_changes_make_sums_equal(self):
        for name, params in [("gemd", {"n": 3}), ("msd", {"n": 3})]:
            prof = theoretical_distortion(make_scheme(name, **params))
            assert prof.expected_abs_per_pixel == prof.expected_sq_per_pixel

    def test_zero_change_symbol_contributes_nothing(self):
        prof = theoretical_distortion(make_scheme("mpemd", n=2))
        # 3 of 4 symbols move one pixel by one unit
        assert prof.expected_sq_per_pixel == pytest.approx(3 / 8)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("de", {"k": 200}),
            ("femd", {"t": 400}),
            ("aemd", {"n": 1, "m": 364}),
            ("aemd", {"n": 1, "m": 100000}),
        ],
    )
    def test_wide_budgets_match_int64_table_sums(self, name, params):
        # every symbol once applies every row of a plain scheme's table once
        spec = make_scheme(name, **params)
        table = spec.embed_array.astype(np.int64)
        denom = spec.modulus * spec.n
        prof = theoretical_distortion(spec)
        assert prof.expected_abs_per_pixel == int(np.abs(table).sum()) / denom
        assert prof.expected_sq_per_pixel == int((table * table).sum()) / denom
        assert prof.max_group_change == int(np.abs(table).sum(axis=1).max())


class TestCapacity:
    def test_operational(self):
        img = GrayImage.flat(512, 512, 128)
        assert operational_capacity(img, make_scheme("emd", n=2)) == 262144

    def test_too_small_for_a_group(self):
        img = GrayImage.flat(1, 1, 128)
        assert operational_capacity(img, make_scheme("emd", n=2)) == 0


class TestAnalyzePair:
    def test_identical_pair(self):
        img = GrayImage.flat(8, 8, 100)
        report = analyze_pair(img, img, make_scheme("emd", n=2))
        assert report.mse == 0.0
        assert math.isinf(report.psnr_db)
        assert report.efficiency_proposed is None

    def test_full_fill_matches_expectation(self):
        # interior-valued random cover: no clamping charge, and the
        # extraction values are uniform enough that the measured MSE
        # converges on the exact expectation
        spec = make_scheme("emd", n=2)
        rng = np.random.default_rng(7)
        cover = GrayImage(256, 256, rng.integers(1, 255, 65536))
        from emdsteg.rng import seeded_bits

        bits = seeded_bits(1, operational_capacity(cover, spec))
        stego, groups = embed_message(cover, spec, bits)
        report = analyze_pair(cover, stego, spec)
        expectation = theoretical_distortion(spec).expected_sq_per_pixel
        # per-group squared change is Bernoulli; allow three standard errors
        p = 1 - 1 / spec.modulus
        se = math.sqrt(p * (1 - p) / groups) / spec.n
        assert abs(report.mse - expectation) <= 3 * se

    def test_record_field_names(self):
        img = GrayImage.flat(8, 8, 100)
        record = analyze_pair(img, img, make_scheme("emd", n=2)).to_record()
        assert list(record) == [
            "scheme",
            "params",
            "alpha",
            "mse",
            "psnr_db",
            "eff_standard",
            "eff_proposed",
            "distance",
            "provenance",
        ]
