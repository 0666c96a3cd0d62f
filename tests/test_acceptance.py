"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import csv
import functools
import json
import time

import numpy as np
import pytest

from emdsteg.bench import BenchConfig, run_bench
from emdsteg.bound import (
    BoundQuery,
    REFERENCE_BOUND_POLY,
    bound_counts,
    bound_point,
    cubic_eval,
    cubic_fit,
    distance_to_curve,
)
from emdsteg.metrics import (
    proposed_efficiency,
    psnr,
    relative_payload,
    standard_efficiency,
    theoretical_distortion,
)
from emdsteg.schemes import embed_group, make_scheme

from oracles import enumerate_oracle, extraction_value, mse_from_psnr, splitmix64

# One configuration per implemented scheme family.
SCHEME_CONFIGS = [
    ("emd", {"n": 2}),
    ("iemd", {}),
    ("pva", {"t": 2}),
    ("femd", {"t": 2}),
    ("de", {"k": 1}),
    ("mpemd", {"n": 2, "key": 3}),
    ("emd2", {"n": 2}),
    ("twoemd", {"n": 2}),
    ("gemd", {"n": 2}),
    ("egemd", {"n": 4}),
    ("mbe", {"n": 2, "k": 1}),
    ("msd", {"n": 3}),
    ("hemd", {"n": 3, "w": 3}),
    ("aemd", {"n": 2, "m": 4}),
]

BENCH_CONFIG_JSON = json.dumps(
    {
        "cover": {"kind": "noise", "width": 64, "height": 64, "seed": 5},
        "seed": 11,
        "fill": 1.0,
    }
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def bench_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-bench")
    cfg = BenchConfig.from_json(BENCH_CONFIG_JSON)
    return run_bench(cfg, out)


@criterion(1, "recurrences match enumeration exactly")
def test_criterion_1():
    start = time.monotonic()
    checked = 0
    for n in range(1, 7):
        for z in range(1, 4):
            for q in range(0, n + 1):
                query = BoundQuery(n, z, q)
                assert bound_counts(query) == enumerate_oracle(query), query
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 81
    assert elapsed < 60.0


@criterion(2, "spot counts and closed-form corners")
def test_criterion_2():
    assert bound_counts(BoundQuery(2, 1, 1)).state_count == 5
    assert bound_counts(BoundQuery(2, 1, 2)).state_count == 9
    assert bound_counts(BoundQuery(2, 2, 1)).state_count == 21
    assert bound_counts(BoundQuery(2, 1, 1)).change_sum_linear == 4
    assert bound_counts(BoundQuery(2, 1, 2)).change_sum_linear == 12
    assert bound_counts(BoundQuery(2, 2, 1)).change_sum_squared == 68
    for n in range(1, 9):
        for z in range(1, 4):
            assert bound_counts(BoundQuery(n, z, n)).state_count == (2 * z + 1) ** n
            assert bound_counts(BoundQuery(n, z, 0)).state_count == (2 * z - 1) ** n


@criterion(3, "scheme round-trips and change budgets")
def test_criterion_3():
    start = time.monotonic()
    for name, params in SCHEME_CONFIGS:
        spec = make_scheme(name, **params)
        z = spec.constraint.per_pixel_max
        rng = np.random.default_rng(len(name))
        groups = rng.integers(z, 256 - z, size=(1000, spec.n))
        symbols = rng.integers(0, spec.modulus, size=1000)
        for row, sym in zip(groups, symbols):
            group = tuple(int(v) for v in row)
            stego = embed_group(spec, group, int(sym))
            assert extraction_value(spec, stego) == int(sym), spec.id
            deltas = [a - b for a, b in zip(stego, group)]
            assert all(abs(d) <= z for d in deltas), spec.id
            if spec.constraint.l1_radius is not None:
                assert sum(abs(d) for d in deltas) <= spec.constraint.l1_radius
    assert time.monotonic() - start < 60.0


@criterion(4, "metric formulas")
def test_criterion_4():
    for p in np.linspace(20.0, 80.0, 601):
        assert psnr(mse_from_psnr(p)) == pytest.approx(p, rel=1e-9)
    profile2 = theoretical_distortion(make_scheme("emd", n=2))
    assert profile2.expected_sq_per_pixel == pytest.approx(0.4, abs=1e-12)
    assert psnr(profile2.expected_sq_per_pixel) == pytest.approx(52.11, abs=0.01)
    profile3 = theoretical_distortion(make_scheme("emd", n=3))
    assert profile3.expected_sq_per_pixel == pytest.approx(2.0 / 7.0, abs=1e-9)


@criterion(5, "quoted payload and efficiency points")
def test_criterion_5():
    assert relative_payload(make_scheme("emd", n=2)) == pytest.approx(1.1609, abs=0.01)
    assert relative_payload(make_scheme("emd", n=3)) == pytest.approx(0.9357, abs=0.01)
    assert relative_payload(make_scheme("gemd", n=2)) == pytest.approx(1.5, abs=0.01)
    iemd = make_scheme("iemd")
    assert standard_efficiency(iemd.payload_bits_exact, iemd.rho) == pytest.approx(
        1.5, abs=0.01
    )
    hemd = make_scheme("hemd", n=3, w=3)
    assert standard_efficiency(hemd.payload_bits_exact, hemd.rho) == pytest.approx(
        1.58, abs=0.01
    )
    assert relative_payload(make_scheme("msd", n=3)) == pytest.approx(1.15, abs=0.01)


@criterion(6, "state family agrees with scheme expectation")
def test_criterion_6():
    for n in range(2, 9):
        point = bound_point(BoundQuery(n, 1, 1), "mean")
        spec = make_scheme("emd", n=n)
        profile = theoretical_distortion(spec)
        bits_per_expected_change = spec.payload_bits_exact / (
            profile.expected_abs_per_pixel * n
        )
        assert point.eff_standard == pytest.approx(
            bits_per_expected_change, rel=1e-9
        )


@criterion(7, "cubic curve operations")
def test_criterion_7():
    assert cubic_eval(REFERENCE_BOUND_POLY, 0.0) == -1.098
    xs = np.linspace(0.0, 3.0, 24)
    fit = cubic_fit([(x, cubic_eval(REFERENCE_BOUND_POLY, x)) for x in xs])
    for got, want in zip(fit.coefficients(), REFERENCE_BOUND_POLY.coefficients()):
        assert got == pytest.approx(want, abs=1e-9)
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 3.0, 25):
        y = cubic_eval(REFERENCE_BOUND_POLY, x)
        assert distance_to_curve(REFERENCE_BOUND_POLY, (x, y)) <= 1e-6


@criterion(8, "quoted values are reports, schemes sit under the frontier")
def test_criterion_8(bench_paths):
    # The quoted proposed-efficiency, PSNR, and bound-distance figures for
    # the single-change scheme cannot be re-derived from each other or from
    # the exact distortion expectation; verify the gaps, then check the
    # benchmark carries them as reported rows with explicit deltas.
    reported_eff = 1.0107
    reported_distance = 0.3595
    reported_psnrs = (56.15, 54.14)

    spec = make_scheme("emd", n=3)
    alpha = relative_payload(spec)
    exact_mse = theoretical_distortion(spec).expected_sq_per_pixel
    eff_exact = proposed_efficiency(alpha, exact_mse)
    assert abs(eff_exact - reported_eff) > 0.05
    for quoted_psnr in reported_psnrs:
        eff_from_psnr = proposed_efficiency(alpha, mse_from_psnr(quoted_psnr))
        assert abs(eff_from_psnr - reported_eff) > 0.05
        assert abs(quoted_psnr - psnr(exact_mse)) > 0.4

    # distance of the quoted payload/efficiency point from the reference
    # curve reproduces the quoted distance in neither mode
    for mode in ("vertical", "euclidean"):
        value = distance_to_curve(REFERENCE_BOUND_POLY, (alpha, reported_eff), mode)
        assert abs(value - reported_distance) > 0.05
        # nor does the exact-expectation point reproduce it
        value = distance_to_curve(REFERENCE_BOUND_POLY, (alpha, eff_exact), mode)
        assert abs(value - reported_distance) > 1e-3

    # reported rows with per-row deltas in the benchmark output
    for name in ("table4", "table5"):
        rows = list(csv.DictReader(bench_paths[name].read_text().splitlines()))
        quoted = [r for r in rows if r["provenance"] == "reported"]
        assert quoted
        emd_quoted = [r for r in quoted if r["scheme"] == "emd"]
        assert emd_quoted and all(r["delta_vs_computed"] != "" for r in emd_quoted)
        computed = [r for r in rows if r["provenance"] == "computed"]
        assert computed and all(r["delta_vs_computed"] == "" for r in computed)

    # every computed scheme point sits on or below the proposed-metric
    # frontier (per-pixel normalization)
    rows = list(csv.DictReader(bench_paths["fig3"].read_text().splitlines()))
    envelope = sorted(
        (float(r["inv_alpha"]), float(r["efficiency"]))
        for r in rows
        if r["series"] == "bound"
    )
    checked = 0
    for row in rows:
        if row["series"] == "bound" or row["provenance"] != "computed":
            continue
        x = float(row["inv_alpha"])
        eff = float(row["efficiency"])
        ceiling = max(e for ix, e in envelope if ix <= x + 1e-12)
        assert eff <= ceiling + 1e-9, (row["series"], row["params"])
        checked += 1
    assert checked >= len(SCHEME_CONFIGS)


@criterion(9, "deterministic benchmark and bit source")
def test_criterion_9(tmp_path):
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF
    cfg_a = BenchConfig.from_json(BENCH_CONFIG_JSON)
    cfg_b = BenchConfig.from_json(BENCH_CONFIG_JSON)
    paths_a = run_bench(cfg_a, tmp_path / "a")
    paths_b = run_bench(cfg_b, tmp_path / "b")
    for name in sorted(paths_a):
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes(), name
