import csv
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from emdsteg.bench import BenchConfig, BenchConfigError, _fmt, build_cover, run_bench
from emdsteg.cli import main
from emdsteg.image import GrayImage, PgmError, save_pgm

SMALL_CONFIG = {
    "schemes": [
        {"scheme": "emd", "params": {"n": 2}},
        {"scheme": "emd", "params": {"n": 3}},
        {"scheme": "gemd", "params": {"n": 2}},
        {"scheme": "de", "params": {"k": 1}},
    ],
    "cover": {"kind": "noise", "width": 64, "height": 64, "seed": 5},
    "seed": 9,
    "fill": 1.0,
}


def read_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = BenchConfig.from_json(json.dumps(SMALL_CONFIG))
    paths = run_bench(cfg, out)
    return paths


class TestRunBench:
    def test_all_outputs_written(self, bench_out):
        assert sorted(bench_out) == ["fig2", "fig3", "table3", "table4", "table5"]
        for path in bench_out.values():
            assert path.exists()

    def test_provenance_column_everywhere(self, bench_out):
        for path in bench_out.values():
            rows = read_rows(path)
            assert rows
            assert all(r["provenance"] in ("computed", "reported") for r in rows)

    def test_reported_rows_have_only_quoted_fields(self, bench_out):
        for name in ("table3", "table4", "table5"):
            for row in read_rows(bench_out[name]):
                if row["provenance"] == "reported":
                    assert row["params"] == ""
                    assert row["alpha"] != ""
                    assert row["value"] != ""
                else:
                    assert row["delta_vs_computed"] == ""

    def test_reported_deltas_follow_computed_rows(self, bench_out):
        rows = read_rows(bench_out["table4"])
        computed = {
            (r["scheme"], r["params"]): float(r["value"])
            for r in rows
            if r["provenance"] == "computed" and r["value"]
        }
        emd3 = next(
            r
            for r in rows
            if r["provenance"] == "reported"
            and r["scheme"] == "emd"
            and r["condition"] == "n=3"
        )
        delta = float(emd3["delta_vs_computed"])
        assert delta == pytest.approx(
            float(emd3["value"]) - computed[("emd", "n=3")], abs=1e-9
        )

    def test_computed_alpha_values(self, bench_out):
        rows = read_rows(bench_out["table4"])
        emd3 = next(
            r
            for r in rows
            if r["provenance"] == "computed" and r["params"] == "n=3"
            and r["scheme"] == "emd"
        )
        assert float(emd3["alpha"]) == pytest.approx(0.9357, abs=1e-3)

    def test_fig3_scheme_points_never_beat_the_frontier(self, bench_out):
        rows = read_rows(bench_out["fig3"])
        envelope = sorted(
            (float(r["inv_alpha"]), float(r["efficiency"]))
            for r in rows
            if r["series"] == "bound"
        )
        for row in rows:
            if row["series"] == "bound" or row["provenance"] != "computed":
                continue
            x = float(row["inv_alpha"])
            eff = float(row["efficiency"])
            ceiling = max(e for ix, e in envelope if ix <= x + 1e-12)
            assert eff <= ceiling + 1e-9, row["series"]

    def test_fig2_contains_bound_series(self, bench_out):
        rows = read_rows(bench_out["fig2"])
        assert any(r["series"] == "bound" for r in rows)
        assert any(r["provenance"] == "reported" for r in rows)


# sha256 of the five CSVs of the default config (18 schemes, 256x256 noise
# cover, both frontiers): any change to the reports' bytes shows here.
DEFAULT_CSV_SHA256 = {
    "fig2": "d49676e8b505b13a36f39199561d00ae01e68f87b64765cc25593978caa8c3f5",
    "fig3": "8c59f14bc0fb6a3ef19d70d3ab1d6ebe0a93089b949c3b8892e02f5ef6dac934",
    "table3": "41603c056cf37322e33943121ec9c970962495f3a2b6f7d293b12516bf859322",
    "table4": "9d1deb09bfa88b1c9c83b3bf02607f2fb8a6540fda3b2645539f00ab1501fe05",
    "table5": "f715a00abbb77f08f1956a71a2c57ae35f8e5fa5439a5d49b9637e1067f30b46",
}


def test_infinite_cell_reads_inf():
    assert _fmt(float("inf")) == "inf"


def test_negative_infinite_cell_keeps_its_sign():
    assert _fmt(float("-inf")) == "-inf"


class TestDeterminism:
    def test_default_config_csv_digests(self, tmp_path):
        paths = run_bench(BenchConfig(), tmp_path)
        digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
        assert digests == DEFAULT_CSV_SHA256

    def test_cli_without_config_runs_the_default(self, tmp_path, capsys):
        assert main(["bench", "--out-dir", str(tmp_path)]) == 0
        names = sorted(DEFAULT_CSV_SHA256)
        assert capsys.readouterr() == (
            "".join(f"{name}: {tmp_path / name}.csv\n" for name in names), ""
        )
        for name in names:
            digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
            assert digest == DEFAULT_CSV_SHA256[name]

    def test_byte_identical_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(first)]) == 0
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(second)]) == 0
        for name in ("table3.csv", "table4.csv", "table5.csv", "fig2.csv", "fig3.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_seed_changes_measurements(self, tmp_path):
        cfg = BenchConfig.from_json(json.dumps(SMALL_CONFIG))
        run_bench(cfg, tmp_path / "a")
        cfg.seed = cfg.seed + 1
        run_bench(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "table4.csv").read_text()
        b = (tmp_path / "b" / "table4.csv").read_text()
        assert a != b


class TestConfig:
    def test_bad_fill_rejected(self):
        with pytest.raises(BenchConfigError):
            BenchConfig.from_json(json.dumps({"fill": 0.0}))

    def test_bad_json_rejected(self):
        with pytest.raises(BenchConfigError):
            BenchConfig.from_json("{nope")

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(BenchConfigError):
            BenchConfig.from_json(json.dumps({"schemes": []}))

    def test_cli_exit_on_bad_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fill": 2.0}))
        assert main(["bench", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "out")]) == 2

    def test_flat_cover_build(self):
        img = build_cover({"kind": "flat", "width": 8, "height": 4, "value": 200})
        assert img.size == 32
        assert int(img.pixels[0]) == 200

    def test_unknown_cover_kind(self):
        with pytest.raises(BenchConfigError):
            build_cover({"kind": "gradient"})

    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            {"schemes": [{"params": {}}]},
            {"fill": "x"},
            {"seed": "x"},
            {"distance_domain": ["a", "b"]},
            {"seeed": 3, "fil": 0.5},
            {"schemes": [{"scheme": "emd", "parms": {"n": 3}}]},
        ],
        ids=[
            "json-array",
            "scheme-without-name",
            "non-numeric-fill",
            "non-integer-seed",
            "non-numeric-domain",
            "misspelt-keys",
            "misspelt-scheme-params",
        ],
    )
    def test_malformed_config_rejected(self, config):
        with pytest.raises(BenchConfigError):
            BenchConfig.from_json(json.dumps(config))

    def test_unknown_keys_are_named(self):
        with pytest.raises(BenchConfigError, match="unknown config key 'seeed'"):
            BenchConfig.from_json(json.dumps({"seeed": 3, "fil": 0.5}))
        with pytest.raises(BenchConfigError, match="unknown scheme entry key 'parms'"):
            BenchConfig.from_json(json.dumps({"schemes": [{"scheme": "emd", "parms": {}}]}))
        with pytest.raises(BenchConfigError, match="unknown cover key 'sede'"):
            build_cover({"kind": "noise", "width": 8, "height": 8, "sede": 3})
        # the bench draws its charts in one setting; bound and distance take others
        chart_settings = {
            "standard_normalization": "mean",
            "proposed_normalization": "mean-per-pixel",
            "distance_mode": "euclidean",
            "distance_domain": [0.0, 3.0],
            "frontier_max_n": 8,
            "frontier_max_z": 4,
        }
        for key, value in chart_settings.items():
            with pytest.raises(BenchConfigError, match=f"unknown config key '{key}'"):
                BenchConfig.from_json(json.dumps({key: value}))

    def test_readme_config_names_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        BenchConfig.from_json(block)
        assert set(json.loads(block)) == set(vars(BenchConfig()))

    @pytest.mark.parametrize(
        "cover",
        [
            {"kind": "flat"},
            {"kind": "flat", "width": 2, "height": 2, "value": 300},
            {"kind": "noise", "width": 0, "height": 4},
            {"kind": "file", "path": "no/such/cover.pgm"},
            {"kind": "noise", "width": 8, "height": 8, "sede": 3},
        ],
        ids=["flat-without-size", "flat-value-300", "empty-noise", "missing-file",
             "misspelt-cover-key"],
    )
    def test_malformed_cover_rejected(self, cover):
        with pytest.raises(BenchConfigError):
            build_cover(cover)

    @pytest.mark.parametrize(
        "config",
        [
            [1, 2],
            {"schemes": [{"params": {}}]},
            {"fill": "x"},
            {"cover": {"kind": "flat"}},
            {"seeed": 3, "fil": 0.5},
            {"schemes": [{"scheme": "emd", "parms": {"n": 3}}]},
            {"cover": {"kind": "noise", "width": 8, "height": 8, "sede": 3}},
            {"standard_normalization": "bogus"},
            {"proposed_normalization": "bogus"},
        ],
        ids=[
            "json-array",
            "scheme-without-name",
            "non-numeric-fill",
            "flat-cover-without-size",
            "misspelt-keys",
            "misspelt-scheme-params",
            "misspelt-cover-key",
            "unknown-standard-normalization",
            "unknown-proposed-normalization",
        ],
    )
    def test_cli_exit_on_malformed_config(self, tmp_path, capsys, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "cover",
        [
            {"kind": "file", "path": "no/such/cover.pgm"},
            {"kind": "flat", "width": 4, "height": 4, "value": 300},
        ],
        ids=["missing-file", "flat-value-300"],
    )
    def test_bad_cover_leaves_no_output_dir(self, tmp_path, capsys, cover):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"cover": cover}))
        out_dir = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if cover["kind"] == "file":
            # the path once, as the CLI names a file it cannot read
            assert err == "error: no/such/cover.pgm: No such file or directory\n"
        assert not out_dir.exists()


# Small JSON only: at most 12 leaves, strings of at most 8 characters, and
# top-level objects that often use BenchConfig's own field names.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_config_objects = st.dictionaries(
    st.sampled_from(sorted(vars(BenchConfig())) + ["scheme", "params"]),
    _json_values,
    max_size=6,
)


class TestConfigFuzz:
    @given(_config_objects | _json_values)
    @settings(max_examples=300)
    def test_only_config_errors(self, raw):
        try:
            BenchConfig.from_json(json.dumps(raw)).validate()
        except ValueError:  # BenchConfigError is one
            pass


# Cover specs for build_cover: objects of one kind's own keys with values of
# their expected types, or of any cover keys with those values or small JSON
# (at most 8 leaves, strings of at most 8 characters). Only a seed or a flat
# value is drawn above 64, so a built cover has at most 64x64 pixels. A string
# path names one of _COVER_FILES, which the test places under a temporary
# directory.
_COVER_FILES = ("cover.pgm", "bad.pgm", "absent.pgm", "subdir")
_small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 64) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_cover_sizes = {"width": st.integers(-2, 64), "height": st.integers(-2, 64)}
_cover_specs = (
    st.fixed_dictionaries({"kind": st.just("file"), "path": st.sampled_from(_COVER_FILES)})
    | st.fixed_dictionaries(
        {"kind": st.just("flat"), **_cover_sizes}, optional={"value": st.integers(-1, 300)}
    )
    | st.fixed_dictionaries(
        {"kind": st.just("noise"), **_cover_sizes},
        optional={"seed": st.integers(-(2**70), 2**70)},
    )
) | st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(("flat", "noise", "file")) | _small_json,
        "width": st.integers(-2, 64) | _small_json,
        "height": st.integers(-2, 64) | _small_json,
        "value": st.integers(-1, 300) | _small_json,
        "seed": st.integers(-(2**70), 2**70) | _small_json,
        "path": st.sampled_from(_COVER_FILES)
        | _small_json.filter(lambda v: not isinstance(v, str)),
        "note": _small_json,
    },
)


@pytest.fixture(scope="module")
def cover_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("covers")
    (root / "cover.pgm").write_bytes(save_pgm(GrayImage.flat(8, 4, 9)))
    (root / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
    (root / "subdir").mkdir()
    return root


class TestCoverFuzz:
    @given(_cover_specs)
    @settings(max_examples=300)
    def test_only_config_errors(self, cover_files, spec):
        if isinstance(spec.get("path"), str):
            spec["path"] = str(cover_files / spec["path"])
        try:
            cover = build_cover(spec)
        except BenchConfigError:
            return
        except PgmError:
            # a file that is not a PGM is a data error, as load_pgm reports it
            assert spec["path"] == str(cover_files / "bad.pgm")
            return
        event(f"built a {spec['kind']} cover")
        assert 1 <= cover.width <= 64 and 1 <= cover.height <= 64
