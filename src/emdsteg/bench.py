"""Benchmark harness: run the scheme registry, merge in reported values.

One run produces five CSVs in the output directory:

  table3.csv  payload vs standard efficiency (bits per change unit)
  table4.csv  payload vs proposed efficiency (bits per RMSE unit)
  table5.csv  payload vs distance from the reference bound curve
  fig2.csv    chart points (inverse payload, standard efficiency) + frontier
  fig3.csv    chart points (inverse payload, proposed efficiency) + frontier

Rows never mix computed and reported values; reported rows that have a
computed counterpart carry the quoted-minus-computed delta in a dedicated
column. Output is byte-identical for a fixed config and seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bound, metrics, reported
from .image import GrayImage, PgmError, load_pgm
from .rng import seeded_bytes
from .schemes import SchemeSpec, embed_bytes, make_scheme, operational_capacity

DEFAULT_SCHEMES: tuple[tuple[str, dict], ...] = (
    ("emd", {"n": 2}),
    ("emd", {"n": 3}),
    ("iemd", {}),
    ("pva", {"t": 2}),
    ("femd", {"t": 2}),
    ("de", {"k": 1}),
    ("de", {"k": 2}),
    ("mpemd", {"n": 2}),
    ("emd2", {"n": 2}),
    ("twoemd", {"n": 2}),
    ("gemd", {"n": 2}),
    ("gemd", {"n": 3}),
    ("egemd", {"n": 4}),
    ("mbe", {"n": 2, "k": 1}),
    ("mbe", {"n": 3, "k": 1}),
    ("msd", {"n": 3}),
    ("hemd", {"n": 3, "w": 3}),
    ("aemd", {"n": 2, "m": 4}),
)


class BenchConfigError(ValueError):
    pass


@dataclass
class BenchConfig:
    schemes: list[tuple[str, dict]] = field(
        default_factory=lambda: [(name, dict(p)) for name, p in DEFAULT_SCHEMES]
    )
    # Cover spec: a kind and the keys _COVER_KEYS lists for it
    cover: dict = field(
        default_factory=lambda: {
            "kind": "noise",
            "width": 256,
            "height": 256,
            "seed": 7,
        }
    )
    seed: int = 42
    fill: float = 1.0

    def validate(self) -> None:
        if not self.schemes:
            raise BenchConfigError("config lists no schemes")
        if not 0.0 < self.fill <= 1.0:
            raise BenchConfigError(f"fill {self.fill} outside (0, 1]")

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BenchConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise BenchConfigError("config is not a JSON object")
        cfg = cls()
        _reject_unknown("config", raw, vars(cfg))
        # a field accepts the JSON type of its default value
        for key, default in vars(cfg).items():
            if key in raw:
                setattr(cfg, key, _checked(key, raw[key], _JSON_TYPES[type(default)]))
        if "schemes" in raw:
            cfg.schemes = [_scheme_entry(entry) for entry in cfg.schemes]
        cfg.validate()
        return cfg


_JSON_TYPES = {list: list, dict: dict, int: int, float: (int, float)}


def _checked(what: str, value, types):
    """Return value if it has one of the JSON types; a bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise BenchConfigError(f"bad or missing {what}: {value!r}")
    return value


def _reject_unknown(what: str, raw: dict, known) -> None:
    for key in raw:
        if key not in known:
            raise BenchConfigError(f"unknown {what} key {key!r}")


def _scheme_entry(entry) -> tuple[str, dict]:
    entry = _checked("scheme entry", entry, dict)
    _reject_unknown("scheme entry", entry, ("scheme", "params"))
    return _checked("scheme", entry.get("scheme"), str), dict(
        _checked("params", entry.get("params", {}), dict)
    )


def noise_image(width: int, height: int, seed: int) -> GrayImage:
    """Deterministic full-range noise cover from the seeded byte stream.

    width and height must be positive; the stream's bytes are adopted as the
    raster without a copy.
    """
    data = seeded_bytes(seed, width * height)
    return GrayImage._adopt(width, height, np.frombuffer(data, dtype=np.uint8))


# the keys a cover of each kind may hold
_COVER_KEYS = {
    "file": ("kind", "path"),
    "flat": ("kind", "width", "height", "value"),
    "noise": ("kind", "width", "height", "seed"),
}


def build_cover(spec: dict) -> GrayImage:
    """Build the cover a config describes; a missing, mistyped or unknown field raises BenchConfigError."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _COVER_KEYS:
        raise BenchConfigError(f"unknown cover kind {kind!r}")
    _reject_unknown("cover", spec, _COVER_KEYS[kind])
    if kind == "file":
        path = _checked("cover path", spec.get("path"), str)
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise BenchConfigError(f"{path}: {exc.strerror}") from None
        try:
            return load_pgm(data)
        except PgmError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    width, height = (_checked(f"cover {key}", spec.get(key), int) for key in ("width", "height"))
    if width < 1 or height < 1:
        raise BenchConfigError(f"empty cover {width}x{height}")
    if kind == "noise":
        return noise_image(width, height, _checked("cover seed", spec.get("seed", 0), int))
    value = _checked("cover value", spec.get("value"), int)
    if not 0 <= value <= 255:
        raise BenchConfigError(f"flat cover value {value} outside [0, 255]")
    return GrayImage.flat(width, height, value)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


@dataclass
class _ComputedRow:
    spec: SchemeSpec
    report: metrics.MetricsReport
    theoretical_eff_proposed: float
    distance: float | None


def _run_schemes(cfg: BenchConfig, cover: GrayImage) -> list[_ComputedRow]:
    rows = []
    for index, (name, params) in enumerate(cfg.schemes):
        spec = make_scheme(name, **params)
        nbits = int(operational_capacity(cover, spec) * cfg.fill)
        data = seeded_bytes((cfg.seed + index) & ((1 << 64) - 1), -(-nbits // 8))
        stego, _ = embed_bytes(cover, spec, data, nbits)
        report = metrics.analyze_pair(cover, stego, spec)
        theo_eff = metrics.proposed_efficiency(
            report.alpha, metrics.theoretical_distortion(spec).expected_sq_per_pixel
        )
        distance = None
        if report.efficiency_proposed is not None:
            distance = bound.distance_to_curve(
                bound.REFERENCE_BOUND_POLY, (report.alpha, report.efficiency_proposed)
            )
        rows.append(_ComputedRow(spec, report, theo_eff, distance))
    return rows


def _match_computed(
    rows: list[_ComputedRow], quoted: reported.ReportedValue
) -> _ComputedRow | None:
    wanted = dict(quoted.params)
    fallback = None
    for row in rows:
        if row.spec.id != quoted.scheme_id:
            continue
        if fallback is None:
            fallback = row
        if all(row.spec.params.get(k) == v for k, v in wanted.items()):
            return row
    return fallback


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


_TABLE_HEADER = ["scheme", "params", "condition", "alpha", "value", "provenance", "delta_vs_computed"]
_FIGURE_HEADER = ["series", "params", "inv_alpha", "efficiency", "provenance"]

# (csv name, quoted rows, value of a computed row)
_TABLES = (
    ("table3", reported.REPORTED_STANDARD_EFFICIENCY, lambda r: r.report.efficiency_standard),
    ("table4", reported.REPORTED_PROPOSED_EFFICIENCY, lambda r: r.report.efficiency_proposed),
    ("table5", reported.REPORTED_BOUND_DISTANCE, lambda r: r.distance),
)

# (csv name, bound metric, value, quoted rows). Both frontiers take
# frontier's mean-per-pixel normalization, the form fig3's scheme values are
# measured in (alpha / sqrt(per-pixel E[d^2])); the standard efficiency reads
# the same under mean and mean-per-pixel. fig3 plots the exact per-scheme
# expectation rather than one sampled run, so frontier dominance is a
# property of the scheme, not the seed.
_FIGURES = (
    ("fig2", bound.METRIC_STANDARD,
     lambda r: r.report.efficiency_standard, reported.REPORTED_STANDARD_EFFICIENCY),
    ("fig3", bound.METRIC_PROPOSED,
     lambda r: r.theoretical_eff_proposed, reported.REPORTED_PROPOSED_EFFICIENCY),
)


def run_bench(cfg: BenchConfig, out_dir: str | Path) -> dict[str, Path]:
    """Execute the configured schemes and write the five CSV reports."""
    cfg.validate()
    computed = _run_schemes(cfg, build_cover(cfg.cover))
    # made only now, so a bad cover or scheme leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, quoted_rows, value in _TABLES:
        rows = [
            [r.spec.id, r.report.to_record()["params"], "", r.report.alpha, value(r), "computed", None]
            for r in computed
        ]
        for q in quoted_rows:
            match = _match_computed(computed, q)
            reference = None if match is None else value(match)
            delta = None if reference is None else q.value - reference
            rows.append([q.scheme_id, "", q.condition, q.alpha, q.value, "reported", delta])
        paths[name] = _write_csv(out / f"{name}.csv", _TABLE_HEADER, rows)
    for name, metric, value, quoted_rows in _FIGURES:
        rows = [
            [r.spec.id, r.report.to_record()["params"], 1.0 / r.report.alpha, value(r), "computed"]
            for r in computed
            if value(r) is not None
        ]
        rows += [
            [q.scheme_id, q.condition, 1.0 / q.alpha, q.value, "reported"] for q in quoted_rows
        ]
        eff_at = bound.EFFICIENCY_SLOT[metric]
        rows += [
            ["bound", "", values[1], values[eff_at], "computed"]
            for *_, values in bound.frontier(range(1, 9), range(1, 5), metric)
        ]
        paths[name] = _write_csv(out / f"{name}.csv", _FIGURE_HEADER, rows)
    return paths
