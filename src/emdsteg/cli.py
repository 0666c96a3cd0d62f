"""Command-line harness.

Subcommands: embed, extract, analyze, bound, bench, fit, distance.
Exit codes: 0 on success, 2 for usage/config/capacity problems, 3 for I/O
and malformed-data problems.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bound as bound_mod
from . import metrics
from .bench import BenchConfig, BenchConfigError, run_bench
from .image import GrayImage, PgmError, load_pgm, save_pgm
from .metrics import DimensionMismatch
from .rng import seeded_bytes
from .schemes import SchemeSpec, _check_capacity, embed_bytes, extract_bytes, make_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3

_PARAM_FLAGS = ("n", "t", "k", "w", "m", "key", "n1", "wbase")


class CliDataError(Exception):
    """I/O or malformed input; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads negative e-notation values (-1e-3) and
    -inf, -infinity and -nan (any case) as numbers.

    argparse takes an argument for a value only if it looks like a negative
    number, and its own pattern has no exponent or non-finite names, so
    "--domain -1e1 3" would read -1e1 as an option and "--x -inf" would miss
    the finiteness check. No option of this CLI looks like a number, and
    subparsers are made with the parent's class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
        )


def _add_scheme_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", required=True, help="scheme token, e.g. emd")
    for flag in _PARAM_FLAGS:
        parser.add_argument(f"--{flag}", type=int, default=None)


def _scheme_from_args(args: argparse.Namespace):
    params = {
        flag: getattr(args, flag)
        for flag in _PARAM_FLAGS
        if getattr(args, flag) is not None
    }
    return make_scheme(args.scheme, **params)


def _parse_synthetic(token: str) -> tuple[int, int, int]:
    """(width, height, value) of a WxH:V token; the cover builders check the ranges."""
    match = re.fullmatch(r"(\d+)x(\d+):(\d+)", token)
    if not match:
        raise ValueError(f"--synthetic wants WxH:V, got {token!r}")
    return tuple(int(g) for g in match.groups())


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliDataError(f"cannot read {path}: {exc}") from None


def _read_text(path: str, error: type[Exception] = CliDataError) -> str:
    """The file as text in the locale's encoding, with universal newlines.

    Undecodable text raises error, so a config file can make it a usage error.
    """
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliDataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: undecodable text: {exc}") from None


def _read_image(path: str) -> GrayImage:
    try:
        return load_pgm(_read(path))
    except PgmError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _message(
    args: argparse.Namespace, cover: GrayImage, spec: SchemeSpec
) -> tuple[bytes, int, int | None]:
    """(packed bytes, bit length, seed or None) of the message to embed.

    Random bits are drawn only once their count fits the capacity.
    """
    if args.message is not None:
        data = _read(args.message)
        return data, 8 * len(data), None
    seed = 0 if args.seed is None else args.seed
    _check_capacity(cover, spec, args.random_bits)
    data = seeded_bytes(seed, -(-args.random_bits // 8))
    return data, args.random_bits, seed


def _write_bytes(path: str, data: bytes | np.ndarray) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise CliDataError(f"cannot write {path}: {exc}") from None


def _cmd_embed(args: argparse.Namespace) -> int:
    # every usage error before the first file is read
    spec = _scheme_from_args(args)
    if not (args.synthetic or args.cover):
        raise ValueError("need --cover PATH or --synthetic WxH:V")
    if args.synthetic and args.cover:
        raise ValueError("give --cover PATH or --synthetic WxH:V, not both")
    if args.message is not None and args.random_bits is not None:
        raise ValueError("give --message PATH or --random-bits N, not both")
    if args.message is None:
        if args.random_bits is None:
            raise ValueError("need --message PATH or --random-bits N")
        if args.random_bits < 0:
            raise ValueError("--random-bits must be >= 0")
    elif args.seed is not None:
        raise ValueError("give --seed only with --random-bits")
    if args.synthetic:
        cover = GrayImage.flat(*_parse_synthetic(args.synthetic))
    else:
        cover = _read_image(args.cover)
    data, bit_length, seed = _message(args, cover, spec)
    stego, _ = embed_bytes(cover, spec, data, bit_length)
    _write_bytes(args.out, save_pgm(stego))
    sidecar = {
        "scheme": spec.id,
        "params": dict(sorted(spec.params.items())),
        "bit_length": bit_length,
        "seed": seed,
    }
    _write_bytes(args.out + ".json", (json.dumps(sidecar, indent=2) + "\n").encode())
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    spec = _scheme_from_args(args)
    if args.bits < 0:
        raise ValueError("--bits must be >= 0")
    stego = _read_image(args.stego)
    _check_capacity(stego, spec, args.bits)
    try:
        data = extract_bytes(stego, spec, args.bits)
    except ValueError as exc:
        # the bit count fits, so the image holds a group that decodes to no symbol
        raise CliDataError(f"{args.stego}: {exc}") from None
    _write_bytes(args.out, data)
    return EXIT_OK


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _scheme_from_args(args)
    domain = bound_mod.check_domain(args.domain)
    cover = _read_image(args.cover)
    stego = _read_image(args.stego)
    poly = _read_poly(args.bound_poly) if args.bound_poly else None
    report = metrics.analyze_pair(cover, stego, spec)
    record = report.to_record()
    if poly is not None and report.efficiency_proposed is not None:
        record["distance"] = bound_mod.distance_to_curve(
            poly,
            (report.alpha, report.efficiency_proposed),
            args.mode,
            domain,
        )
    record = {key: _json_value(val) for key, val in record.items()}
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.max_n < 1 or args.max_z < 1:
        raise ValueError("--max-n and --max-z must be >= 1")
    ns = range(1, args.max_n + 1)
    zs = range(1, args.max_z + 1)
    # every range error is raised here, before the file is opened
    if args.frontier:
        rows = bound_mod.frontier(ns, zs, args.metric, args.normalization)
    else:
        rows = bound_mod.sweep(ns, zs, args.normalization)
    eff_at = bound_mod.EFFICIENCY_SLOT[args.metric]
    tail = f",{args.metric},{args.normalization}\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("n,z,q,f_M,f_rho_lin,f_rho_sq,alpha,inv_alpha,eff,metric,normalization\n")
            for n, z, q, states, lin, sq, values in rows:
                # a degenerate query (no values) leaves its three float cells empty
                floats = ",,"
                if values is not None:
                    floats = f"{values[0]:.10g},{values[1]:.10g},{values[eff_at]:.10g}"
                fh.write(f"{n},{z},{q},{states},{lin},{sq},{floats}{tail}")
    except OSError as exc:
        raise CliDataError(f"cannot write {args.out}: {exc}") from None
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.config:
        cfg = BenchConfig.from_json(_read_text(args.config, BenchConfigError))
    else:
        cfg = BenchConfig()
    try:
        paths = run_bench(cfg, args.out_dir)
    except OSError as exc:
        # the cover was read by then, so this is the output directory or a CSV
        raise CliDataError(f"cannot write to {args.out_dir}: {exc}") from None
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def _read_poly(path: str) -> bound_mod.CubicPoly:
    text = _read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliDataError(f"{path}: not valid JSON: {exc}") from None
    try:
        coeffs = [float(raw[name]) for name in ("c3", "c2", "c1", "c0")]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliDataError(f"{path}: bad polynomial record: {exc}") from None
    # json reads NaN and Infinity, which no curve can use
    if not all(math.isfinite(c) for c in coeffs):
        raise CliDataError(f"{path}: polynomial coefficients must be finite")
    return bound_mod.CubicPoly(*coeffs)


def _read_points_csv(path: str) -> list[tuple[float, float]]:
    lines = enumerate(_read_text(path).splitlines(), 1)
    rows = [(number, line) for number, line in lines if line.strip()]
    points = []
    for index, (number, line) in enumerate(rows):
        parts = [p.strip() for p in line.replace(";", ",").split(",") if p.strip()]
        try:
            point = (float(parts[0]), float(parts[1]))
        except (IndexError, ValueError):
            if index == 0:
                continue  # header line
            raise CliDataError(
                f"{path}:{number}: row {line.strip()!r} needs two numeric fields"
            ) from None
        if not all(math.isfinite(v) for v in point):
            raise CliDataError(f"{path}:{number}: point {line.strip()!r} is not finite")
        points.append(point)
    return points


def _cmd_fit(args: argparse.Namespace) -> int:
    points = _read_points_csv(args.points)
    poly = bound_mod.cubic_fit(points)
    record = {**asdict(poly), "residual": bound_mod.fit_residual(poly, points)}
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _cmd_distance(args: argparse.Namespace) -> int:
    domain = bound_mod.check_domain(args.domain)
    if args.eq43 and args.poly:
        raise ValueError("give --poly PATH or --eq43, not both")
    if args.eq43:
        poly = bound_mod.REFERENCE_BOUND_POLY
    elif args.poly:
        poly = _read_poly(args.poly)
    else:
        raise ValueError("need --poly PATH or --eq43")
    value = bound_mod.distance_to_curve(poly, (args.x, args.y), args.mode, domain)
    print(f"{value:.12g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emdsteg",
        description="EMD-family steganography workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a message into a PGM cover")
    _add_scheme_flags(p)
    p.add_argument("--cover", help="cover PGM path")
    p.add_argument("--synthetic", help="flat synthetic cover WxH:V")
    p.add_argument("--message", help="message file (bytes)")
    p.add_argument("--random-bits", type=int, default=None, help="seeded random bits")
    p.add_argument("--seed", type=int, default=None, help="seed of --random-bits (0)")
    p.add_argument("--out", required=True, help="stego PGM path")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="extract bits from a stego PGM")
    _add_scheme_flags(p)
    p.add_argument("--stego", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--out", required=True, help="packed-bit output path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("analyze", help="metrics for a cover/stego pair")
    _add_scheme_flags(p)
    p.add_argument("--cover", required=True)
    p.add_argument("--stego", required=True)
    p.add_argument("--bound-poly", help="polynomial JSON for distance")
    p.add_argument(
        "--mode", choices=bound_mod.DISTANCE_MODES, default=bound_mod.DISTANCE_MODES[0]
    )
    p.add_argument("--domain", type=float, nargs=2, default=(0.0, 3.0))
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", help="state-count table or frontier CSV")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-z", type=int, required=True)
    p.add_argument(
        "--metric",
        choices=bound_mod.METRICS,
        default=bound_mod.METRIC_PROPOSED,
    )
    p.add_argument(
        "--normalization",
        choices=bound_mod.NORMALIZATIONS,
        default=bound_mod.NORM_MEAN_PER_PIXEL,
    )
    p.add_argument("--frontier", action="store_true", help="emit the envelope only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("bench", help="comparison tables and chart data")
    p.add_argument("--config", help="BenchConfig JSON path")
    p.add_argument("--out-dir", default="bench_out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fit", help="least-squares cubic through CSV points")
    p.add_argument("--points", required=True, help="CSV of x,y rows")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("distance", help="point-to-curve distance")
    p.add_argument("--poly", help="polynomial JSON path")
    p.add_argument("--eq43", action="store_true", help="use the reference bound curve")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument(
        "--mode", choices=bound_mod.DISTANCE_MODES, default=bound_mod.DISTANCE_MODES[0]
    )
    p.add_argument("--domain", type=float, nargs=2, default=(0.0, 3.0))
    p.set_defaults(func=_cmd_distance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (PgmError, DimensionMismatch, CliDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # the size came from a flag or a config, so it is a usage error
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
