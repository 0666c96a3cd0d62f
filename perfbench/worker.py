"""One benchmark sample: set up a workload, time one pass over it, check outputs.

run.py starts this script as a fresh process for every sample, with the
BLAS/OpenMP thread pools pinned to one thread, so setup_s covers interpreter
start, imports, input generation and the PGM/config writes, and no cache or
RSS high-water mark carries over between samples.
With --spans-out the pass is traced.  The last line on stdout is one JSON
object with the sample's timings.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        --spawned MONOTONIC [--smoke] [--setup-only | --spans-out FILE]
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from emdsteg import bench, bound, cli, image, metrics, schemes  # noqa: E402

from tracer import Tracer  # noqa: E402

EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


# ---------------------------------------------------------------------------
# input generation: the benchmark's own SplitMix64, vectorized


def splitmix_bytes(seed: int, count: int) -> bytes:
    """First count bytes of the SplitMix64 stream, words big-endian."""
    words = np.arange(1, -(-count // 8) + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed % 2**64) + words * np.uint64(_GAMMA)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return x.astype(">u8").tobytes()[:count]


def subseed(seed: int, tag: int) -> int:
    """A 63-bit seed for one input, derived from the workload seed."""
    return int.from_bytes(splitmix_bytes(seed * 4096 + tag, 8), "big") >> 1


def packed_message(seed: int, nbits: int) -> bytes:
    """What `emdsteg extract` writes for `embed --random-bits nbits --seed seed`."""
    data = bytearray(splitmix_bytes(seed, -(-nbits // 8)))
    if nbits % 8:
        data[-1] &= (0xFF << (8 - nbits % 8)) & 0xFF
    return bytes(data)


def message_bits(seed: int, nbits: int) -> list[int]:
    raw = np.frombuffer(splitmix_bytes(seed, -(-nbits // 8)), dtype=np.uint8)
    return np.unpackbits(raw)[:nbits].tolist()


def noise_pixels(seed: int, side: int) -> np.ndarray:
    return np.frombuffer(splitmix_bytes(seed, side * side), dtype=np.uint8)


def write_pgm(path: Path, pixels: np.ndarray, side: int) -> None:
    path.write_bytes(f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes())


def read_pgm_pixels(path: Path, side: int) -> np.ndarray:
    return np.frombuffer(path.read_bytes()[-side * side :], dtype=np.uint8)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scheme_flags(params: dict) -> list[str]:
    return [arg for key, value in params.items() for arg in (f"--{key}", str(value))]


def reset_caches() -> None:
    """Clear every functools cache in emdsteg, as a fresh CLI process would have."""
    for module in (bench, bound, cli, image, metrics, schemes):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# ---------------------------------------------------------------------------
# workloads: __init__ is set-up, run_pass is timed op by op, check is not timed


class Workload:
    """A pass is a fixed list of ops; each op is timed and may fail.

    Subclasses set up in __init__, run the ops in run_pass, yield
    (name, passed) output checks from check, and derive their stage
    metrics, as name -> (value, unit), from the op times in stage_metrics.
    """

    def __init__(self, seed: int, expected: dict) -> None:
        self.seed = seed
        self.expected = expected  # digests and row counts recorded at DEFAULT_SEED
        self.ops = 0
        self.failed_ops = 0
        self.tracer = None

    def op(self, stage: str, times: dict, fn, *args, **kwargs):
        """Run one timed op; a raised error or nonzero exit code counts as failed."""
        self.ops += 1
        if self.tracer:
            self.tracer.op_id = self.ops
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            result = None
        times.setdefault(stage, []).append(time.perf_counter() - start)
        if result is None or (isinstance(result, int) and result != 0):
            self.failed_ops += 1
            print(f"perfbench: {stage} op failed ({result!r})", file=sys.stderr)
        return result

    def check_digest(self, name: str, data: bytes, seedless: bool = False):
        """Compare with the recorded digest: at DEFAULT_SEED, or always if seedless."""
        digest = sha256(data)
        if seedless or self.seed == DEFAULT_SEED:
            yield f"{name} digest {digest}", self.expected.get("digest", {}).get(name) == digest

    def check_rows(self, name: str, data: bytes):
        rows = data.count(b"\n")
        yield f"{name} rows {rows}", self.expected.get("rows", {}).get(name) == rows


class Stego2048(Workload):
    """`emdsteg embed` then `extract` at full capacity, one scheme per strategy."""

    # (scheme, params, group size, bits per group, per-pixel change cap)
    SCHEMES = (
        ("emd", {"n": 2}, 2, 2, 1),
        ("gemd", {"n": 3}, 3, 4, 1),
        ("twoemd", {"n": 2}, 4, 4, 1),
        ("aemd", {"n": 4, "m": 4}, 4, 8, 2),
    )

    def __init__(self, seed, smoke, workdir, expected):
        super().__init__(seed, expected)
        self.side = 64 if smoke else 2048
        self.cover = noise_pixels(subseed(seed, 0), self.side)
        self.cover_path = workdir / "cover.pgm"
        write_pgm(self.cover_path, self.cover, self.side)
        self.jobs = []
        for index, (name, params, group, width, cap) in enumerate(self.SCHEMES):
            nbits = self.side * self.side // group * width
            msg_seed = subseed(seed, 1 + index)
            self.jobs.append(
                {
                    "key": f"{name}:{params}",
                    "flags": ["--scheme", name, *scheme_flags(params)],
                    "nbits": nbits,
                    "msg_seed": msg_seed,
                    "expected": packed_message(msg_seed, nbits),
                    "cap": cap,
                    "stego": workdir / f"stego{index}.pgm",
                    "message": workdir / f"message{index}.bin",
                }
            )

    def run_pass(self, times):
        for job in self.jobs:
            self.op("embed", times, cli.main, [
                "embed", *job["flags"], "--cover", str(self.cover_path),
                "--random-bits", str(job["nbits"]), "--seed", str(job["msg_seed"]),
                "--out", str(job["stego"]),
            ])
            self.op("extract", times, cli.main, [
                "extract", *job["flags"], "--stego", str(job["stego"]),
                "--bits", str(job["nbits"]), "--out", str(job["message"]),
            ])

    def check(self):
        for job in self.jobs:
            yield f"{job['key']} message", job["message"].read_bytes() == job["expected"]
            cap = job["cap"]
            clamped = np.clip(self.cover, cap, 255 - cap).astype(np.int16)
            stego = read_pgm_pixels(job["stego"], self.side).astype(np.int16)
            yield f"{job['key']} change cap", int(np.abs(stego - clamped).max()) <= cap
            yield from self.check_digest(f"stego {job['key']}", job["stego"].read_bytes())

    def stage_metrics(self, times):
        mpix = self.side * self.side / 1e6 * len(self.jobs)
        return {
            "embed_mpix_s": (mpix / sum(times["embed"]), "Mpixel/s"),
            "extract_mpix_s": (mpix / sum(times["extract"]), "Mpixel/s"),
        }


class TableBuild(Workload):
    """Build each scheme's table, its exact distortion, and a 256² round trip."""

    # (scheme, params, group size, bits per group)
    SCHEMES = (
        ("gemd", {"n": 10}, 10, 11),
        ("gemd", {"n": 12}, 12, 13),
        ("aemd", {"n": 8, "m": 4}, 8, 16),
        ("egemd", {"n": 8}, 8, 10),
    )
    SMOKE_SCHEMES = (
        ("gemd", {"n": 4}, 4, 5),
        ("aemd", {"n": 2, "m": 4}, 2, 4),
        ("egemd", {"n": 4}, 4, 6),
    )

    def __init__(self, seed, smoke, workdir, expected):
        super().__init__(seed, expected)
        side = 64 if smoke else 256
        cover = image.GrayImage(side, side, noise_pixels(subseed(seed, 0), side))
        self.jobs = []
        for index, (name, params, group, width) in enumerate(
            self.SMOKE_SCHEMES if smoke else self.SCHEMES
        ):
            nbits = side * side // group * width
            self.jobs.append(
                {
                    "key": f"{name}:{params}",
                    "name": name,
                    "params": params,
                    "cover": cover,
                    "bits": message_bits(subseed(seed, 1 + index), nbits),
                }
            )

    def run_pass(self, times):
        for job in self.jobs:
            spec = self.op("build", times, schemes.make_scheme, job["name"], **job["params"])
            if spec is None:
                continue
            job["distortion"] = self.op("distortion", times, metrics.theoretical_distortion, spec)
            embedded = self.op("embed", times, schemes.embed_message, job["cover"], spec, job["bits"])
            if embedded is None:
                continue
            job["spec"] = spec
            job["extracted"] = self.op(
                "extract", times, schemes.extract_message, embedded[0], spec, len(job["bits"])
            )

    def check(self):
        for job in self.jobs:
            yield f"{job['key']} round trip", job.get("extracted") == job["bits"]
            if "spec" in job:
                yield from self.check_digest(f"tables {job['key']}", table_json(job["spec"]), seedless=True)
                yield from self.check_digest(
                    f"distortion {job['key']}", repr(job["distortion"]).encode(), seedless=True
                )

    def stage_metrics(self, times):
        return {"build_s": (sum(times["build"]), "s")}


def table_json(spec) -> bytes:
    """The solver/embed tables of a scheme and its sub-schemes, as JSON."""
    def tables(s):
        return [s.solver_table, s.embed_table, [tables(sub) for sub in s.sub_specs]]

    return json.dumps(tables(spec)).encode()


class PaperReport(Workload):
    """`emdsteg bench` over a few covers and seeds, then both bound frontiers."""

    BENCH_SCHEMES = (
        ("emd", {"n": 2}), ("emd", {"n": 3}), ("iemd", {}), ("pva", {"t": 2}),
        ("femd", {"t": 2}), ("de", {"k": 1}), ("de", {"k": 2}), ("mpemd", {"n": 2}),
        ("emd2", {"n": 2}), ("twoemd", {"n": 2}), ("gemd", {"n": 2}), ("gemd", {"n": 3}),
        ("egemd", {"n": 4}), ("mbe", {"n": 2, "k": 1}), ("mbe", {"n": 3, "k": 1}),
        ("msd", {"n": 3}), ("hemd", {"n": 3, "w": 3}), ("aemd", {"n": 2, "m": 4}),
    )
    CSVS = ("table3", "table4", "table5", "fig2", "fig3")

    def __init__(self, seed, smoke, workdir, expected):
        super().__init__(seed, expected)
        side = 64 if smoke else 256
        self.runs = []
        for index in range(1 if smoke else 3):
            cover_path = workdir / f"cover{index}.pgm"
            write_pgm(cover_path, noise_pixels(subseed(seed, 2 * index), side), side)
            config = {
                "schemes": [{"scheme": n, "params": p} for n, p in self.BENCH_SCHEMES],
                "cover": {"kind": "file", "path": str(cover_path)},
                "seed": subseed(seed, 2 * index + 1),
                "fill": 1.0,
            }
            config_path = workdir / f"config{index}.json"
            config_path.write_text(json.dumps(config, indent=2))
            self.runs.append((config_path, workdir / f"bench{index}"))
        max_n, max_z = (6, 3) if smoke else (30, 10)
        self.frontiers = [
            (metric, ["--max-n", str(max_n), "--max-z", str(max_z)], workdir / f"frontier-{metric}.csv")
            for metric in (bound.METRIC_STANDARD, bound.METRIC_PROPOSED)
        ]

    def run_pass(self, times):
        for config_path, out_dir in self.runs:
            reset_caches()
            self.op("report", times, cli.main, [
                "bench", "--config", str(config_path), "--out-dir", str(out_dir),
            ])
        for metric, ranges, out in self.frontiers:
            reset_caches()
            self.op("frontier", times, cli.main, [
                "bound", "--frontier", *ranges, "--metric", metric, "--out", str(out),
            ])

    def check(self):
        for index, (_, out_dir) in enumerate(self.runs):
            for name in self.CSVS:
                data = (out_dir / f"{name}.csv").read_bytes()
                yield from self.check_digest(f"bench{index} {name}", data)
                yield from self.check_rows(name, data)
        for metric, _, out in self.frontiers:
            yield from self.check_digest(f"frontier {metric}", out.read_bytes(), seedless=True)

    def stage_metrics(self, times):
        return {
            "report_s": (float(np.median(times["report"])), "s"),
            "frontier_s": (float(np.median(times["frontier"])), "s"),
        }


WORKLOADS = {"stego-2048": Stego2048, "table-build": TableBuild, "paper-report": PaperReport}


def run_checks(workload: Workload) -> list[tuple[str, bool]]:
    """Evaluate the workload's checks; one that raises fails and ends the list."""
    results = []
    try:
        results.extend(workload.check())
    except Exception:
        traceback.print_exc()
        results.append(("check raised", False))
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--spans-out", help="trace the pass and write its spans here as JSON lines")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        recorded = json.loads(EXPECTED.read_text())["smoke" if args.smoke else "full"]
        expected = recorded.get(args.workload, {})
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir, expected)
        reset_caches()
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        times: dict = {}
        tracer = workload.tracer = Tracer() if args.spans_out else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            workload.run_pass(times)
        finally:
            wall_s = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        checks = run_checks(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sample = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": wall_s,
        "ops": workload.ops,
        "failed_ops": workload.failed_ops,
        "checks": len(checks),
        "failed_checks": sum(1 for _, ok in checks if not ok),
    }
    if tracer:
        sample["layers"] = tracer.layer_metrics()
        with open(args.spans_out, "w") as fh:
            for name, begin, end, parent, op in tracer.spans:
                fh.write(json.dumps({"name": name, "start": begin, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    elif workload.failed_ops == 0:
        sample["stages"] = workload.stage_metrics(times)
    for name, ok in checks:
        if not ok:
            print(f"perfbench: check failed: {args.workload} {name}", file=sys.stderr)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
