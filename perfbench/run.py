"""emdsteg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stego-2048 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The run starts fresh worker processes one
after another (a closed loop with one caller, no threads): at least
MIN_SAMPLES, and more while another is expected to end within --seconds.
Each sets the workload up from the seed and times one pass over it.  Every metric is printed by name with
its unit; the last line is one JSON object.  With --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics,
measured on traced samples that alternate with untraced ones.  Any failed op
or output check makes the exit code 1.  --smoke shrinks every workload to a
tiny size.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 3
SETUP_SAMPLES = 9  # set-ups per run; samples beyond the timed ones stop after set-up
DEADLINE_S = 170  # a run ends within this, whatever --seconds says
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def summarize(values: list[float]) -> tuple[float, str]:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    median = statistics.median(values)
    tail = [p for p in (90, 99, 99.9) if len(values) * (100 - p) / 100 >= 10]
    if not tail:
        return median, f"median of {len(values)}"
    p = tail[-1]
    cut = statistics.quantiles(values, n=1000)[int(p * 10) - 1]
    return median, f"median of {len(values)}, p{p:g} {cut:.6g}"


def read_first(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_first(str(index / "level"))
        kind = read_first(str(index / "type"))
        caches[f"L{level} {kind}"] = read_first(str(index / "size"))
    head = read_first(str(ROOT / ".git" / "HEAD"))
    if head.startswith("ref: "):
        head = read_first(str(ROOT / ".git" / head[5:]))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "commit": head,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_worker(args, workdir: Path, timeout: float, *extra: str) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned", repr(time.monotonic())]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workdir.name} timed out", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: {workdir.name} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "emdsteg").is_dir() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/emdsteg and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # inherited by the workers before they load numpy
        os.environ[var] = "1"
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    trace_dir = ROOT / ".perfbench_trace"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    samples, traced, setups, durations = [], [], [], []
    start = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    def another_fits() -> bool:
        elapsed = time.monotonic() - start
        return elapsed + statistics.median(durations) <= args.seconds

    try:
        while len(durations) < MIN_SAMPLES or another_fits():
            index = len(durations)
            began = time.monotonic()
            extra = []
            if args.trace and index % 2:
                extra = ["--spans-out", str(trace_dir / f"{args.workload}-seed{args.seed}-{index}.jsonl")]
            sample = run_worker(args, run_dir / f"sample{index}", remaining(), *extra)
            if sample is None:
                return 1
            (traced if extra else samples).append(sample)
            durations.append(time.monotonic() - began)
        for index in range(len(samples), SETUP_SAMPLES):
            setup = run_worker(args, run_dir / f"setup{index}", remaining(), "--setup-only")
            if setup is None:
                return 1
            setups.append(setup["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if run_dir.parent.is_dir() and not any(run_dir.parent.iterdir()):
            run_dir.parent.rmdir()

    everything = samples + traced
    attempted = sum(s["ops"] + s["checks"] for s in everything)
    failed = sum(s["failed_ops"] + s["failed_checks"] for s in everything)

    env = environment()
    print(f"env: {json.dumps(env)}")
    if args.workload == "stego-2048" and not args.smoke:
        print("sizes: stego-2048 cover 2048x2048 = 4 MiB as uint8, 32 MiB as int64; "
              f"fits the last-level cache ({env['caches'].get('L3 Unified', 'unknown')}), "
              "so this is not a DRAM-bandwidth measurement")

    values = {name: [s[name] for s in samples] for name in ("setup_s", "wall_s", "peak_rss_mib")}
    values["setup_s"] += setups
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if all("stages" in s for s in samples):
        for name, (_, unit) in samples[0]["stages"].items():
            values[name] = [s["stages"][name][0] for s in samples]
            units[name] = unit
    metrics = {}
    for name, series in values.items():
        median, note = summarize(series)
        print(f"metric {name} = {median!r} {units[name]} ({note})")
        metrics[name] = {"value": median, "unit": units[name]}
    print(f"metric failed_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} ops and checks)")

    wanted = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        overhead = statistics.median(s["wall_s"] for s in traced) - metrics["wall_s"]["value"]
        print(f"trace overhead: {overhead!r} s per pass (traced minus untraced wall_s median), "
              f"spans in {trace_dir.relative_to(ROOT)}/")
        wanted = [m["name"] for m in spec["per_layer"]]
        for name in wanted:
            median, note = summarize([s["layers"][name] for s in traced])
            print(f"layer {name} = {median!r} {units[name]} ({note})")
            metrics[name] = {"value": median, "unit": units[name]}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
