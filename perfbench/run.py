"""The wayscore benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload short-seq --seed 1 --seconds 25 --trace 0

It generates the workload's inputs from ``--seed`` in one process,
measures them in another, checks every answer, and prints a readable
report followed by one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones.  perfbench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("short-seq", "long-seq", "par-mixed", "cli-cold")
DEFAULT_SEED = 1
EXPECTED = HERE / "expected.json"
# A run must end within three minutes; the stages share what is left.
RUN_DEADLINE_S = 175.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "network.load_ms": "ms",
    "traversal.build_query_ms": "ms",
    "traversal.latest_departures_ms": "ms",
    "solver.prep_ms": "ms",
    "solver.search_ms": "ms",
    "solver.verify_ms": "ms",
    "solver.labels": "count",
    "solver.labels_per_s": "1/s",
    "profiles.arrival_calls": "count",
    "profiles.arrival_useful_ratio": "1",
    "profiles.latest_departure_calls": "count",
    "solver.parallel_overhead_ms": "ms",
    "solver.parallel_speedup_min": "x",
    "solver.parallel_speedup_median": "x",
    "solver.parallel_speedup_max": "x",
    "cli.overhead_ms": "ms",
    "trace.slowdown": "x",
}
TRACE_NOTES = (
    "counts come from one sequential solve per query in this process; "
    "forked parallel workers count in their own memory, which is lost",
    "solver.prep_ms is an outside estimate: solve(max_expansions=0) minus its "
    "latest_departures span, until the solver reports its own spans",
    "trace.slowdown is the traced time per query over the untraced one",
)


def _spin(n: int) -> int:
    x = 0
    for i in range(n):
        x += i * i % 7
    return x


def two_process_throughput(n: int = 2_000_000) -> float:
    """Combined rate of two CPU-bound processes over one, on this host."""
    t0 = time.perf_counter()
    _spin(n)
    single = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=_spin, args=(n,)) for _ in range(2)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return 2.0 * single / (time.perf_counter() - t0)


def host_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "two_process_throughput": round(two_process_throughput(), 3),
    }


def _stage(script: str, args: list, deadline: float) -> None:
    cmd = [sys.executable, str(HERE / script)] + [str(a) for a in args]
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()),
                   stdout=subprocess.DEVNULL)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, host: dict, result: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {result['samples']} timed queries, "
          f"{result['passes']} whole passes over {len(result['digests'])}, "
          f"closed loop, one client")
    print(f"host: nproc={host['nproc']} python={host['python']} two-process "
          f"throughput={host['two_process_throughput']}x one process (recorded, not gated)")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {_fmt(value):>14s} {units[name]}")
    if not args.trace:
        p95 = result["query_p95_ms"]
        p95_text = (f"{_fmt(p95):>14s} ms ({result['samples']} samples)" if p95 is not None
                    else f"{'-':>14s} ms (not reported: {result['samples']} samples < 200)")
        print(f"  {'query_p95_ms':34s} {p95_text}")
        ratio = result["failed"] / result["attempted"]
        print(f"  {'failed_ratio':34s} {_fmt(ratio):>14s} 1 "
              f"({result['failed']} of {result['attempted']})")
    else:
        for note in TRACE_NOTES:
            print(f"note: {note}")
    checked = ("matches the committed digests" if result["digest_checked"] and not result["failed"]
               else "checked against the committed digests" if result["digest_checked"]
               else "no committed digests for this seed and size")
    print(f"answers: {len(result['digests'])} distinct queries, {checked}")


def write_expected(path: Path, key: str, digests: list) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = {"queries": digests}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="committed answer digests (default: %(default)s)")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this run's answer digests instead of checking them")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "wayscore" / "__init__.py").is_file():
        print(f"perfbench: no wayscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = host_record()
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        work = Path(tmp)
        try:
            _stage("inputs.py", ["--workload", args.workload, "--seed", args.seed,
                                 "--size", args.size, "--out", work], deadline)
            measure_args = ["--inputs", work / "inputs.json", "--seconds", args.seconds,
                            "--trace", args.trace, "--result", work / "result.json"]
            if not args.write_expected:
                measure_args += ["--expected", args.expected]
            _stage("measure.py", measure_args, deadline)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    if args.write_expected:
        write_expected(args.expected, f"{args.size}/{args.workload}/{args.seed}",
                       result["digests"])
    report(args, host, result)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
