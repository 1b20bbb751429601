"""Run one workload against wayscore's public API, time it and check every answer.

Run as ``python3 perfbench/measure.py --inputs FILE --seconds S --trace 0|1
--expected FILE --result FILE``; ``perfbench/run.py`` does this in a
process of its own, so that generating the inputs leaves no trace in this
process's memory, heap or timings.

The timed loop is closed, with one client: each query starts when the
previous one has returned.  It cycles through the query list until
``--seconds`` have gone by and every query has run at least once.  With
``--trace 1`` the same loop runs again under the tracer, followed by
probes that give every layer metric on every workload (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wayscore import cli, network, solver, traversal  # noqa: E402
from wayscore.profiles import TIME_EPS  # noqa: E402

from inputs import answer_record  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 5
PARALLEL_THREADS = 2
# Queries per probe kind in the traced run; long queries are always probed.
PROBE_LIMIT = 30
CLI_PROBES = 2
# The highest latency percentile reported is the one with ten samples beyond it.
P95_MIN_SAMPLES = 200


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def expected_key(inputs: dict) -> str:
    return f"{inputs['size']}/{inputs['workload']}/{inputs['seed']}"


def library_runner(mode: str, overhead_pct: float):
    """``build_query`` then ``solve``, as a library user calls them."""
    threads = PARALLEL_THREADS if mode == "parallel" else 1

    def run(net, entry):
        query = traversal.build_query(
            net, entry["source"], entry["destination"], entry["t_dep"],
            overhead_percent=overhead_pct,
        )
        result = solver.solve(net, query, mode=mode, threads=threads)
        return answer_record(result), query.t_arr

    return run


def cli_runner(network_file: str, overhead_pct: float):
    """One in-process ``wayscore query`` call, which loads the network itself.

    The CLI does not print the explored-label count, so its answer record
    holds None there.
    """
    def run(net, entry):
        argv = [
            "query", "--graph", network_file,
            "--from", str(entry["source"]), "--to", str(entry["destination"]),
            "--depart", repr(entry["t_dep"]), "--overhead-pct", repr(overhead_pct),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue().strip()
        if code != 0:
            return [f"exit {code}", None, None], None
        if not text.startswith("{"):
            return [text, None, None], None
        doc = json.loads(text)
        path = solver.PathResult(
            tuple(doc["node_ids"]), tuple(doc["departures"]), tuple(doc["arrivals"]),
            doc["score"], doc["travel_time"], entry["t_dep"],
        )
        return [solver.STATUS_OK, path.to_json(), None], entry["t_dep"] + doc["budget"]

    return run


def same_answer(a, b) -> bool:
    """Equal status and path; explored too unless one side could not see it."""
    return a[:2] == b[:2] and (a[2] is None or b[2] is None or a[2] == b[2])


def check_answer(net, entry, record, deadline) -> str | None:
    """Why an answer is wrong, or None when it holds up."""
    status, path_json, _ = record
    if status != solver.STATUS_OK:
        return f"status {status!r}"
    path = json.loads(path_json)
    nodes = path["nodes"]
    if len(set(nodes)) != len(nodes):
        return f"path repeats a node: {nodes}"
    if nodes[0] != entry["source"] or nodes[-1] != entry["destination"]:
        return f"path {nodes} does not join the query's endpoints"
    if path["arrivals"][-1] > deadline + TIME_EPS:
        return f"arrival {path['arrivals'][-1]} after deadline {deadline}"
    replay = solver.path_from_nodes(net, entry["t_dep"], nodes).to_json()
    if replay != path_json:
        return f"replay {replay} differs from answer {path_json}"
    if entry["reference"] is not None and not same_answer(record, entry["reference"]):
        return f"answer differs from the sequential answer {entry['reference']}"
    return None


@dataclass
class Loop:
    wall: float = 0.0
    passes: int = 0
    latencies: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # (query index, record, deadline)


def set_up(network_file, warmup, run):
    """Load the network and answer the warm-up query; the median of a few tries."""
    times = []
    for _ in range(SETUP_REPEATS):
        net = None  # free the previous try's network outside the timed part
        t0 = time.perf_counter()
        net = network.load_network(network_file)
        run(net, warmup)
        times.append(time.perf_counter() - t0)
    return net, statistics.median(times)


def timed_loop(net, queries, run, seconds, tracer=None) -> Loop:
    """Cycle through the queries until ``seconds`` have passed and one whole
    pass is done; the query in flight always finishes."""
    loop = Loop()
    reported = False
    start = time.perf_counter()
    while loop.passes < 1 or time.perf_counter() - start < seconds:
        i = len(loop.answers) % len(queries)
        if tracer is not None:
            tracer.tag = ("loop", loop.passes, i)
        t0 = time.perf_counter()
        try:
            record, deadline = run(net, queries[i])
        except Exception as exc:  # a failed query counts; the run goes on
            if not reported:
                traceback.print_exc()
                reported = True
            record, deadline = [f"error {exc!r}", None, None], None
        loop.latencies.append(time.perf_counter() - t0)
        loop.answers.append((i, record, deadline))
        loop.passes = len(loop.answers) // len(queries)
    loop.wall = time.perf_counter() - start
    return loop


class Judge:
    """Checks each distinct answer once, and every repeat against the first."""

    def __init__(self, net, queries, expected):
        self.net = net
        self.queries = queries
        self.expected = expected
        self.first: dict[int, list] = {}
        self.problem: dict[int, str | None] = {}
        self.attempted = 0
        self.failed = 0

    def verdict(self, i, record, deadline) -> bool:
        self.attempted += 1
        if i not in self.first:
            self.first[i] = record
            problem = check_answer(self.net, self.queries[i], record, deadline)
            if problem is None and self.expected is not None:
                if i >= len(self.expected) or digest(record) != self.expected[i]:
                    problem = "digest differs from the committed one"
            self.problem[i] = problem
            if problem is not None:
                print(f"perfbench: query {i}: {problem}", file=sys.stderr)
            good = problem is None
        else:
            good = self.problem[i] is None and same_answer(record, self.first[i])
            if self.problem[i] is None and not good:
                print(f"perfbench: query {i}: answer changed between calls",
                      file=sys.stderr)
        self.failed += not good
        return good

    def loop(self, loop: Loop) -> int:
        """Judge a timed loop; returns the number of correct answers."""
        return sum(self.verdict(i, rec, deadline) for i, rec, deadline in loop.answers)

    def digests(self) -> list[str]:
        return [digest(self.first[i]) for i in sorted(self.first)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children (forked
    solver workers), in MB; copy-on-write pages shared with a worker count twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe(tracer, judge, net, queries, overhead_pct, other, via_cli):
    """Traced calls that give every layer metric on every workload.

    * ``solve(max_expansions=0)``: bounds and search preparation only;
    * the other mode (parallel for sequential workloads and the reverse),
      which must reproduce the loop's answer;
    * the CLI on the first queries, which must reproduce it too.
    """
    shorts = [i for i, q in enumerate(queries) if q["kind"] == "short"][:PROBE_LIMIT]
    longs = [i for i, q in enumerate(queries) if q["kind"] == "long"]
    for i in (shorts + longs)[:PROBE_LIMIT]:
        tracer.tag = ("prep", 0, i)
        entry = queries[i]
        query = traversal.build_query(net, entry["source"], entry["destination"],
                                      entry["t_dep"], overhead_percent=overhead_pct)
        solver.solve(net, query, mode="sequential", max_expansions=0)
    for phase, run, indices in (
        ("other", other, sorted(shorts + longs)),
        ("cli", via_cli, list(range(min(CLI_PROBES, len(queries))))),
    ):
        for i in indices:
            tracer.tag = (phase, 0, i)
            record, _ = run(net, queries[i])
            judge.attempted += 1
            if not same_answer(record, judge.first[i]):
                judge.failed += 1
                print(f"perfbench: query {i}: {phase} probe answered {record}, "
                      f"loop answered {judge.first[i]}", file=sys.stderr)


def measure(inputs: dict, seconds: float, trace: bool, expected) -> dict:
    queries = inputs["queries"]
    pct = inputs["overhead_pct"]
    workload = inputs["workload"]
    mode = "parallel" if workload == "par-mixed" else "sequential"
    library = library_runner(mode, pct)
    other = library_runner("sequential" if mode == "parallel" else "parallel", pct)
    via_cli = cli_runner(inputs["network"], pct)
    run = via_cli if workload == "cli-cold" else library

    def set_up_and_loop(tracer=None):
        if tracer is not None:
            tracer.tag = ("setup", 0, -1)
        net, setup_s = set_up(inputs["network"], inputs["warmup"], run)
        if run is via_cli:
            # Each CLI call loads its own network. Holding another one here
            # would make every collection during those loads scan it too.
            net = None
        return net, setup_s, timed_loop(net, queries, run, seconds, tracer)

    net, setup_s, loop = set_up_and_loop()
    rss = peak_rss_mb()
    if net is None:
        net = network.load_network(inputs["network"])
    judge = Judge(net, queries, expected)
    correct = judge.loop(loop)
    lat = loop.latencies
    result = {
        "passes": loop.passes,
        "samples": len(lat),
        "query_p95_ms": (1e3 * statistics.quantiles(lat, n=20)[18]
                         if len(lat) >= P95_MIN_SAMPLES else None),
        "digests": judge.digests(),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": setup_s,
            "queries_per_s": correct / loop.wall,
            "query_p50_ms": 1e3 * statistics.median(lat),
            "peak_rss_mb": rss,
        }
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = set_up_and_loop(tracer)[2]
            probe(tracer, judge, net, queries, pct, other, via_cli)
        finally:
            tracer.uninstall()
        judge.loop(traced)
        metrics = layer_metrics(tracer.spans, [q["kind"] for q in queries])
        metrics["trace.slowdown"] = ((traced.wall / len(traced.latencies))
                                     / (loop.wall / len(loop.latencies)))
        result["metrics"] = metrics
    result["attempted"] = judge.attempted
    result["failed"] = judge.failed
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=None,
                        help="committed answer digests; checked when they cover this run")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    expected = None
    if args.expected is not None:
        with open(args.expected) as fh:
            entry = json.load(fh).get(expected_key(inputs))
        if entry is not None:
            expected = entry["queries"]
    result = measure(inputs, args.seconds, bool(args.trace), expected)
    result["digest_checked"] = expected is not None
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
