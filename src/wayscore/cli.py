"""Command-line interface.

Subcommands::

    gen-network   build a seeded synthetic network file
    gen-queries   sample a benchmark query set into a CSV
    query         answer one routing query against a network file
    bench         run a query CSV and emit aggregate rows
    validate      cross-check the solver against the enumeration oracle

Exit codes: 0 success, 1 usage error, 2 data error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .network import NetworkError, load_network, save_network
from .reference import ORACLE_NODE_LIMIT
from .solver import STATUS_OK, solve
from .traversal import Query, QueryError, build_query

# bench imports numpy, and datagen takes about 6 ms to import (its
# dataclasses; its generators import numpy when called): both take longer
# than a short query takes to answer, so only the commands that use them
# import them.


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this project uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    """Bad argument values detected after parsing."""


def _grid_type(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        grid = (int(rows), int(cols))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}")
    if grid[0] < 1 or grid[1] < 1 or grid[0] * grid[1] < 2:
        raise argparse.ArgumentTypeError(f"grid {text!r} too small")
    return grid


def _density_type(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"density must be in (0, 1], got {text}")
    return value


def _threads_type(text: str) -> list[int]:
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or N,M,..., got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"thread counts must be >= 1: {text!r}")
    return values


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type: an int of at least ``low`` and at most ``high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value

    return parse


def _thread_count(text: str) -> int:
    values = _threads_type(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"expected one thread count, got {text!r}")
    return values[0]


def _add_overhead_flags(parser, with_budget: bool = False, required: bool = True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--overhead-abs", type=float, metavar="M",
        help="overhead in minutes on top of the fastest travel time",
    )
    group.add_argument(
        "--overhead-pct", type=float, metavar="P",
        help="overhead as a percentage of the fastest travel time",
    )
    if with_budget:
        group.add_argument(
            "--budget", type=float, metavar="B", help="total budget in minutes"
        )
    return group


def build_parser() -> _Parser:
    parser = _Parser(prog="wayscore", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-network", help="build a synthetic network file")
    topo = p.add_mutually_exclusive_group()
    topo.add_argument("--grid", type=_grid_type, default=(20, 20), metavar="RxC")
    topo.add_argument("--base", metavar="FILE",
                      help="reuse an existing network's topology and lengths")
    p.add_argument("--density", type=_density_type, default=0.2,
                   help="fraction of edges carrying positive score")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-length", type=float, default=100.0, metavar="METERS")
    p.add_argument("--speed-min", type=float, default=250.0, metavar="M_PER_MIN")
    p.add_argument("--speed-max", type=float, default=400.0, metavar="M_PER_MIN")
    p.add_argument("--score-min", type=int, default=0)
    p.add_argument("--score-max", type=int, default=15)
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("gen-queries", help="sample benchmark queries into a CSV")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200, help="queries per budget set")
    p.add_argument("--attempt-cap", type=int, default=None)
    _add_overhead_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("query", help="answer one routing query")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--from", dest="source", required=True, metavar="NODE")
    p.add_argument("--to", dest="destination", required=True, metavar="NODE")
    p.add_argument("--depart", type=float, required=True, metavar="MINUTES")
    _add_overhead_flags(p, with_budget=True)
    p.add_argument("--threads", type=_thread_count, default=1)
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--max-expansions", type=int, default=None, metavar="K")

    p = sub.add_parser("bench", help="run a query CSV and emit aggregate rows")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--queries", required=True, metavar="FILE")
    p.add_argument("--threads", type=_threads_type, default=[1],
                   help="comma-separated worker counts, e.g. 1,4")
    p.add_argument("--no-pruning", action="store_true")
    p.add_argument("--max-expansions", type=int, default=None, metavar="K")
    p.add_argument("--out", default=None, metavar="FILE", help="default: stdout")

    p = sub.add_parser("validate", help="cross-check solver vs. enumeration oracle")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    # random_network draws at least 4 nodes, and the oracle takes at most
    # ORACLE_NODE_LIMIT, with at most ORACLE_NODE_LIMIT - 1 out-edges each.  A
    # breakpoint count needs no upper bound: 1000 takes under a second.
    p.add_argument("--max-nodes", type=_int_in(4, ORACLE_NODE_LIMIT), default=12)
    p.add_argument("--out-degree", type=_int_in(1, ORACLE_NODE_LIMIT - 1), default=3,
                   help="the oracle walks every loopless path, so near the full "
                        "degree it takes long: --instances 30 --max-nodes 14 "
                        "--out-degree 13 takes about 45 s")
    p.add_argument("--max-breakpoints", type=_int_in(1), default=4)
    p.add_argument("--threads", type=_thread_count, default=1)
    return parser


def _cmd_gen_network(args) -> int:
    from .datagen import GenConfig, generate_network

    rows, cols = args.grid
    config = GenConfig(
        rows=rows,
        cols=cols,
        edge_length_m=args.edge_length,
        speed_range=(args.speed_min, args.speed_max),
        score_density=args.density,
        score_range=(args.score_min, args.score_max),
        seed=args.seed,
        base=load_network(args.base) if args.base else None,
    )
    result = generate_network(config)
    save_network(result.network, args.out)
    net = result.network
    print(
        f"wrote {args.out}: {net.node_count} nodes, {len(net.heads)} edges, "
        f"{len(result.scored_edges)} scored"
    )
    return 0


def _cmd_gen_queries(args) -> int:
    from .datagen import generate_query_sets, write_queries_csv

    net = load_network(args.graph)
    records = generate_query_sets(
        net,
        seed=args.seed,
        count_per_set=args.count,
        overhead_percent=args.overhead_pct,
        overhead_minutes=args.overhead_abs,
        attempt_cap=args.attempt_cap,
    )
    write_queries_csv(records, args.out)
    print(f"wrote {args.out}: {len(records)} queries")
    return 0


def _cmd_query(args) -> int:
    net = load_network(args.graph)
    try:
        source = net.resolve_node(args.source)
        destination = net.resolve_node(args.destination)
    except NetworkError as exc:
        raise UsageError(str(exc)) from exc
    if args.budget is not None:
        query = Query.from_budget(source, destination, args.depart, args.budget)
    else:
        query = build_query(
            net,
            source,
            destination,
            args.depart,
            overhead_minutes=args.overhead_abs,
            overhead_percent=args.overhead_pct,
        )
    result = solve(
        net,
        query,
        mode="parallel" if args.threads > 1 else "sequential",
        threads=args.threads,
        pruning=not args.no_pruning,
        max_expansions=args.max_expansions,
    )
    if result.status != STATUS_OK:
        print(result.status)
        return 0
    path = result.path
    print(
        json.dumps(
            {
                "nodes": [net.node_name(n) for n in path.nodes],
                "node_ids": list(path.nodes),
                "departures": list(path.departures),
                "arrivals": list(path.arrivals),
                "score": path.score,
                "travel_time": path.travel_time,
                "budget": query.budget,
            }
        )
    )
    return 0


def _cmd_bench(args) -> int:
    from .bench import run_bench, write_bench_csv
    from .datagen import read_queries_csv

    net = load_network(args.graph)
    records = read_queries_csv(args.queries)
    rows = run_bench(
        net,
        records,
        threads_list=args.threads,
        pruning=not args.no_pruning,
        max_expansions=args.max_expansions,
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_bench_csv(rows, fh)
    else:
        write_bench_csv(rows, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    from .reference import validate_solver

    if args.instances <= 0:
        print("warning: zero instances requested; vacuous pass", file=sys.stderr)
        print("0/0 agree")
        return 0
    report = validate_solver(
        args.instances,
        seed=args.seed,
        max_nodes=args.max_nodes,
        max_out_degree=args.out_degree,
        max_breakpoints=args.max_breakpoints,
        mode="parallel" if args.threads > 1 else "sequential",
        threads=args.threads,
    )
    if report.ok:
        print(f"{report.agreed}/{report.total} agree")
        return 0
    print(f"{report.agreed}/{report.total} agreed before first mismatch")
    print(report.counterexample)
    return 3


_COMMANDS = {
    "gen-network": _cmd_gen_network,
    "gen-queries": _cmd_gen_queries,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "validate": _cmd_validate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"wayscore: error: {exc}", file=sys.stderr)
        return 1
    except (NetworkError, QueryError, OSError, *_datagen_errors()) as exc:
        print(f"wayscore: {exc}", file=sys.stderr)
        return 2


def _datagen_errors() -> tuple:
    """datagen's data errors, once a command has imported datagen: until
    then none of them can have been raised.  ``main`` evaluates this only
    when an error reaches it."""
    datagen = sys.modules.get(f"{__package__}.datagen")
    if datagen is None:
        return ()
    return datagen.ConfigError, datagen.SamplingExhausted


if __name__ == "__main__":
    sys.exit(main())
