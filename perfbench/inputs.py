"""Seeded inputs of one benchmark workload: a network file and a query list.

Run as ``python3 perfbench/inputs.py --workload W --seed N --size S --out DIR``.
It writes ``DIR/network.json`` and ``DIR/inputs.json``.  Nothing here is
timed: the measuring process only reads these files.

Every workload uses the same network, ``GenConfig(rows=50, cols=50,
score_density=0.2, seed=101)``; ``--seed`` chooses the queries.  Queries
depart uniformly inside the rush windows with a 30 % overhead.  A
source-destination pair is drawn by grid distance (a uniform source, a
uniform distance, a random direction), so a short query costs one
``build_query`` to derive instead of rejection sampling over the whole
grid.  A pair is rejected only for its budget, never for how the solver
handles it.

Long queries come from the committed catalogue ``long_queries.json``
(see ``catalogue.py``), which holds queries chosen by their sequential
label count alone.  A seed draws one query from each of ``long_count``
equal slices of the catalogue sorted by label count, so that every seed
gets a similar spread of long queries and run-to-run spread stays low.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wayscore.datagen import DEFAULT_WINDOWS, GenConfig, generate_network  # noqa: E402
from wayscore.network import load_network, save_network  # noqa: E402
from wayscore.solver import solve  # noqa: E402
from wayscore.traversal import build_query  # noqa: E402

WORKLOADS = ("short-seq", "long-seq", "par-mixed", "cli-cold")
CATALOGUE = Path(__file__).resolve().parent / "long_queries.json"
OVERHEAD_PCT = 30.0
NETWORK_SEED = 101
# Attempts allowed per wanted query before the generator gives up; the
# budget windows below accept a large share of draws, so hitting this means
# the size settings no longer fit the grid.
MAX_ATTEMPTS_PER_QUERY = 2000

Pair = namedtuple("Pair", "source destination t_dep")


@dataclass(frozen=True)
class Size:
    grid: int
    short_count: int
    short_distance: tuple[int, int]
    short_budget: tuple[float, float]
    long_count: int
    long_distance: tuple[int, int]
    long_budget: tuple[float, float]
    long_labels: tuple[int, int]  # catalogue band of sequential label counts
    cli_count: int
    shorts_per_long: int


SIZES = {
    # The measured sizes: see perfbench/README.md for why.
    "full": Size(
        grid=50,
        short_count=300,
        short_distance=(2, 12),
        short_budget=(0.0, 4.0),
        long_count=12,
        long_distance=(10, 28),
        long_budget=(6.5, 9.0),
        long_labels=(500_000, 1_000_000),
        cli_count=8,
        shorts_per_long=5,
    ),
    # A few seconds end to end, for the benchmark's own tests.
    "tiny": Size(
        grid=12,
        short_count=12,
        short_distance=(1, 6),
        short_budget=(0.0, 4.0),
        long_count=2,
        long_distance=(8, 22),
        long_budget=(4.0, 9.0),
        long_labels=(500, 50_000),
        cli_count=2,
        shorts_per_long=2,
    ),
}


def answer_record(result) -> list:
    """The checked form of a solve: [status, PathResult.to_json() or None, explored]."""
    path = result.path.to_json() if result.path is not None else None
    return [result.status, path, result.explored]


def _departure(rng: random.Random) -> float:
    spans = [w.end - w.start for w in DEFAULT_WINDOWS]
    offset = rng.uniform(0.0, sum(spans))
    for window, span in zip(DEFAULT_WINDOWS, spans):
        if offset < span:
            return window.start + offset
        offset -= span
    return DEFAULT_WINDOWS[-1].end


def sample_query(net, grid: int, rng: random.Random, distance, budget):
    """One query whose pair lies ``distance`` grid steps apart and whose budget fits."""
    for _ in range(MAX_ATTEMPTS_PER_QUERY):
        source = rng.randrange(grid * grid)
        row, col = divmod(source, grid)
        d = rng.randint(*distance)
        d_row = rng.randint(0, d)
        row2 = row + rng.choice((-1, 1)) * d_row
        col2 = col + rng.choice((-1, 1)) * (d - d_row)
        t_dep = _departure(rng)
        if not (0 <= row2 < grid and 0 <= col2 < grid):
            continue
        query = build_query(
            net, source, row2 * grid + col2, t_dep, overhead_percent=OVERHEAD_PCT
        )
        if budget[0] <= query.budget < budget[1]:
            return query
    raise RuntimeError(f"no query with distance {distance} and budget {budget}")


def _entry(query, kind: str, reference=None) -> dict:
    return {
        "kind": kind,
        "source": query.source,
        "destination": query.destination,
        "t_dep": query.t_dep,
        "reference": reference,
    }


def short_queries(net, size: Size, seed: int, count: int) -> list:
    rng = random.Random(f"{seed}/short")
    return [
        sample_query(net, size.grid, rng, size.short_distance, size.short_budget)
        for _ in range(count)
    ]


def long_queries(size_name: str, seed: int) -> list:
    """One catalogue query from each equal slice of the catalogue, in random order."""
    catalogue = json.loads(CATALOGUE.read_text())[size_name]
    count = SIZES[size_name].long_count
    rng = random.Random(f"{seed}/long")
    picked = []
    for k in range(count):
        stratum = catalogue[k * len(catalogue) // count:(k + 1) * len(catalogue) // count]
        picked.append(rng.choice(stratum))
    rng.shuffle(picked)
    return [Pair(q["source"], q["destination"], q["t_dep"]) for q in picked]


def make_network(size: Size, path: Path):
    """Write the workload network file and return the network as loaded from it."""
    config = GenConfig(rows=size.grid, cols=size.grid, score_density=0.2, seed=NETWORK_SEED)
    save_network(generate_network(config).network, str(path))
    # Queries and reference answers are derived on the network as the
    # file holds it: saving rounds times to six decimals.
    return load_network(str(path))


def build_inputs(workload: str, seed: int, size_name: str, out: Path) -> dict:
    size = SIZES[size_name]
    network_file = out / "network.json"
    net = make_network(size, network_file)
    # The warm-up query has a stream of its own, so the timed queries do
    # not depend on it.
    warmup = sample_query(net, size.grid, random.Random(f"{seed}/warmup"),
                          size.short_distance, size.short_budget)
    if workload == "short-seq":
        queries = [_entry(q, "short") for q in short_queries(net, size, seed, size.short_count)]
    elif workload == "cli-cold":
        queries = [_entry(q, "short") for q in short_queries(net, size, seed, size.cli_count)]
    elif workload == "long-seq":
        queries = [_entry(q, "long") for q in long_queries(size_name, seed)]
    elif workload == "par-mixed":
        # Sequential answers, which the parallel solves must reproduce.
        def entry(q, kind):
            query = build_query(net, q.source, q.destination, q.t_dep,
                                overhead_percent=OVERHEAD_PCT)
            return _entry(q, kind, answer_record(solve(net, query)))

        longs = long_queries(size_name, seed)
        shorts = short_queries(net, size, seed, size.shorts_per_long * len(longs))
        queries = []
        for i, query in enumerate(longs):
            group = shorts[i * size.shorts_per_long:(i + 1) * size.shorts_per_long]
            queries += [entry(q, "short") for q in group]
            queries.append(entry(query, "long"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "network": str(network_file),
        "overhead_pct": OVERHEAD_PCT,
        "warmup": _entry(warmup, "short"),
        "queries": queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    doc = build_inputs(args.workload, args.seed, args.size, args.out)
    with open(args.out / "inputs.json", "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
