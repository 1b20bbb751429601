"""Build the committed catalogue of long queries, ``perfbench/long_queries.json``.

Run as ``python3 perfbench/catalogue.py --size full --count 33`` from the
root of the repository.  It is not part of a benchmark run, and it is
rerun only as a change to the benchmark.

Candidates are drawn like every other query (by grid distance, with a
budget inside the long window) from a fixed stream, and solved
sequentially with ``max_expansions`` at the top of the label band.  A
candidate that finishes with at least the bottom of the band joins the
catalogue with its label count.  So long queries are chosen by their
sequential label count alone, once, on the code that built the catalogue:
a change to the solver cannot change which queries the benchmark runs,
and a run pays no probing cost.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

from inputs import CATALOGUE, SIZES, make_network, sample_query
from wayscore.solver import STATUS_OK, solve


def build(size_name: str, count: int) -> list[dict]:
    size = SIZES[size_name]
    low, high = size.long_labels
    rng = random.Random("catalogue")
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        net = make_network(size, Path(tmp) / "network.json")
        while len(found) < count:
            query = sample_query(net, size.grid, rng, size.long_distance, size.long_budget)
            result = solve(net, query, max_expansions=high)
            if result.status == STATUS_OK and result.explored >= low:
                found.append({"source": query.source, "destination": query.destination,
                              "t_dep": query.t_dep, "labels": result.explored})
                print(f"{len(found)}/{count}: {result.explored} labels", file=sys.stderr)
    return sorted(found, key=lambda q: q["labels"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    doc = json.loads(CATALOGUE.read_text()) if CATALOGUE.exists() else {}
    doc[args.size] = build(args.size, args.count)
    CATALOGUE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
