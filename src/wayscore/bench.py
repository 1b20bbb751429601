"""Benchmark harness: run query sets against a network, aggregate to CSV.

One output row per (query set, thread count).  Wall time is measured
around :func:`wayscore.solver.solve` only, which includes the backward
bound computation (it is part of answering a query) but excludes file
loading.  The first parallel query at a new worker count (the thread
count, capped at the cores) pays the worker start-up inside that window
too; the workers then stay alive for the next queries at that count.  A
query whose search ends within the solver's in-process probe
(``solver._PROBE_LABELS``) is answered without the workers; a larger one
pays the probe and the task dispatch on top of its split search.  Averages
cover feasible queries only; queries that came back infeasible or hit the
expansion cap are tallied in the ``infeasible`` column.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .datagen import QueryRecord
from .network import RoadNetwork
from .solver import STATUS_OK, solve

BENCH_CSV_FIELDS = (
    "set",
    "threads",
    "pruning",
    "avg_score",
    "avg_runtime_s",
    "infeasible",
    "explored_mean",
    "explored_p95",
)


@dataclass(frozen=True)
class BenchRow:
    set_tag: str
    threads: int
    pruning: bool
    avg_score: float
    avg_runtime_s: float
    infeasible: int
    explored_mean: float
    explored_p95: float
    queries: int

    def as_csv(self) -> list:
        return [
            self.set_tag,
            self.threads,
            "on" if self.pruning else "off",
            repr(self.avg_score),
            repr(self.avg_runtime_s),
            self.infeasible,
            repr(self.explored_mean),
            repr(self.explored_p95),
        ]


def run_bench(
    net: RoadNetwork,
    records: Sequence[QueryRecord],
    threads_list: Sequence[int] = (1,),
    pruning: bool = True,
    max_expansions: Optional[int] = None,
) -> list[BenchRow]:
    """Solve every query once per thread count and aggregate per set.

    Queries run one after another; any parallelism lives inside solve(),
    so thread-count effects in the output are attributable to the solver.
    """
    by_set: dict[int, list[QueryRecord]] = {}
    for rec in records:
        by_set.setdefault(rec.set_index, []).append(rec)
    rows: list[BenchRow] = []
    for set_index in sorted(by_set):
        group = by_set[set_index]
        for threads in threads_list:
            mode = "parallel" if threads > 1 else "sequential"
            scores: list[float] = []
            runtimes: list[float] = []
            explored: list[int] = []
            infeasible = 0
            for rec in group:
                query = rec.to_query()
                t0 = time.perf_counter()
                result = solve(
                    net,
                    query,
                    mode=mode,
                    threads=threads,
                    pruning=pruning,
                    max_expansions=max_expansions,
                )
                elapsed = time.perf_counter() - t0
                if result.status == STATUS_OK:
                    scores.append(result.path.score)
                    runtimes.append(elapsed)
                    explored.append(result.explored)
                else:
                    infeasible += 1
            if scores:
                row = BenchRow(
                    f"set-{set_index}",
                    threads,
                    pruning,
                    float(np.mean(scores)),
                    float(np.mean(runtimes)),
                    infeasible,
                    float(np.mean(explored)),
                    float(np.percentile(explored, 95)),
                    len(group),
                )
            else:
                nan = float("nan")
                row = BenchRow(
                    f"set-{set_index}", threads, pruning,
                    nan, nan, infeasible, nan, nan, len(group),
                )
            rows.append(row)
    return rows


def write_bench_csv(rows: Sequence[BenchRow], fh: TextIO) -> None:
    writer = csv.writer(fh)
    writer.writerow(BENCH_CSV_FIELDS)
    for row in rows:
        writer.writerow(row.as_csv())
