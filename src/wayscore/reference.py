"""Reference algorithms for validating the solver.

Everything here trades speed for transparency:

* :func:`best_path_by_enumeration` -- enumerate every loopless
  source-destination path and keep the best feasible one.  This is the
  ground truth the solver is compared against; it shares nothing with the
  solver except the edge profile evaluators and the result record.
* :func:`best_score_with_dominance` -- a deliberately unsound variant that
  prunes labels dominated on (arrival, score).  Dominance pruning is valid
  for cost minimization but not for loopless score maximization: a slower,
  lower-scoring label may still win because it has burned fewer nodes.  It
  exists so tests can demonstrate the gap.
* :func:`random_instance` / :func:`validate_solver` -- seeded random
  (network, query) generation and the solver-vs-oracle comparison harness.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .network import Edge, RoadNetwork, build_network, to_document
from .profiles import TIME_EPS, ArrivalProfile, ScoreProfile
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_OK,
    Constraint,
    PathResult,
    SolveResult,
    solve,
)
from .traversal import Query, build_query, earliest_arrival

ORACLE_NODE_LIMIT = 14


def best_path_by_enumeration(
    net: RoadNetwork, query: Query, constraints: Sequence[Constraint] = ()
) -> SolveResult:
    """Exhaustive ground truth for small networks (<= 14 nodes).

    Enumerates all loopless paths with no pruning whatsoever, propagating
    times in the traveller's frame, and applies the same tie-breaking as
    the solver: max score, then min arrival, then smallest node sequence.
    """
    if net.node_count > ORACLE_NODE_LIMIT:
        raise ValueError(
            f"enumeration oracle refuses networks over {ORACLE_NODE_LIMIT} nodes"
        )
    s, d = query.source, query.destination
    t_arr = query.t_arr
    if s == d:
        path = PathResult((s,), (), (), 0.0, 0.0, query.t_dep)
        return SolveResult(STATUS_OK, path, 0)
    edges = net.edges
    best: Optional[tuple[float, float, tuple[int, ...]]] = None
    best_detail: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None
    path_nodes = [s]
    on_path = {s}
    departures: list[float] = []
    arrivals: list[float] = []

    def visit(u: int, t: float, score: float, extras: tuple[float, ...]) -> None:
        nonlocal best, best_detail
        if u == d:
            if t > t_arr + TIME_EPS:
                return
            if any(
                x > c.budget + TIME_EPS for x, c in zip(extras, constraints)
            ):
                return
            cand = (score, t, tuple(path_nodes))
            if (
                best is None
                or cand[0] > best[0]
                or (cand[0] == best[0] and cand[1] < best[1])
                or (cand[0] == best[0] and cand[1] == best[1] and cand[2] < best[2])
            ):
                best = cand
                best_detail = (tuple(departures), tuple(arrivals))
            return
        for idx in net.out_edges[u]:
            e = edges[idx]
            v = e.head
            if v in on_path:
                continue
            arr = e.arrival.arrival(t)
            on_path.add(v)
            path_nodes.append(v)
            departures.append(t)
            arrivals.append(arr)
            visit(
                v,
                arr,
                score + e.score.value(t),
                tuple(x + c.cost(e, t) for x, c in zip(extras, constraints)),
            )
            arrivals.pop()
            departures.pop()
            path_nodes.pop()
            on_path.discard(v)

    visit(s, query.t_dep, 0.0, (0.0,) * len(constraints))
    if best is None:
        return SolveResult(STATUS_INFEASIBLE, None, 0)
    score, arrival, nodes = best
    deps, arrs = best_detail
    path = PathResult(
        nodes, deps, arrs, score, arrival - query.t_dep, query.t_dep
    )
    return SolveResult(STATUS_OK, path, 0)


def best_score_with_dominance(net: RoadNetwork, query: Query) -> Optional[float]:
    """Best destination score when dominated labels are pruned per node.

    Labels expand in arrival order; a label (t1, s1) is discarded when
    another label (t2, s2) at the same node has t2 < t1 and s2 > s1
    (checked again at expansion time, as label-setting algorithms do).
    For loopless score maximization this is not a safe rule, which is
    precisely what this function demonstrates.
    """
    s, d = query.source, query.destination
    t_arr = query.t_arr
    # (arrival, score) survivors per node; paths ride along for loop checks.
    pareto: dict[int, list[tuple[float, float]]] = {s: [(query.t_dep, 0.0)]}
    counter = 0
    heap: list[tuple[float, float, int, int, frozenset]] = [
        (query.t_dep, 0.0, s, counter, frozenset((s,)))
    ]
    best: Optional[float] = None
    while heap:
        t, neg_score, u, _, on_path = heapq.heappop(heap)
        score = -neg_score
        if any(t2 < t and s2 > score for t2, s2 in pareto.get(u, ())):
            continue
        if u == d:
            if best is None or score > best:
                best = score
            continue
        for idx in net.out_edges[u]:
            e = net.edges[idx]
            v = e.head
            if v in on_path:
                continue
            arr = e.arrival.arrival(t)
            if arr > t_arr + TIME_EPS:
                continue
            sc = score + e.score.value(t)
            existing = pareto.setdefault(v, [])
            if any(t2 < arr and s2 > sc for t2, s2 in existing):
                continue
            existing[:] = [
                (t2, s2) for t2, s2 in existing if not (arr < t2 and sc > s2)
            ]
            existing.append((arr, sc))
            counter += 1
            heapq.heappush(heap, (arr, -sc, v, counter, on_path | {v}))
    return best


# ---------------------------------------------------------------------------
# Random instances and the comparison harness
# ---------------------------------------------------------------------------


def random_network(
    rng: random.Random,
    max_nodes: int = 12,
    max_out_degree: int = 3,
    max_breakpoints: int = 4,
) -> RoadNetwork:
    """A small random network with random piecewise edge profiles."""
    n = rng.randint(4, max_nodes)
    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for u in range(n):
        degree = rng.randint(1, max_out_degree)
        others = [v for v in range(n) if v != u]
        for v in rng.sample(others, min(degree, len(others))):
            if (u, v) in seen:
                continue
            seen.add((u, v))
            k = rng.randint(1, max_breakpoints)
            xs = sorted({round(rng.uniform(0.0, 60.0), 3) for _ in range(k)})
            pairs = []
            prev_y = 0.0
            for x in xs:
                y = max(x + rng.uniform(0.5, 10.0), prev_y)
                pairs.append((x, y))
                prev_y = y
            if rng.random() < 0.5:
                score = ScoreProfile.constant(float(rng.randint(0, 10)))
            else:
                b1 = round(rng.uniform(0.0, 40.0), 3)
                b2 = b1 + round(rng.uniform(1.0, 30.0), 3)
                score = ScoreProfile(
                    (b1, b2),
                    (float(rng.randint(0, 10)),),
                    float(rng.randint(0, 5)),
                )
            edges.append(Edge(u, v, ArrivalProfile(pairs), score))
    return build_network(n, edges)


def random_instance(
    rng: random.Random,
    max_nodes: int = 12,
    max_out_degree: int = 3,
    max_breakpoints: int = 4,
) -> tuple[RoadNetwork, Query]:
    """A random network plus a feasibly-posed query on it."""
    while True:
        net = random_network(rng, max_nodes, max_out_degree, max_breakpoints)
        for _ in range(30):
            s = rng.randrange(net.node_count)
            d = rng.randrange(net.node_count)
            if s == d:
                continue
            t_dep = round(rng.uniform(0.0, 40.0), 3)
            if earliest_arrival(net, s, d, t_dep) is None:
                continue
            if rng.random() < 0.6:
                query = build_query(
                    net, s, d, t_dep, overhead_percent=rng.uniform(5.0, 80.0)
                )
            else:
                query = build_query(
                    net, s, d, t_dep, overhead_minutes=rng.uniform(0.5, 10.0)
                )
            return net, query


@dataclass
class ValidationReport:
    total: int
    agreed: int
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.agreed == self.total


def _instance_dump(net: RoadNetwork, query: Query, got, expected) -> str:
    doc = {
        "network": to_document(net),
        "query": {
            "source": query.source,
            "destination": query.destination,
            "t_dep": query.t_dep,
            "budget": query.budget,
            "t_arr": query.t_arr,
        },
        "solver": {
            "status": got.status,
            "score": got.path.score if got.path else None,
            "nodes": list(got.path.nodes) if got.path else None,
        },
        "oracle": {
            "status": expected.status,
            "score": expected.path.score if expected.path else None,
            "nodes": list(expected.path.nodes) if expected.path else None,
        },
    }
    return json.dumps(doc, indent=1)


def validate_solver(
    instances: int,
    seed: int,
    max_nodes: int = 12,
    max_out_degree: int = 3,
    max_breakpoints: int = 4,
    mode: str = "sequential",
    threads: int = 1,
) -> ValidationReport:
    """Compare the solver against the enumeration oracle on random instances.

    Stops at the first disagreement and records the full instance verbatim.
    """
    rng = random.Random(seed)
    agreed = 0
    for _ in range(instances):
        net, query = random_instance(rng, max_nodes, max_out_degree, max_breakpoints)
        got = solve(net, query, mode=mode, threads=threads)
        expected = best_path_by_enumeration(net, query)
        mismatch = got.status != expected.status
        if not mismatch and got.path is not None:
            mismatch = (
                got.path.score != expected.path.score
                or got.path.nodes != expected.path.nodes
            )
        if mismatch:
            return ValidationReport(
                instances, agreed, _instance_dump(net, query, got, expected)
            )
        agreed += 1
    return ValidationReport(instances, agreed)
