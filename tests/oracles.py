"""Oracles that only the tests use.

* :func:`minsum_solve` -- the classic label-setting algorithm for static
  budget-constrained distance minimization, with its per-node Pareto sets
  exposed.
* :func:`latest_departure_by_enumeration` -- per-node latest feasible
  departure via path enumeration plus bisection on the departure time.
* :func:`witness_path` -- the node sequence behind a latest-departure
  label's recorded witness edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from wayscore.network import Edge, RoadNetwork
from wayscore.profiles import TIME_EPS
from wayscore.traversal import DepartureBounds, QueryError


# ---------------------------------------------------------------------------
# Static budget-constrained distance minimization (label setting)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MinsumLabel:
    node: int
    travel_time: float
    distance: float
    pred: Optional["MinsumLabel"]
    alive: bool = True


@dataclass
class MinsumResult:
    distance: float
    travel_time: float
    path: list[int]
    pareto: dict[int, list[tuple[float, float]]]


def _dominates(t1: float, d1: float, t2: float, d2: float) -> bool:
    """Whether label 2 makes label 1 redundant: strictly worse in both."""
    return t1 > t2 and d1 > d2


def minsum_solve(
    node_count: int,
    edges: Sequence[tuple[int, int, float, float]],
    source: int,
    destination: int,
    time_budget: float,
) -> Optional[MinsumResult]:
    """Min-distance path within a travel-time budget on static weights.

    ``edges`` are ``(tail, head, distance, travel_time)`` with positive
    weights.  Labels carry (travel_time, distance); a new label enters a
    node's list only if no existing label strictly beats it on both, and
    labels it strictly beats are retired.  The answer is the destination
    label with minimum distance, ties broken by minimum travel time.
    Returns None when no path fits the budget.
    """
    out: list[list[tuple[int, float, float]]] = [[] for _ in range(node_count)]
    for u, v, dist, tt in edges:
        out[u].append((v, float(dist), float(tt)))
    start = MinsumLabel(source, 0.0, 0.0, None)
    sets: dict[int, list[MinsumLabel]] = {source: [start]}
    counter = 0  # heap tie-breaker; keeps ordering deterministic
    heap: list[tuple[float, float, int, int, MinsumLabel]] = [
        (0.0, 0.0, source, counter, start)
    ]
    while heap:
        t, dist, u, _, label = heapq.heappop(heap)
        if not label.alive:
            continue
        for v, edge_dist, edge_tt in out[u]:
            nt = t + edge_tt
            nd = dist + edge_dist
            if nt > time_budget + TIME_EPS:
                continue
            existing = sets.setdefault(v, [])
            if any(
                lbl.alive
                and (
                    _dominates(nt, nd, lbl.travel_time, lbl.distance)
                    or (nt == lbl.travel_time and nd == lbl.distance)
                )
                for lbl in existing
            ):
                continue
            for lbl in existing:
                if lbl.alive and _dominates(lbl.travel_time, lbl.distance, nt, nd):
                    lbl.alive = False
            new = MinsumLabel(v, nt, nd, label)
            existing[:] = [lbl for lbl in existing if lbl.alive] + [new]
            counter += 1
            heapq.heappush(heap, (nt, nd, v, counter, new))
    finals = [lbl for lbl in sets.get(destination, []) if lbl.alive]
    pareto = {
        node: sorted((lbl.travel_time, lbl.distance) for lbl in labels if lbl.alive)
        for node, labels in sets.items()
    }
    if not finals:
        return None
    winner = min(finals, key=lambda lbl: (lbl.distance, lbl.travel_time))
    path = []
    cur: Optional[MinsumLabel] = winner
    while cur is not None:
        path.append(cur.node)
        cur = cur.pred
    path.reverse()
    return MinsumResult(winner.distance, winner.travel_time, path, pareto)


# ---------------------------------------------------------------------------
# Latest-departure ground truth
# ---------------------------------------------------------------------------


def latest_departure_by_enumeration(
    net: RoadNetwork,
    destination: int,
    t_arr: float,
    from_node: int,
    iterations: int = 60,
) -> Optional[float]:
    """Latest departure from ``from_node`` reaching ``destination`` by ``t_arr``.

    Enumerates every loopless path and bisects each one's departure time
    (path arrival is non-decreasing in departure under FIFO, so bisection
    is exact up to the iteration count).  Returns None when no departure
    at time >= 0 works.
    """
    if from_node == destination:
        return t_arr

    def path_arrival(path_edges: list[Edge], dep: float) -> float:
        t = dep
        for e in path_edges:
            t = e.arrival.arrival(t)
        return t

    best: Optional[float] = None
    path_edges: list[Edge] = []
    on_path = {from_node}

    def visit(u: int) -> None:
        nonlocal best
        if u == destination:
            if path_arrival(path_edges, 0.0) > t_arr:
                return
            lo, hi = 0.0, t_arr
            for _ in range(iterations):
                mid = 0.5 * (lo + hi)
                if path_arrival(path_edges, mid) <= t_arr:
                    lo = mid
                else:
                    hi = mid
            if best is None or lo > best:
                best = lo
            return
        for idx in net.out_edges[u]:
            e = net.edges[idx]
            if e.head in on_path:
                continue
            on_path.add(e.head)
            path_edges.append(e)
            visit(e.head)
            path_edges.pop()
            on_path.discard(e.head)

    visit(from_node)
    return best


def witness_path(bounds: DepartureBounds, net: RoadNetwork, node: int) -> list[int]:
    """Node sequence of the recorded witness from ``node`` to the destination."""
    path = [node]
    while path[-1] != bounds.destination:
        idx = bounds.witness[path[-1]]
        if idx < 0:
            raise QueryError(f"node {node} has no witness path")
        path.append(net.edges[idx].head)
    return path
