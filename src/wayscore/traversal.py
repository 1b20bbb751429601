"""Network traversals that bracket a query in time.

* :func:`earliest_arrival` -- forward time-dependent Dijkstra; correct under
  the FIFO property every edge is validated against.  Its compiled copy
  (``ws_earliest`` in ``_kernel.c``) answers wherever the network has flat
  arrays; the loop here is the reference and the fallback.
* :func:`build_query` -- turns (source, destination, departure, overhead)
  into a concrete arrival deadline by adding the overhead to the fastest
  travel time.
* :func:`latest_departures` -- backward relaxation from the destination that
  labels every node with the latest moment one can leave it and still make
  the deadline.  These labels are the pruning bounds of the solver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .kernel import DEFER
from .network import RoadNetwork

UNREACHABLE = -math.inf


class QueryError(ValueError):
    """Raised for queries that cannot be posed (e.g. unreachable pair)."""


def _check_node(net: RoadNetwork, node, role: str) -> None:
    """Raise QueryError unless ``node`` is an int node id of ``net``."""
    if type(node) is not int or not 0 <= node < net.node_count:
        raise QueryError(f"{role} {node!r} is not a node id in [0, {net.node_count})")


def earliest_arrival(
    net: RoadNetwork, source: int, destination: int, t_dep: float
) -> Optional[tuple[float, list[int]]]:
    """Minimum arrival time over all source->destination paths, plus a witness.

    Edge arrival functions are evaluated at the traveller's actual arrival
    time at each edge's tail.  Returns None when the destination is
    unreachable; ``source == destination`` yields ``(t_dep, [source])``.
    Raises QueryError, before any search, unless both ids are ints in
    ``[0, node_count)`` and the departure is finite.

    The compiled kernel (:meth:`wayscore.kernel.FlatNetwork.earliest`)
    answers when the network has flat arrays (:meth:`RoadNetwork.flat`);
    the loop below answers otherwise, and wherever the kernel defers, with
    the same ``(t, path)`` or the same None.
    """
    _check_node(net, source, "source")
    _check_node(net, destination, "destination")
    if not math.isfinite(t_dep):
        raise QueryError(f"departure {t_dep} must be finite")
    if source == destination:
        return t_dep, [source]
    n = net.node_count
    flat = net.flat()
    if flat is not None:
        status, reached = flat.earliest(source, destination, t_dep)
        if status != DEFER:
            return reached
    best = [math.inf] * n
    via = [-1] * n  # predecessor on the best path found so far
    best[source] = t_dep
    heap = [(t_dep, source)]
    out_edges, heads, arrivals = net.out_edges, net.heads, net.arrivals
    while heap:
        t, u = heapq.heappop(heap)
        if t > best[u]:
            continue
        if u == destination:
            path = [destination]
            node = destination
            while node != source:
                node = via[node]
                path.append(node)
            path.reverse()
            return t, path
        for i in out_edges[u]:
            arr = arrivals[i].arrival(t)
            head = heads[i]
            if arr < best[head]:
                best[head] = arr
                via[head] = u
                heapq.heappush(heap, (arr, head))
    return None


@dataclass(frozen=True)
class Query:
    """A fully-derived query: budget and deadline are already computed.

    ``overhead_kind`` is "abs" (minutes on top of the fastest travel time)
    or "pct" (percentage of the fastest travel time).  The departure, the
    budget and the deadline must be finite, or QueryError is raised.
    """

    source: int
    destination: int
    t_dep: float
    overhead_kind: str
    overhead_value: float
    budget: float
    t_arr: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_dep, self.budget, self.t_arr))):
            raise QueryError(
                f"departure {self.t_dep}, budget {self.budget} and deadline "
                f"{self.t_arr} must be finite"
            )

    @classmethod
    def from_budget(
        cls, source: int, destination: int, t_dep: float, budget: float
    ) -> "Query":
        """Bypass budget derivation when the budget is already known."""
        if budget < 0:
            raise QueryError(f"budget must be >= 0, got {budget}")
        return cls(source, destination, t_dep, "abs", budget, budget, t_dep + budget)


def build_query(
    net: RoadNetwork,
    source: int,
    destination: int,
    t_dep: float,
    overhead_minutes: Optional[float] = None,
    overhead_percent: Optional[float] = None,
) -> Query:
    """Derive the budget: fastest travel time plus the requested overhead.

    Exactly one overhead form must be given.  Raises QueryError when the
    destination is unreachable from the source, or when the departure time
    or the overhead is not finite.
    """
    if (overhead_minutes is None) == (overhead_percent is None):
        raise QueryError("give exactly one of overhead_minutes / overhead_percent")
    overhead = overhead_minutes if overhead_minutes is not None else overhead_percent
    if not (math.isfinite(t_dep) and math.isfinite(overhead)):
        raise QueryError(f"departure {t_dep} and overhead {overhead} must be finite")
    reached = earliest_arrival(net, source, destination, t_dep)
    if reached is None:
        raise QueryError(
            f"destination {destination} unreachable from {source} at t={t_dep}"
        )
    fastest = reached[0] - t_dep
    if overhead_minutes is not None:
        if overhead_minutes <= 0:
            raise QueryError("overhead must be positive")
        kind, value = "abs", float(overhead_minutes)
        budget = fastest + overhead_minutes
    else:
        if overhead_percent <= 0:
            raise QueryError("overhead must be positive")
        kind, value = "pct", float(overhead_percent)
        budget = fastest * (1.0 + overhead_percent / 100.0)
    return Query(source, destination, t_dep, kind, value, budget, t_dep + budget)


@dataclass
class DepartureBounds:
    """Per-node latest departure times toward one destination.

    ``times[v]`` is the latest time one can leave ``v`` and still arrive at
    the destination by ``t_arr``; ``UNREACHABLE`` (-inf) when no departure at
    or after ``t_dep`` works.  ``witness[v]`` is the first edge of a path
    achieving the label, for audit purposes.
    """

    destination: int
    t_arr: float
    t_dep: float
    times: list[float]
    witness: list[int]

    def label(self, node: int) -> Optional[float]:
        t = self.times[node]
        return None if t == UNREACHABLE else t


def latest_departures(
    net: RoadNetwork, destination: int, t_arr: float, t_dep: float
) -> DepartureBounds:
    """Backward relaxation from the destination over incoming edges.

    Mirror image of the forward Dijkstra: a max-ordered frontier closes the
    node with the largest tentative label first, and relaxing an incoming
    edge inverts its arrival profile against the head's label.  Stops when
    the frontier is empty or its top falls below ``t_dep``, since labels
    below the departure time cannot matter.  Ties close the smaller node id
    first for reproducibility.

    The labels bound path prefixes, not solution paths, so no loop checking
    is needed here.  Raises QueryError unless the destination is an int node
    id of ``net`` and both times are finite.
    """
    _check_node(net, destination, "destination")
    if not (math.isfinite(t_arr) and math.isfinite(t_dep)):
        raise QueryError(f"deadline {t_arr} and departure {t_dep} must be finite")
    n = net.node_count
    times = [UNREACHABLE] * n
    witness = [-1] * n
    closed = [False] * n
    times[destination] = t_arr
    heap = [(-t_arr, destination)]
    in_edges, tails, arrivals = net.in_edges, net.tails, net.arrivals
    while heap:
        neg, v = heapq.heappop(heap)
        label = -neg
        if label < t_dep:
            heap.append((neg, v))  # still open: the reset below must see it
            break
        if closed[v] or label < times[v]:
            continue
        closed[v] = True
        for idx in in_edges[v]:
            u = tails[idx]
            if closed[u]:
                continue
            cand = arrivals[idx].latest_departure(label)
            if cand > times[u]:
                times[u] = cand
                witness[u] = idx
                heapq.heappush(heap, (-cand, u))
    # Only a node pushed but never closed has a label to clear, and its
    # newest entry is still on the heap: an entry popped without closing its
    # node was stale, so the node's larger, newer entry had closed it before.
    for _, v in heap:
        if not closed[v]:
            times[v] = UNREACHABLE
            witness[v] = -1
    return DepartureBounds(destination, t_arr, t_dep, times, witness)
