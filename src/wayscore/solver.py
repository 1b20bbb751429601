"""Exact score-maximizing route search under an arrival deadline.

The reference engine, :func:`_fast_search`, extends a path prefix one
edge at a time.  An edge is taken only if its head is not already on the
prefix (looplessness) and the arrival at the head does not exceed the
head's latest feasible departure time (the temporal bound from
:func:`wayscore.traversal.latest_departures`).  Within those rules the
search is exhaustive, so the returned path is optimal, not heuristic.

The engine is one loop over an explicit stack, not a recursion, so a path
may be as long as the network allows whatever the interpreter's recursion
limit, and a solve changes no interpreter setting.  It learns as it goes:
an edge whose arrival overshoots its head's bound at some departure, and
whose profile cannot come back under the bound later (FIFO, checked
against rounding by :meth:`wayscore.profiles.ArrivalProfile.floor_after`),
gets that departure as a per-query threshold, and later labels departing
at or after it skip the edge without evaluating its profile.  That is a
rejection the bound check would have made anyway, so answers and counts
are those of the plain search.

Every solve makes one engine call.  It runs the compiled copy of that
engine (:meth:`wayscore.kernel.FlatNetwork.search`) on the network's flat
arrays (:meth:`wayscore.network.RoadNetwork.flat`), which takes the same
query arguments and gives the same status, label count and candidate, about
fifty times faster.  The Python engine runs instead when constraints are
given, when a profile method the search evaluates has been replaced, when
the kernel is not available, or when the kernel defers a search it does
not model.

The Python search, the bounds, the Python budget derivation (where the
kernel's copy does not run) and the path check walk ``out_edges`` or
``in_edges`` and read the network's per-edge columns (``heads``,
``tails``, ``arrivals``, ``scores``); only constraints' costs take
``Edge`` records.  They look each profile method up at the call, so a
replaced method or a subclass's override sees every call.  The kernel's
flat arrays are built on a network's first solve; later solves do no
per-network preparation.

Ties between equal-score paths are broken by earlier destination arrival,
then by lexicographically smaller node sequence.  The tie-break makes the
optimum unique, which is what lets the parallel mode return byte-identical
results for any thread count: subtree searches are independent and joined
by a commutative max-reduction.

A parallel solve makes the same single kernel call as a sequential one,
asking for up to one worker per core.  The kernel searches alone until it
has counted ``_PROBE_LABELS`` labels, so a small query (most short ones)
starts no thread; past that it starts the other workers' threads where it
stands.  Of the labels ``_SPLIT_DEPTH`` edges below the source, each
thread descends only into the subtrees it claims from one shared counter,
in walk order, so no label is searched twice and uneven subtrees balance
themselves; the calling thread alone counts the labels above the split, so
``explored`` is the sequential count on any schedule.  The kernel joins the
threads and reduces their candidates before it returns.  An interrupt
(Ctrl-C) takes effect when the kernel call returns, in a parallel solve as
in a sequential one.  Where the kernel does not search a query
(constraints, a replaced profile method, no compiler), parallel mode runs
the sequential search, which returns the same result: the Python engine
holds the interpreter lock, so threads could not speed it up.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import kernel
from .network import Edge, RoadNetwork
from .profiles import TIME_EPS
from .traversal import Query, QueryError, latest_departures

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "exploration-limit"


class ConsistencyError(RuntimeError):
    """A returned path disagrees with its recomputation: solver bug."""


@dataclass(frozen=True)
class Constraint:
    """A secondary feasibility limit: accumulated cost must stay within budget.

    ``cost`` maps (edge, departure time at the edge's tail) to a
    non-negative amount; the search raises ValueError for a cost that is
    negative or NaN.  ``budget`` must be finite and non-negative (ValueError
    otherwise).  Constraints are pure feasibility checks; they do not prune
    via bounds.
    """

    cost: Callable[[Edge, float], float]
    budget: float

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValueError(
                f"constraint budget {self.budget!r} must be finite and >= 0"
            )


@dataclass(frozen=True)
class PathResult:
    """A solution path with per-edge timing, total score and travel time."""

    nodes: tuple[int, ...]
    departures: tuple[float, ...]
    arrivals: tuple[float, ...]
    score: float
    travel_time: float
    t_dep: float = 0.0

    @property
    def arrival(self) -> float:
        return self.arrivals[-1] if self.arrivals else self.t_dep

    def to_json(self) -> str:
        """The path as canonical JSON text.

        The text is interned, so equal paths share one string: a caller that
        keeps the answers of repeated queries holds one copy per distinct
        path, however often it repeats.
        """
        return sys.intern(json.dumps(
            {
                "nodes": list(self.nodes),
                "departures": list(self.departures),
                "arrivals": list(self.arrivals),
                "score": self.score,
                "travel_time": self.travel_time,
            },
            sort_keys=True,
            separators=(",", ":"),
        ))


@dataclass(frozen=True)
class SolveResult:
    status: str
    path: Optional[PathResult]
    explored: int

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_OK


def _fast_search(
    net: RoadNetwork,
    times: Sequence[float],
    destination: int,
    t_arr: float,
    source: int,
    t: float,
    cap: Optional[int],
    constraints: Sequence[Constraint] = (),
) -> tuple[int, int, Optional[tuple]]:
    """Search the loopless paths from ``source``, which is not the
    destination, departing at ``t``: ``(status, explored, candidate)``.

    ``times`` are the query's bounds, one per node.  The status is
    ``kernel.DONE``, or ``kernel.LIMIT`` once the search counts more than
    ``cap`` labels (None: no cap); ``explored`` is the labels counted, and
    ``candidate`` the best destination candidate ``(score, arrival, node
    sequence)`` of a finished search, or None.

    The search is one loop over an explicit stack: the current node's
    remaining out-edges and its time, score and constraint costs are
    locals, and descending pushes the parent's onto ``stack``.  ``path``
    and ``visited`` hold the candidate path, so nothing is allocated per
    label beyond its stack entry and edge iterator until a destination is
    actually reached, and the depth of the search is bounded by memory, not
    by the interpreter's recursion limit.

    An edge the bound rejects at departure ``t``, and whose profile's floor
    after ``t`` the bound rejects too, records ``t`` in ``thresholds``;
    later labels skip it at any departure ``>= t`` without evaluating its
    profile.
    """
    path = [source]
    visited = {source}
    out_edges, heads, arrivals, scores = (
        net.out_edges, net.heads, net.arrivals, net.scores
    )
    thresholds = {}
    deadline = t_arr + TIME_EPS
    explored = 0
    score = 0.0
    extras = (0.0,) * len(constraints)
    best_score = -math.inf
    best_arrival = math.inf
    best_seq: tuple[int, ...] = ()
    # The frames below the current node: (its parent's remaining out-edges,
    # departure time, score, extras).
    stack: list[tuple] = []
    edges = iter(out_edges[source])
    while True:
        for index in edges:
            head = heads[index]
            if head in visited or (
                index in thresholds and t >= thresholds[index]
            ):
                continue
            arrival = arrivals[index]
            arr = arrival.arrival(t)
            limit = times[head] + TIME_EPS
            if arr > limit:
                # No later departure arrives below min(arr, floor), so
                # with the floor above the limit the edge fails from t on.
                if arrival.floor_after(t) > limit:
                    thresholds[index] = t
                continue
            if constraints:
                edge = net.edges[index]
                costs = [c.cost(edge, t) for c in constraints]
                if not all(cost >= 0.0 for cost in costs):  # NaN too
                    raise ValueError(
                        f"constraint costs {costs} of edge {index} at {t} "
                        "must be numbers >= 0"
                    )
                new_extras = tuple(x + c for x, c in zip(extras, costs))
                if any(
                    x > c.budget + TIME_EPS
                    for x, c in zip(new_extras, constraints)
                ):
                    continue
            else:
                new_extras = ()
            explored += 1
            if cap is not None and explored > cap:
                return kernel.LIMIT, explored, None
            new_score = score + scores[index].value(t)
            if head == destination:
                if arr <= deadline:
                    if new_score > best_score:
                        best_score, best_arrival = new_score, arr
                        best_seq = tuple(path) + (head,)
                    elif new_score == best_score:
                        if arr < best_arrival:
                            best_arrival = arr
                            best_seq = tuple(path) + (head,)
                        elif arr == best_arrival:
                            seq = tuple(path) + (head,)
                            if seq < best_seq:
                                best_seq = seq
                continue
            stack.append((edges, t, score, extras))
            visited.add(head)
            path.append(head)
            edges = iter(out_edges[head])
            t, score, extras = arr, new_score, new_extras
            break
        else:
            if not stack:
                break
            visited.discard(path.pop())
            edges, t, score, extras = stack.pop()
    if best_seq == ():
        return kernel.DONE, explored, None
    return kernel.DONE, explored, (best_score, best_arrival, best_seq)


# Labels a parallel search counts alone before the kernel starts its other
# threads.  Two threads can save at most half of an N-label search, N / (2 r)
# at r labels per second.  Starting and joining a thread costs about
# 0.04 ms, and each thread walks the 209-548 labels above the split in
# 0.01-0.03 ms (the 33 catalogue queries of the benchmark grid, min of 7,
# 2-core x86 host, CPython 3.11).  At the kernel's 40-60 M labels/s a split
# so pays only beyond some 5,000-8,000 labels, about the budget.
_PROBE_LABELS = 5_000

# The depth of the split: the labels this many edges from the source root
# the subtrees that the threads claim.  A catalogue query of the benchmark
# grid has 100-304 of them, enough to balance subtrees of heavy-tailed sizes.
_SPLIT_DEPTH = 6


def path_from_nodes(
    net: RoadNetwork, t_dep: float, nodes: Sequence[int]
) -> PathResult:
    """Forward-simulate a node sequence into a PathResult."""
    departures = []
    arrivals = []
    score = 0.0
    t = t_dep
    for u, v in zip(nodes, nodes[1:]):
        idx = net.edge_between(u, v)
        if idx is None:
            raise ConsistencyError(f"no edge {u}->{v} in network")
        departures.append(t)
        score += net.scores[idx].value(t)
        t = net.arrivals[idx].arrival(t)
        arrivals.append(t)
    return PathResult(
        tuple(nodes), tuple(departures), tuple(arrivals), score, t - t_dep, t_dep
    )


def _verified_path(net: RoadNetwork, query: Query, cand: tuple) -> PathResult:
    """Rebuild a candidate by forward simulation and cross-check its claim.

    Every path a search returns passes through here.  A repeated node, a
    missing edge, or a score or arrival the recomputation does not reproduce
    means the search is wrong, and raises ConsistencyError.
    """
    score, arrival, nodes = cand
    if len(set(nodes)) != len(nodes):
        raise ConsistencyError(f"candidate path repeats a node: {nodes}")
    path = path_from_nodes(net, query.t_dep, nodes)
    if abs(path.score - score) > TIME_EPS:
        raise ConsistencyError(
            f"candidate score {score} != recomputed {path.score}"
        )
    if abs(path.arrival - arrival) > TIME_EPS:
        raise ConsistencyError(
            f"candidate arrival {arrival} != recomputed {path.arrival}"
        )
    return path


def _in_fresh_stack_chunk(fn):
    """Decorate ``fn`` so that every call to it runs in a fresh frame chunk.

    CPython 3.11 keeps Python frames in 16 KB chunks and frees a chunk as
    soon as its first frame returns.  When the search's frame ends just
    short of a chunk's end, each profile call it makes maps a chunk and
    unmaps it again: at 2 of 301 caller depths a capped 50 k-label solve
    took 55 k and 105 k minor faults against 1 or 2 elsewhere, and a
    0.5 M-label one took 10 s instead of 0.6 s.  The wrapper declares a
    frame larger than a chunk, so it always opens a fresh one with at least
    1000 slots to spare, and ``fn`` with everything it calls runs there, at
    the same offsets whatever the caller's depth.  One mapping per call
    costs about 10 us.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        return fn(*args, **kwargs)

    call.__code__ = call.__code__.replace(co_stacksize=2048)
    return call


@_in_fresh_stack_chunk
def solve(
    net: RoadNetwork,
    query: Query,
    constraints: Sequence[Constraint] = (),
    mode: str = "sequential",
    threads: int = 1,
    pruning: bool = True,
    max_expansions: Optional[int] = None,
) -> SolveResult:
    """Find the loopless max-score path arriving by the query deadline.

    Returns a SolveResult whose status is "ok", "infeasible" (no loopless
    path can make the deadline; a value, not an error) or
    "exploration-limit" (the optional ``max_expansions`` cap fired).  With
    ``mode="parallel"`` the result is identical to sequential mode for any
    ``threads`` value of at least 1.  Setting ``pruning=False`` removes the temporal
    bounds (useful only for measuring their effect); the answer is the
    same, the work is a superset.  Raises QueryError, before any search,
    unless the source and destination are ints in ``[0, node_count)`` (a
    bool is not) and the deadline does not precede the departure, and
    ValueError unless ``threads`` is an int of at least 1 and
    ``max_expansions`` is None or an int (bools are neither).
    """
    if mode not in ("sequential", "parallel"):
        raise ValueError(f"unknown mode {mode!r}")
    if type(threads) is not int:  # bools too
        raise ValueError(f"threads must be an int, got {threads!r}")
    if max_expansions is not None and type(max_expansions) is not int:
        raise ValueError(
            f"max_expansions must be an int or None, got {max_expansions!r}"
        )
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    for role, node in (("source", query.source), ("destination", query.destination)):
        if type(node) is not int:  # bools too: True is not node 1
            raise QueryError(f"{role} {node!r} is not an int node id")
        if not 0 <= node < net.node_count:
            raise QueryError(f"{role} {node} out of range")
    if query.t_arr < query.t_dep:
        raise QueryError("arrival deadline precedes departure")
    if query.source == query.destination:
        path = PathResult((query.source,), (), (), 0.0, 0.0, query.t_dep)
        return SolveResult(STATUS_OK, path, 1)
    if pruning:
        bounds = latest_departures(net, query.destination, query.t_arr, query.t_dep)
        times = bounds.times
        if times[query.source] < query.t_dep - TIME_EPS:
            return SolveResult(STATUS_INFEASIBLE, None, 0)
    else:
        times = [math.inf] * net.node_count
    # The source label counts toward the cap, so the search may count one less.
    cap = None if max_expansions is None else max_expansions - 1
    search = (times, query.destination, query.t_arr, query.source, query.t_dep, cap)
    # The kernel cannot call a constraint's Python cost function.
    flat = None if constraints else net.flat()
    # More threads than cores cannot help a CPU-bound search.
    workers = min(threads, os.cpu_count() or threads) if mode == "parallel" else 1
    if flat is not None:
        status, explored, best, _, _ = flat.search(
            *search, workers, _SPLIT_DEPTH, _PROBE_LABELS
        )
    if flat is None or status == kernel.DEFER:
        status, explored, best = _fast_search(net, *search, constraints)
    explored += 1  # the source label
    if status == kernel.LIMIT:
        return SolveResult(STATUS_LIMIT, None, explored)
    if best is None:
        return SolveResult(STATUS_INFEASIBLE, None, explored)
    return SolveResult(STATUS_OK, _verified_path(net, query, best), explored)
