"""Exact score-maximizing route search under an arrival deadline.

One depth-first engine, :func:`_fast_search`, extends a path prefix one
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

The search, the bounds and the budget derivation all walk the network's
prepared adjacency (:meth:`wayscore.network.RoadNetwork.prepared`), which
binds each edge's profile evaluators once per network, on first use.  A
solve therefore does no per-network preparation after the first, and forked
workers inherit the prepared adjacency with the search state.

Ties between equal-score paths are broken by earlier destination arrival,
then by lexicographically smaller node sequence.  The tie-break makes the
optimum unique, which is what lets the parallel mode return byte-identical
results for any worker count: subtree searches are independent tasks joined
by a commutative max-reduction.

Parallel execution uses forked worker processes because the search is
pure Python and threads would serialize on the interpreter lock.  The same
engine expands the tree breadth first down to a small fork depth, handing
each child prefix to a task list instead of descending into it; workers pull
the tasks from the shared queue and search each subtree to the end, which
keeps them busy even when subtree sizes are wildly uneven.  The workers
persist while a network is in use: one pool per process, forked on the
first parallel solve on a network, before its frontier is built, and reused
by the next ones on the same network, constraints and worker count, which
start no process; a query whose frontier leaves no tasks sends the workers
nothing.  The pool is closed when the network is collected, or at exit.
Where ``fork`` is not available, parallel mode runs the sequential search,
which returns the same result.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import mmap
import multiprocessing
import os
import threading
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .network import Edge, RoadNetwork
from .profiles import TIME_EPS
from .traversal import Query, QueryError, latest_departures

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"
STATUS_LIMIT = "exploration-limit"


class ConsistencyError(RuntimeError):
    """A returned path disagrees with its recomputation: solver bug."""


class _LimitHit(Exception):
    """Internal: the expansion cap was exceeded."""


@contextmanager
def _gc_paused():
    """Suspend cyclic GC during the search.

    The search allocates labels at a high rate but never forms reference
    cycles, so collector passes are pure overhead; worse, a full pass walks
    the whole (possibly copy-on-write shared) network, which hurts badly in
    forked workers.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class Constraint:
    """A secondary feasibility limit: accumulated cost must stay within budget.

    ``cost`` maps (edge, departure time at the edge's tail) to a
    non-negative amount.  Constraints are pure feasibility checks; they do
    not prune via bounds.
    """

    cost: Callable[[Edge, float], float]
    budget: float


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
        return json.dumps(
            {
                "nodes": list(self.nodes),
                "departures": list(self.departures),
                "arrivals": list(self.arrivals),
                "score": self.score,
                "travel_time": self.travel_time,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class SolveResult:
    status: str
    path: Optional[PathResult]
    explored: int

    @property
    def feasible(self) -> bool:
        return self.status == STATUS_OK


class _SearchState:
    """Per-query bundle shared by every engine call of one solve.

    ``adj`` is the network's prepared out-adjacency
    (:meth:`RoadNetwork.prepared`), built once per network, not per solve.
    ``thresholds`` maps an edge index to the earliest departure from which
    the edge is known to fail its head's bound: its arrival exceeded the
    bound there, and so did the profile's floor for later departures
    (:meth:`ArrivalProfile.floor_after`).  They depend on the query's
    bounds, so they are per query: the frontier's engine calls share them,
    and a worker starts afresh when the query changes.
    """

    __slots__ = (
        "adj",
        "bounds",
        "destination",
        "t_arr",
        "constraints",
        "explored",
        "cap",
        "thresholds",
    )

    def __init__(self, adj, bounds, destination, t_arr, constraints, cap):
        self.adj = adj
        self.bounds = bounds
        self.destination = destination
        self.t_arr = t_arr
        self.constraints = tuple(constraints)
        self.explored = 0
        self.cap = cap
        self.thresholds = {}


def _fast_search(
    state: _SearchState,
    path: Sequence[int],
    t: float,
    score: float,
    extras: tuple[float, ...],
    sink: Optional[list] = None,
) -> Optional["_Candidate"]:
    """Best destination candidate among the loopless extensions of ``path``.

    ``path`` is a prefix from the source that does not end at the
    destination, reached at time ``t`` with the accumulated ``score`` and
    constraint costs ``extras``.  The search is one loop over an explicit
    stack: the current node's remaining out-edges and its time, score and
    extras are locals, and descending pushes the parent's onto ``stack``.
    ``path`` and ``visited`` hold the candidate path, so nothing is
    allocated per label beyond its stack entry and edge iterator until a
    destination is actually reached, and the depth of the search is bounded
    by memory, not by the interpreter's recursion limit.

    An edge the bound rejects at departure ``t``, and whose profile's floor
    after ``t`` the bound rejects too, records ``t`` in
    ``state.thresholds``; later labels skip it at any departure ``>= t``
    without evaluating its profile.

    With a ``sink``, the search goes one edge deep only: each admissible
    child that is not the destination is appended to ``sink`` as a task
    ``(prefix, arrival, score, extras)`` instead of being searched.
    """
    path = list(path)
    visited = set(path)
    adj = state.adj
    bounds = state.bounds
    thresholds = state.thresholds
    dest = state.destination
    deadline = state.t_arr + TIME_EPS
    constraints = state.constraints
    cap = None if state.cap is None else state.cap - state.explored
    explored = 0
    best_score = -math.inf
    best_arrival = math.inf
    best_seq: tuple[int, ...] = ()
    # The frames below the current node: (its parent's remaining out-edges,
    # departure time, score, extras).
    stack: list[tuple] = []
    edges = iter(adj[path[-1]])
    try:
        while True:
            for head, arrival_at, score_at, edge, index in edges:
                if head in visited or (
                    index in thresholds and t >= thresholds[index]
                ):
                    continue
                arr = arrival_at(t)
                limit = bounds[head] + TIME_EPS
                if arr > limit:
                    # No later departure arrives below min(arr, floor), so
                    # with the floor above the limit the edge fails from t on.
                    if edge.arrival.floor_after(t) > limit:
                        thresholds[index] = t
                    continue
                if constraints:
                    new_extras = tuple(
                        x + c.cost(edge, t) for x, c in zip(extras, constraints)
                    )
                    if any(
                        x > c.budget + TIME_EPS
                        for x, c in zip(new_extras, constraints)
                    ):
                        continue
                else:
                    new_extras = ()
                explored += 1
                if cap is not None and explored > cap:
                    raise _LimitHit
                new_score = score + score_at(t)
                if head == dest:
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
                if sink is not None:
                    sink.append((tuple(path) + (head,), arr, new_score, new_extras))
                    continue
                stack.append((edges, t, score, extras))
                visited.add(head)
                path.append(head)
                edges = iter(adj[head])
                t, score, extras = arr, new_score, new_extras
                break
            else:
                if not stack:
                    break
                visited.discard(path.pop())
                edges, t, score, extras = stack.pop()
    finally:
        state.explored += explored
    if best_seq == ():
        return None
    return best_score, best_arrival, best_seq


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
        e = net.edges[idx]
        departures.append(t)
        score += e.score.value(t)
        t = e.arrival.arrival(t)
        arrivals.append(t)
    return PathResult(
        tuple(nodes), tuple(departures), tuple(arrivals), score, t - t_dep, t_dep
    )


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

# Candidate = (score, arrival, full node sequence); the reduction order is
# total over distinct paths, so the winner is scheduling-independent.
_Candidate = tuple[float, float, tuple[int, ...]]


def _better(a: _Candidate, b: _Candidate) -> bool:
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


# Serialises parallel solves within one process, and guards the worker pool
# slot ``_pool`` and the shared bounds buffer of the pool in it.  Reentrant,
# because a network's finalizer may close its pool from whatever thread the
# collector happens to run in, including one inside a parallel solve.
_PARALLEL_LOCK = threading.RLock()


class _WorkerPool:
    """Forked search workers, kept alive across the solves on one network.

    The workers inherit the prepared out-adjacency, the constraints and an
    anonymous shared buffer of one double per node, all made before the
    fork, so ``Constraint`` cost functions need not be picklable.  A query's
    bounds reach the workers through the buffer: the parent writes them and
    bumps ``token``; a worker re-reads the buffer when a task carries a token
    it has not seen.  The pool holds no reference to the network, whose
    finalizer closes it when the network is collected, or at exit.
    """

    def __init__(self, net: RoadNetwork, adj: list, constraints: tuple, workers: int):
        self.adj = adj
        self.constraints = constraints
        self.workers = workers
        self.token = 0
        self.bounds = mmap.mmap(-1, 8 * len(adj))
        self.pool = multiprocessing.get_context("fork").Pool(
            workers, _init_worker, (adj, constraints, self.bounds)
        )
        self._finalizer = weakref.finalize(net, _close_pool, self)

    def serves(self, adj: list, constraints: tuple, workers: int) -> bool:
        """Whether the workers inherited exactly these objects."""
        return (
            self.adj is adj
            and self.workers == workers
            and len(self.constraints) == len(constraints)
            and all(a is b for a, b in zip(self.constraints, constraints))
        )

    def close(self) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        self._finalizer.detach()
        pool.terminate()
        pool.join()
        self.bounds.close()


# The worker pool of the most recent parallel solve, or None.
_pool: Optional[_WorkerPool] = None


def _close_pool(holder: _WorkerPool) -> None:
    """Close ``holder``'s workers, and empty the slot if it holds them."""
    global _pool
    with _PARALLEL_LOCK:
        if _pool is holder:
            _pool = None
        holder.close()


def _worker_pool(net: RoadNetwork, state: _SearchState, workers: int) -> _WorkerPool:
    """The pool whose workers inherited ``state``'s adjacency and constraints.

    Any other pool is closed first, so no pool threads are alive at the fork.
    The caller holds ``_PARALLEL_LOCK``.
    """
    global _pool
    if _pool is not None:
        if _pool.serves(state.adj, state.constraints, workers):
            return _pool
        _close_pool(_pool)
    _pool = _WorkerPool(net, state.adj, state.constraints, workers)
    return _pool


# In a worker process: its search state, the shared bounds buffer and the
# query token the state was last loaded for; set by _init_worker.
_worker: list


def _init_worker(adj: list, constraints: tuple, bounds: mmap.mmap) -> None:
    """Pool initializer: keep the objects inherited from the parent."""
    global _worker
    _worker = [_SearchState(adj, (), -1, 0.0, constraints, None), bounds, None]


def _run_subtree(task) -> tuple[Optional[_Candidate], int]:
    """Search one frontier task under its own expansion cap.

    A task is ``(token, destination, t_arr, cap, prefix, arrival, score,
    extras)``.  A task that hits its cap returns no candidate and a count
    above the cap, which pushes the parent's total over ``max_expansions``.
    """
    token, destination, t_arr, cap, prefix, arrival, score, extras = task
    state, bounds, seen = _worker
    if token != seen:
        state.bounds = memoryview(bounds).cast("d").tolist()
        state.destination = destination
        state.t_arr = t_arr
        state.thresholds = {}
        _worker[2] = token
    state.explored = 0
    state.cap = cap
    try:
        with _gc_paused():
            return _fast_search(state, prefix, arrival, score, extras), state.explored
    except _LimitHit:
        return None, state.explored


def _default_fork_depth(threads: int) -> int:
    return int(2 * math.log2(max(2, threads))) + 4


# Frontier tasks per worker.  Subtree sizes are heavy-tailed, so the wall
# clock is bounded below by the largest task; hundreds of tasks per worker
# keep that bound small at negligible dispatch cost.
_TASKS_PER_WORKER = 32


def _build_frontier(
    state: _SearchState,
    root: tuple,
    fork_depth: int,
    target_tasks: int,
) -> tuple[list[tuple], list[_Candidate]]:
    """Breadth-first expansion of the shallow tree into independent tasks.

    Each level expands every frontier prefix by one engine call with a task
    sink; destination children come back as that call's candidate.  Tasks
    are ``(prefix, arrival, score, extras)``, like ``root``.
    """
    found: list[_Candidate] = []
    frontier = [root]
    depth = 0
    while frontier and depth < fork_depth and len(frontier) < target_tasks:
        nxt: list[tuple] = []
        for prefix, t, score, extras in frontier:
            cand = _fast_search(state, prefix, t, score, extras, nxt)
            if cand is not None:
                found.append(cand)
        frontier = nxt
        depth += 1
    return frontier, found


def _solve_parallel(
    net: RoadNetwork,
    query: Query,
    state: _SearchState,
    root: tuple,
    threads: int,
    fork_depth: Optional[int],
    max_expansions: Optional[int],
) -> SolveResult:
    depth = fork_depth if fork_depth is not None else _default_fork_depth(threads)
    target = max(64, threads * _TASKS_PER_WORKER)
    # More processes than cores cannot help a CPU-bound search and multiply
    # copy-on-write traffic.
    workers = max(1, min(threads, os.cpu_count() or threads))
    with _PARALLEL_LOCK:
        # The first parallel solve on a network forks its workers before the
        # frontier is built, whatever the frontier turns out to be, so the
        # fork overlaps the expansion and a network in parallel use always
        # has its workers, whichever query came first.
        holder = _worker_pool(net, state, workers)
        try:
            tasks, candidates = _build_frontier(state, root, depth, target)
        except _LimitHit:
            return SolveResult(STATUS_LIMIT, None, state.explored)
        explored = state.explored
        if tasks:
            remaining_cap = None  # the frontier stayed within the cap
            if max_expansions is not None:
                remaining_cap = max_expansions - explored
            holder.bounds[:] = array("d", state.bounds).tobytes()
            holder.token += 1
            head = (holder.token, state.destination, state.t_arr, remaining_cap)
            drained = False
            try:
                # chunksize 1: subtree sizes are heavy-tailed, so let idle
                # workers pull single tasks (the balancing matters far more
                # than the per-task dispatch cost).
                for cand, count in holder.pool.imap_unordered(
                    _run_subtree, [head + task for task in tasks], chunksize=1
                ):
                    explored += count
                    if max_expansions is not None and explored > max_expansions:
                        break  # the outcome is settled
                    if cand is not None:
                        candidates.append(cand)
                else:
                    drained = True
            finally:
                if not drained:
                    # A cap hit, a worker exception or an interrupt leaves
                    # workers busy with this query's tasks.
                    _close_pool(holder)
    if max_expansions is not None and explored > max_expansions:
        return SolveResult(STATUS_LIMIT, None, explored)
    if not candidates:
        return SolveResult(STATUS_INFEASIBLE, None, explored)
    best = candidates[0]
    for cand in candidates[1:]:
        if _better(cand, best):
            best = cand
    return SolveResult(STATUS_OK, _verified_path(net, query, best), explored)


def _verified_path(net: RoadNetwork, query: Query, cand: _Candidate) -> PathResult:
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
    the same offsets whatever the caller's depth; forked workers inherit
    that layout.  One mapping per call costs about 10 us.
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
    fork_depth: Optional[int] = None,
) -> SolveResult:
    """Find the loopless max-score path arriving by the query deadline.

    Returns a SolveResult whose status is "ok", "infeasible" (no loopless
    path can make the deadline; a value, not an error) or
    "exploration-limit" (the optional ``max_expansions`` cap fired).  With
    ``mode="parallel"`` the result is identical to sequential mode for any
    ``threads`` value.  Setting ``pruning=False`` removes the temporal
    bounds (useful only for measuring their effect); the answer is the
    same, the work is a superset.
    """
    if mode not in ("sequential", "parallel"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (0 <= query.source < net.node_count):
        raise QueryError(f"source {query.source} out of range")
    if not (0 <= query.destination < net.node_count):
        raise QueryError(f"destination {query.destination} out of range")
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
    state = _SearchState(
        net.prepared().out_adj,
        times,
        query.destination,
        query.t_arr,
        constraints,
        max_expansions,
    )
    state.explored = 1  # the source label
    root = ((query.source,), query.t_dep, 0.0, (0.0,) * len(state.constraints))
    # Workers inherit the search state by fork; without it, the sequential
    # search gives the same answer.
    if (
        mode == "parallel"
        and threads > 1
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return _solve_parallel(
            net, query, state, root, threads, fork_depth, max_expansions
        )
    try:
        with _gc_paused():
            best = _fast_search(state, *root)
    except _LimitHit:
        return SolveResult(STATUS_LIMIT, None, state.explored)
    if best is None:
        return SolveResult(STATUS_INFEASIBLE, None, state.explored)
    return SolveResult(STATUS_OK, _verified_path(net, query, best), state.explored)
