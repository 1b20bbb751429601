import gc
import math
import os
import random
import sys
import threading

import pytest

from wayscore import kernel, solver
from wayscore.datagen import GenConfig, generate_network, generate_query_sets
from wayscore.network import Edge, RoadNetwork, build_network
from wayscore.profiles import ArrivalProfile, ScoreProfile
from wayscore.reference import (
    best_path_by_enumeration,
    best_score_with_dominance,
    random_instance,
)
from wayscore.solver import (
    Constraint,
    ConsistencyError,
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OK,
    _fast_search,
    _verified_path,
    solve,
)
from wayscore.traversal import Query, build_query, earliest_arrival, latest_departures


# The probe budget and split depth as shipped; the ``dispatched`` fixture
# patches them to 0 and 1.
PROBE_LABELS = solver._PROBE_LABELS
SPLIT_DEPTH = solver._SPLIT_DEPTH


def _query(net, s, d, t_dep, budget):
    return Query.from_budget(s, d, t_dep, budget)


def _edge(u, v, tt, score):
    return Edge(u, v, ArrivalProfile.constant(tt), ScoreProfile.constant(score))


def _state(net, q):
    """The Python engine's arguments for ``q`` as solve() passes them, with
    no expansion cap."""
    bounds = latest_departures(net, q.destination, q.t_arr, q.t_dep)
    return net, bounds.times, q.destination, q.t_arr, q.source, q.t_dep, None


@pytest.fixture(scope="module")
def chain3200():
    """A 3,200-node chain and the query along all of it: a path three times
    deeper than the interpreter's default recursion limit."""
    n = 3200
    net = build_network(n, [_edge(i, i + 1, 1.0, 1.0) for i in range(n - 1)])
    return net, _query(net, 0, n - 1, 0.0, float(n))


class TestWorkedExample:
    def test_budget_eight_takes_detour(self, toy_network):
        res = solve(toy_network, _query(toy_network, 0, 1, 0.0, 8.0))
        assert res.status == STATUS_OK
        assert res.path.nodes == (0, 2, 1)
        assert res.path.score == 7.0
        assert res.path.arrival == 5.0

    def test_budget_two_forces_direct_edge(self, toy_network):
        res = solve(toy_network, _query(toy_network, 0, 1, 0.0, 2.0))
        assert res.status == STATUS_OK
        assert res.path.nodes == (0, 1)
        assert res.path.score == 5.0

    def test_source_equals_destination(self, toy_network):
        res = solve(toy_network, _query(toy_network, 0, 0, 3.0, 5.0))
        assert res.status == STATUS_OK
        assert res.path.nodes == (0,)
        assert res.path.score == 0.0
        assert res.path.travel_time == 0.0
        assert res.path.arrival == 3.0

    def test_infeasible_when_source_boundary_precedes_departure(self, toy_network):
        # budget 1 < fastest travel time 2: no path can make it
        res = solve(toy_network, _query(toy_network, 0, 1, 0.0, 1.0))
        assert res.status == STATUS_INFEASIBLE
        assert res.path is None


class TestProcessLabel:
    """Expanding one label, seen through solve() or the engine on the
    worked example.

    With budget 8 the search counts 4 labels: the source, both root
    children (A->B and A->C) and C->B.  C->A would return to the source.
    """

    def test_root_expansion_creates_both_children(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        assert solve(toy_network, q).explored == 4
        # the cap fires on the fourth label, after both root children
        assert solve(toy_network, q, max_expansions=3).status == STATUS_LIMIT
        assert solve(toy_network, q, max_expansions=4).status == STATUS_OK

    def test_visited_list_blocks_return_to_source(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        for pruning in (True, False):
            res = solve(toy_network, q, pruning=pruning)
            # C->A (t=4, score 4) is within every bound but revisits A
            assert res.explored == 4
            assert res.path.nodes.count(0) == 1

    def test_boundary_pruning_skips_late_children(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 2.0)
        # C arrives at 3 > its boundary, so only the direct child exists
        assert solve(toy_network, q).explored == 2
        assert solve(toy_network, q, pruning=False).explored == 4

    def test_recursion_returns_best_descendant(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        # the grandchild A->C->B beats the destination child A->B
        assert _fast_search(*_state(toy_network, q)) == (
            kernel.DONE, 3, (7.0, 5.0, (0, 2, 1))
        )

    def test_label_at_destination_returns_itself(self, toy_network):
        # A->C reaches the destination C; its out-edges C->A and C->B are
        # not expanded.  Without bounds the count is the source, A->B, A->C.
        res = solve(toy_network, _query(toy_network, 0, 2, 0.0, 8.0), pruning=False)
        assert res.path.nodes == (0, 2)
        assert res.explored == 3


class TestReconstruction:
    """Every returned path is rebuilt and checked by _verified_path."""

    def test_chain_to_path(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        path = _verified_path(toy_network, q, (7.0, 5.0, (0, 2, 1)))
        assert path.nodes == (0, 2, 1)
        assert path.departures == (0.0, 3.0)
        assert path.arrivals == (3.0, 5.0)
        assert path.score == 7.0
        assert path.travel_time == 5.0

    def test_equal_paths_share_one_json_text(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        first, again = solve(toy_network, q).path, solve(toy_network, q).path
        assert first is not again
        assert first.to_json() is again.to_json()
        assert first.to_json() == (
            '{"arrivals":[3.0,5.0],"departures":[0.0,3.0],"nodes":[0,2,1],'
            '"score":7.0,"travel_time":5.0}'
        )

    def test_source_only_label(self, toy_network):
        q = _query(toy_network, 0, 1, 4.0, 8.0)
        path = _verified_path(toy_network, q, (0.0, 4.0, (0,)))
        assert path.nodes == (0,)
        assert path.arrival == 4.0

    def test_forged_repeat_node_detected(self, toy_network):
        # A->C->A is a real walk whose score and arrival both check out
        q = _query(toy_network, 0, 0, 0.0, 8.0)
        with pytest.raises(ConsistencyError, match="repeats"):
            _verified_path(toy_network, q, (4.0, 4.0, (0, 2, 0)))

    def test_wrong_stored_arrival_detected(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        with pytest.raises(ConsistencyError, match="arrival"):
            _verified_path(toy_network, q, (5.0, 2.5, (0, 1)))  # true: 2.0

    def test_wrong_stored_score_detected(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        with pytest.raises(ConsistencyError, match="score"):
            _verified_path(toy_network, q, (6.0, 2.0, (0, 1)))  # true: 5.0

    def test_missing_edge_detected(self, toy_network):
        q = _query(toy_network, 1, 0, 0.0, 8.0)
        with pytest.raises(ConsistencyError, match="no edge"):
            _verified_path(toy_network, q, (0.0, 1.0, (1, 0)))


class TestTieBreaking:
    def test_equal_score_prefers_earlier_arrival(self):
        # two disjoint routes, same score, different arrival
        edges = [
            _edge(0, 1, 1.0, 3.0), _edge(1, 3, 1.0, 3.0),
            _edge(0, 2, 2.0, 3.0), _edge(2, 3, 2.0, 3.0),
        ]
        net = build_network(4, edges)
        res = solve(net, Query.from_budget(0, 3, 0.0, 10.0))
        assert res.path.score == 6.0
        assert res.path.nodes == (0, 1, 3)

    def test_full_tie_prefers_smaller_sequence(self):
        edges = [
            _edge(0, 2, 1.0, 3.0), _edge(2, 3, 1.0, 3.0),
            _edge(0, 1, 1.0, 3.0), _edge(1, 3, 1.0, 3.0),
        ]
        net = build_network(4, edges)
        res = solve(net, Query.from_budget(0, 3, 0.0, 10.0))
        assert res.path.nodes == (0, 1, 3)


class TestEngineEquivalence:
    def test_frontier_tasks_reduce_to_sequential_search(self, dispatched, monkeypatch):
        """Split at depth 2 among three threads, the kernel's reduction of
        the threads' candidates gives solve()'s path, and their counts sum
        to its ``explored``."""
        monkeypatch.setattr(solver, "_SPLIT_DEPTH", 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        rng = random.Random(88)
        paths = 0
        for _ in range(40):
            net, q = random_instance(rng)
            res = solve(net, q)
            if res.explored == 0:  # ruled out by the bounds before searching
                continue
            sent = len(dispatched)
            assert _record(solve(net, q, mode="parallel", threads=3)) == _record(res)
            ((status, count, best, _, threads),) = dispatched[sent:]
            assert status == kernel.DONE
            assert 1 + count == res.explored
            # the threads start at the first label counted
            assert threads == (3 if res.explored > 1 else 1)
            if res.path is None:
                assert best is None
                continue
            assert best == (res.path.score, res.path.arrival, res.path.nodes)
            paths += 1
        assert paths >= 10


class TestAgainstOracle:
    def test_exactness_on_random_instances(self):
        rng = random.Random(123)
        for _ in range(150):
            net, q = random_instance(rng)
            got = solve(net, q)
            want = best_path_by_enumeration(net, q)
            assert got.status == want.status
            if got.path is not None:
                assert got.path.score == want.path.score
                assert got.path.nodes == want.path.nodes

    def test_pruning_changes_nothing_but_work(self):
        rng = random.Random(321)
        strict = 0
        for _ in range(120):
            net, q = random_instance(rng)
            on = solve(net, q, pruning=True)
            off = solve(net, q, pruning=False)
            assert on.status == off.status
            if on.path is not None:
                assert on.path.to_json() == off.path.to_json()
            assert on.explored <= off.explored
            if on.explored < off.explored:
                strict += 1
        assert strict > 0

    def test_exactness_on_generated_rush_hour_grids(self):
        for seed in (1, 2, 3):
            gen = generate_network(
                GenConfig(rows=3, cols=3, score_density=0.4, seed=seed)
            )
            records = generate_query_sets(
                gen.network, seed=seed, count_per_set=4, buckets=((0.0, 3.0),)
            )
            for rec in records:
                q = rec.to_query()
                got = solve(gen.network, q)
                want = best_path_by_enumeration(gen.network, q)
                assert got.status == want.status
                if got.path is not None:
                    assert got.path.score == want.path.score
                    assert got.path.nodes == want.path.nodes

    def test_negative_departure(self, dispatched):
        """A deadline before time 0: the bounds once stopped at departure 0,
        and every mode with them answered ``infeasible``."""
        net = build_network(3, [_edge(0, 1, 1.0, 2.0), _edge(1, 2, 1.0, 2.0),
                                _edge(0, 2, 1.5, 1.0)])
        q = Query.from_budget(0, 2, -5.0, 2.0)
        want = best_path_by_enumeration(net, q)
        assert want.status == STATUS_OK and want.path.nodes == (0, 1, 2)
        for kwargs in ({}, {"mode": "parallel", "threads": 2}, {"pruning": False}):
            res = solve(net, q, **kwargs)
            assert res.status == STATUS_OK
            assert (res.path.nodes, res.path.arrival) == ((0, 1, 2), -3.0)
        assert _threads(dispatched, 0) == 2

    def test_exactness_at_negative_departures(self):
        """Departures 20 to 60 minutes before time 0, where every profile
        keeps its first breakpoint's travel time."""
        rng = random.Random(31)
        for _ in range(100):
            net, q = random_instance(rng)
            q = build_query(net, q.source, q.destination, q.t_dep - 60.0,
                            overhead_percent=40.0)
            got = solve(net, q)
            want = best_path_by_enumeration(net, q)
            assert got.status == want.status == STATUS_OK
            assert got.path.score == want.path.score
            assert got.path.nodes == want.path.nodes

    def test_paths_are_loopless_and_within_budget(self):
        rng = random.Random(999)
        for _ in range(80):
            net, q = random_instance(rng)
            res = solve(net, q)
            if res.path is None:
                continue
            assert len(set(res.path.nodes)) == len(res.path.nodes)
            assert res.path.arrival <= q.t_dep + q.budget + 1e-9


class TestParallel:
    def test_determinism_across_thread_counts(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        base = solve(toy_network, q).path.to_json()
        for threads in (1, 2, 4, 8):
            res = solve(toy_network, q, mode="parallel", threads=threads)
            assert res.path.to_json() == base

    def test_forced_fork_agrees_with_sequential(self, dispatched):
        rng = random.Random(7)
        for _ in range(25):
            net, q = random_instance(rng)
            seq = solve(net, q)
            par = solve(net, q, mode="parallel", threads=2)
            assert seq.status == par.status
            if seq.path is not None:
                assert par.path.to_json() == seq.path.to_json()
            assert par.explored == seq.explored
        assert any(threads > 1 for *_, threads in dispatched)

    def test_grid_frontiers_agree_with_sequential(
        self, grid16, dispatched, monkeypatch
    ):
        net, queries = grid16
        for depth in (1, SPLIT_DEPTH):
            monkeypatch.setattr(solver, "_SPLIT_DEPTH", depth)
            for q in queries[:6]:
                seq = solve(net, q)
                sent = len(dispatched)
                par = solve(net, q, mode="parallel", threads=2)
                assert par.status == seq.status
                assert par.path.to_json() == seq.path.to_json()
                assert par.explored == seq.explored
                assert _threads(dispatched, sent) == 2

    def test_one_kernel_call_per_worker_thread(
        self, grid16, dispatched, kernel_runs, monkeypatch
    ):
        """A parallel solve makes one kernel call, whose threads are the
        threads asked for, capped at the cores."""
        net, queries = grid16
        q = queries[5]
        want = _record(solve(net, q))
        for cores, threads, workers in ((4, 2, 2), (4, 3, 3), (1, 4, 1), (2, 8, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            ran, sent = len(kernel_runs), len(dispatched)
            assert _record(solve(net, q, mode="parallel", threads=threads)) == want
            assert len(kernel_runs) == ran + 1
            # one worker is the sequential search, which the list leaves out
            assert [t for *_, t in dispatched[sent:]] == [workers][: workers - 1]

    def test_deep_path_leaves_the_recursion_limit_alone(self, chain3200, dispatched):
        # In parallel, the kernel's threads search the chain.
        net, q = chain3200
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for kwargs in ({}, {"mode": "parallel", "threads": 2}):
                res = solve(net, q, **kwargs)
                assert res.status == STATUS_OK
                assert res.path.nodes == tuple(range(net.node_count))
                assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)
        assert _threads(dispatched, 0) == 2

    def test_no_caller_depth_maps_memory_per_profile_call(self, grid16, python_engine):
        """CPython keeps frames in chunks and unmaps a chunk when its first
        frame returns.  Where the caller's depth left the search's frame
        just short of a chunk's end, every profile call it made mapped a
        fresh chunk and faulted; solve() now runs in a fresh chunk.  The
        Python engine makes those calls, so it searches here."""
        resource = pytest.importorskip("resource")
        net, queries = grid16
        q = queries[5]
        assert solve(net, q).explored > 1000

        def at_depth(n):
            if n:
                return at_depth(n - 1)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solve(net, q)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults = [at_depth(depth) for depth in range(0, 250)]
        assert max(faults) < 100, faults.index(max(faults))

    def test_unknown_mode_rejected(self, toy_network):
        with pytest.raises(ValueError):
            solve(toy_network, _query(toy_network, 0, 1, 0.0, 8.0), mode="magic")

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_thread_count_below_one_rejected(self, toy_network, mode):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        for threads, rule in ((0, ">= 1"), (-3, ">= 1"), (2.5, "an int"), (True, "an int")):
            with pytest.raises(ValueError, match=f"threads must be {rule}"):
                solve(toy_network, q, mode=mode, threads=threads)


def _record(res):
    return res.status, res.path and res.path.to_json(), res.explored


def _assert_same(par, seq):
    assert par.status == seq.status
    assert (par.path and par.path.to_json()) == (seq.path and seq.path.to_json())
    assert par.explored == seq.explored


def _threads(dispatched, sent):
    """How many threads searched in the one split kernel call that
    ``dispatched``, the fixture's list, recorded after its first ``sent``."""
    ((*_, threads),) = dispatched[sent:]
    return threads


def _os_threads():
    """The process's OS threads, the kernel's included, which ``threading``
    does not see."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("counts OS threads through /proc/self/task")
    return len(os.listdir("/proc/self/task"))


def _assert_agrees(net, q, dispatched, threads=2, **kwargs):
    """A parallel solve equals the sequential one, and it ran on ``threads``
    threads; ``dispatched`` is the fixture's list of split kernel calls."""
    seq = solve(net, q)
    sent = len(dispatched)
    par = solve(net, q, mode="parallel", threads=threads, **kwargs)
    _assert_same(par, seq)
    assert _threads(dispatched, sent) == threads


def _split_search(net, q, times, depth, cap):
    """One kernel search of ``q`` on two threads, split at ``depth`` from its
    first label; ``times`` are the bounds (the query's when None)."""
    flat = net.flat()
    if times is None:
        times = latest_departures(net, q.destination, q.t_arr, q.t_dep).times
    return flat.search(times, q.destination, q.t_arr, q.source, q.t_dep, cap,
                       2, depth, 0)


def _deferring_network():
    """A query whose second subtree, the first a helper thread claims, meets
    a NaN departure at once, which the kernel hands back; the eight others
    hold some 10^5 labels each."""
    dest = 11
    steep = ArrivalProfile([(0.0, 0.0)])
    edges = [_edge(0, 3, 1.0, 1.0), Edge(0, 1, steep, ScoreProfile.constant(1.0)),
             _edge(1, 2, 1.0, 1.0)]
    edges += [_edge(0, v, 1.0, 1.0) for v in range(4, 11)]
    edges += [_edge(u, v, 1.0, 1.0) for u in range(2, 11) for v in range(2, 12) if u != v]
    net = build_network(12, edges)
    # The profile check refuses an overflowing segment, so it is put in after
    # the network is built: its arrival at a breakpoint is inf * 0.
    steep.xs, steep.ys = (-1.7e308, -1e308, 5e307), (-1.7e308, -1e308, 1.7e308)
    return net, Query.from_budget(0, dest, -1e308, 10.0)


class TestWorkerPool:
    """A parallel solve searches on threads that end with it."""

    def test_edge_thresholds_do_not_outlive_their_query(self, dispatched):
        """In the first query, the search rejects the edge H->Y (Y cannot
        reach D1 in time) and records its threshold; the second query's
        optimum takes H->Y at the same departure.  The second solve must not
        start from the first query's thresholds, or it prunes that optimum."""
        src, hub, y, d1, d2 = 0, 4, 5, 6, 7
        edges = [_edge(src, i, 1.0, 0.0) for i in (1, 2, 3)]
        edges += [_edge(i, hub, 1.0, 0.0) for i in (1, 2, 3)]
        edges += [
            _edge(hub, d1, 1.0, 0.0),
            _edge(hub, y, 1.0, 5.0),
            _edge(y, d1, 10.0, 0.0),
            _edge(y, d2, 1.0, 0.0),
        ]
        net = build_network(8, edges)
        first, second = _query(net, src, d1, 0.0, 4.0), _query(net, src, d2, 0.0, 10.0)
        _assert_agrees(net, first, dispatched)
        _assert_agrees(net, second, dispatched)
        assert solve(net, second).path.nodes == (src, 1, hub, y, d2)

    def test_solve_after_a_cap_hit_agrees(self, grid16, dispatched):
        net, queries = grid16
        before = _os_threads()
        _assert_agrees(net, queries[0], dispatched)
        capped = solve(net, queries[-1], mode="parallel", threads=2,
                       max_expansions=2000)
        assert capped.status == STATUS_LIMIT
        assert _os_threads() == before  # no thread outlives the cap hit
        _assert_agrees(net, queries[0], dispatched)

    def test_two_networks_solved_alternately(self, grid16, dispatched):
        net, queries = grid16
        twin = build_network(net.node_count, net.edges)
        for q in (queries[0], queries[3]):
            for network in (net, twin):
                _assert_agrees(network, q, dispatched)

    @pytest.mark.parametrize("stop", ["limit", "defer"])
    def test_a_stop_in_one_thread_ends_every_thread(self, grid16, stop):
        """A thread that counts past the cap, or meets an input the kernel
        hands back, stops the other's search: fewer subtrees are claimed
        than the full search claims, and no OS thread outlives the call."""
        if stop == "limit":
            net, queries = grid16
            q, times, depth, cap = queries[6], None, 3, 500
            full = _split_search(net, q, times, depth, None)
            assert full[0] == kernel.DONE and full[1] > 20 * cap
            subtrees = full[3]
            want = (kernel.LIMIT, cap + 1)
        else:
            net, q = _deferring_network()
            times, depth, cap = [math.inf] * net.node_count, 1, None
            subtrees = len(net.out_edges[q.source])  # none to the destination
            want = (kernel.DEFER,)
        before = _os_threads()
        status, explored, _, claimed, threads = _split_search(net, q, times, depth, cap)
        assert _os_threads() == before
        assert (status, explored)[: len(want)] == want
        assert threads == 2
        assert 0 < claimed < subtrees

    def test_solves_from_two_threads_at_once(self, grid16, dispatched, monkeypatch):
        """Two callers solve in parallel mode at once, with more threads
        than cores and a short switch interval; every answer and count is
        the sequential one."""
        net, queries = grid16
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        indices = range(7)  # the last query only runs under a cap
        want = {i: _record(solve(net, queries[i])) for i in indices}
        got, errors = [], []

        def run(order):
            try:
                for i in order:
                    res = solve(net, queries[i], mode="parallel", threads=4)
                    got.append((i, _record(res)))
            except BaseException as exc:
                errors.append(exc)

        callers = [
            threading.Thread(target=run, args=(order,))
            for order in (list(indices), list(reversed(indices)))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        assert len(got) == 2 * len(want)
        for i, record in got:
            assert record == want[i]
        assert dispatched


class TestProbe:
    """The kernel searches alone until it has counted ``_PROBE_LABELS``
    labels, and only a search that outgrows them starts the other threads."""

    @pytest.fixture(autouse=True)
    def shipped(self, dispatched, monkeypatch):
        monkeypatch.setattr(solver, "_PROBE_LABELS", PROBE_LABELS)
        monkeypatch.setattr(solver, "_SPLIT_DEPTH", SPLIT_DEPTH)

    def test_search_within_the_budget_sends_no_task(self, grid16, dispatched):
        net, queries = grid16
        for q in queries[:4]:
            seq = solve(net, q)
            assert seq.explored <= PROBE_LABELS
            sent = len(dispatched)
            _assert_same(solve(net, q, mode="parallel", threads=2), seq)
            assert _threads(dispatched, sent) == 1

    def test_search_past_the_budget_is_dispatched(self, grid16, dispatched):
        net, queries = grid16
        q = queries[4]
        seq = solve(net, q)
        assert seq.explored > PROBE_LABELS
        _assert_same(solve(net, q, mode="parallel", threads=2), seq)
        assert _threads(dispatched, 0) == 2

    def test_cap_within_the_budget_is_the_sequential_limit(self, grid16, dispatched):
        net, queries = grid16
        q = queries[-1]
        for cap in (0, 1, 2000, PROBE_LABELS + 1):
            seq = solve(net, q, max_expansions=cap)
            assert seq.status == STATUS_LIMIT
            sent = len(dispatched)
            par = solve(net, q, mode="parallel", threads=2, max_expansions=cap)
            _assert_same(par, seq)
            assert _threads(dispatched, sent) == 1


class TestNetworkReuse:
    """Solves reuse the network's columns and flat arrays; reuse changes
    nothing."""

    def test_replaced_profile_methods_see_every_call(self, grid16, monkeypatch):
        net, queries = grid16
        q = queries[0]
        before = solve(net, q)  # the flat arrays are built with the originals
        counts = {}
        for cls, name in (
            (ArrivalProfile, "arrival"),
            (ArrivalProfile, "latest_departure"),
            (ScoreProfile, "value"),
        ):
            def counted(profile, t, name=name, method=getattr(cls, name)):
                counts[name] += 1
                return method(profile, t)

            monkeypatch.setattr(cls, name, counted)
        answers, seen = [], []
        for network in (net, build_network(net.node_count, net.edges)):
            counts.update(arrival=0, latest_departure=0, value=0)
            assert network.flat() is None  # the Python engine searches
            answers.append(solve(network, q))
            seen.append(dict(counts))
        reused, fresh = seen
        assert min(reused.values()) > 0
        # the solved-before network counts exactly what a fresh one does
        assert reused == fresh
        for res in answers:
            assert res.status == before.status
            assert res.path.to_json() == before.path.to_json()
            assert res.explored == before.explored

    def test_repeated_solves_match_a_fresh_network(self, grid16):
        net, queries = grid16
        for q in queries[:6]:  # the rest take a minute to solve
            fresh = solve(build_network(net.node_count, net.edges), q)
            for _ in range(2):
                for kwargs in ({}, {"mode": "parallel", "threads": 2}):
                    res = solve(net, q, **kwargs)
                    assert res.status == fresh.status
                    assert res.path.to_json() == fresh.path.to_json()
                    assert res.explored == fresh.explored


@pytest.mark.parametrize("engine", ["kernel", "python"])
def test_solve_leaves_the_collector_switch_alone(toy_network, monkeypatch, engine):
    """A solve never sets the process-wide collector switch, so a thread
    that turns the collector off while a search runs finds it off after:
    a pause around the search re-enabled it on its way out."""
    if engine == "kernel":
        if toy_network.flat() is None:
            pytest.skip("no compiled kernel: test_kernel.py says why")
        owner, name = kernel.FlatNetwork, "search"
    else:
        monkeypatch.setattr(RoadNetwork, "flat", lambda self: None)
        owner, name = solver, "_fast_search"
    search = getattr(owner, name)

    def disabling(*args):
        found = search(*args)
        gc.disable()  # as another thread may do while the search runs
        return found

    monkeypatch.setattr(owner, name, disabling)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        res = solve(toy_network, _query(toy_network, 0, 1, 0.0, 8.0))
        assert not gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert res.path.nodes == (0, 2, 1)


class _Slowed(ArrivalProfile):
    """A profile one minute slower than its breakpoints, on every call."""

    def arrival(self, departure):
        return super().arrival(departure) + 1.0

    def latest_departure(self, arrival_by):
        return super().latest_departure(arrival_by - 1.0)


class TestProfileSubclass:
    def test_overrides_are_honoured_by_every_python_traversal(self):
        """A network of ``_Slowed`` constant profiles answers as the network
        whose travel times are one minute longer: the budget derivation's
        loop, the bounds and the search (constrained or not) call the
        overrides.  Integer times keep both sides exact."""
        rng = random.Random(20)
        differs = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            slowed, plain, base = [], [], []
            for u, v in rng.sample(pairs, rng.randint(n, len(pairs))):
                tt, score = rng.randint(1, 4), ScoreProfile.constant(rng.randint(0, 5))
                slowed.append(Edge(u, v, _Slowed.constant(tt), score))
                plain.append(Edge(u, v, ArrivalProfile.constant(tt + 1), score))
                base.append(Edge(u, v, ArrivalProfile.constant(tt), score))
            slowed, plain, base = (build_network(n, e) for e in (slowed, plain, base))
            assert slowed.flat() is None  # a subclass: Python traverses it
            s, d = rng.sample(range(n), 2)
            t_dep = float(rng.randint(0, 10))
            reached = earliest_arrival(slowed, s, d, t_dep)
            assert reached == earliest_arrival(plain, s, d, t_dep)
            differs += reached != earliest_arrival(base, s, d, t_dep)
            t_arr = t_dep + rng.randint(2, 12)
            got = latest_departures(slowed, d, t_arr, t_dep)
            want = latest_departures(plain, d, t_arr, t_dep)
            assert (got.times, got.witness) == (want.times, want.witness)
            q = _query(slowed, s, d, t_dep, t_arr - t_dep)
            hops = Constraint(cost=lambda edge, t: 1.0, budget=3.0)
            for constraints in ((), (hops,)):
                assert _record(solve(slowed, q, constraints)) == _record(
                    solve(plain, q, constraints)
                )
        assert differs > 10


class TestConstraints:
    def test_hop_budget_excludes_detour(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=1.0)
        res = solve(toy_network, q, constraints=[hops])
        assert res.path.nodes == (0, 1)
        assert res.path.score == 5.0

    def test_loose_secondary_budget_changes_nothing(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=5.0)
        res = solve(toy_network, q, constraints=[hops])
        assert res.path.nodes == (0, 2, 1)

    def test_unsatisfiable_secondary_budget_is_infeasible(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=0.5)
        res = solve(toy_network, q, constraints=[hops])
        assert res.status == STATUS_INFEASIBLE

    def test_oracle_agreement_under_constraints(self):
        rng = random.Random(17)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=3.0)
        for _ in range(60):
            net, q = random_instance(rng)
            got = solve(net, q, constraints=[hops])
            want = best_path_by_enumeration(net, q, constraints=[hops])
            assert got.status == want.status
            if got.path is not None:
                assert got.path.score == want.path.score
                assert got.path.nodes == want.path.nodes

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, -1.0])
    def test_budget_must_be_finite_and_non_negative(self, budget):
        """A NaN budget never bound: ``x > nan`` is False."""
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            Constraint(cost=lambda edge, t: 1.0, budget=budget)

    def test_nan_cost_is_refused(self, toy_network):
        """A NaN cost made the running total NaN, which no budget binds."""
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: math.nan, budget=1.0)
        with pytest.raises(ValueError, match="must be numbers >= 0"):
            solve(toy_network, q, constraints=[hops])

    def test_negative_cost_is_refused(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        credit = Constraint(cost=lambda edge, t: -1.0, budget=1.0)
        with pytest.raises(ValueError, match="must be numbers >= 0"):
            solve(toy_network, q, constraints=[credit])

    def test_parallel_respects_constraints(self, toy_network, dispatched):
        # The Python engine holds the interpreter lock, so a constrained
        # parallel solve runs the sequential search.
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=1.0)
        res = solve(toy_network, q, constraints=[hops], mode="parallel", threads=2)
        assert res.path.nodes == (0, 1)
        _assert_same(res, solve(toy_network, q, constraints=[hops]))
        assert not dispatched


class TestExplorationCap:
    def test_cap_aborts_with_limit_status(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        res = solve(toy_network, q, max_expansions=2)
        assert res.status == STATUS_LIMIT
        assert res.path is None
        assert res.explored >= 2

    def test_parallel_cap_stops_the_search(self, grid16, dispatched):
        net, queries = grid16
        cap = 2000
        for q in queries[6:]:
            assert solve(net, q, max_expansions=cap).status == STATUS_LIMIT
            sent = len(dispatched)
            res = solve(net, q, mode="parallel", threads=2, max_expansions=cap)
            assert res.status == STATUS_LIMIT
            assert res.path is None
            # the threads finished before stay within the cap, and the one
            # that crosses it adds at most the remainder plus one
            assert cap < res.explored <= 2 * cap + 1
            assert len(dispatched) > sent

    @pytest.mark.parametrize(
        "probe, depth", [(0, 1), (0, SPLIT_DEPTH), (PROBE_LABELS, SPLIT_DEPTH)]
    )
    def test_capped_parallel_solve_is_the_sequential_one(
        self, grid16, dispatched, monkeypatch, probe, depth
    ):
        """Caps within and past the probe, on one to four threads, give the
        sequential status and ``explored``: a limit counts what the
        sequential search counts, whichever thread crosses the cap, and so
        does a cap that only the threads' sum crosses."""
        monkeypatch.setattr(solver, "_PROBE_LABELS", probe)
        monkeypatch.setattr(solver, "_SPLIT_DEPTH", depth)
        net, queries = grid16
        caps = (0, 1, 2000, PROBE_LABELS, PROBE_LABELS + 1, PROBE_LABELS + 2,
                7000, 20_000, 100_000)
        for q in (queries[4], queries[6], queries[8]):
            # one label short of the search: only the threads' sum crosses it
            labels = solve(net, q).explored
            for cap in caps + (labels - 1,):
                seq = solve(net, q, max_expansions=cap)
                for threads in (1, 2, 3, 4):
                    par = solve(net, q, mode="parallel", threads=threads,
                                max_expansions=cap)
                    _assert_same(par, seq)
        assert any(threads > 1 for *_, threads in dispatched)

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    @pytest.mark.parametrize("cap", [1.5, math.nan, 4.0, True])
    def test_cap_that_is_not_an_int_rejected(self, toy_network, mode, cap):
        """A float cap ended in a ``ctypes`` error and a NaN one limited every
        search; a bool is not a count either."""
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        with pytest.raises(ValueError, match="max_expansions must be an int or None"):
            solve(toy_network, q, mode=mode, max_expansions=cap)

    def test_generous_cap_is_invisible(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        res = solve(toy_network, q, max_expansions=10_000)
        assert res.status == STATUS_OK and res.path.score == 7.0


class TestDominanceRegression:
    def test_solver_beats_dominance_pruned_search(self, dominance_trap_network):
        net = dominance_trap_network
        q = Query.from_budget(0, 3, 0.0, 8.0)
        full = solve(net, q)
        assert full.status == STATUS_OK
        assert full.path.score == 7.0
        assert full.path.nodes == (0, 2, 1, 3)  # A -> C -> B -> D
        pruned = best_score_with_dominance(net, q)
        assert pruned == 6.0
