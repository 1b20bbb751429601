import gc
import multiprocessing
import multiprocessing.pool
import os
import random
import sys

import pytest

from wayscore import solver
from wayscore.datagen import GenConfig, generate_network, generate_query_sets
from wayscore.network import Edge, build_network
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
    _better,
    _build_frontier,
    _fast_search,
    _SearchState,
    _verified_path,
    solve,
)
from wayscore.traversal import Query, latest_departures


# The probe budget as shipped; the ``dispatched`` fixture patches it to 0.
PROBE_LABELS = solver._PROBE_LABELS


def _query(net, s, d, t_dep, budget):
    return Query.from_budget(s, d, t_dep, budget)


def _edge(u, v, tt, score):
    return Edge(u, v, ArrivalProfile.constant(tt), ScoreProfile.constant(score))


def _state(net, q):
    """The search state solve() builds for ``q``, with no expansion cap."""
    bounds = latest_departures(net, q.destination, q.t_arr, q.t_dep)
    return _SearchState(
        net.prepared().out_adj, bounds.times, q.destination, q.t_arr, (), None
    )


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
        state = _state(toy_network, q)
        # searching on from the prefix A->C, reached at t=3 with score 0
        best = _fast_search(state, (0, 2), 3.0, 0.0, ())
        assert best == (7.0, 5.0, (0, 2, 1))
        assert state.explored == 1

    def test_label_at_destination_returns_itself(self, toy_network):
        # A->C reaches the destination C; its out-edges C->A and C->B are
        # not expanded.  Without bounds the count is the source, A->B, A->C.
        res = solve(toy_network, _query(toy_network, 0, 2, 0.0, 8.0), pruning=False)
        assert res.path.nodes == (0, 2)
        assert res.explored == 3

    def test_sink_collects_children_instead_of_searching(self, toy_network):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        state = _state(toy_network, q)
        tasks = []
        best = _fast_search(state, (0,), 0.0, 0.0, (), tasks)
        # the destination child is a candidate; the other child is a task
        assert best == (5.0, 2.0, (0, 1))
        assert tasks == [((0, 2), 3.0, 0.0, ())]
        assert state.explored == 2


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
    def test_frontier_tasks_reduce_to_sequential_search(self):
        """Splitting the search into frontier tasks, searching each to the
        end and reducing the candidates gives solve()'s path and count."""
        rng = random.Random(88)
        for _ in range(40):
            net, q = random_instance(rng)
            res = solve(net, q)
            if res.explored == 0:  # ruled out by the bounds before searching
                continue
            state = _state(net, q)
            state.explored = 1
            tasks, found = _build_frontier(
                state, ((q.source,), q.t_dep, 0.0, ()), 2, 10**9
            )
            found += [_fast_search(state, *task) for task in tasks]
            found = [c for c in found if c is not None]
            assert state.explored == res.explored
            if res.path is None:
                assert found == []
                continue
            best = found[0]
            for cand in found[1:]:
                if _better(cand, best):
                    best = cand
            assert best == (res.path.score, res.path.arrival, res.path.nodes)


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
            par = solve(net, q, mode="parallel", threads=2, fork_depth=1)
            assert seq.status == par.status
            if seq.path is not None:
                assert par.path.to_json() == seq.path.to_json()
            assert par.explored == seq.explored
        assert dispatched

    def test_grid_frontiers_agree_with_sequential(self, grid16, dispatched):
        net, queries = grid16
        for q in queries[:6]:
            seq = solve(net, q)
            for depth in (1, None):
                sent = len(dispatched)
                par = solve(net, q, mode="parallel", threads=2, fork_depth=depth)
                assert par.status == seq.status
                assert par.path.to_json() == seq.path.to_json()
                assert par.explored == seq.explored
                if depth == 1:  # a default-depth frontier may use up the tree
                    assert len(dispatched) > sent

    def test_deep_path_leaves_the_recursion_limit_alone(self, chain3200, dispatched):
        # In parallel, a worker searches the task that holds the chain's tail.
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
        assert dispatched

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


def _workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _refuse(*args, **kwargs):
    raise AssertionError("a process or a task was requested")


def _assert_same(par, seq):
    assert par.status == seq.status
    assert (par.path and par.path.to_json()) == (seq.path and seq.path.to_json())
    assert par.explored == seq.explored


def _assert_agrees(net, q, dispatched, threads=2, constraints=(), **kwargs):
    """A parallel solve equals the sequential one, and its tasks reached the
    workers; ``dispatched`` is the fixture's list of task results."""
    seq = solve(net, q, constraints=constraints)
    sent = len(dispatched)
    par = solve(net, q, constraints=constraints, mode="parallel", threads=threads,
                **kwargs)
    _assert_same(par, seq)
    assert len(dispatched) > sent
    assert _workers()


class TestWorkerPool:
    """Parallel solves on one network share a pool of forked workers."""

    def test_two_solves_reuse_the_pool(self, grid16, dispatched):
        net, queries = grid16
        _assert_agrees(net, queries[0], dispatched)
        workers = _workers()
        _assert_agrees(net, queries[1], dispatched)
        assert _workers() == workers

    def test_new_pool_after_a_prepared_rebuild(self, grid16, dispatched, monkeypatch):
        net, queries = grid16
        _assert_agrees(net, queries[0], dispatched)
        workers = _workers()
        arrival = ArrivalProfile.arrival
        monkeypatch.setattr(
            ArrivalProfile, "arrival", lambda profile, t: arrival(profile, t)
        )
        _assert_agrees(net, queries[0], dispatched)
        assert _workers().isdisjoint(workers)

    def test_new_pool_after_a_constraints_change(self, grid16, dispatched):
        net, queries = grid16
        loose = [Constraint(cost=lambda edge, t: 1.0, budget=1000.0)]
        _assert_agrees(net, queries[0], dispatched)
        workers = _workers()
        _assert_agrees(net, queries[0], dispatched, constraints=loose)
        assert _workers().isdisjoint(workers)
        workers = _workers()
        same = list(loose)  # the same constraint objects in a new list
        _assert_agrees(net, queries[1], dispatched, constraints=same)
        assert _workers() == workers
        other = [Constraint(cost=lambda edge, t: 1.0, budget=1000.0)]
        _assert_agrees(net, queries[1], dispatched, constraints=other)
        assert _workers().isdisjoint(workers)

    def test_new_pool_after_a_thread_count_change(self, grid16, dispatched, monkeypatch):
        net, queries = grid16
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        _assert_agrees(net, queries[0], dispatched, threads=2)
        workers = _workers()
        assert len(workers) == 2
        _assert_agrees(net, queries[0], dispatched, threads=3)
        assert len(_workers()) == 3 and _workers().isdisjoint(workers)

    def test_edge_thresholds_do_not_outlive_their_query(self, dispatched, monkeypatch):
        """In the first query, every worker task rejects the edge H->Y (Y
        cannot reach D1 in time) and records its threshold; the second
        query's optimum takes H->Y at the same departure.  The worker must
        drop the first query's thresholds, or it prunes that optimum."""
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
        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # one worker runs every task
        first, second = _query(net, src, d1, 0.0, 4.0), _query(net, src, d2, 0.0, 10.0)
        _assert_agrees(net, first, dispatched, fork_depth=1)
        _assert_agrees(net, second, dispatched, fork_depth=1)
        assert len(_workers()) == 1
        assert solve(net, second).path.nodes == (src, 1, hub, y, d2)

    def test_solve_after_a_cap_hit_agrees(self, grid16, dispatched):
        net, queries = grid16
        _assert_agrees(net, queries[0], dispatched)
        capped = solve(net, queries[-1], mode="parallel", threads=2,
                       max_expansions=2000)
        assert capped.status == STATUS_LIMIT
        assert not _workers()  # the busy workers were terminated
        _assert_agrees(net, queries[0], dispatched)

    def test_two_networks_solved_alternately(self, grid16, dispatched):
        net, queries = grid16
        twin = build_network(net.node_count, net.edges)
        for q in (queries[0], queries[3]):
            for network in (net, twin):
                _assert_agrees(network, q, dispatched)

    def test_pool_closes_when_the_network_is_collected(self, grid16, dispatched):
        net, queries = grid16
        own = build_network(net.node_count, net.edges)
        _assert_agrees(own, queries[0], dispatched)
        del own
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_first_solve_forks_the_pool_without_tasks(
        self, toy_network, monkeypatch
    ):
        # Whichever query comes first, a network in parallel use has workers,
        # even when the in-process probe answers that query.
        monkeypatch.setattr(multiprocessing.pool.Pool, "imap_unordered", _refuse)
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        res = solve(toy_network, q, mode="parallel", threads=2)
        _assert_same(res, solve(toy_network, q))
        assert _workers()

    def test_later_query_without_tasks_starts_no_process(
        self, toy_network, monkeypatch
    ):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        solve(toy_network, q, mode="parallel", threads=2)
        workers = _workers()
        monkeypatch.setattr(solver, "_WorkerPool", _refuse)
        monkeypatch.setattr(solver._pool.pool, "imap_unordered", _refuse)
        res = solve(toy_network, q, mode="parallel", threads=2)
        assert res.path.to_json() == solve(toy_network, q).path.to_json()
        assert _workers() == workers

    def test_without_fork_parallel_runs_sequential(self, grid16, monkeypatch):
        net, queries = grid16

        def no_parallel(*args):
            raise AssertionError("the parallel search ran")

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(solver, "_solve_parallel", no_parallel)
        for q in queries[:2]:
            seq = solve(net, q)
            par = solve(net, q, mode="parallel", threads=2)
            assert par.status == seq.status
            assert par.path.to_json() == seq.path.to_json()
            assert par.explored == seq.explored


class TestProbe:
    """A parallel solve searches in-process first, and only a search that
    outgrows ``_PROBE_LABELS`` is split into tasks for the workers."""

    def test_search_within_the_budget_sends_no_task(self, grid16, monkeypatch):
        net, queries = grid16
        for q in queries[:4]:
            seq = solve(net, q)
            assert seq.explored <= solver._PROBE_LABELS
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing.pool.Pool, "imap_unordered", _refuse)
                par = solve(net, q, mode="parallel", threads=2)
            _assert_same(par, seq)

    def test_search_past_the_budget_is_dispatched(
        self, grid16, dispatched, monkeypatch
    ):
        monkeypatch.setattr(solver, "_PROBE_LABELS", PROBE_LABELS)
        net, queries = grid16
        q = queries[4]
        seq = solve(net, q)
        assert seq.explored > PROBE_LABELS
        par = solve(net, q, mode="parallel", threads=2)
        _assert_same(par, seq)
        assert dispatched

    def test_cap_within_the_budget_is_the_sequential_limit(
        self, grid16, monkeypatch
    ):
        net, queries = grid16
        q = queries[-1]
        solve(net, queries[0], mode="parallel", threads=2)  # the pool is ready
        workers = _workers()
        for cap in (0, 1, 2000, solver._PROBE_LABELS + 1):
            seq = solve(net, q, max_expansions=cap)
            assert seq.status == STATUS_LIMIT
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing.pool.Pool, "imap_unordered", _refuse)
                par = solve(net, q, mode="parallel", threads=2, max_expansions=cap)
            _assert_same(par, seq)
        assert _workers() == workers  # the probe's cap hit stopped no worker


class TestPreparedNetwork:
    """Solves reuse the network's prepared adjacency; reuse changes nothing."""

    def test_replaced_profile_methods_see_every_call(self, grid16, monkeypatch):
        net, queries = grid16
        q = queries[0]
        before = solve(net, q)  # the prepared adjacency binds the originals
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

    def test_parallel_respects_constraints(self, toy_network, dispatched):
        q = _query(toy_network, 0, 1, 0.0, 8.0)
        hops = Constraint(cost=lambda edge, t: 1.0, budget=1.0)
        res = solve(
            toy_network, q, constraints=[hops], mode="parallel", threads=2,
            fork_depth=1,
        )
        assert res.path.nodes == (0, 1)
        assert dispatched


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
            # the frontier and the finished tasks stay within the cap, and
            # the task that crosses it adds at most the remainder plus one
            assert cap < res.explored <= 2 * cap + 1
            assert len(dispatched) > sent

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
