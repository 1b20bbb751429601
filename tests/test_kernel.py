"""The compiled kernel against the Python code it copies.

Every comparison solves a query twice, once as shipped and once with the
Python engine forced, and requires the same status, ``to_json()`` and
``explored``, and that the kernel really ran and did not hand the search
back to Python.  ``earliest_arrival`` is compared the same way, on its
``(t, path)``.
"""

import ctypes
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from wayscore import kernel, solver
from wayscore.network import Edge, RoadNetwork, build_network
from wayscore.profiles import TIME_EPS, ArrivalProfile, ScoreProfile
from wayscore.reference import random_instance
from wayscore.solver import (
    STATUS_INFEASIBLE,
    STATUS_LIMIT,
    STATUS_OK,
    Constraint,
    _fast_search,
    solve,
)
from wayscore.traversal import Query, QueryError, earliest_arrival, latest_departures

TESTS = Path(__file__).resolve().parent


def _record(res):
    return res.status, res.path and res.path.to_json(), res.explored


def _edge(u, v, tt, score):
    return Edge(u, v, ArrivalProfile.constant(tt), ScoreProfile.constant(score))


@pytest.fixture
def kernel_runs(kernel_runs):
    """The conftest fixture, for tests that need the kernel to exist."""
    if kernel.library() is None:
        pytest.skip("no compiled kernel: test_kernel_loads_where_gcc_exists says why")
    return kernel_runs


@pytest.fixture
def earliest_runs(earliest_runs):
    """The conftest fixture, for tests that need the kernel to exist."""
    if kernel.library() is None:
        pytest.skip("no compiled kernel: test_kernel_loads_where_gcc_exists says why")
    return earliest_runs


def _python(net, q, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoadNetwork, "flat", lambda self: None)
        return solve(net, q, **kwargs)


def _assert_engines_agree(net, q, kernel_runs, **kwargs):
    """The kernel's solve equals the Python engine's, and the kernel ran
    (unless the bounds ruled the query out before any search)."""
    ran = len(kernel_runs)
    got = solve(net, q, **kwargs)
    assert _record(got) == _record(_python(net, q, **kwargs))
    if got.explored > 1 or kwargs.get("max_expansions") is not None:
        assert len(kernel_runs) > ran
    assert kernel.DEFER not in kernel_runs[ran:]
    return got


def _assert_searches_agree(net, q, workers=1, depth=solver._SPLIT_DEPTH,
                           probe=solver._PROBE_LABELS, cap=None):
    """The kernel's search of ``q`` on ``workers`` threads, split ``depth``
    edges deep past ``probe`` labels, returns the Python engine's ``(status,
    explored, candidate)``, so it did not defer, and the candidate's computed
    score and arrival are equal to the last bit (a solve compares only the
    path that the forward simulation rebuilds from it).  Returns the
    kernel's ``(claimed, threads)``."""
    times = latest_departures(net, q.destination, q.t_arr, q.t_dep).times
    args = (times, q.destination, q.t_arr, q.source, q.t_dep, cap)
    *got, claimed, threads = net.flat().search(*args, workers, depth, probe)
    assert tuple(got) == _fast_search(net, *args)
    return claimed, threads


def test_kernel_loads_where_gcc_exists():
    """A silent fallback would make every comparison here vacuous."""
    if shutil.which(kernel.COMPILE[0]) is None:
        pytest.skip(f"{kernel.COMPILE[0]} is not on PATH")
    assert kernel.library() is not None, "gcc is on PATH but the kernel did not load"


class TestEquivalence:
    def test_oracle_instances(self, kernel_runs):
        rng = random.Random(2024)
        for _ in range(500):
            _assert_engines_agree(*random_instance(rng), kernel_runs)

    def test_without_pruning(self, kernel_runs):
        rng = random.Random(2024)
        for _ in range(500):
            _assert_engines_agree(*random_instance(rng), kernel_runs, pruning=False)

    def test_grid_queries(self, grid16, kernel_runs):
        net, queries = grid16
        for q in queries[:6]:
            assert _assert_engines_agree(net, q, kernel_runs).status == STATUS_OK

    @pytest.mark.parametrize(
        "cap", [0, 1, 2000, solver._PROBE_LABELS + 1, -7, 2**64 + 5]
    )
    def test_caps(self, grid16, kernel_runs, cap):
        net, queries = grid16
        small, huge = queries[5], queries[-1]
        _assert_engines_agree(net, small, kernel_runs, max_expansions=cap)
        if cap <= 2**63:
            res = _assert_engines_agree(net, huge, kernel_runs, max_expansions=cap)
            assert res.status == STATUS_LIMIT
            # the source label, then one label past what the cap leaves
            assert res.explored == max(cap, 1) + 1
            _assert_searches_agree(net, huge, cap=cap)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_claimed_subtrees_reduce_to_sequential_search(
        self, grid16, kernel_runs, depth
    ):
        """Split at ``depth`` from the first label, on one thread and on two,
        the kernel's reduced candidate and summed count are the Python
        engine's, and each subtree is searched by exactly one thread."""
        rng = random.Random(88)
        net16, queries = grid16
        instances = [random_instance(rng) for _ in range(40)]
        instances += [(net16, q) for q in queries[:6]]
        split_any = 0
        for net, q in instances:
            res = solve(net, q)
            if res.explored == 0:  # ruled out by the bounds before searching
                continue
            subtrees = _subtrees(net, q, depth)
            for workers in (1, 2):
                claimed, threads = _assert_searches_agree(net, q, workers, depth, 0)
                assert claimed == subtrees
                # the helper starts at the first label counted
                assert threads == (workers if res.explored > 1 else 1)
            split_any += subtrees > 1
        assert split_any >= 10
        assert kernel.DEFER not in kernel_runs

    def test_prefix_tasks(self, kernel_runs):
        """The subtrees two edges from the source, searched in the kernel by
        one thread that claims them all, give the Python engine's candidate
        and count."""
        rng = random.Random(88)
        subtrees_seen = 0
        for _ in range(40):
            net, q = random_instance(rng)
            claimed, threads = _assert_searches_agree(net, q, 1, 2, 0)
            assert threads == 1
            assert claimed == _subtrees(net, q, 2)
            subtrees_seen += claimed
        assert subtrees_seen >= 30

    def test_tie_breaking_networks(self, kernel_runs):
        nets = [
            build_network(4, [_edge(0, 1, 1.0, 3.0), _edge(1, 3, 1.0, 3.0),
                              _edge(0, 2, 2.0, 3.0), _edge(2, 3, 2.0, 3.0)]),
            build_network(4, [_edge(0, 2, 1.0, 3.0), _edge(2, 3, 1.0, 3.0),
                              _edge(0, 1, 1.0, 3.0), _edge(1, 3, 1.0, 3.0)]),
        ]
        # A 4x4 grid of equal edges: every path of a length ties on score and
        # arrival, so only the node sequence decides.
        grid = []
        for r in range(4):
            for c in range(4):
                u = 4 * r + c
                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    if 0 <= r + dr < 4 and 0 <= c + dc < 4:
                        grid.append(_edge(u, u + 4 * dr + dc, 1.0, 1.0))
        nets.append(build_network(16, grid))
        for net in nets[:2]:
            res = _assert_engines_agree(net, Query.from_budget(0, 3, 0.0, 10.0),
                                        kernel_runs)
            assert res.path.nodes == (0, 1, 3)
        for budget in (6.0, 10.0, 14.0):
            _assert_engines_agree(nets[2], Query.from_budget(0, 15, 0.0, budget),
                                  kernel_runs)

    def test_arrival_exactly_at_the_deadline(self, kernel_runs):
        """Without bounds, only the deadline check admits an arrival, and it
        admits one at ``t_arr + TIME_EPS`` exactly."""
        net = build_network(3, [_edge(0, 1, 2.0, 1.0), _edge(1, 2, 1.0, 1.0),
                                _edge(0, 2, 3.0, 0.0)])
        for dest, arrival in ((1, 12.0), (2, 13.0)):
            t_arr = arrival - 1e-9
            assert t_arr + 1e-9 == arrival
            q = Query(0, dest, 10.0, "abs", t_arr - 10.0, t_arr - 10.0, t_arr)
            _assert_engines_agree(net, q, kernel_runs)
            res = _assert_engines_agree(net, q, kernel_runs, pruning=False)
            assert res.status == STATUS_OK and res.path.arrival == arrival

    def test_single_breakpoint_edges(self, kernel_runs):
        rng = random.Random(5)
        for _ in range(150):
            net, q = random_instance(rng, max_breakpoints=1)
            assert all(len(e.arrival.xs) == 1 for e in net.edges)
            _assert_engines_agree(net, q, kernel_runs)

    def test_segments_narrower_than_the_smallest_normal_float(self, kernel_runs):
        """Departures inside a segment a few subnormals wide, where the
        computed arrival can fall by part of the segment's rise from one
        departure to a later one, and ``floor_after`` must still bound it."""
        rng = random.Random(11)
        falls = 0
        for _ in range(200):
            w = rng.choice((1e-321, 4e-310, 2e-308))
            n = rng.randint(3, 7)
            edges = []
            for u in range(n):
                for v in rng.sample([v for v in range(n) if v != u], 2):
                    a = rng.uniform(0.0, 2.0)
                    b = a + rng.uniform(0.0, 2.0)
                    pairs = [(0.0, a), (w, b), (1.0, max(b, 1.0) + rng.random())]
                    edges.append(Edge(u, v, ArrivalProfile(pairs),
                                      ScoreProfile((0.0, w), (2.0,), 1.0)))
            net = build_network(n, edges)
            t_dep = rng.choice((w * rng.random(), w - 5e-324))
            falls += sum(
                net.edges[i].arrival.arrival(t_dep) > net.edges[i].arrival.arrival(w)
                for i in net.out_edges[0]
            )
            q = Query.from_budget(0, n - 1, t_dep, rng.uniform(0.5, 6.0))
            _assert_engines_agree(net, q, kernel_runs)
            _assert_engines_agree(net, q, kernel_runs, pruning=False)
            _assert_searches_agree(net, q)
        assert falls > 0

    def test_a_computed_fall_does_not_become_a_threshold(self, kernel_runs):
        """Node 1 is reached at departures 2u and then 3u (u the smallest
        subnormal).  Edge 1->3 overshoots the deadline from 2u, where its
        computed arrival is 1.333, but arrives at 1.3 from 3u.  Its floor
        after 2u is 1.3, within the deadline, so no threshold may be learned
        there, and the later departure must reach the destination."""
        u = 5e-324
        steep = ArrivalProfile([(0.0, 1.0), (3 * u, 1.3), (1.0, 2.3)])
        assert steep.arrival(2 * u) > steep.arrival(3 * u) == 1.3
        one = ScoreProfile.constant(1.0)
        net = build_network(4, [
            Edge(0, 1, ArrivalProfile.constant(0.0), one),
            Edge(0, 2, ArrivalProfile.constant(0.0), one),
            Edge(2, 1, ArrivalProfile.constant(u), one),
            Edge(1, 3, steep, one),
        ])
        q = Query.from_budget(0, 3, 2 * u, 1.3 - 2 * u)
        res = _assert_engines_agree(net, q, kernel_runs)
        assert res.path.nodes == (0, 2, 1, 3)

    def test_constant_travel_segments(self, kernel_runs):
        """Segments whose arrival rises exactly as fast as the departure take
        ``arrival``'s exact branch, whose result the interpolation formula
        misses by an ulp at many departures."""
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randint(4, 8)
            edges = []
            for u in range(n):
                for v in rng.sample([v for v in range(n) if v != u], 2):
                    xs = sorted({round(rng.uniform(0.0, 30.0), 3) for _ in range(3)})
                    travel = round(rng.uniform(0.5, 5.0), 3)
                    edges.append(Edge(u, v, ArrivalProfile([(x, x + travel) for x in xs]),
                                      ScoreProfile.constant(float(rng.randint(0, 5)))))
            net = build_network(n, edges)
            q = Query.from_budget(0, n - 1, rng.uniform(0.0, 30.0), rng.uniform(2.0, 15.0))
            _assert_engines_agree(net, q, kernel_runs)
            _assert_searches_agree(net, q)

    def test_nan_departure_is_handed_to_python(self, kernel_runs):
        """An overflowing segment can make an arrival NaN, and the next edge's
        profile then indexes past its breakpoints in Python.  The kernel hands
        such a search back, so both engines fail the same way.  The profile
        check refuses such a segment, so it is put in after the network is
        built, as code that mutates a profile could."""
        assert _nan_outcome(solve) == _nan_outcome(_python)
        assert kernel_runs == [kernel.DEFER]

    def test_nan_departure_in_a_split_is_handed_to_python(
        self, kernel_runs, dispatched
    ):
        """A thread of a split search meets the NaN departure; the kernel
        call defers, and the Python engine repeats the search as in a
        sequential solve."""
        got = _nan_outcome(solve, mode="parallel", threads=2)
        assert got == _nan_outcome(_python)
        assert kernel_runs == [kernel.DEFER]
        assert [(status, threads) for status, *_, threads in dispatched] == [
            (kernel.DEFER, 2)
        ]

    def test_bounds_of_another_length_are_refused(self, grid16, kernel_runs,
                                                  monkeypatch):
        """The kernel reads one bound per node; packing them refuses any
        other count before the kernel is called."""
        net, queries = grid16
        q, flat = queries[0], net.flat()
        monkeypatch.setattr(flat, "_lib", None)  # a call would raise otherwise
        for n in (0, net.node_count - 1, net.node_count + 1):
            with pytest.raises(struct.error):
                flat.search([math.inf] * n, q.destination, q.t_arr, q.source,
                            q.t_dep, None, 1, 1, 0)
        assert kernel_runs == []

    def test_edgeless_network_is_searched(self, kernel_runs):
        """A network without edges gives the kernel an empty threshold
        buffer to allocate, which must not read as a failed allocation."""
        net = build_network(2, [])
        res = solve(net, Query.from_budget(0, 1, 0.0, 5.0), pruning=False)
        assert (res.status, res.explored) == (STATUS_INFEASIBLE, 1)
        assert kernel_runs == [kernel.DONE]

    def test_workers_search_with_the_kernel(self, grid16, dispatched, monkeypatch):
        """The threads search in the kernel: the Python engine is refused."""
        net, queries = grid16
        q = queries[4]
        want = _record(solve(net, q))
        monkeypatch.setattr(solver, "_fast_search", _refuse_python)
        got = solve(net, q, mode="parallel", threads=2)
        assert _record(got) == want
        assert [threads for *_, threads in dispatched] == [2]


def _nan_outcome(run, **kwargs):
    """How ``run`` solves a query whose second edge departs at a NaN time."""
    steep = ArrivalProfile([(0.0, 0.0)])
    net = build_network(3, [
        Edge(0, 1, steep, ScoreProfile.constant(1.0)),
        _edge(1, 2, 1.0, 1.0),
    ])
    steep.xs, steep.ys = (-1.7e308, -1e308, 5e307), (-1.7e308, -1e308, 1.7e308)
    try:
        return _record(run(net, Query.from_budget(0, 2, -1e308, 10.0),
                           pruning=False, **kwargs))
    except Exception as exc:  # the engines must fail alike
        return type(exc)


def _refuse_python(*args):
    raise AssertionError("the Python engine searched")


def _subtrees(net, q, depth):
    """The labels ``depth`` edges from the source that do not end at the
    destination: the subtrees of a split at ``depth``."""
    bounds = latest_departures(net, q.destination, q.t_arr, q.t_dep).times

    def count(path, t):
        found = 0
        for i in net.out_edges[path[-1]]:
            head, arr = net.heads[i], net.arrivals[i].arrival(t)
            if head in path or head == q.destination or arr > bounds[head] + TIME_EPS:
                continue
            found += 1 if len(path) == depth else count(path + [head], arr)
        return found

    return count([q.source], q.t_dep)


def _python_earliest(net, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RoadNetwork, "flat", lambda self: None)
        return earliest_arrival(net, *args)


class TestEarliestArrival:
    """``ws_earliest`` gives the Python loop's ``(t, path)``, or hands the
    query back to it."""

    def test_oracle_instances(self, earliest_runs):
        rng = random.Random(2024)
        for _ in range(500):
            net, q = random_instance(rng)  # which derives q's budget itself
            args = (q.source, q.destination, q.t_dep)
            ran = len(earliest_runs)
            got = earliest_arrival(net, *args)
            assert got == _python_earliest(net, *args)
            assert type(got[0]) is float and type(got[1]) is list
            assert earliest_runs[ran:] == [kernel.DONE]

    @pytest.mark.parametrize("step", [8, pytest.param(1, marks=pytest.mark.slow)])
    def test_grid_pairs(self, grid16, earliest_runs, step):
        """Every pair from every ``step``-th source, each at its own departure
        across the day's profile breakpoints."""
        net, _ = grid16
        n = net.node_count
        pairs = [(s, d) for s in range(0, n, step) for d in range(n) if s != d]
        for s, d in pairs:
            args = (s, d, 300.0 + (7 * s + 3 * d) % 700)
            assert earliest_arrival(net, *args) == _python_earliest(net, *args)
        assert earliest_runs == [kernel.DONE] * len(pairs)

    def test_source_is_destination(self, grid16, earliest_runs):
        net, _ = grid16
        for node in (0, 17):
            assert earliest_arrival(net, node, node, 3.5) == (3.5, [node])
        for node in (-1, net.node_count + 5):
            with pytest.raises(QueryError, match="not a node id"):
                earliest_arrival(net, node, node, 3.5)
        assert earliest_runs == []

    def test_unreachable_destination(self, earliest_runs):
        net = build_network(4, [_edge(0, 1, 1.0, 0.0), _edge(2, 3, 1.0, 0.0),
                                _edge(1, 0, 1.0, 0.0)])
        for s, d in ((0, 2), (0, 3), (3, 0)):
            assert earliest_arrival(net, s, d, 0.0) is None
            assert _python_earliest(net, s, d, 0.0) is None
        assert earliest_runs == [kernel.DONE] * 3

    def test_ids_the_kernel_cannot_index(self, grid16, earliest_runs):
        """A negative id, which Python would index from the end, a too-large
        one and a non-int one are refused before any search, in the kernel's
        path and the loop's alike, and by ``latest_departures`` and
        ``solve``.  The kernel checks the ids it is handed again, and defers
        on the ones it cannot index."""
        net, _ = grid16
        n = net.node_count
        cases = [(-1, 5), (-n, 40), (3, -1), (-2, -7), (n, 3), (3, n),
                 (2**70, 1), (1, -(2**70)), (1.0, 3), (True, 3), (3, 2.0),
                 (3, False)]
        for s, d in cases:
            for find in (earliest_arrival, _python_earliest):
                with pytest.raises(QueryError, match="not a node id"):
                    find(net, s, d, 480.0)
        for d in (-1, n, 2.0):
            with pytest.raises(QueryError, match="not a node id"):
                latest_departures(net, d, 500.0, 480.0)
        for s, d in cases:
            with pytest.raises(QueryError, match="out of range|not an int node id"):
                solve(net, Query.from_budget(s, d, 480.0, 20.0))
        assert earliest_runs == []
        flat = net.flat()
        for s, d in cases[:6] + [(5, 5)]:
            assert flat.earliest(s, d, 480.0) == (kernel.DEFER, None)

    def test_nan_departure_defers_then_raises(self, grid16, earliest_runs):
        """A departure that is not finite is refused before any search; the
        kernel, handed a NaN one, defers."""
        net, _ = grid16
        nan, inf = float("nan"), float("inf")
        for t in (nan, inf, -inf):
            for find in (earliest_arrival, _python_earliest):
                with pytest.raises(QueryError, match="must be finite"):
                    find(net, 0, 200, t)
            with pytest.raises(QueryError, match="must be finite"):
                latest_departures(net, 200, t, 480.0)
            with pytest.raises(QueryError, match="must be finite"):
                latest_departures(net, 200, 500.0, t)
        assert earliest_runs == []
        assert net.flat().earliest(0, 200, nan) == (kernel.DEFER, None)

    def test_replaced_arrival_sees_every_call(self, grid16, earliest_runs,
                                              monkeypatch):
        net, _ = grid16
        calls = []
        arrival = ArrivalProfile.arrival

        def counted(self, t):
            calls.append(t)
            return arrival(self, t)

        want = earliest_arrival(net, 0, 200, 480.0)
        monkeypatch.setattr(ArrivalProfile, "arrival", counted)
        assert earliest_arrival(net, 0, 200, 480.0) == want
        seen = len(calls)
        assert seen > 0 and earliest_runs == [kernel.DONE]
        assert _python_earliest(net, 0, 200, 480.0) == want
        assert len(calls) == 2 * seen


class TestFallback:
    """Where the kernel cannot run, the Python engine answers the same."""

    def test_constraints(self, grid16, kernel_runs):
        net, queries = grid16
        loose = Constraint(cost=lambda edge, t: 1.0, budget=1e9)
        for q in queries[:3]:
            want = _record(solve(net, q))
            ran = len(kernel_runs)
            assert _record(solve(net, q, constraints=[loose])) == want
            assert len(kernel_runs) == ran

    @pytest.mark.parametrize(
        "cls, name",
        [(ArrivalProfile, "arrival"), (ArrivalProfile, "floor_after"),
         (ScoreProfile, "value")],
    )
    def test_replaced_method(self, grid16, kernel_runs, monkeypatch, cls, name):
        net, queries = grid16
        wants = [_record(solve(net, q)) for q in queries[:3]]
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, t: method(self, t))
        ran = len(kernel_runs)
        assert net.flat() is None
        assert [_record(solve(net, q)) for q in queries[:3]] == wants
        assert len(kernel_runs) == ran
        monkeypatch.undo()
        assert net.flat() is not None

    def test_failed_compile(self, grid16, kernel_runs, monkeypatch, tmp_path):
        net, queries = grid16
        wants = [_record(solve(net, q)) for q in queries[:3]]

        def failing(target, command=kernel.COMPILE):
            raise subprocess.CalledProcessError(1, list(command), b"", b"no compiler")

        monkeypatch.setattr(kernel, "_library", None)
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(kernel, "compile_kernel", failing)
        assert kernel.library() is None
        fresh = build_network(net.node_count, net.edges)
        assert fresh.flat() is None
        assert [_record(solve(fresh, q)) for q in queries[:3]] == wants
        assert list((tmp_path / "cache").iterdir()) == []

    def test_no_writable_cache_directory(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(kernel, "_library", None)
        monkeypatch.setattr(kernel, "CACHE_DIR", blocker / "cache")
        assert kernel.library() is None


class TestBuild:
    @pytest.fixture(autouse=True)
    def _compiler(self):
        if shutil.which(kernel.COMPILE[0]) is None:
            pytest.skip(f"{kernel.COMPILE[0]} is not on PATH")

    def test_first_use_builds_into_the_cache(self, monkeypatch, tmp_path):
        monkeypatch.setattr(kernel, "_library", None)
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
        assert kernel.library() is not None
        built = list(tmp_path.iterdir())
        assert len(built) == 1 and built[0].name.startswith("kernel-")
        assert built[0].suffix == ".so"
        # no compiler process outlives the build
        children = Path(f"/proc/self/task/{os.getpid()}/children")
        if children.exists():
            for pid in children.read_text().split():
                comm = Path(f"/proc/{pid}/comm").read_text().strip()
                assert comm not in ("gcc", "cc1", "as", "collect2", "ld"), comm

    def test_source_compiles_without_warnings(self):
        """``COMPILE`` is left as it is, since it names the cached library."""
        done = subprocess.run(
            [kernel.COMPILE[0], "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             "-pthread", str(kernel.SOURCE)],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr

    def test_ctypes_layouts_mirror_the_c_structs(self, tmp_path):
        """``kernel.py`` restates ``ws_network``, ``ws_file`` (which holds a
        ``ws_network``) and ``ws_result`` for ``ctypes``, and ``ws_edge`` as
        the ``struct`` format ``flatten`` packs; a drift would make the
        kernel read or write the wrong bytes.  A probe compiled with
        ``_kernel.c`` prints each struct's size and field offsets."""
        mirrors = {
            "ws_network": kernel._Network,
            "ws_file": kernel._File,
            "ws_result": kernel._Result,
        }
        fields = {name: [f for f, _ in cls._fields_] for name, cls in mirrors.items()}
        fields["ws_edge"] = ["tail", "head", "points", "boundaries", "values",
                             "length_kind", "score_default", "length", "xs_start"]
        want = {
            name: [ctypes.sizeof(cls)] + [getattr(cls, f).offset for f in fields[name]]
            for name, cls in mirrors.items()
        }
        codes = "".join(  # "=6q2dq" -> "qqqqqqddq"
            code * int(count or 1)
            for count, code in re.findall(r"(\d*)([a-z])", kernel._EDGE.format)
        )
        want["ws_edge"] = [kernel._EDGE.size] + [
            struct.calcsize("=" + codes[:i]) for i in range(len(codes))
        ]
        lines = [f'#include "{kernel.SOURCE}"', "#include <stddef.h>",
                 "#include <stdio.h>", "int main(void) {"]
        for name, names in fields.items():
            lines.append(f'printf("{name} %zu", sizeof({name}));')
            lines += [f'printf(" %zu", offsetof({name}, {f}));' for f in names]
            lines.append('printf("\\n");')
        probe = tmp_path / "probe.c"
        probe.write_text("\n".join(lines + ["return 0;", "}"]) + "\n")
        built = subprocess.run(
            [kernel.COMPILE[0], "-pthread", "-o", str(tmp_path / "probe"), str(probe)],
            capture_output=True, text=True, timeout=60,
        )
        assert built.returncode == 0, built.stderr
        out = subprocess.run([str(tmp_path / "probe")], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        got = {name: list(map(int, rest))
               for name, *rest in map(str.split, out.splitlines())}
        assert got == want

    def test_failed_build_leaves_no_file(self, tmp_path):
        with pytest.raises(subprocess.CalledProcessError):
            kernel.compile_kernel(
                tmp_path / "k.so", kernel.COMPILE + ("-include", "ws_no_such_header.h")
            )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_kernel_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    """The oracle suite, the fuzz documents, the kernel tests (of
    ``ws_search`` and ``ws_earliest``), the loader tests, whose files and
    their prefixes and flipped bytes ``ws_load`` parses, and the parallel,
    worker, probe and cap tests, whose kernel threads share a claim counter
    and stop flag, with the kernel built under ASan and UBSan; any report
    aborts the process.  The inner run does not
    capture output, so that a report reaches stderr.  It leaves out the
    page-fault count of the Python engine's frames, which measures the
    allocator that ASan replaces, not the kernel."""
    gcc = shutil.which(kernel.COMPILE[0])
    if gcc is None:
        pytest.skip(f"{kernel.COMPILE[0]} is not on PATH")
    lib = tmp_path / "kernel-sanitized.so"
    kernel.compile_kernel(lib, kernel.COMPILE + (
        "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
        "-fno-omit-frame-pointer",
    ))
    preload = [
        subprocess.run([gcc, f"-print-file-name={name}"], check=True,
                       capture_output=True, text=True).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    script = (
        "import sys, pytest\n"
        "from wayscore import kernel\n"
        "kernel._library = kernel.bind(sys.argv[1])\n"
        "sys.exit(pytest.main(['-q', '-s', '-p', 'no:cacheprovider', '-m', 'not slow',\n"
        "    '-k', 'not TestBuild and not maps_memory_per_profile_call',\n"
        "    sys.argv[2] + '/test_kernel.py', sys.argv[2] + '/test_fuzz.py',\n"
        "    sys.argv[2] + '/test_network.py',\n"
        "    sys.argv[2] + '/test_acceptance.py::test_criterion_2_oracle_equivalence',\n"
        "    sys.argv[2] + '/test_acceptance.py::test_criterion_4_parallel_determinism',\n"
        "    sys.argv[2] + '/test_solver.py::TestParallel',\n"
        "    sys.argv[2] + '/test_solver.py::TestWorkerPool',\n"
        "    sys.argv[2] + '/test_solver.py::TestProbe',\n"
        "    sys.argv[2] + '/test_solver.py::TestExplorationCap']))\n"
    )
    env = dict(
        os.environ,
        LD_PRELOAD=" ".join(preload),
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONMALLOC="malloc",
        PYTHONPATH=os.pathsep.join([str(Path(kernel.__file__).parents[1]),
                                    os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(lib), str(TESTS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=1800,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "ERROR: AddressSanitizer" not in done.stderr
    assert "runtime error" not in done.stderr
