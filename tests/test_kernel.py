"""The compiled kernel against the Python engine it copies.

Every comparison solves a query twice, once as shipped and once with the
Python engine forced, and requires the same status, ``to_json()`` and
``explored``, and that the kernel really ran and did not hand the search
back to Python.
"""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wayscore import kernel, solver
from wayscore.network import Edge, RoadNetwork, build_network
from wayscore.profiles import ArrivalProfile, ScoreProfile
from wayscore.reference import random_instance
from wayscore.solver import (
    STATUS_LIMIT,
    STATUS_OK,
    Constraint,
    _build_frontier,
    _fast_search,
    _search,
    _SearchState,
    solve,
)
from wayscore.traversal import Query, latest_departures

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


def _states(net, q):
    """Uncapped search states for ``q``: the Python engine's and the kernel's."""
    times = latest_departures(net, q.destination, q.t_arr, q.t_dep).times
    adj, flat = net.prepared().out_adj, net.flat()
    return (
        _SearchState(adj, times, q.destination, q.t_arr, (), None),
        _SearchState(adj, flat.bounds(times), q.destination, q.t_arr, (), None, flat),
    )


def _assert_candidates_agree(net, q, kernel_runs):
    """The kernel's best candidate, with its computed score and arrival, is
    the Python engine's to the last bit; a solve compares only the path that
    the forward simulation rebuilds from it."""
    python, native = _states(net, q)
    root = ((q.source,), q.t_dep, 0.0, ())
    ran = len(kernel_runs)
    assert _search(native, *root) == _fast_search(python, *root)
    assert native.explored == python.explored
    assert kernel_runs[ran:] == [kernel.DONE]


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

    def test_prefix_tasks(self, kernel_runs):
        """The frontier tasks of TestEngineEquivalence, searched one by one
        under one state's thresholds, as a worker does."""
        rng = random.Random(88)
        tasks_seen = 0
        for _ in range(40):
            net, q = random_instance(rng)
            python, native = _states(net, q)
            tasks, _ = _build_frontier(python, ((q.source,), q.t_dep, 0.0, ()), 2, 10**9)
            for task in tasks:
                python.explored = native.explored = 0
                assert _search(native, *task) == _fast_search(python, *task)
                assert native.explored == python.explored
            tasks_seen += len(tasks)
        assert tasks_seen >= 30
        assert kernel_runs and kernel.DEFER not in kernel_runs

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
            _assert_candidates_agree(net, q, kernel_runs)
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
            _assert_candidates_agree(net, q, kernel_runs)

    def test_nan_departure_is_handed_to_python(self, kernel_runs):
        """An overflowing segment can make an arrival NaN, and the next edge's
        profile then indexes past its breakpoints in Python.  The kernel hands
        such a search back, so both engines fail the same way."""
        steep = ArrivalProfile([(-1.7e308, -1.7e308), (-1e308, -1e308), (5e307, 1.7e308)])
        net = build_network(3, [
            Edge(0, 1, steep, ScoreProfile.constant(1.0)),
            _edge(1, 2, 1.0, 1.0),
        ])
        q = Query.from_budget(0, 2, -1e308, 10.0)

        def outcome(run):
            try:
                return _record(run(net, q, pruning=False))
            except Exception as exc:  # the engines must fail alike
                return type(exc)

        assert outcome(solve) == outcome(_python)
        assert kernel_runs == [kernel.DEFER]

    def test_workers_search_with_the_kernel(self, grid16, dispatched, monkeypatch):
        """Forked workers run their tasks in the kernel: the Python engine
        is refused anything but the parent's frontier."""
        net, queries = grid16
        q = queries[4]
        want = _record(solve(net, q))
        search = solver._fast_search

        def frontier_only(state, path, t, score, extras, sink=None):
            assert sink is not None, "the Python engine searched a whole subtree"
            return search(state, path, t, score, extras, sink)

        monkeypatch.setattr(solver, "_fast_search", frontier_only)
        own = build_network(net.node_count, net.edges)  # forks a new pool
        got = solve(own, q, mode="parallel", threads=2, fork_depth=1)
        assert _record(got) == want
        assert dispatched


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

    def test_failed_build_leaves_no_file(self, tmp_path):
        with pytest.raises(subprocess.CalledProcessError):
            kernel.compile_kernel(
                tmp_path / "k.so", kernel.COMPILE + ("-include", "ws_no_such_header.h")
            )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
def test_kernel_under_address_and_undefined_behaviour_sanitizers(tmp_path):
    """The oracle suite, the fuzz documents and the kernel tests, with the
    kernel built under ASan and UBSan; any report aborts the process.  The
    inner run does not capture output, so that a report reaches stderr."""
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
        "    '-k', 'not TestBuild',\n"
        "    sys.argv[2] + '/test_kernel.py', sys.argv[2] + '/test_fuzz.py',\n"
        "    sys.argv[2] + '/test_acceptance.py::test_criterion_2_oracle_equivalence',\n"
        "    sys.argv[2] + '/test_acceptance.py::test_criterion_4_parallel_determinism']))\n"
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
