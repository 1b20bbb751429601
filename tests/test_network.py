import ctypes
import gc
import hashlib
import json
import math
import mmap
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import loaded_both_ways

from wayscore import kernel, network, profiles
from wayscore.datagen import GenConfig, generate_network
from wayscore.network import (
    MAX_NODES,
    MAX_SCORE_TOTAL,
    Edge,
    EdgeError,
    FormatError,
    NetworkError,
    build_network,
    load_network,
    save_network,
)
from wayscore.profiles import ArrivalProfile, ProfileError, ScoreProfile, check_fifo
from wayscore.reference import random_instance
from wayscore.solver import STATUS_OK, solve
from wayscore.traversal import Query, build_query


def _edge(u, v, tt=1.0, score=0.0):
    return Edge(u, v, ArrivalProfile.constant(tt), ScoreProfile.constant(score))


class TestBuild:
    def test_minimal_graph_adjacency(self):
        net = build_network(2, [_edge(0, 1)])
        assert net.out_edges[0] == [0]
        assert net.in_edges[1] == [0]
        assert net.out_edges[1] == [] and net.in_edges[0] == []

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(EdgeError, match="endpoint"):
            build_network(3, [_edge(0, 5)])

    def test_fifo_violation_names_edge(self):
        bad = Edge.__new__(Edge)
        object.__setattr__(bad, "tail", 0)
        object.__setattr__(bad, "head", 1)
        profile = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        # forge a non-FIFO profile bypassing the constructor
        object.__setattr__(profile, "ys", (5.0, 4.0))
        object.__setattr__(bad, "arrival", profile)
        object.__setattr__(bad, "score", ScoreProfile.constant(0.0))
        object.__setattr__(bad, "length_m", None)
        with pytest.raises(EdgeError, match="edge 0 \\(0->1\\).*FIFO"):
            build_network(2, [bad])

    def test_fifo_violation_keeps_its_place_among_the_checks(self):
        bent = ArrivalProfile([(0.0, 2.0), (4.0, 8.0)])
        bent.ys = (5.0, 4.0)  # altered after its own check
        bad = Edge(0, 1, bent, ScoreProfile.constant(0.0))
        # before any check on a later edge
        with pytest.raises(EdgeError, match="edge 0 \\(0->1\\).*FIFO"):
            build_network(2, [bad, _edge(0, 5)])
        # after the edge's own structural checks
        with pytest.raises(EdgeError, match="edge 1 \\(0->1\\).*duplicate"):
            build_network(2, [_edge(0, 1), bad])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(EdgeError, match="duplicate"):
            build_network(2, [_edge(0, 1), _edge(0, 1, tt=2.0)])

    @pytest.mark.parametrize("count", [0, MAX_NODES + 1, 10**11])
    def test_node_count_out_of_bounds_rejected(self, count):
        with pytest.raises(NetworkError, match="node_count must be in"):
            build_network(count, [])

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeError, match="self-loop"):
            build_network(2, [_edge(1, 1)])

    def test_scores_that_could_sum_past_the_float_range_are_rejected(self):
        """Paths 0-1-2 (3.4e308) and 0-3-2 (1.9e308) both summed to inf, and
        the tie-break then answered 0-3-2 with a score of inf."""
        edges = [_edge(0, 1, 1.5, 1.7e308), _edge(1, 2, 1.5, 1.7e308),
                 _edge(0, 3, 1.0, 1.0e308), _edge(3, 2, 1.0, 0.9e308)]
        with pytest.raises(EdgeError, match="edge 0 \\(0->1\\).*could overflow"):
            build_network(4, edges)
        # each edge's largest score counts, a value as well as the default
        ramp = Edge(0, 1, ArrivalProfile.constant(1.0),
                    ScoreProfile((0.0, 1.0), (6e307,), 1.0))
        with pytest.raises(EdgeError, match="edge 1 \\(1->2\\).*could overflow"):
            build_network(3, [ramp, _edge(1, 2, score=5e307)])
        assert build_network(3, [ramp, _edge(1, 2, score=2e307)]).node_count == 3

    def test_every_edge_indexed_exactly_once(self, toy_network):
        net = toy_network
        for idx, e in enumerate(net.edges):
            for node in range(net.node_count):
                assert (idx in net.out_edges[node]) == (node == e.tail)
                assert (idx in net.in_edges[node]) == (node == e.head)

    def test_columns_and_flat_arrays(self, toy_network, monkeypatch):
        net = toy_network
        e = net.edges
        assert net.heads == [1, 2, 0, 1]
        assert net.tails == [0, 0, 2, 2]
        assert all(a is edge.arrival for a, edge in zip(net.arrivals, e, strict=True))
        assert all(s is edge.score for s, edge in zip(net.scores, e, strict=True))
        assert net.lengths == [None] * 4
        if kernel.library() is None:
            pytest.skip("no compiled kernel: test_kernel.py says why")
        built = []
        monkeypatch.setattr(
            network, "flatten", lambda n: built.append(n) or kernel.flatten(n)
        )
        flat = net.flat()
        assert flat is not None and net.flat() is flat
        # the kernel does not reproduce latest_departure: the bounds run in Python
        monkeypatch.setattr(ArrivalProfile, "latest_departure", lambda self, t: None)
        assert net.flat() is flat
        for cls, name in (
            (ArrivalProfile, "arrival"),
            (ArrivalProfile, "floor_after"),
            (ScoreProfile, "value"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(cls, name, lambda self, t: 0.0)
                assert net.flat() is None
            assert net.flat() is flat
        assert len(built) == 1

    def test_edges_are_built_once_from_the_columns(self):
        given = [
            Edge(0, 1, ArrivalProfile([(0.0, 2.0), (5.0, 6.0)]),
                 ScoreProfile((1.0, 3.0), (4.0,), 2.0), 12),
            Edge(1, 2, ArrivalProfile.constant(1.5), ScoreProfile.constant(0.0), 7.25),
            Edge(2, 0, ArrivalProfile.constant(3.0), ScoreProfile.constant(1.0)),
        ]
        net = build_network(3, given)
        assert "edges" not in vars(net)  # nothing is built until it is read
        edges = net.edges
        assert edges == given
        for got, e in zip(edges, given, strict=True):
            assert got.arrival is e.arrival and got.score is e.score
            assert type(got.length_m) is type(e.length_m)
        assert net.edges is edges

    def test_resolve_node(self, toy_network):
        assert toy_network.resolve_node("A") == 0
        assert toy_network.resolve_node("2") == 2
        with pytest.raises(NetworkError):
            toy_network.resolve_node("nope")
        with pytest.raises(NetworkError):
            toy_network.resolve_node("99")


class TestFileRoundTrip:
    def test_toy_round_trip_structural_equality(self, toy_network, tmp_path):
        path = str(tmp_path / "toy.json")
        save_network(toy_network, path)
        loaded = loaded_both_ways(path)
        assert loaded == toy_network
        assert loaded.labels == {0: "A", 1: "B", 2: "C"}

    def test_missing_edges_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"node_count": 2}')
        with pytest.raises(FormatError, match="edges"):
            loaded_both_ways(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(FormatError, match="not valid JSON"):
            loaded_both_ways(str(path))

    def test_non_monotone_breakpoints_rejected(self, tmp_path):
        doc = {
            "node_count": 2,
            "edges": [
                {
                    "from": 0,
                    "to": 1,
                    "arrival": [[0, 5], [4, 4]],
                    "score": {"boundaries": [], "values": [], "default": 0},
                }
            ],
        }
        path = tmp_path / "fifo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(EdgeError, match="arrival-decrease"):
            loaded_both_ways(str(path))

    def test_generated_graph_survives_at_decimal_precision(self, tmp_path):
        gen = generate_network(GenConfig(rows=4, cols=4, seed=9)).network
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        save_network(gen, str(p1))
        once = loaded_both_ways(str(p1))
        for a, b in zip(gen.edges, once.edges):
            for (x1, y1), (x2, y2) in zip(a.arrival.pairs(), b.arrival.pairs()):
                assert abs(x1 - x2) <= 5e-7 and abs(y1 - y2) <= 5e-7
        # a second pass changes nothing: the format is a fixed point
        save_network(once, str(p2))
        assert p1.read_text() == p2.read_text()
        assert loaded_both_ways(str(p2)) == once


@pytest.fixture
def grid_file(tmp_path):
    """An 8x8 grid's file: enough objects for a load to cross the
    collector's first-generation threshold many times over."""
    path = tmp_path / "grid.json"
    save_network(generate_network(GenConfig(rows=8, cols=8, seed=9)).network, str(path))
    return str(path)


class TestLoad:
    def test_each_profile_is_checked_once(self, grid_file, monkeypatch):
        calls = []
        check_fifo = profiles.check_fifo

        def counting(pairs):
            calls.append(list(pairs))
            return check_fifo(pairs)

        monkeypatch.setattr(profiles, "check_fifo", counting)
        monkeypatch.setattr(network, "check_fifo", counting)
        monkeypatch.setattr(kernel, "library", lambda: None)  # the Python loader
        net = load_network(grid_file)
        assert calls == [e.arrival.pairs() for e in net.edges]

    @pytest.mark.parametrize("path", ["kernel", "python"])
    def test_load_leaves_the_collector_switch_alone(self, grid_file, monkeypatch, path):
        """A load never sets the process-wide collector switch, so a thread
        that turns the collector off while a file loads finds it off after:
        a pause around the load re-enabled it on its way out."""
        if path == "kernel":
            _kernel_or_skip()
            name = "parse_network"
        else:
            monkeypatch.setattr(network, "parse_network", lambda path, max_nodes: None)
            name = "_read"
        load, loaded = getattr(network, name), []

        def disabling(*args):
            loaded.append(load(*args))
            gc.disable()  # as another thread may do while the file loads
            return loaded[-1]

        monkeypatch.setattr(network, name, disabling)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            net = load_network(grid_file)
            assert not gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert loaded[0] is not None and net.node_count == 64

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, grid_file, tmp_path, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text('{"node_count": 2}')
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            load_network(grid_file)
            assert gc.isenabled() is enabled
            with pytest.raises(FormatError, match="edges"):
                load_network(str(bad))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


def _written(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _one_edge(**fields):
    return {"from": 0, "to": 1, "arrival": [[0.0, 1.5], [2.0, 3.0]], **fields}


# Objects of an edge's shape, and how a message or a label shows each: the
# parse builds a profile for the first too, and the load must give the list
# back.  The second holds a JSON integer and a ``true``.
_SHAPED = {"from": 0, "to": 1, "arrival": [[-0.0, 1.5], [2.0, 3.0]]}
_SHOWN = "{'from': 0, 'to': 1, 'arrival': [[-0.0, 1.5], [2.0, 3.0]]}"
_SHAPES = pytest.mark.parametrize("shaped, shown", [
    (_SHAPED, _SHOWN),
    ({"arrival": [[0, 1.5], [True, 3]]}, "{'arrival': [[0, 1.5], [True, 3]]}"),
], ids=["floats", "integers"])


class TestProfilesBuiltByTheParse:
    """The parse builds each arrival profile as it reads the edge; every
    file still loads, or fails with the same error, as before.  The
    expected strings are those of the loader that built every profile
    after the parse."""

    @_SHAPES
    @pytest.mark.parametrize("field", ["from", "to"])
    def test_an_edge_shaped_node_id_is_shown_as_parsed(
        self, tmp_path, field, shaped, shown
    ):
        path = _written(tmp_path, {
            "node_count": 2,
            "edges": [_one_edge(), _one_edge(**{field: shaped})],
        })
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        ids = f"{shown} -> 1" if field == "from" else f"0 -> {shown}"
        assert str(exc.value) == (
            f"{path}: edges[1]: node ids must be integers, got {ids}"
        )

    @_SHAPES
    def test_an_edge_shaped_length_is_shown_as_parsed(self, tmp_path, shaped, shown):
        path = _written(tmp_path, {
            "node_count": 2, "edges": [_one_edge(length_m=shaped)],
        })
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == (
            f"{path}: edges[0]: length_m must be a finite number >= 0, got {shown}"
        )

    @_SHAPES
    def test_an_edge_shaped_arrival_is_shown_as_parsed(self, tmp_path, shaped, shown):
        path = _written(tmp_path, {
            "node_count": 2, "edges": [_one_edge(arrival=shaped)],
        })
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == f"{path}: edges[0]: malformed arrival breakpoints"
        assert str(exc.value.__cause__) == f"breakpoints must be a list, got {shown}"

    @_SHAPES
    def test_edge_shaped_labels_read_as_parsed(self, tmp_path, shaped, shown):
        net = loaded_both_ways(_written(tmp_path, {
            "node_count": 2,
            "edges": [_one_edge()],
            "labels": {"0": shaped, "1": [shaped]},
        }))
        assert net.labels == {0: shown, 1: f"[{shown}]"}

    @pytest.mark.parametrize("doc", [
        {"node_count": 2, "edges": [_one_edge(score={"default": 2.0})], **_SHAPED},
        {"node_count": 2, "edges": [_one_edge(score={**_SHAPED, "default": 2.0})]},
    ], ids=["document", "score"])
    def test_an_edge_shaped_document_or_score_loads_as_before(self, tmp_path, doc):
        shaped = loaded_both_ways(_written(tmp_path, doc))
        plain = {"node_count": 2, "edges": [_one_edge(score={"default": 2.0})]}
        assert shaped == loaded_both_ways(_written(tmp_path, plain))

    def test_an_edge_shaped_document_lacks_its_keys(self, tmp_path):
        path = _written(tmp_path, _SHAPED)
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == f"{path}: missing required key 'node_count'"

    @pytest.mark.parametrize("later", [
        _one_edge(arrival=[[0.0, -1.0]]),
        _one_edge(arrival=[[0.0, 1.0, 2.0]]),
    ], ids=["fifo", "malformed"])
    def test_a_bad_id_is_reported_before_a_later_bad_arrival(self, tmp_path, later):
        path = _written(tmp_path, {
            "node_count": 3,
            "edges": [_one_edge(), _one_edge(to="x"), later],
        })
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == (
            f"{path}: edges[1]: node ids must be integers, got 0 -> 'x'"
        )

    @pytest.mark.parametrize("node_count", [True, "2", 2.0, _SHAPED])
    def test_a_bad_node_count_is_reported_before_any_edge(self, tmp_path, node_count):
        path = _written(tmp_path, {
            "node_count": node_count,
            "edges": [_one_edge(arrival=[[1.0, 0.0]])],
        })
        with pytest.raises(FormatError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == f"{path}: bad types for node_count/edges"

    def test_integer_and_boolean_breakpoints_load_as_floats(self, tmp_path):
        net = loaded_both_ways(_written(tmp_path, {
            "node_count": 4,
            "edges": [
                _one_edge(arrival=[[0.0, 1.0]]),
                _one_edge(to=2, arrival=[[0, 5]]),
                _one_edge(to=3, arrival=[[False, True], [2, 3.5]]),
            ],
        }))
        assert [e.arrival.pairs() for e in net.edges] == [
            [(0.0, 1.0)], [(0.0, 5.0)], [(0.0, 1.0), (2.0, 3.5)],
        ]
        assert {type(v) for e in net.edges for p in e.arrival.pairs() for v in p} == {
            float
        }
        # equal departures share a tuple, whether the parse built the profile
        assert net.edges[1].arrival.xs is net.edges[0].arrival.xs

    def test_a_boolean_breakpoint_fails_as_before(self, tmp_path):
        path = _written(tmp_path, {
            "node_count": 2,
            "edges": [_one_edge(arrival=[[True, 5.0], [3.0, True]])],
        })
        with pytest.raises(EdgeError) as exc:
            loaded_both_ways(path)
        assert str(exc.value) == (
            f"{path}: edges[0]: negative-travel at breakpoint 1: "
            "departure=3.0, arrival=1.0"
        )

    def test_an_error_in_the_parse_leaves_the_profile_to_the_edge_loop(
        self, tmp_path, monkeypatch
    ):
        """Deep in a nested document, building a profile can overflow the
        stack while the parser itself does not; the loop builds it instead."""
        path = _written(tmp_path, {"node_count": 2, "edges": [_one_edge()]})
        monkeypatch.setattr(kernel, "library", lambda: None)  # the Python loader
        want = load_network(path)
        calls = []
        profile = network._profile

        def overflowing_once(pairs, departures):
            calls.append(pairs)
            if len(calls) == 1:
                raise RecursionError("maximum recursion depth exceeded")
            return profile(pairs, departures)

        monkeypatch.setattr(network, "_profile", overflowing_once)
        assert load_network(path) == want
        assert len(calls) == 2

    def test_the_benchmark_grid_round_trips_byte_for_byte(self, tmp_path):
        net = generate_network(
            GenConfig(rows=50, cols=50, score_density=0.2, seed=101)
        ).network
        path = tmp_path / "grid.json"
        save_network(net, str(path))
        text = json.dumps(network.to_document(loaded_both_ways(str(path))), indent=1)
        assert text + "\n" == path.read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e57661b5c733bf02657437cfe0d5adc9c22b8f2d68b56ccca3c8d85023ce96d6"
        )

    def test_a_load_holds_under_three_times_its_file(self, tmp_path, monkeypatch):
        """The Python loader's parse drops each edge's breakpoint lists as it
        builds the profile; a load that kept them all held about 4.5 times
        the file.  The kernel's parser reads the file mapped, and its
        columns are not Python objects, so tracemalloc sees neither; checked
        on both paths."""
        path = tmp_path / "grid.json"
        save_network(
            generate_network(
                GenConfig(rows=20, cols=20, score_density=0.2, seed=101)
            ).network,
            str(path),
        )
        for python_only in (False, True):
            if python_only:
                monkeypatch.setattr(kernel, "library", lambda: None)
            tracemalloc.start()
            try:
                load_network(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * os.path.getsize(path), python_only


# A small file that the kernel's parser takes whole: keys in any order, an
# empty score, integers where the format allows them, -0.0, exponents, and
# floats that take each of the parser's conversions.
_SMALL = """{"node_count": 3,
 "edges": [
  {"from": 0, "to": 1, "arrival": [[-0.0, 1.5], [2.25, 3.0]],
   "score": {"boundaries": [0.0, 2.0, 4.0], "values": [1.5, 0], "default": 2},
   "length_m": 12},
  {"to": 2, "from": 1, "arrival": [[1e-05, 0.5E+1]], "length_m": 7.25, "score": {}},
  {"from": 2, "to": 0, "arrival": [[0.00000000000000000000001, 0.30000000000000004],
   [0.1, 1.7976931348623157e308]], "length_m": 0.0000000000000000000001}
 ]}
"""

_ws_fifo = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int64, ctypes.c_void_p,
                            ctypes.c_void_p)


def _fifo_shaped(steps):
    """Breakpoints from (departure, travel) draws, shaped as a valid profile
    is shaped; sums past the double range still fail the check."""
    pairs, prev_y = [], -math.inf
    for x, travel in sorted(dict(steps).items()):
        prev_y = max(x + travel, prev_y)
        pairs.append((x, prev_y))
    return pairs


_coordinate = st.one_of(
    st.floats(),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, 8e307, -8e307, 1e308, -1e308,
                     1.7e308, -1.7e308]),
)


def _kernel_or_skip():
    lib = kernel.library()
    if lib is None:
        pytest.skip("no compiled kernel: test_kernel.py says why")
    return lib


@pytest.fixture(scope="module")
def kernel_lib():
    """The compiled kernel; the test is skipped, before any example is
    drawn, without it."""
    return _kernel_or_skip()


class TestKernelParser:
    """The kernel parses a file and checks its profiles; Python builds the
    network from its columns, or reads a file the kernel does not take."""

    def test_a_valid_file_is_parsed_and_checked_in_the_kernel(
        self, grid_file, tmp_path, monkeypatch
    ):
        """The counterpart of ``TestLoad::test_each_profile_is_checked_once``:
        with the kernel, a valid file calls ``check_fifo`` zero times, and a
        file with one bad profile is read by the Python loader, which names
        it."""
        _kernel_or_skip()
        calls = []
        check_fifo = profiles.check_fifo

        def counting(pairs):
            calls.append(list(pairs))
            return check_fifo(pairs)

        monkeypatch.setattr(profiles, "check_fifo", counting)
        monkeypatch.setattr(network, "check_fifo", counting)
        assert load_network(grid_file).edges
        assert calls == []
        with open(grid_file) as fh:
            doc = json.load(fh)
        doc["edges"][5]["arrival"] = [[0.0, 2.0], [1.0, 1.5]]
        path = _written(tmp_path, doc)
        del calls[:]
        with pytest.raises(EdgeError) as exc:
            load_network(path)
        assert str(exc.value) == (
            f"{path}: edges[5]: arrival-decrease at breakpoint 1: "
            "departure=1.0, arrival=1.5"
        )
        assert [(0.0, 2.0), (1.0, 1.5)] in calls  # by the Python loader

    def test_a_load_and_an_unconstrained_solve_build_no_edge(
        self, grid_file, kernel_loads, monkeypatch
    ):
        _kernel_or_skip()

        def refused(*args):
            raise AssertionError("an Edge was built")

        monkeypatch.setattr(network, "Edge", refused)
        net = load_network(grid_file)
        assert kernel_loads == [True]
        query = build_query(net, 0, 63, 480.0, overhead_percent=30.0)
        assert solve(net, query).status == STATUS_OK
        assert "edges" not in vars(net)

    @pytest.mark.parametrize("path", ["kernel", "python"])
    def test_lengths_keep_their_type(self, tmp_path, kernel_loads, monkeypatch, path):
        if path == "kernel":
            _kernel_or_skip()
        else:
            monkeypatch.setattr(kernel, "library", lambda: None)
        edges = [
            _one_edge(length_m=12),
            _one_edge(**{"from": 1, "to": 2, "length_m": 7.25}),
            _one_edge(**{"from": 2, "to": 0}),
        ]
        net = load_network(_written(tmp_path, {"node_count": 3, "edges": edges}))
        assert kernel_loads == [path == "kernel"]
        assert [type(x) for x in net.lengths] == [int, float, type(None)]
        assert [e.length_m for e in net.edges] == net.lengths == [12, 7.25, None]

    def test_numbers_read_as_python_reads_them(self, tmp_path):
        _kernel_or_skip()
        path = tmp_path / "small.json"
        path.write_text(_SMALL)
        assert kernel.parse_network(str(path), MAX_NODES) is not None
        net = loaded_both_ways(str(path))
        assert [type(e.length_m) for e in net.edges] == [int, float, float]
        assert math.copysign(1.0, net.edges[0].arrival.xs[0]) == -1.0

    def test_every_prefix_and_byte_change_loads_alike(self, tmp_path):
        """Each prefix of a valid file, and each file with one byte of it
        flipped or deleted, loads or fails as the Python loader would have
        it."""
        text = _SMALL.encode()
        path = tmp_path / "net.json"
        variants = [text[:end] for end in range(len(text))]
        variants += [text[:at] + text[at + 1:] for at in range(len(text))]
        variants += [
            text[:at] + bytes([text[at] ^ flip]) + text[at + 1:]
            for at in range(len(text))
            for flip in (0x01, 0x04, 0x20, 0x80)
        ]
        loaded = 0
        for variant in variants:
            path.write_bytes(variant)
            try:
                loaded_both_ways(str(path))
                loaded += 1
            except NetworkError:
                pass
        assert loaded > 0

    @pytest.mark.parametrize("text", [
        '{"node_count": 2, "edges": [], "labels": {"0": "A"}}',
        '{"node_count": 2, "edges": [], "labels": {"0": "\\u00e9"}}',
        '{"node_count": 2, "edges": [], "labels": {"0": "\u00e9"}}',
        '\ufeff{"node_count": 2, "edges": []}',
        '{"node_count": 2, "edges": [], "comment": 1}',
        '{"node_\\u0063ount": 2, "edges": []}',
        '{"node_count": 2, "node_count": 3, "edges": []}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "to": 0, '
        '"arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, NaN]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, '
        '"arrival": [[-Infinity, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[-0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"arrival": [[1.0, 2.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1e400]]}]}',
        '{"node_count": 2, "edges": [{"from": 9223372036854775808, "to": 1, '
        '"arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"length_m": 9007199254740993}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"length_m": null}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"values": [1.0], "boundaries": [2.0, 3.0]}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"boundaries": [0.0, 2.0], "values": [1.0], "values": []}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"default": true}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"default": 1e400}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"default": -1.0}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"length_m": -0.5}]}',
        '{"node_count": 2, "edges": [{"from": 1, "to": 1, "arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 0, "edges": []}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": []}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[1.0, 0.5]]}]}',
        '{"node_count": 2, "edges": [{"from": 01, "to": 1, "arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]],}]}',
        '{"node_count": 2, "edges": []} {}',
        '{"node_count": 2, "edges": []}\n\t \r\n',
        '{"node_count": 2, "edges": [{"from": 0, "to": 2, "arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": -1, "to": 1, "arrival": [[0.0, 1.0]]}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]]}, '
        '{"from": 0, "to": 1, "arrival": [[0.0, 2.0]]}]}',
        '{"node_count": 16777217, "edges": []}',
        '{"node_count": -1, "edges": []}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"length_m": 1e400}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"boundaries": [2.0, 1.0], "values": [1.0]}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"boundaries": [0.0, 1.0], "values": [-1.0]}}]}',
        '{"node_count": 2, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
        '"score": {"values": [1.0]}}]}',
    ])
    def test_inputs_outside_the_fast_path_load_alike(self, tmp_path, text):
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        try:
            loaded_both_ways(str(path))
        except NetworkError:
            pass

    def test_a_path_that_is_not_a_regular_file_is_read_in_python(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            loaded_both_ways(str(tmp_path))
        assert kernel.parse_network(str(tmp_path), MAX_NODES) is None
        assert kernel.parse_network(str(tmp_path / "a\0b"), MAX_NODES) is None

    @settings(max_examples=400, deadline=None)
    @given(pairs=st.one_of(
        st.lists(st.tuples(_coordinate, _coordinate), max_size=4),
        st.lists(st.tuples(_coordinate, st.floats(0.0, 1e308)), min_size=1,
                 max_size=4).map(_fifo_shaped),
    ))
    @example(pairs=[])
    @example(pairs=[(0.0, math.nan)])
    @example(pairs=[(-1e308, 1e308)])
    @example(pairs=[(-1e308, -1e308), (1e308, 1e308)])
    @example(pairs=[(-1.7e308, -1.7e308), (-1e308, -1e308), (5e307, 1.7e308)])
    @example(pairs=[(-8e307, -8e307), (7e307, 8e307)])
    def test_the_kernel_check_is_check_fifo(self, kernel_lib, pairs):
        """``ws_fifo`` passes a profile exactly when ``check_fifo`` returns
        None without raising."""
        fifo = _ws_fifo(("ws_fifo", kernel_lib))
        xs = array("d", [x for x, _ in pairs] or [0.0])
        ys = array("d", [y for _, y in pairs] or [0.0])
        try:
            passes = check_fifo(pairs) is None
        except ProfileError:
            passes = False
        got = fifo(len(pairs), xs.buffer_info()[0], ys.buffer_info()[0])
        assert got == passes


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _straddling(text: str, every: int) -> str:
    """``text`` with spaces put in before some of its number tokens, so that
    a token of two or more bytes straddles each multiple of ``every``: the
    last such token before a multiple that no token straddles is moved over
    it.  Tokens must lie closer together than ``every``."""
    tokens = [m.span() for m in _NUMBER.finditer(text) if m.end() - m.start() > 1]
    out, at, shift, boundary = [], 0, 0, every
    for (s, e), (following, _) in zip(tokens, tokens[1:] + [(len(text), 0)]):
        if s + shift < boundary < e + shift:
            boundary += every
        elif e + shift <= boundary <= following + shift:
            pad = boundary + 1 - (e + shift)
            out += [text[at:s], " " * pad]
            at, shift, boundary = s, shift + pad, boundary + every
    return "".join(out) + text[at:]


def _kernel_arrays(flat) -> dict:
    """The arrays a ``FlatNetwork`` searches, as bytes by name, with each
    edge's departures read through its ``xs_start`` and joined in edge order
    as ``xs``."""
    net, n, m = flat._net, flat.nodes, flat.edges

    def read(address, code, count):
        return ctypes.string_at(address, struct.calcsize(code) * count) if count else b""

    bp_start = array("q", read(net.bp_start, "q", m + 1))
    sc_start = array("q", read(net.sc_start, "q", m + 1))
    xs_start = array("q", read(net.xs_start, "q", m))
    rows = zip(xs_start, bp_start, bp_start[1:])
    return {
        "out_start": read(net.out_start, "q", n + 1),
        "out_edge": read(net.out_edge, "i", m),
        "head": read(net.head, "i", m),
        "bp_start": bp_start.tobytes(),
        "xs": b"".join(read(net.xs + 8 * at, "d", hi - lo) for at, lo, hi in rows),
        "ys": read(net.ys, "d", bp_start[-1]),
        "floors": read(net.floors, "d", bp_start[-1]),
        "sc_start": sc_start.tobytes(),
        "sb": read(net.sb, "d", sc_start[-1]),
        "sv": read(net.sv, "d", sc_start[-1]),
        "sdef": read(net.sdef, "d", m),
    }


# Each fault that the kernel's load finds by itself, in a file it otherwise
# takes whole, and the Python loader's message for it.
_FAULTS = [
    ('{"node_count": 0, "edges": []}',
     NetworkError, f"node_count must be in [1, {MAX_NODES}], got 0"),
    (f'{{"node_count": {MAX_NODES + 1}, "edges": []}}',
     NetworkError, f"node_count must be in [1, {MAX_NODES}], got {MAX_NODES + 1}"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]]}, '
     '{"from": 1, "to": 3, "arrival": [[0.0, 1.0]]}]}',
     EdgeError, "edge 1 (1->3): endpoint outside [0, 3)"),
    ('{"node_count": 3, "edges": [{"from": -1, "to": 1, "arrival": [[0.0, 1.0]]}]}',
     EdgeError, "edge 0 (-1->1): endpoint outside [0, 3)"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]]}, '
     '{"from": 2, "to": 2, "arrival": [[0.0, 1.0]]}]}',
     EdgeError, "edge 1 (2->2): self-loops are not allowed"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]]}, '
     '{"from": 1, "to": 0, "arrival": [[0.0, 1.0]]}, '
     '{"from": 0, "to": 1, "arrival": [[0.0, 2.0]]}]}',
     EdgeError, "edge 2 (0->1): duplicate edge for this node pair"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]]}, '
     '{"from": 1, "to": 2, "arrival": [[0.0, 1.0]], "length_m": -1.0}]}',
     FormatError, "{path}: edges[1]: length_m must be a finite number >= 0, got -1.0"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"length_m": 1e400}]}',
     FormatError, "{path}: edges[0]: length_m must be a finite number >= 0, got inf"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"length_m": -3}]}',
     FormatError, "{path}: edges[0]: length_m must be a finite number >= 0, got -3"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"boundaries": [0.0, 1.0], "values": []}}]}',
     EdgeError, "{path}: edges[0]: expected 1 score values for 2 boundaries, got 0"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"boundaries": [1.0, 1.0], "values": [2.0]}}]}',
     EdgeError, "{path}: edges[0]: score boundaries must be strictly increasing"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"boundaries": [0.0, 1e400], "values": [2.0]}}]}',
     EdgeError, "{path}: edges[0]: score boundaries and values must be finite"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"boundaries": [0.0, 1.0], "values": [-0.5]}}]}',
     EdgeError, "{path}: edges[0]: scores must be non-negative"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"default": -2}}]}',
     EdgeError, "{path}: edges[0]: scores must be non-negative"),
    ('{"node_count": 4, "edges": ['
     '{"from": 0, "to": 1, "arrival": [[0.0, 1.5]], "score": {"default": 1.7e308}}, '
     '{"from": 1, "to": 2, "arrival": [[0.0, 1.5]], "score": {"default": 1.7e308}}, '
     '{"from": 0, "to": 3, "arrival": [[0.0, 1.0]], "score": {"default": 1e308}}, '
     '{"from": 3, "to": 2, "arrival": [[0.0, 1.0]], "score": {"default": 9e307}}]}',
     EdgeError, "edge 0 (0->1): the largest scores up to this edge sum past "
     "8.988465674311579e+307, so a path's score could overflow"),
    ('{"node_count": 3, "edges": [{"from": 0, "to": 1, "arrival": [[0.0, 1.0]], '
     '"score": {"boundaries": [0.0, 1.0], "values": [6e307], "default": 1.0}}, '
     '{"from": 1, "to": 2, "arrival": [[0.0, 1.0]], "score": {"default": 5e307}}]}',
     EdgeError, "edge 1 (1->2): the largest scores up to this edge sum past "
     "8.988465674311579e+307, so a path's score could overflow"),
]


class TestKernelLoad:
    """The kernel's load checks a file and builds the network's arrays; the
    network adopts them, and Python builds its lists from them."""

    @pytest.fixture(autouse=True)
    def _kernel(self):
        _kernel_or_skip()

    @staticmethod
    def _loaded_like_flatten(path, kernel_loads):
        """The network at ``path``, whose arrays must equal, byte for byte,
        what ``flatten`` packs for it rebuilt through ``build_network``."""
        first = len(kernel_loads)
        net = loaded_both_ways(path)
        assert kernel_loads[first] is True
        rebuilt = build_network(net.node_count, net.edges)
        assert _kernel_arrays(net.flat()) == _kernel_arrays(kernel.flatten(rebuilt))
        return net

    def test_the_benchmark_grid_holds_flattens_arrays(self, tmp_path, kernel_loads):
        path = tmp_path / "grid.json"
        save_network(
            generate_network(
                GenConfig(rows=50, cols=50, score_density=0.2, seed=101)
            ).network,
            str(path),
        )
        net = self._loaded_like_flatten(str(path), kernel_loads)
        _, columns, _ = kernel.parse_network(str(path), MAX_NODES)
        assert len(columns["xs"]) == len(net.arrivals[0].xs)  # one row for all
        assert len({id(s) for s in net.scores}) == len({s.default for s in net.scores})

    def test_oracle_networks_hold_flattens_arrays(self, tmp_path, kernel_loads):
        rng = random.Random(2024)
        for i in range(50):
            path = tmp_path / f"oracle{i}.json"
            save_network(random_instance(rng)[0], str(path))
            self._loaded_like_flatten(str(path), kernel_loads)

    def test_rows_are_shared_by_their_bits(self, tmp_path, kernel_loads):
        """Edges 0 and 2 have the same departures; edge 1's differ only by
        the sign of a zero, and stay apart."""
        edges = [
            _one_edge(arrival=[[0.0, 1.0], [5.0, 6.0]]),
            _one_edge(**{"from": 1, "to": 2, "arrival": [[-0.0, 1.0], [5.0, 7.0]]}),
            _one_edge(**{"from": 2, "to": 0, "arrival": [[0.0, 2.0], [5.0, 8.0]],
                         "score": {"boundaries": [1.0, 2.0, 4.0], "values": [3, 0.5]}}),
            _one_edge(**{"from": 0, "to": 2, "arrival": [[1.0, 2.0]]}),
        ]
        path = _written(tmp_path, {"node_count": 3, "edges": edges})
        net = self._loaded_like_flatten(path, kernel_loads)
        _, columns, _ = kernel.parse_network(path, MAX_NODES)
        assert columns["xs_start"].tolist() == [0, 2, 0, 4]
        assert columns["xs"].tobytes() == array("d", [0.0, 5.0, -0.0, 5.0, 1.0]).tobytes()
        first, second, third, _ = net.arrivals
        assert third.xs is first.xs and second.xs is not first.xs
        assert math.copysign(1.0, second.xs[0]) == -1.0
        assert net.scores[2] == ScoreProfile((1.0, 2.0, 4.0), (3.0, 0.5), 0.0)

    def test_constant_scores_are_shared_by_their_bits(self, tmp_path, kernel_loads):
        edges = [
            _one_edge(score={"default": 0.0}),
            _one_edge(**{"from": 1, "to": 2, "score": {"default": -0.0}}),
            _one_edge(**{"from": 2, "to": 0, "score": {"default": 1}}),
            _one_edge(**{"from": 0, "to": 2}),
        ]
        net = loaded_both_ways(_written(tmp_path, {"node_count": 3, "edges": edges}))
        assert kernel_loads[0] is True
        zero, negative_zero, one, absent = net.scores
        assert absent is zero and negative_zero is not zero
        assert math.copysign(1.0, negative_zero.default) == -1.0
        assert type(one.default) is float

    @pytest.mark.parametrize("text, error, message", _FAULTS)
    def test_a_fault_found_in_the_kernel_gets_the_python_message(
        self, tmp_path, text, error, message
    ):
        path = tmp_path / "net.json"
        path.write_text(text)
        assert kernel.parse_network(str(path), MAX_NODES) is None
        with pytest.raises(error) as exc:
            loaded_both_ways(str(path))
        assert str(exc.value) == message.format(path=path)

    def test_a_score_total_at_the_bound_loads_and_one_past_it_does_not(
        self, tmp_path, kernel_loads
    ):
        doc = {"node_count": 2, "edges": [_one_edge(score={"default": MAX_SCORE_TOTAL})]}
        assert loaded_both_ways(_written(tmp_path, doc)).scores[0].default == (
            MAX_SCORE_TOTAL
        )
        assert kernel_loads[0] is True
        doc["edges"][0]["score"]["default"] = math.nextafter(MAX_SCORE_TOTAL, math.inf)
        with pytest.raises(EdgeError, match="could overflow"):
            loaded_both_ways(_written(tmp_path, doc))
        assert kernel_loads[2] is False

    def test_a_file_of_several_release_steps_loads_alike(self, tmp_path, kernel_loads):
        """``ws_load`` unmaps the file behind its parser at each multiple of
        its step in memory, which falls on a page boundary of the file
        wherever the file is mapped.  The file spans several steps, and a
        number token straddles every page boundary in it."""
        step = 1 << int(re.search(
            r"#define WS_RELEASE_STEP \(\(uintptr_t\)1 << (\d+)\)", kernel.SOURCE.read_text()
        ).group(1))
        rng = random.Random(26)
        edges = []
        for e in range(int(3.5 * step) // 4400):
            x = sorted(rng.uniform(0.0, 1440.0) for _ in range(100))
            travel = rng.uniform(0.5, 9.0)
            edges.append(_one_edge(**{"from": e % 50, "to": 50 + e // 50,
                                      "arrival": [[t, t + travel] for t in x]}))
        text = _straddling(
            json.dumps({"node_count": 50 + len(edges) // 50 + 1, "edges": edges}),
            mmap.PAGESIZE,
        )
        spans = [m.span() for m in _NUMBER.finditer(text)]
        page = mmap.PAGESIZE
        covered = {b for s, e in spans for b in range(s // page * page + page, e, page)}
        assert covered == set(range(page, len(text), page))
        assert len(text) > 3 * step
        path = tmp_path / "net.json"
        path.write_text(text)
        net = loaded_both_ways(str(path))
        assert kernel_loads[0] is True and len(net.arrivals) == len(edges)

    def test_the_network_adopts_the_loads_arrays(self, grid_file, monkeypatch):
        """No Python check, no index pass and no flatten run on the kernel
        path, and the first solve packs nothing."""

        def refused(*args, **kwargs):
            raise AssertionError("called on the kernel path")

        for name in ("_index", "_check_length", "check_fifo", "flatten"):
            monkeypatch.setattr(network, name, refused)
        monkeypatch.setattr(ScoreProfile, "__init__", refused)
        net = load_network(grid_file)
        flat = net.flat()
        assert flat is not None and flat.edges == len(net.arrivals)
        query = build_query(net, 0, 63, 480.0, overhead_percent=30.0)
        assert solve(net, query).status == STATUS_OK
        assert net.flat() is flat

    def test_the_arrays_outlive_every_view_but_the_networks(self, grid_file):
        """The load's block is released with the last thing that holds it:
        here the network's flat form, after the columns are gone."""
        net = load_network(grid_file)
        want = _kernel_arrays(net.flat())
        gc.collect()
        assert _kernel_arrays(net.flat()) == want
        query = build_query(net, 0, 63, 480.0, overhead_percent=30.0)
        assert solve(net, query).status == STATUS_OK


# Measured with five loads of the benchmark grid: VmHWM rose 0.0 MB above
# the first load's RSS (3 processes), against 4.3 MB while ws_load held the
# whole file mapped until its parse ended.
_REPEATED_LOAD_MARGIN_MB = 2.0


@pytest.mark.slow
def test_repeated_loads_peak_near_one_load(tmp_path):
    """Five loads of the 8.1 MB benchmark grid in a fresh process, each
    dropping the last network first, as perfbench's set-ups do: the peak
    RSS stays within a margin of the RSS after the first load.  A later
    load's ws_load maps its memory on top of what the freed network leaves
    in the heap, so what it holds at once sets how far the peak rises."""
    _kernel_or_skip()
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmRSS and VmHWM from /proc/self/status")
    path = tmp_path / "grid.json"
    save_network(
        generate_network(GenConfig(rows=50, cols=50, score_density=0.2, seed=101)).network,
        str(path),
    )
    code = (
        "import sys\n"
        "from wayscore.network import load_network\n"
        "def kb(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith(key + ':'))\n"
        "net = load_network(sys.argv[1])\n"
        "first = kb('VmRSS')\n"
        "for _ in range(4):\n"
        "    net = None\n"
        "    net = load_network(sys.argv[1])\n"
        "print(first / 1024, kb('VmHWM') / 1024)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(network.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    first, peak = map(float, done.stdout.split())
    assert peak <= first + _REPEATED_LOAD_MARGIN_MB, (first, peak)


def _outcome(net, query, engine):
    """The solve of ``query`` on ``engine``, or the type of what it raised."""
    with pytest.MonkeyPatch.context() as patch:
        if engine == "python":
            patch.setattr(network.RoadNetwork, "flat", lambda self: None)
        try:
            res = solve(net, query)
        except Exception as exc:  # the engines must fail alike
            return type(exc)
    return res.status, res.path and res.path.to_json(), res.explored


class TestFlatten:
    """``flatten`` packs a network built in Python as the kernel's parser
    reads a file, and ``ws_build`` builds its arrays, as for a load."""

    @pytest.fixture(autouse=True)
    def _kernel(self):
        _kernel_or_skip()

    @staticmethod
    def _line():
        return build_network(3, [
            Edge(0, 1, ArrivalProfile([(0.0, 1.0), (10.0, 11.0)]),
                 ScoreProfile((0.0, 50.0), (2.0,), 1.0)),
            Edge(1, 2, ArrivalProfile([(0.0, 2.0), (10.0, 12.0)]),
                 ScoreProfile.constant(1.0)),
        ])

    def test_a_profile_whose_columns_differ_in_length_is_refused(self):
        """Edge 0's arrivals gain a breakpoint and edge 1's lose one, as code
        that mutates a profile could do: the totals still match, so only a
        per-edge count tells that the packed arrays would not line up."""
        net, query = self._line(), Query.from_budget(0, 2, 20.0, 30.0)
        first, second = net.arrivals
        first.ys, second.ys = (1.0, 11.0, 12.0), (12.0,)
        assert kernel.flatten(net) is None and net.flat() is None
        assert _outcome(net, query, "kernel") == _outcome(net, query, "python")

    @pytest.mark.parametrize("fault", [
        "tail_past_the_end", "head_below_zero", "no_breakpoint", "values_for_no_boundary",
        "one_value_short", "repeated_pair",
    ])
    def test_what_the_kernel_cannot_index_is_refused(self, fault):
        """``ws_build`` checks what the kernel's reads rest on, and, as for a
        load, that no two edges join the same pair of nodes."""
        net = self._line()
        arrival, score = net.arrivals[0], net.scores[0]
        if fault == "tail_past_the_end":
            net.tails[1] = 3
        elif fault == "head_below_zero":
            net.heads[0] = -1
        elif fault == "no_breakpoint":
            arrival.xs = arrival.ys = ()
        elif fault == "values_for_no_boundary":
            score.boundaries = ()
        elif fault == "one_value_short":
            score.values = ()
        else:
            net.tails[1], net.heads[1] = 0, 1
        assert kernel.flatten(net) is None

    def test_each_distinct_row_of_departures_is_stored_once(self):
        net = generate_network(GenConfig(rows=8, cols=8, seed=9)).network
        flat = kernel.flatten(net)
        xs_start = array("q", ctypes.string_at(flat._net.xs_start, 8 * flat.edges))
        rows = {struct.pack(f"{len(a.xs)}d", *a.xs) for a in net.arrivals}
        assert len(set(xs_start)) == len(rows) < len(net.arrivals)
        assert _kernel_arrays(flat)["xs"] == b"".join(
            struct.pack(f"{len(a.xs)}d", *a.xs) for a in net.arrivals
        )

    def test_dropping_a_flattened_network_frees_its_block(self, monkeypatch):
        lib, freed = kernel.library(), []

        class Recording:
            def __getattr__(self, name):
                return getattr(lib, name)

            def ws_free(self, built):
                freed.append(built.block)
                lib.ws_free(built)

        monkeypatch.setattr(kernel, "library", Recording)
        flat = kernel.flatten(self._line())
        block = ctypes.addressof(flat._block)
        assert freed == []
        del flat
        gc.collect()
        assert freed == [block]
