import ctypes
import gc
import hashlib
import json
import math
import os
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import loaded_both_ways

from wayscore import kernel, network, profiles
from wayscore.datagen import GenConfig, generate_network
from wayscore.network import (
    MAX_NODES,
    Edge,
    EdgeError,
    FormatError,
    NetworkError,
    build_network,
    load_network,
    save_network,
)
from wayscore.profiles import ArrivalProfile, ProfileError, ScoreProfile, check_fifo


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

    def test_no_collection_starts_during_a_load(self, grid_file):
        """The parse, the profiles and the index run with the collector
        paused.  Re-enabled, it owes one young-generation pass for what the
        load allocated, which may start as the call returns."""
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(hook)
        try:
            load_network(grid_file)
        finally:
            gc.callbacks.remove(hook)
        assert starts in ([], [0])

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

    def test_numbers_read_as_python_reads_them(self, tmp_path):
        _kernel_or_skip()
        path = tmp_path / "small.json"
        path.write_text(_SMALL)
        assert kernel.parse_network(str(path)) is not None
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
        assert kernel.parse_network(str(tmp_path)) is None
        assert kernel.parse_network(str(tmp_path / "a\0b")) is None

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
