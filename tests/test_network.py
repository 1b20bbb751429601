import json

import pytest

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
from wayscore.profiles import ArrivalProfile, ScoreProfile


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

    def test_prepared_adjacency_is_built_once(self, toy_network, monkeypatch):
        e = toy_network.edges
        prepared = toy_network.prepared()
        assert toy_network.prepared() is prepared
        assert prepared.out_adj[2] == [
            (0, e[2].arrival.arrival, e[2].score.value, e[2], 2),
            (1, e[3].arrival.arrival, e[3].score.value, e[3], 3),
        ]
        assert prepared.in_adj[1] == [
            (0, e[0].arrival.latest_departure, 0),
            (2, e[3].arrival.latest_departure, 3),
        ]
        # replacing a method the adjacency binds rebuilds it
        monkeypatch.setattr(ScoreProfile, "value", lambda self, t: 0.0)
        assert toy_network.prepared() is not prepared

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
        loaded = load_network(path)
        assert loaded == toy_network
        assert loaded.labels == {0: "A", 1: "B", 2: "C"}

    def test_missing_edges_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"node_count": 2}')
        with pytest.raises(FormatError, match="edges"):
            load_network(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_network(str(path))

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
            load_network(str(path))

    def test_generated_graph_survives_at_decimal_precision(self, tmp_path):
        gen = generate_network(GenConfig(rows=4, cols=4, seed=9)).network
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        save_network(gen, str(p1))
        once = load_network(str(p1))
        for a, b in zip(gen.edges, once.edges):
            for (x1, y1), (x2, y2) in zip(a.arrival.pairs(), b.arrival.pairs()):
                assert abs(x1 - x2) <= 5e-7 and abs(y1 - y2) <= 5e-7
        # a second pass changes nothing: the format is a fixed point
        save_network(once, str(p2))
        assert p1.read_text() == p2.read_text()
        assert load_network(str(p2)) == once
