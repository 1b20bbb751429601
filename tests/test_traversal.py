import math
import random

import pytest

from oracles import latest_departure_by_enumeration, witness_path
from wayscore.reference import random_network
from wayscore.traversal import (
    Query,
    QueryError,
    UNREACHABLE,
    build_query,
    earliest_arrival,
    latest_departures,
)
from wayscore.network import Edge, build_network
from wayscore.profiles import ArrivalProfile, ScoreProfile


def _enumerate_earliest(net, s, d, t_dep):
    """Independent check: min arrival over all loopless paths."""
    best = [math.inf]

    def visit(u, t, seen):
        if u == d:
            best[0] = min(best[0], t)
            return
        for idx in net.out_edges[u]:
            e = net.edges[idx]
            if e.head in seen:
                continue
            visit(e.head, e.arrival.arrival(t), seen | {e.head})

    visit(s, t_dep, {s})
    return None if best[0] == math.inf else best[0]


class TestEarliestArrival:
    def test_toy_direct_edge_wins(self, toy_network):
        assert earliest_arrival(toy_network, 0, 1, 0.0) == (2.0, [0, 1])

    def test_source_equals_destination(self, toy_network):
        assert earliest_arrival(toy_network, 1, 1, 7.5) == (7.5, [1])

    def test_unreachable(self):
        net = build_network(
            3, [Edge(0, 1, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0))]
        )
        assert earliest_arrival(net, 0, 2, 0.0) is None

    def test_matches_enumeration_on_random_networks(self):
        rng = random.Random(5)
        for _ in range(40):
            net = random_network(rng, max_nodes=8)
            s, d = rng.randrange(net.node_count), rng.randrange(net.node_count)
            t_dep = rng.uniform(0, 30)
            got = earliest_arrival(net, s, d, t_dep)
            want = _enumerate_earliest(net, s, d, t_dep)
            if want is None:
                assert got is None
            else:
                assert got is not None and math.isclose(got[0], want, abs_tol=1e-9)


class TestBudget:
    @pytest.fixture
    def ten_minute_net(self):
        return build_network(
            2, [Edge(0, 1, ArrivalProfile.constant(10.0), ScoreProfile.constant(0.0))]
        )

    def test_absolute_overhead(self, ten_minute_net):
        q = build_query(ten_minute_net, 0, 1, 0.0, overhead_minutes=2.0)
        assert q.budget == 12.0 and q.t_arr == 12.0

    def test_percent_overhead(self, ten_minute_net):
        q = build_query(ten_minute_net, 0, 1, 0.0, overhead_percent=30.0)
        assert q.budget == 13.0

    def test_unreachable_destination_is_an_error(self):
        net = build_network(
            2, [Edge(0, 1, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0))]
        )
        with pytest.raises(QueryError, match="unreachable"):
            build_query(net, 1, 0, 0.0, overhead_minutes=5.0)

    def test_exactly_one_overhead_form(self, ten_minute_net):
        with pytest.raises(QueryError):
            build_query(ten_minute_net, 0, 1, 0.0)
        with pytest.raises(QueryError):
            build_query(
                ten_minute_net, 0, 1, 0.0, overhead_minutes=1.0, overhead_percent=10.0
            )

    def test_nonpositive_overhead_rejected(self, ten_minute_net):
        with pytest.raises(QueryError):
            build_query(ten_minute_net, 0, 1, 0.0, overhead_minutes=0.0)

    @pytest.mark.parametrize("t_dep, budget, t_arr", [
        (0.0, math.nan, math.nan),
        (0.0, 8.0, math.nan),
        (0.0, 8.0, math.inf),
        (0.0, math.inf, math.inf),
        (math.nan, 8.0, 8.0),
        (-math.inf, 8.0, 8.0),
    ])
    def test_directly_built_query_must_be_finite(self, t_dep, budget, t_arr):
        with pytest.raises(QueryError, match="must be finite"):
            Query(0, 1, t_dep, "abs", budget, budget, t_arr)


class TestLatestDepartures:
    def test_destination_labelled_with_deadline(self, toy_network):
        bounds = latest_departures(toy_network, 1, 8.0, 0.0)
        assert bounds.times[1] == 8.0

    def test_toy_values_match_enumeration(self, toy_network):
        bounds = latest_departures(toy_network, 1, 8.0, 0.0)
        assert bounds.times == [6.0, 8.0, 6.0]
        for v in range(3):
            truth = latest_departure_by_enumeration(toy_network, 1, 8.0, v)
            assert math.isclose(bounds.times[v], truth, abs_tol=1e-9)

    def test_chain_boundaries_five_six_seven(self, chain_network):
        """Unit-travel-time chain: boundaries 5, 6, 7 for A, B, C at deadline 8."""
        bounds = latest_departures(chain_network, 3, 8.0, 0.0)
        assert bounds.times[0] == 5.0
        assert bounds.times[1] == 6.0
        assert bounds.times[2] == 7.0

    def test_labels_below_departure_time_are_unreachable(self, chain_network):
        # deadline 2: only C (label 1... wait, C->D needs 1) and D stay >= t_dep 0
        bounds = latest_departures(chain_network, 3, 2.0, 1.5)
        assert bounds.times[3] == 2.0
        assert bounds.label(0) is None
        assert bounds.label(1) is None

    def test_pushed_but_unclosed_node_is_cleared(self):
        # D=3 is the destination.  A=0 closes (label 3) and so does C=2
        # (3.5); B=1 is pushed with label 1 < t_dep and never closed, and
        # E=4 is never pushed (only B leads to it).
        edges = [
            Edge(0, 3, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0)),
            Edge(1, 3, ArrivalProfile.constant(3.0), ScoreProfile.constant(0.0)),
            Edge(2, 3, ArrivalProfile.constant(0.5), ScoreProfile.constant(0.0)),
            Edge(4, 1, ArrivalProfile.constant(0.5), ScoreProfile.constant(0.0)),
        ]
        net = build_network(5, edges)
        bounds = latest_departures(net, 3, 4.0, 2.0)
        assert bounds.times == [3.0, UNREACHABLE, 3.5, 4.0, UNREACHABLE]
        assert bounds.witness == [0, -1, 2, -1, -1]

    def test_witness_paths_arrive_in_time(self):
        rng = random.Random(9)
        for _ in range(30):
            net = random_network(rng, max_nodes=10)
            d = rng.randrange(net.node_count)
            t_dep = rng.uniform(0, 20)
            t_arr = t_dep + rng.uniform(1, 40)
            bounds = latest_departures(net, d, t_arr, t_dep)
            for v in range(net.node_count):
                if bounds.label(v) is None or v == d:
                    continue
                path = witness_path(bounds, net, v)
                t = bounds.times[v]
                for u, w in zip(path, path[1:]):
                    idx = net.edge_between(u, w)
                    t = net.edges[idx].arrival.arrival(t)
                assert t <= t_arr + 1e-9

    def test_maximality_against_enumeration(self):
        rng = random.Random(41)
        for _ in range(40):
            net = random_network(rng, max_nodes=10)
            d = rng.randrange(net.node_count)
            t_dep = rng.uniform(0, 20)
            t_arr = t_dep + rng.uniform(1, 40)
            bounds = latest_departures(net, d, t_arr, t_dep)
            for v in range(net.node_count):
                truth = latest_departure_by_enumeration(net, d, t_arr, v)
                label = bounds.label(v)
                if truth is None or truth < t_dep - 1e-6:
                    assert label is None
                elif truth > t_dep + 1e-6:
                    assert label is not None and abs(label - truth) <= 1e-6
                elif label is not None:
                    assert abs(label - truth) <= 1e-6

    def test_unreachable_constant(self):
        assert UNREACHABLE == -math.inf
