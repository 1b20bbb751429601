import random

import pytest

from wayscore.network import Edge, build_network
from wayscore.profiles import ArrivalProfile, ScoreProfile
from oracles import minsum_solve
from wayscore.reference import (
    ORACLE_NODE_LIMIT,
    best_path_by_enumeration,
    best_score_with_dominance,
    random_instance,
    random_network,
    validate_solver,
)
from wayscore.solver import STATUS_INFEASIBLE, STATUS_OK
from wayscore.traversal import Query


class TestMinsum:
    # A=0, B=1, C=2, D=3; edges carry (distance, travel time)
    FIG_EDGES = [
        (0, 1, 2.0, 2.0),
        (1, 2, 2.0, 2.0),
        (0, 2, 3.0, 3.0),
        (2, 3, 1.0, 1.0),
    ]

    def test_dominated_label_discarded_at_c(self):
        result = minsum_solve(4, self.FIG_EDGES, 0, 3, time_budget=10.0)
        assert result is not None
        assert (3.0, 3.0) in result.pareto[2]
        assert (4.0, 4.0) not in result.pareto[2]

    def test_min_distance_path_selected(self):
        result = minsum_solve(4, self.FIG_EDGES, 0, 3, time_budget=10.0)
        assert result.path == [0, 2, 3]
        assert result.distance == 4.0
        assert result.travel_time == 4.0

    def test_single_edge_within_budget(self):
        result = minsum_solve(2, [(0, 1, 5.0, 3.0)], 0, 1, time_budget=4.0)
        assert result.path == [0, 1]
        assert result.distance == 5.0

    def test_budget_below_every_path_is_infeasible(self):
        assert minsum_solve(2, [(0, 1, 5.0, 3.0)], 0, 1, time_budget=2.0) is None

    def test_tight_budget_forces_longer_distance(self):
        # fast-but-long vs slow-but-short; budget admits only the fast one
        edges = [(0, 1, 10.0, 2.0), (0, 2, 1.0, 5.0), (2, 1, 1.0, 5.0)]
        result = minsum_solve(3, edges, 0, 1, time_budget=4.0)
        assert result.path == [0, 1]
        assert result.distance == 10.0

    def test_no_final_pareto_set_contains_a_dominated_pair(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(3, 9)
            edges = []
            seen = set()
            for _ in range(rng.randint(n, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in seen:
                    continue
                seen.add((u, v))
                edges.append((u, v, rng.randint(1, 9), rng.randint(1, 9)))
            result = minsum_solve(n, edges, 0, n - 1, time_budget=rng.randint(5, 30))
            if result is None:
                continue
            for labels in result.pareto.values():
                for t1, d1 in labels:
                    for t2, d2 in labels:
                        assert not (t1 > t2 and d1 > d2)


class TestEnumerationOracle:
    def test_toy_budget_eight(self, toy_network):
        res = best_path_by_enumeration(toy_network, Query.from_budget(0, 1, 0.0, 8.0))
        assert res.status == STATUS_OK
        assert res.path.nodes == (0, 2, 1)
        assert res.path.score == 7.0

    def test_toy_budget_two(self, toy_network):
        res = best_path_by_enumeration(toy_network, Query.from_budget(0, 1, 0.0, 2.0))
        assert res.path.nodes == (0, 1)
        assert res.path.score == 5.0

    def test_disconnected_destination_infeasible(self):
        net = build_network(
            3, [Edge(0, 1, ArrivalProfile.constant(1.0), ScoreProfile.constant(1.0))]
        )
        res = best_path_by_enumeration(net, Query.from_budget(0, 2, 0.0, 9.0))
        assert res.status == STATUS_INFEASIBLE

    def test_refuses_large_networks(self):
        edges = [
            Edge(i, i + 1, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0))
            for i in range(ORACLE_NODE_LIMIT + 1)
        ]
        net = build_network(ORACLE_NODE_LIMIT + 2, edges)
        with pytest.raises(ValueError, match="refuses"):
            best_path_by_enumeration(net, Query.from_budget(0, 1, 0.0, 9.0))

    def test_degenerate_query(self, toy_network):
        res = best_path_by_enumeration(toy_network, Query.from_budget(2, 2, 1.0, 5.0))
        assert res.path.nodes == (2,) and res.path.score == 0.0


class TestDominanceCounterexample:
    def test_enumeration_strictly_beats_dominance_pruning(self, dominance_trap_network):
        q = Query.from_budget(0, 3, 0.0, 8.0)
        exact = best_path_by_enumeration(dominance_trap_network, q)
        pruned = best_score_with_dominance(dominance_trap_network, q)
        assert exact.path.score == 7.0
        assert pruned == 6.0
        assert exact.path.score > pruned


class TestValidationHarness:
    def test_agreement_on_random_instances(self):
        report = validate_solver(40, seed=4)
        assert report.ok
        assert report.agreed == report.total == 40
        assert report.counterexample is None

    def test_broken_solver_is_caught_with_verbatim_instance(self):
        from wayscore import solver as solver_mod
        from wayscore.traversal import latest_departures as real_bounds

        def tightened(net, destination, t_arr, t_dep):
            bounds = real_bounds(net, destination, t_arr, t_dep)
            bounds.times = [t - 1.0 for t in bounds.times]
            return bounds

        original = solver_mod.latest_departures
        solver_mod.latest_departures = tightened
        try:
            report = validate_solver(40, seed=4)
        finally:
            solver_mod.latest_departures = original
        assert not report.ok
        assert report.counterexample is not None
        assert '"network"' in report.counterexample
        assert '"solver"' in report.counterexample

    def test_instances_are_reproducible(self):
        a = random_instance(random.Random(31))
        b = random_instance(random.Random(31))
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_random_networks_are_valid(self):
        rng = random.Random(6)
        for _ in range(20):
            net = random_network(rng)
            assert 4 <= net.node_count <= 12
            for out in net.out_edges:
                assert len(out) <= 3
