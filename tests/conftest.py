import os

import pytest

from wayscore import kernel, network, solver
from wayscore.datagen import GenConfig, generate_network, generate_query_sets
from wayscore.network import Edge, RoadNetwork, build_network
from wayscore.profiles import ArrivalProfile, ScoreProfile


@pytest.fixture
def toy_network():
    """Three-node network behind the worked routing example.

    A=0, B=1, C=2.  Time-series semantics: A->B departs 0 arrives 2
    (score 5), A->C departs 0 arrives 3 (score 0), C->A departs 3
    arrives 4 (score 4), C->B departs 3 arrives 5 (score 7).
    """
    edges = [
        Edge(0, 1, ArrivalProfile([(0.0, 2.0)]), ScoreProfile.constant(5.0)),
        Edge(0, 2, ArrivalProfile([(0.0, 3.0)]), ScoreProfile.constant(0.0)),
        Edge(2, 0, ArrivalProfile([(3.0, 4.0)]), ScoreProfile.constant(4.0)),
        Edge(2, 1, ArrivalProfile([(3.0, 5.0)]), ScoreProfile.constant(7.0)),
    ]
    return build_network(3, edges, labels={0: "A", 1: "B", 2: "C"})


@pytest.fixture
def dominance_trap_network():
    """Four-node instance where dominance pruning forfeits the optimum.

    A=0, B=1, C=2, D=3, static (travel time, score) per edge:
    A->B (1,2), B->C (2,2), A->C (4,3), C->B (1,2), B->D (1,2), C->D (3,2).
    Two labels reach C: (3,4) via B and (4,3) direct.  The (4,3) label
    looks dominated, yet only it may still visit B, reaching D at (6,7);
    the (3,4) label must go straight to D for (6,6).
    """

    def edge(u, v, tt, score):
        return Edge(u, v, ArrivalProfile.constant(tt), ScoreProfile.constant(score))

    edges = [
        edge(0, 1, 1.0, 2.0),
        edge(1, 2, 2.0, 2.0),
        edge(0, 2, 4.0, 3.0),
        edge(2, 1, 1.0, 2.0),
        edge(1, 3, 1.0, 2.0),
        edge(2, 3, 3.0, 2.0),
    ]
    return build_network(4, edges, labels={0: "A", 1: "B", 2: "C", 3: "D"})


@pytest.fixture
def chain_network():
    """A->B->C->D chain with unit travel times (latest-departure example)."""
    edges = [
        Edge(0, 1, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0)),
        Edge(1, 2, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0)),
        Edge(2, 3, ArrivalProfile.constant(1.0), ScoreProfile.constant(0.0)),
    ]
    return build_network(4, edges, labels={0: "A", 1: "B", 2: "C", 3: "D"})


@pytest.fixture(scope="module")
def grid16():
    """A 256-node rush-hour grid and queries of up to a few thousand labels
    (the last, of ten million, only ever runs under a cap)."""
    net = generate_network(
        GenConfig(rows=16, cols=16, score_density=0.2, seed=5)
    ).network
    records = generate_query_sets(
        net, seed=3, count_per_set=3, buckets=((2.0, 4.0), (4.0, 6.0), (6.0, 8.0))
    )
    return net, [rec.to_query() for rec in records]


@pytest.fixture
def dispatched(monkeypatch):
    """Split every parallel search from its first label, one edge deep, on
    up to four threads whatever the host's cores.

    The kernel searches alone until it has counted ``_PROBE_LABELS`` labels,
    so tests of the threaded path set that budget to 0, and a split at depth
    1 leaves even a small tree subtrees to claim.  The returned list collects
    the result ``(status, explored, candidate, claimed, threads)`` of each
    kernel call asked for more than one worker, so a test can see how many
    threads searched and what they claimed.
    """
    monkeypatch.setattr(solver, "_PROBE_LABELS", 0)
    monkeypatch.setattr(solver, "_SPLIT_DEPTH", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    calls = []
    search = kernel.FlatNetwork.search

    def recorded(self, times, destination, t_arr, source, t, cap, workers, *split):
        result = search(self, times, destination, t_arr, source, t, cap, workers,
                        *split)
        if workers > 1:
            calls.append(result)
        return result

    monkeypatch.setattr(kernel.FlatNetwork, "search", recorded)
    return calls


@pytest.fixture
def python_engine(monkeypatch):
    """Run every search with the Python engine, as without a compiler.

    Tests of the Python engine's own behaviour use it, since the compiled
    kernel otherwise searches every query it can.
    """
    monkeypatch.setattr(RoadNetwork, "flat", lambda self: None)


def _record_statuses(monkeypatch, name):
    """Wrap ``FlatNetwork.<name>`` to collect the status of every call."""
    statuses = []
    method = getattr(kernel.FlatNetwork, name)

    def counted(self, *args, **kwargs):
        found = method(self, *args, **kwargs)
        statuses.append(found[0])
        return found

    monkeypatch.setattr(kernel.FlatNetwork, name, counted)
    return statuses


@pytest.fixture
def kernel_runs(monkeypatch):
    """The status of every compiled-kernel search from here on, so that a
    test can see that the kernel ran and never handed a search back."""
    return _record_statuses(monkeypatch, "search")


@pytest.fixture
def kernel_loads(monkeypatch):
    """Whether the compiled kernel parsed each network file loaded from here
    on, so that a test can see that its files reached the parser."""
    parsed = []
    parse = network.parse_network

    def recorded(path, max_nodes):
        found = parse(path, max_nodes)
        parsed.append(found is not None)
        return found

    monkeypatch.setattr(network, "parse_network", recorded)
    return parsed


@pytest.fixture
def earliest_runs(monkeypatch):
    """The status of every compiled ``earliest_arrival`` from here on."""
    return _record_statuses(monkeypatch, "earliest")
