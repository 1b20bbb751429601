import multiprocessing.pool

import pytest

from wayscore import kernel, solver
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
    """Send every parallel search past the in-process probe to the workers.

    The probe answers small searches without the workers, so tests of the
    worker path set its budget to 0.  The returned list collects each task
    result the workers send back, so a test can see that tasks reached them.
    """
    monkeypatch.setattr(solver, "_PROBE_LABELS", 0)
    results = []
    imap_unordered = multiprocessing.pool.Pool.imap_unordered

    def counted(pool, func, iterable, chunksize=1):
        for result in imap_unordered(pool, func, iterable, chunksize):
            results.append(result)
            yield result

    monkeypatch.setattr(multiprocessing.pool.Pool, "imap_unordered", counted)
    return results


@pytest.fixture
def python_engine(monkeypatch):
    """Run every search with the Python engine, as without a compiler.

    Tests of the Python engine's own behaviour use it, since the compiled
    kernel otherwise searches every query it can.
    """
    monkeypatch.setattr(RoadNetwork, "flat", lambda self: None)


@pytest.fixture
def kernel_runs(monkeypatch):
    """The status of every compiled-kernel search from here on, so that a
    test can see that the kernel ran and never handed a search back."""
    statuses = []
    search = kernel.FlatNetwork.search

    def counted(self, *args):
        found = search(self, *args)
        statuses.append(found[0])
        return found

    monkeypatch.setattr(kernel.FlatNetwork, "search", counted)
    return statuses
