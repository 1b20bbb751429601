"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Tolerances are pinned here, not configurable.
"""

import multiprocessing
import random
import time

import pytest

from wayscore.datagen import GenConfig, generate_network, generate_query_sets
from wayscore.profiles import check_fifo
from wayscore.reference import (
    best_path_by_enumeration,
    best_score_with_dominance,
    latest_departure_by_enumeration,
    minsum_solve,
    random_instance,
)
from wayscore.solver import STATUS_OK, solve
from wayscore.traversal import Query, latest_departures


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture
def toy(toy_network):
    return toy_network


@pytest.fixture(scope="module")
def oracle_suite():
    """500 seeded instances: <= 12 nodes, out-degree <= 3, <= 4 breakpoints."""
    rng = random.Random(2024)
    return [random_instance(rng) for _ in range(500)]


def test_criterion_1_worked_example(toy):
    res8 = solve(toy, Query.from_budget(0, 1, 0.0, 8.0))
    res2 = solve(toy, Query.from_budget(0, 1, 0.0, 2.0))
    elapsed = min(
        _timed(lambda: solve(toy, Query.from_budget(0, 1, 0.0, 8.0)))
        for _ in range(5)
    )
    ok = (
        res8.status == STATUS_OK
        and res8.path.nodes == (0, 2, 1)
        and res8.path.score == 7.0
        and res8.path.arrival == 5.0
        and res2.path.nodes == (0, 1)
        and res2.path.score == 5.0
        and elapsed < 1e-3
    )
    _report(
        1,
        ok,
        f"budget 8 -> {res8.path.nodes} score {res8.path.score} arrival "
        f"{res8.path.arrival}; budget 2 -> {res2.path.nodes} score "
        f"{res2.path.score}; solve time {elapsed * 1e6:.0f}us",
    )
    assert ok


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_oracle_equivalence(oracle_suite):
    t0 = time.perf_counter()
    mismatches = 0
    for net, query in oracle_suite:
        got = solve(net, query)
        want = best_path_by_enumeration(net, query)
        same = got.status == want.status and (
            got.path is None or got.path.score == want.path.score
        )
        mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        2,
        ok,
        f"{len(oracle_suite) - mismatches}/{len(oracle_suite)} scores match "
        f"exactly in {elapsed:.1f}s (limit 60s)",
    )
    assert ok


def test_criterion_3_pruning_soundness(oracle_suite):
    unequal_scores = 0
    explored_violations = 0
    strict = 0
    for net, query in oracle_suite:
        on = solve(net, query, pruning=True)
        off = solve(net, query, pruning=False)
        same = on.status == off.status and (
            on.path is None or on.path.score == off.path.score
        )
        unequal_scores += 0 if same else 1
        if on.explored > off.explored:
            explored_violations += 1
        elif on.explored < off.explored:
            strict += 1
    frac = strict / len(oracle_suite)
    ok = unequal_scores == 0 and explored_violations == 0 and frac >= 0.20
    _report(
        3,
        ok,
        f"identical scores on all; explored(on) <= explored(off) on all; "
        f"strictly fewer on {frac:.0%} (need >= 20%)",
    )
    assert ok


def test_criterion_4_parallel_determinism(oracle_suite, request):
    diffs = 0
    for net, query in oracle_suite:
        base = solve(net, query, mode="sequential")
        base_bytes = base.path.to_json().encode() if base.path else base.status.encode()
        for threads in (1, 2, 4, 8):
            res = solve(net, query, mode="parallel", threads=threads)
            got = res.path.to_json().encode() if res.path else res.status.encode()
            if got != base_bytes:
                diffs += 1
    # also force the forked-worker path on a few instances: no in-process
    # probe, and a frontier one edge deep
    dispatched = request.getfixturevalue("dispatched")
    forced_diffs = 0
    for net, query in oracle_suite[:25]:
        base = solve(net, query, mode="sequential")
        for threads in (2, 4):
            res = solve(net, query, mode="parallel", threads=threads, fork_depth=1)
            a = base.path.to_json() if base.path else base.status
            b = res.path.to_json() if res.path else res.status
            if a != b:
                forced_diffs += 1
    ok = diffs == 0 and forced_diffs == 0 and len(dispatched) > 0
    _report(
        4,
        ok,
        f"byte-identical serializations across threads 1/2/4/8 on "
        f"{len(oracle_suite)} instances ({diffs} diffs; {forced_diffs} diffs "
        f"with forced forking, {len(dispatched)} tasks run by the workers)",
    )
    assert ok


def test_criterion_5_backward_traversal_maximality():
    rng = random.Random(77)
    worst = 0.0
    bad = 0
    checked = 0
    for _ in range(200):
        net, query = random_instance(rng, max_nodes=10)
        bounds = latest_departures(net, query.destination, query.t_arr, query.t_dep)
        for v in range(net.node_count):
            truth = latest_departure_by_enumeration(
                net, query.destination, query.t_arr, v
            )
            label = bounds.label(v)
            checked += 1
            if truth is None or truth < query.t_dep - 1e-6:
                bad += 0 if label is None else 1
            elif truth > query.t_dep + 1e-6:
                if label is None or abs(label - truth) > 1e-6:
                    bad += 1
                else:
                    worst = max(worst, abs(label - truth))
            elif label is not None and abs(label - truth) > 1e-6:
                bad += 1
    ok = bad == 0
    _report(
        5,
        ok,
        f"{checked} node labels on 200 instances match enumeration within "
        f"1e-6 (worst |diff| {worst:.2e}, {bad} bad)",
    )
    assert ok


def test_criterion_6_dominance_counterexample(dominance_trap_network):
    query = Query.from_budget(0, 3, 0.0, 8.0)
    exact = solve(dominance_trap_network, query)
    pruned = best_score_with_dominance(dominance_trap_network, query)
    ok = exact.path is not None and exact.path.score == 7.0 and pruned == 6.0
    _report(
        6,
        ok,
        f"full search scores {exact.path.score if exact.path else None}, "
        f"dominance-pruned search scores {pruned} (expected 7 vs 6)",
    )
    assert ok


def test_criterion_7_minsum_regression():
    edges = [
        (0, 1, 2.0, 2.0),
        (1, 2, 2.0, 2.0),
        (0, 2, 3.0, 3.0),
        (2, 3, 1.0, 1.0),
    ]
    result = minsum_solve(4, edges, 0, 3, time_budget=10.0)
    ok = (
        result is not None
        and (3.0, 3.0) in result.pareto[2]
        and (4.0, 4.0) not in result.pareto[2]
    )
    _report(
        7,
        ok,
        f"Pareto set at the middle node is {result.pareto[2] if result else None}: "
        f"(4,4) discarded, (3,3) kept",
    )
    assert ok


def test_criterion_8_generator_distribution():
    t0 = time.perf_counter()
    gen = generate_network(GenConfig(rows=20, cols=20, score_density=0.2, seed=7))
    net = gen.network
    fifo_ok = all(check_fifo(e.arrival.pairs()) is None for e in net.edges)
    peaks_ok = True
    off_rush_ok = True
    for e, baseline in zip(net.edges, gen.baselines):
        worst = max((y - x) / baseline - 1.0 for x, y in e.arrival.pairs())
        if not (0.30 <= worst <= 0.35):
            peaks_ok = False
        for dt in (0.0, 120.0, 300.5, 700.0, 1000.0, 1440.0):
            if e.arrival.arrival(dt) - dt != baseline:
                off_rush_ok = False
    expected = int(0.2 * len(net.edges) + 1e-9)
    count_ok = len(gen.scored_edges) == expected
    elapsed = time.perf_counter() - t0
    ok = fifo_ok and peaks_ok and off_rush_ok and count_ok and elapsed < 5.0
    _report(
        8,
        ok,
        f"peaks in [1.30,1.35]: {peaks_ok}; off-rush exact: {off_rush_ok}; "
        f"scored edges {len(gen.scored_edges)}=={expected}: {count_ok}; "
        f"FIFO: {fifo_ok}; {elapsed:.1f}s (limit 5s)",
    )
    assert ok


def test_criterion_9_density_trend():
    queries = None
    avg_scores = []
    avg_times = []
    for density in (0.1, 0.2, 0.3):
        gen = generate_network(
            GenConfig(rows=50, cols=50, score_density=density, seed=101)
        )
        if queries is None:
            # fixed seeded query set, shared across the three networks
            # (identical topology and travel times; only scores differ)
            queries = generate_query_sets(
                gen.network, seed=31, count_per_set=10,
                buckets=((0.0, 4.0), (4.0, 6.0)),
            )
        scores = []
        times = []
        for rec in queries:
            t0 = time.perf_counter()
            res = solve(gen.network, rec.to_query())
            times.append(time.perf_counter() - t0)
            assert res.status == STATUS_OK
            scores.append(res.path.score)
        avg_scores.append(sum(scores) / len(scores))
        avg_times.append(sum(times) / len(times))
    non_decreasing = avg_scores[0] <= avg_scores[1] <= avg_scores[2]
    mean_rt = sum(avg_times) / 3
    spread_ok = all(0.5 * mean_rt <= t <= 1.5 * mean_rt for t in avg_times)
    ok = non_decreasing and spread_ok
    _report(
        9,
        ok,
        f"avg scores {['%.1f' % s for s in avg_scores]} non-decreasing: "
        f"{non_decreasing}; avg runtimes {['%.3fs' % t for t in avg_times]} "
        f"within +/-50% of mean: {spread_ok}",
    )
    assert ok


def _machine_parallel_throughput() -> float:
    """Combined throughput of two CPU-bound processes vs one, on this host."""

    def spin(n):
        x = 0
        for i in range(n):
            x += i * i % 7
        return x

    n = 4_000_000
    t0 = time.perf_counter()
    spin(n)
    single = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        t0 = time.perf_counter()
        pool.map(_spin_n, [n, n])
        double = time.perf_counter() - t0
    return 2.0 * single / double


def _spin_n(n):
    x = 0
    for i in range(n):
        x += i * i % 7
    return x


def test_criterion_10_parallel_speedup():
    gen = generate_network(GenConfig(rows=50, cols=50, score_density=0.2, seed=101))
    net = gen.network
    candidates = generate_query_sets(
        net, seed=80, count_per_set=6, buckets=((8.0, 11.0),)
    )
    # Deterministic scan: the probe cap bounds the cost of rejecting the
    # queries whose search trees are too large to finish; a probe that
    # completes under the cap ran exactly as an uncapped solve would, so
    # its wall time doubles as the 1-thread measurement.
    qualifier = None
    t_seq = None
    seq = None
    for rec in candidates:
        query = rec.to_query()
        t0 = time.perf_counter()
        probe = solve(net, query, max_expansions=3_200_000)
        elapsed = time.perf_counter() - t0
        if probe.status == STATUS_OK and elapsed >= 2.0:
            qualifier, t_seq, seq = rec, elapsed, probe
            break
    if qualifier is None:
        _report(
            10,
            True,
            "no seeded query with >= 2s single-thread solve found at this "
            "grid size; documenting per the criterion's escape clause",
        )
        return
    query = qualifier.to_query()
    # min over repeats: the least-noise estimator for CPU-bound wall time
    t_seq = min(t_seq, _timed(lambda: solve(net, query)))
    par = solve(net, query, mode="parallel", threads=4)
    t_par = min(
        _timed(lambda: solve(net, query, mode="parallel", threads=4))
        for _ in range(3)
    )
    ratio = t_par / t_seq
    identical = par.path.to_json() == seq.path.to_json()
    throughput = _machine_parallel_throughput()
    ok = identical and t_seq >= 2.0 and ratio <= 0.7
    _report(
        10,
        ok,
        f"budget {qualifier.budget:.2f} query: 1-thread {t_seq:.2f}s, "
        f"4-thread {t_par:.2f}s, ratio {ratio:.3f} (need <= 0.7); identical "
        f"result: {identical}; host parallel throughput calibrates to "
        f"{throughput:.2f}x over one process (ratio floor ~{1/throughput:.3f})",
    )
    assert ok
