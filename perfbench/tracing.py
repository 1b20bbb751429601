"""Spans and counts at wayscore's public-function boundaries, taken from outside.

:class:`Tracer` swaps module attributes such as ``wayscore.solver.solve``
for timing wrappers, and ``ArrivalProfile.arrival`` and
``ArrivalProfile.latest_departure`` for counting wrappers, then puts the
originals back.  A function is wrapped under every name its callers look
it up by: ``solve`` finds ``latest_departures`` and ``path_from_nodes`` in
``wayscore.solver``, and ``cli.main`` finds ``load_network``,
``build_query`` and ``solve`` in ``wayscore.cli``.  Nothing inside
``src/wayscore`` changes.

A span holds its name, start, end, parent span and the tag of the query
being run.  Both counters are read when a span opens and when it closes,
so a span knows how many profile evaluations ran inside it.  Its self time
and self counts exclude its direct children.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import statistics
import time

from wayscore import cli, network, profiles, solver, traversal

# (module, attribute, span name).
_WRAPPED_FUNCTIONS = (
    (network, "load_network", "network.load"),
    (cli, "load_network", "network.load"),
    (traversal, "build_query", "traversal.build_query"),
    (cli, "build_query", "traversal.build_query"),
    (solver, "latest_departures", "traversal.latest_departures"),
    (solver, "solve", "solver.solve"),
    (cli, "solve", "solver.solve"),
    (solver, "path_from_nodes", "solver.verify"),
    (cli, "main", "cli.main"),
)
# Counter slots.
ARRIVAL, LATEST_DEPARTURE = 0, 1


class Span:
    """One timed call; ``counts`` holds the counters when it opens, then the
    number of evaluations that ran inside it once it closes."""

    __slots__ = (
        "name", "parent", "tag", "start", "end", "counts", "child_time",
        "child_counts", "explored", "mode", "capped",
    )

    def __init__(self, name, parent, tag, counts):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.counts = counts
        self.child_time = 0.0
        self.child_counts = [0, 0]
        self.explored = None
        self.mode = None
        self.capped = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time

    def self_count(self, slot: int) -> int:
        return self.counts[slot] - self.child_counts[slot]


class Tracer:
    """Records spans while installed; ``tag`` labels the query being run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = None
        self._stack: list[Span] = []
        self._counts = [0, 0]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in _WRAPPED_FUNCTIONS:
            self._replace(module, attr, self._timed(name, getattr(module, attr)))
        cls = profiles.ArrivalProfile
        self._replace(cls, "arrival", self._counted(ARRIVAL, cls.arrival))
        self._replace(cls, "latest_departure",
                      self._counted(LATEST_DEPARTURE, cls.latest_departure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counted(self, slot: int, method):
        counts = self._counts

        def counted(profile, t):
            counts[slot] += 1
            return method(profile, t)

        return counted

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self._counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.tag, tuple(counts))
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                span.counts = [b - a for a, b in zip(span.counts, counts)]
                if parent is not None:
                    parent.child_time += span.seconds
                    parent.child_counts[0] += span.counts[0]
                    parent.child_counts[1] += span.counts[1]
            if name == "solver.solve":
                span.explored = result.explored
                span.mode = kwargs.get("mode", "sequential")
                span.capped = kwargs.get("max_expansions") is not None
            return result

        return timed


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def layer_metrics(spans: list[Span], kinds: list[str]) -> dict[str, float]:
    """Per-layer metrics from one traced run, as ``{name: value}``.

    ``kinds[i]`` is "short" or "long" for query ``i``.  Span tags are
    ``(phase, pass, i)``; phase "loop" marks the timed loop and "other" the
    solve of the same query in the other mode.

    Counts are summed over one sequential, uncapped solve per query, so
    they repeat exactly between runs of one seed.  Forked parallel workers
    count in their own memory, which is lost, so parallel solves are never
    counted.
    """
    def named(name):
        return [s for s in spans if s.name == name]

    solves = [s for s in named("solver.solve") if not s.capped]
    loop_solves = [s for s in solves if s.tag[0] == "loop"]
    prep = [s for s in named("solver.solve") if s.capped]
    seq, par = {}, {}
    for s in solves:
        if s.tag[:2] == ("loop", 0) or s.tag[0] == "other":
            (seq if s.mode == "sequential" else par).setdefault(s.tag[2], s)
    counted = list(seq.values())
    labels = sum(s.explored for s in counted)
    search_s = sum(s.self_seconds for s in counted)
    arrivals = sum(s.self_count(ARRIVAL) for s in counted)
    latest = sum(s.child_counts[LATEST_DEPARTURE] for s in counted)
    paired = [i for i in seq if i in par]
    short = [i for i in paired if kinds[i] == "short"] or paired
    long_ = [i for i in paired if kinds[i] == "long"] or paired
    speedups = [seq[i].seconds / par[i].seconds for i in long_]
    return {
        "network.load_ms": _median_ms(s.seconds for s in named("network.load")),
        "traversal.build_query_ms": _median_ms(
            s.seconds for s in named("traversal.build_query")),
        "traversal.latest_departures_ms": _median_ms(
            s.seconds for s in named("traversal.latest_departures")),
        "solver.prep_ms": _median_ms(s.self_seconds for s in prep),
        "solver.search_ms": _median_ms(s.self_seconds for s in loop_solves),
        "solver.verify_ms": _median_ms(s.seconds for s in named("solver.verify")),
        "solver.labels": labels,
        "solver.labels_per_s": labels / search_s,
        "profiles.arrival_calls": arrivals,
        "profiles.arrival_useful_ratio": labels / arrivals,
        "profiles.latest_departure_calls": latest,
        "solver.parallel_overhead_ms": _median_ms(
            par[i].seconds - seq[i].seconds for i in short),
        "solver.parallel_speedup_min": min(speedups),
        "solver.parallel_speedup_median": statistics.median(speedups),
        "solver.parallel_speedup_max": max(speedups),
        "cli.overhead_ms": _median_ms(s.self_seconds for s in named("cli.main")),
    }
