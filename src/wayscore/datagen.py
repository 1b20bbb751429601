"""Synthetic networks with rush-hour congestion, scores, and query sets.

Grid networks stand in for city road graphs at desk scale.  Each edge gets
a baseline travel time of length / speed with the speed drawn uniformly
per edge.  During each rush window the travel time climbs linearly from
the baseline at the window start to baseline * (1 + peak) at the window
midpoint and back down by the end, with the peak drawn uniformly from the
configured range per (edge, window).  The profile is sampled every
``breakpoint_interval`` minutes (plus the midpoint), and outside the
windows the travel time is the baseline, exactly.

Exactness note: baseline travel times are quantized to multiples of
2**-20 minutes (~a twentieth of a millisecond).  Integer breakpoint times
plus dyadic travel times make every off-peak breakpoint arithmetic exact
in float64, so "off-rush travel time equals baseline" is a bitwise fact,
not a tolerance.

A fraction ``score_density`` of edges, chosen uniformly without
replacement, receives a constant integer score from ``score_range``; the
rest score zero.  All randomness derives from one seed, so the same
configuration reproduces the same network byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .network import Edge, RoadNetwork, build_network
from .profiles import ArrivalProfile, ScoreProfile
from .traversal import Query, QueryError, build_query

# Quantum for travel-time quantization; a power of two so that adding a
# quantized travel time to an integer minute is exact in float64.
TT_QUANTUM = 2.0 ** -20


class ConfigError(ValueError):
    """Invalid generation parameters."""


def _check_seed(seed: int) -> None:
    """numpy's ``SeedSequence`` takes non-negative integers only."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


class SamplingExhausted(RuntimeError):
    """A query bucket could not be filled within the attempt cap."""


@dataclass(frozen=True)
class RushWindow:
    start: float  # minutes since midnight
    end: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.start + self.end)


DEFAULT_WINDOWS = (RushWindow(7 * 60.0, 11 * 60.0), RushWindow(17 * 60.0, 20 * 60.0))


@dataclass
class GenConfig:
    rows: int = 20
    cols: int = 20
    edge_length_m: float = 100.0
    speed_range: tuple[float, float] = (250.0, 400.0)  # meters / minute
    peak_range: tuple[float, float] = (0.30, 0.35)
    breakpoint_interval: float = 30.0  # minutes
    rush_windows: tuple[RushWindow, ...] = DEFAULT_WINDOWS
    score_density: float = 0.20
    score_range: tuple[int, int] = (0, 15)
    seed: int = 0
    base: Optional[RoadNetwork] = None  # reuse this topology instead of a grid

    def validate(self) -> None:
        if self.base is None and (self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2):
            raise ConfigError("grid must have at least two nodes")
        if not 0 < self.edge_length_m < math.inf:  # NaN too
            raise ConfigError(
                f"edge length must be finite and positive, got {self.edge_length_m}"
            )
        lo, hi = self.speed_range
        if not (0 < lo <= hi < math.inf):
            raise ConfigError(f"bad speed range {self.speed_range}")
        plo, phi = self.peak_range
        if not (0 <= plo <= phi < math.inf):
            raise ConfigError(f"bad peak range {self.peak_range}")
        if not 0 < self.breakpoint_interval < math.inf:
            raise ConfigError("breakpoint interval must be finite and positive")
        if not 0 < self.score_density <= 1:
            raise ConfigError(f"score density must be in (0, 1], got {self.score_density}")
        # Scores are drawn as 64-bit integers.
        if not 0 <= self.score_range[0] <= self.score_range[1] < 2**63:
            raise ConfigError(f"bad score range {self.score_range}")
        _check_seed(self.seed)
        windows = sorted(self.rush_windows, key=lambda w: w.start)
        for w in windows:
            if w.end <= w.start:
                raise ConfigError(f"empty rush window {w}")
        for a, b in zip(windows, windows[1:]):
            if b.start < a.end:
                raise ConfigError(f"overlapping rush windows {a} / {b}")


@dataclass
class GenResult:
    """Generated network plus the ground truth behind it, for verification."""

    network: RoadNetwork
    baselines: list[float]  # per-edge baseline travel time, minutes
    peaks: list[tuple[float, ...]]  # per-edge realized peak factor per window
    scored_edges: list[tuple[int, int]] = field(default_factory=list)  # (edge, score)


def _quantize(value: float) -> float:
    """A travel time rounded to whole quanta; ConfigError when it, or its
    count of quanta, is not finite (an edge length near the double range)."""
    quanta = float(value) / TT_QUANTUM
    if not math.isfinite(quanta):
        raise ConfigError(
            f"a derived travel time of {float(value)!r} minutes is too large to quantize"
        )
    return round(quanta) * TT_QUANTUM


def _grid_topology(rows: int, cols: int, length: float) -> list[tuple[int, int, float]]:
    """4-neighbour bidirectional grid; node id = row * cols + col."""
    arcs = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                arcs.append((u, u + 1, length))
                arcs.append((u + 1, u, length))
            if r + 1 < rows:
                arcs.append((u, u + cols, length))
                arcs.append((u + cols, u, length))
    return arcs


def _window_ticks(window: RushWindow, interval: float) -> list[float]:
    ticks = []
    t = window.start
    while t < window.end:
        ticks.append(t)
        t += interval
    ticks.append(window.end)
    mid = window.midpoint
    if mid not in ticks:
        ticks.append(mid)
        ticks.sort()
    return ticks


def _rush_profile(
    baseline: float,
    windows: Sequence[RushWindow],
    peaks: Sequence[float],
    interval: float,
    peak_range: tuple[float, float],
) -> list[tuple[float, float]]:
    """Breakpoints (departure, arrival) sampling the triangular ramps."""
    pairs: list[tuple[float, float]] = []
    for window, peak in zip(windows, peaks):
        half = window.midpoint - window.start
        peak_tt = _quantize(baseline * (1.0 + peak))
        # Quantization can push the realized factor a hair outside the
        # sampled range; nudge it back inside.
        while peak_tt / baseline - 1.0 > peak_range[1] and peak_tt > baseline:
            peak_tt -= TT_QUANTUM
        while peak_tt / baseline - 1.0 < peak_range[0]:
            peak_tt += TT_QUANTUM
        for t in _window_ticks(window, interval):
            ramp = 1.0 - abs(t - window.midpoint) / half
            if ramp >= 1.0:
                tt = peak_tt
            elif ramp <= 0.0:
                tt = baseline
            else:
                tt = _quantize(baseline * (1.0 + peak * ramp))
            pairs.append((t, t + tt))
    pairs.sort()
    deduped: list[tuple[float, float]] = []
    for x, y in pairs:
        if deduped and x == deduped[-1][0]:
            continue
        # FIFO repair: a ramp can never drop arrivals at these magnitudes,
        # but the generator must not be able to emit an invalid profile.
        if deduped and y < deduped[-1][1]:
            y = deduped[-1][1]
        deduped.append((x, y))
    return deduped


def generate_network(config: GenConfig) -> GenResult:
    """Build a seeded time-dependent network per the configuration."""
    config.validate()
    if config.base is not None:
        arcs = [
            (e.tail, e.head, e.length_m if e.length_m else config.edge_length_m)
            for e in config.base.edges
        ]
        node_count = config.base.node_count
    else:
        arcs = _grid_topology(config.rows, config.cols, config.edge_length_m)
        node_count = config.rows * config.cols
    windows = tuple(sorted(config.rush_windows, key=lambda w: w.start))
    seed_root = np.random.SeedSequence(config.seed)
    speed_rng, peak_rng, score_rng = (
        np.random.default_rng(s) for s in seed_root.spawn(3)
    )
    m = len(arcs)
    speeds = speed_rng.uniform(config.speed_range[0], config.speed_range[1], size=m)
    peak_draws = peak_rng.uniform(
        config.peak_range[0], config.peak_range[1], size=(m, len(windows))
    )
    edges: list[Edge] = []
    baselines: list[float] = []
    peaks: list[tuple[float, ...]] = []
    for i, (u, v, length) in enumerate(arcs):
        baseline = _quantize(length / float(speeds[i]))
        edge_peaks = tuple(float(p) for p in peak_draws[i])
        pairs = _rush_profile(
            baseline, windows, edge_peaks, config.breakpoint_interval,
            config.peak_range,
        )
        edges.append(Edge(u, v, ArrivalProfile(pairs), ScoreProfile.constant(0.0), length))
        baselines.append(baseline)
        peaks.append(edge_peaks)
    k = int(config.score_density * m + 1e-9)
    # A permutation prefix is a uniform without-replacement draw for every
    # k, and it nests: raising the density with the same seed only adds
    # scored edges.  Values are pre-drawn per edge for the same reason.
    order = score_rng.permutation(m)
    values = score_rng.integers(config.score_range[0], config.score_range[1] + 1, size=m)
    chosen = sorted(int(i) for i in order[:k])
    scored: list[tuple[int, int]] = []
    for idx in chosen:
        value = int(values[idx])
        e = edges[idx]
        edges[idx] = Edge(e.tail, e.head, e.arrival, ScoreProfile.constant(float(value)), e.length_m)
        scored.append((idx, value))
    network = build_network(node_count, edges)
    return GenResult(network, baselines, peaks, scored)


# ---------------------------------------------------------------------------
# Query sets
# ---------------------------------------------------------------------------

DEFAULT_BUCKETS = ((0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 20.0))


@dataclass(frozen=True)
class QueryRecord:
    """One benchmark query with its budget-range bucket tag."""

    set_index: int  # 1-based bucket number
    source: int
    destination: int
    t_dep: float
    overhead_kind: str
    overhead_value: float
    budget: float

    @property
    def set_tag(self) -> str:
        return f"set-{self.set_index}"

    def to_query(self) -> Query:
        return Query(
            self.source,
            self.destination,
            self.t_dep,
            self.overhead_kind,
            self.overhead_value,
            self.budget,
            self.t_dep + self.budget,
        )


def generate_query_sets(
    net: RoadNetwork,
    seed: int,
    count_per_set: int = 200,
    overhead_percent: Optional[float] = 30.0,
    overhead_minutes: Optional[float] = None,
    rush_windows: Sequence[RushWindow] = DEFAULT_WINDOWS,
    buckets: Sequence[tuple[float, float]] = DEFAULT_BUCKETS,
    attempt_cap: Optional[int] = None,
    return_attempts: bool = False,
):
    """Rejection-sample queries until every budget bucket is full.

    Sources, destinations and departure times (uniform inside the rush
    windows) are drawn at random; the budget derived from the overhead
    decides the bucket.  Draws that are unreachable, degenerate, or land in
    a full or nonexistent bucket are discarded.  Raises SamplingExhausted
    if a bucket cannot be filled within the attempt cap.

    Returns the records; with ``return_attempts`` a ``(records, attempts)``
    pair, for tracking how hard the network makes the sampling.
    """
    if (overhead_percent is None) == (overhead_minutes is None):
        raise ConfigError("give exactly one of overhead_percent / overhead_minutes")
    overhead = overhead_percent if overhead_percent is not None else overhead_minutes
    if not (math.isfinite(overhead) and overhead > 0):
        # build_query would reject every draw, and the sampler would report
        # only the unfilled buckets after the attempt cap.
        raise ConfigError(f"overhead must be finite and positive, got {overhead}")
    if count_per_set < 0:
        raise ConfigError("count_per_set must be >= 0")
    _check_seed(seed)
    if attempt_cap is None:
        attempt_cap = max(10_000, 500 * count_per_set * len(buckets))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    windows = list(rush_windows)
    spans = [float(w.end - w.start) for w in windows]
    total_span = sum(spans)
    filled: list[list[QueryRecord]] = [[] for _ in buckets]
    need = count_per_set * len(buckets)
    have = 0
    attempts = 0
    while have < need:
        attempts += 1
        if attempts > attempt_cap:
            missing = [
                f"set-{i + 1} ({len(got)}/{count_per_set})"
                for i, got in enumerate(filled)
                if len(got) < count_per_set
            ]
            raise SamplingExhausted(
                f"gave up after {attempts - 1} attempts; unfilled: {', '.join(missing)}"
            )
        s = int(rng.integers(net.node_count))
        d = int(rng.integers(net.node_count))
        offset = float(rng.uniform(0.0, total_span))
        for w, span in zip(windows, spans):
            if offset < span:
                t_dep = float(w.start) + offset
                break
            offset -= span
        if s == d:
            continue
        try:
            query = build_query(
                net,
                s,
                d,
                t_dep,
                overhead_minutes=overhead_minutes,
                overhead_percent=overhead_percent,
            )
        except QueryError:
            continue
        bucket = None
        for i, (lo, hi) in enumerate(buckets):
            if lo <= query.budget < hi:
                bucket = i
                break
        if bucket is None or len(filled[bucket]) >= count_per_set:
            continue
        filled[bucket].append(
            QueryRecord(
                bucket + 1,
                s,
                d,
                t_dep,
                query.overhead_kind,
                query.overhead_value,
                query.budget,
            )
        )
        have += 1
    records = [rec for bucket in filled for rec in bucket]
    if return_attempts:
        return records, attempts
    return records


QUERY_CSV_FIELDS = (
    "set",
    "source",
    "destination",
    "t_dep",
    "overhead_kind",
    "overhead_value",
    "budget",
)


def write_queries_csv(records: Sequence[QueryRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(QUERY_CSV_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.set_tag,
                    r.source,
                    r.destination,
                    repr(r.t_dep),
                    r.overhead_kind,
                    repr(r.overhead_value),
                    repr(r.budget),
                ]
            )


# How read_queries_csv converts each of the QUERY_CSV_FIELDS.
_QUERY_CSV_PARSERS = (
    lambda tag: int(tag.removeprefix("set-")),
    int,
    int,
    float,
    str,
    float,
    float,
)


def read_queries_csv(path: str) -> list[QueryRecord]:
    """Read a query CSV; raises ConfigError naming the line of a bad field."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = set(QUERY_CSV_FIELDS) - set(reader.fieldnames or ())
            if missing:
                raise ConfigError(f"{path}: missing columns {sorted(missing)}")
            for row in reader:
                values = []
                for name, parse in zip(QUERY_CSV_FIELDS, _QUERY_CSV_PARSERS):
                    text = row[name]  # None when the row is short
                    try:
                        values.append(parse(text))
                    except (TypeError, ValueError):
                        raise ConfigError(
                            f"{path}: line {reader.line_num}: bad {name} {text!r}"
                        ) from None
                records.append(QueryRecord(*values))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from exc
    return records
