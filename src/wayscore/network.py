"""Time-dependent road network: construction, validation, JSON file I/O.

Nodes are dense integers ``0..node_count-1``; an optional side map carries
human-readable labels.  Each directed edge owns one arrival profile and one
score profile.  Networks are immutable after construction; any number of
threads may read one concurrently.

File format (JSON document)::

    {
      "node_count": N,
      "edges": [
        {
          "from": u, "to": v, "length_m": L,
          "arrival": [[x1, y1], [x2, y2], ...],
          "score": {"boundaries": [...], "values": [...], "default": s0}
        },
        ...
      ],
      "labels": {"0": "A", ...}          # optional
    }

Times are decimal minutes with at most six fractional digits; the loader
preserves that precision exactly.  A single-breakpoint "arrival" encodes a
static edge.  Node ids are JSON integers, ``node_count`` is at most
``MAX_NODES``, every number is finite, a length is a number >= 0, and
labels name nodes in range.
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .kernel import FlatNetwork, flatten
from .profiles import ArrivalProfile, ProfileError, ScoreProfile, check_fifo


# The largest node count a network may declare.  Indexing allocates per
# declared node, about 130 bytes each, so the bound keeps a file's count
# from taking memory without limit; 2**24 nodes already take about 2 GB.
MAX_NODES = 2**24


@contextmanager
def gc_paused():
    """Suspend cyclic GC while building structures that form no cycles.

    A search allocates labels at a high rate, and a prepared network tens
    of thousands of tuples and bound methods; none of them forms a
    reference cycle, so collector passes in between are pure overhead.
    Worse, a full pass walks every object in the process (the whole
    network, copy-on-write shared in forked workers), and one triggered
    while a network is prepared can cost several times a short solve.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class NetworkError(ValueError):
    """Base class for network construction and file errors."""


class EdgeError(NetworkError):
    """An edge violates a structural constraint (identifies the edge)."""


class FormatError(NetworkError):
    """A network file does not match the expected schema."""


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    arrival: ArrivalProfile
    score: ScoreProfile
    length_m: Optional[float] = None


class PreparedNetwork(NamedTuple):
    """The adjacency every traversal walks, with each edge's evaluators bound.

    ``out_adj[u]`` holds ``(head, arrival_at, score_at, edge, edge index)``
    for each out-edge of ``u``, and ``in_adj[v]`` holds ``(tail,
    latest_departure_at, edge index)`` for each in-edge of ``v``, in the
    order of ``out_edges`` and ``in_edges``.  Binding the methods once keeps
    attribute lookups out of the hot loops.
    """

    out_adj: list[list[tuple]]
    in_adj: list[list[tuple]]


@dataclass
class RoadNetwork:
    """Directed graph with per-edge time profiles and both adjacency indexes."""

    node_count: int
    edges: list[Edge]
    out_edges: list[list[int]] = field(repr=False)
    in_edges: list[list[int]] = field(repr=False)
    labels: Optional[dict[int, str]] = None

    def __post_init__(self):
        if self.labels:
            self._name_to_id = {name: nid for nid, name in self.labels.items()}
        else:
            self._name_to_id = {}
        self._prepared: Optional[tuple[tuple, PreparedNetwork]] = None
        self._flat: Optional[tuple[PreparedNetwork, Optional[FlatNetwork]]] = None

    def prepared(self) -> PreparedNetwork:
        """The prepared adjacency, built on first use and then reused.

        The bound evaluators capture the profile classes' methods as they
        are when the adjacency is built, so the cache is keyed on those
        methods and rebuilt when one of them has been replaced: a wrapped
        method (a counter, a tracer) must see every later call.  The key
        also holds ``floor_after``, which the compiled kernel reproduces, so
        that :meth:`flat` is keyed on every method a search evaluates.  The
        build pauses the collector (:func:`gc_paused`).  Two threads that
        build at once build equal values, so no lock is needed.
        """
        key = (
            ArrivalProfile.arrival,
            ScoreProfile.value,
            ArrivalProfile.latest_departure,
            ArrivalProfile.floor_after,
        )
        cached = self._prepared
        if cached is not None and cached[0] == key:
            return cached[1]
        edges = self.edges
        with gc_paused():
            prepared = PreparedNetwork(
                [
                    [
                        (e.head, e.arrival.arrival, e.score.value, e, i)
                        for i in out
                        for e in [edges[i]]
                    ]
                    for out in self.out_edges
                ],
                [
                    [(edges[i].tail, edges[i].arrival.latest_departure, i)
                     for i in into]
                    for into in self.in_edges
                ],
            )
        self._prepared = (key, prepared)
        return prepared

    def flat(self) -> Optional[FlatNetwork]:
        """The network in the compiled kernel's layout, or None when the
        kernel cannot search it (:func:`wayscore.kernel.flatten`).

        Built on first use and kept as long as :meth:`prepared` keeps its
        adjacency, so a replaced profile method drops it too.
        """
        prepared = self.prepared()
        cached = self._flat
        if cached is None or cached[0] is not prepared:
            cached = self._flat = (prepared, flatten(self))
        return cached[1]

    def node_name(self, node: int) -> str:
        if self.labels and node in self.labels:
            return self.labels[node]
        return str(node)

    def resolve_node(self, name: str) -> int:
        """Map a label or decimal id string to a node id."""
        if name in self._name_to_id:
            return self._name_to_id[name]
        try:
            node = int(name)
        except ValueError:
            raise NetworkError(f"unknown node name {name!r}") from None
        if not 0 <= node < self.node_count:
            raise NetworkError(f"node id {node} out of range [0, {self.node_count})")
        return node

    def edge_between(self, tail: int, head: int) -> Optional[int]:
        for idx in self.out_edges[tail]:
            if self.edges[idx].head == head:
                return idx
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RoadNetwork)
            and self.node_count == other.node_count
            and self.edges == other.edges
            and self.labels == other.labels
        )


def build_network(
    node_count: int,
    edges: Sequence[Edge],
    labels: Optional[dict[int, str]] = None,
) -> RoadNetwork:
    """Validate edges and index them into a RoadNetwork.

    Rejects a ``node_count`` outside ``[1, MAX_NODES]`` before allocating
    anything, and self-loops, endpoints outside ``[0, node_count)``,
    duplicate ``(tail, head)`` pairs, and non-FIFO arrival profiles, naming
    the offending edge in each case.
    """
    if not 1 <= node_count <= MAX_NODES:
        raise NetworkError(
            f"node_count must be in [1, {MAX_NODES}], got {node_count}"
        )
    out_edges: list[list[int]] = [[] for _ in range(node_count)]
    in_edges: list[list[int]] = [[] for _ in range(node_count)]
    seen: set[tuple[int, int]] = set()
    for idx, e in enumerate(edges):
        where = f"edge {idx} ({e.tail}->{e.head})"
        if not (0 <= e.tail < node_count and 0 <= e.head < node_count):
            raise EdgeError(f"{where}: endpoint outside [0, {node_count})")
        if e.tail == e.head:
            raise EdgeError(f"{where}: self-loops are not allowed")
        if (e.tail, e.head) in seen:
            raise EdgeError(f"{where}: duplicate edge for this node pair")
        violation = check_fifo(e.arrival.pairs())
        if violation is not None:
            raise EdgeError(f"{where}: FIFO violation, {violation.message()}")
        seen.add((e.tail, e.head))
        out_edges[e.tail].append(idx)
        in_edges[e.head].append(idx)
    return RoadNetwork(node_count, list(edges), out_edges, in_edges, labels)


def _fmt_minutes(value: float) -> float:
    """Quantize a time to the file format's six decimal digits."""
    return round(float(value), 6)


def _edge_to_json(e: Edge) -> dict:
    doc = {
        "from": e.tail,
        "to": e.head,
        "arrival": [[_fmt_minutes(x), _fmt_minutes(y)] for x, y in e.arrival.pairs()],
        "score": {
            "boundaries": [_fmt_minutes(b) for b in e.score.boundaries],
            "values": list(e.score.values),
            "default": e.score.default,
        },
    }
    if e.length_m is not None:
        doc["length_m"] = e.length_m
    return doc


def to_document(net: RoadNetwork) -> dict:
    """The JSON-ready document form of a network (the file format)."""
    doc = {
        "node_count": net.node_count,
        "edges": [_edge_to_json(e) for e in net.edges],
    }
    if net.labels:
        doc["labels"] = {str(k): v for k, v in sorted(net.labels.items())}
    return doc


def save_network(net: RoadNetwork, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_document(net), fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    return doc[key]


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not node ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_network(path: str) -> RoadNetwork:
    """Load and fully validate a network file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level document must be an object")
    node_count = _require(doc, "node_count", path)
    raw_edges = _require(doc, "edges", path)
    if not _is_int(node_count) or not isinstance(raw_edges, list):
        raise FormatError(f"{path}: bad types for node_count/edges")
    edges = []
    for idx, raw in enumerate(raw_edges):
        where = f"{path}: edges[{idx}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: edge must be an object")
        tail = _require(raw, "from", where)
        head = _require(raw, "to", where)
        if not (_is_int(tail) and _is_int(head)):
            raise FormatError(
                f"{where}: node ids must be integers, got {tail!r} -> {head!r}"
            )
        pairs = _require(raw, "arrival", where)
        try:
            if type(pairs) is not list:
                raise TypeError(f"breakpoints must be a list, got {pairs!r}")
            arrival = ArrivalProfile([(float(x), float(y)) for x, y in pairs])
        except ProfileError as exc:
            raise EdgeError(f"{where}: {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{where}: malformed arrival breakpoints") from exc
        raw_score = raw.get("score", {})
        try:
            score = ScoreProfile(
                raw_score.get("boundaries", ()),
                raw_score.get("values", ()),
                raw_score.get("default", 0.0),
            )
        except ProfileError as exc:
            raise EdgeError(f"{where}: {exc}") from exc
        except (TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise FormatError(f"{where}: malformed score object") from exc
        length = raw.get("length_m")
        if length is not None and not (
            type(length) in (int, float) and 0.0 <= length <= sys.float_info.max
        ):
            raise FormatError(
                f"{where}: length_m must be a finite number >= 0, got {length!r}"
            )
        edges.append(Edge(tail, head, arrival, score, length))
    labels = None
    if "labels" in doc:
        try:
            labels = {int(k): str(v) for k, v in doc["labels"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"{path}: malformed labels map") from exc
        outside = [k for k in labels if not 0 <= k < node_count]
        if outside:
            raise FormatError(
                f"{path}: label for node {outside[0]} outside [0, {node_count})"
            )
    return build_network(node_count, edges, labels)
