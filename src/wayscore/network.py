"""Time-dependent road network: construction, validation, JSON file I/O.

Nodes are dense integers ``0..node_count-1``; an optional side map carries
human-readable labels.  Each directed edge owns one arrival profile and one
score profile.  A network stores them once, in per-edge columns, and builds
:class:`Edge` records on demand.  Networks are immutable after
construction; any number of threads may read one concurrently.

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

Where the compiled kernel is available, :func:`load_network` loads a file
as ``save_network`` writes it for a network without labels in C
(:func:`wayscore.kernel.parse_network`): the parse, every check, the index
and the arrays the kernel searches, which the network keeps; Python then
builds the network's lists from those arrays.  Any other file, or one the
kernel finds fault with, is read in Python, which gives every error
message.  That parse builds each edge's arrival profile as it finishes the
edge's object, so no load holds every edge's breakpoint lists at once, and
each profile is validated once, when it is built; :func:`build_network`,
which takes ``Edge`` objects from any caller, checks their profiles again.
Files are read as UTF-8, as RFC 8259 requires of JSON.  No load touches the
process-wide collector switch.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .kernel import (
    INT_LENGTH,
    NO_LENGTH,
    REAL_LENGTH,
    FlatNetwork,
    flatten,
    native_methods,
    parse_network,
)
from .profiles import ArrivalProfile, ProfileError, ScoreProfile, check_fifo


# The largest node count a network may declare.  Indexing allocates per
# declared node, about 130 bytes each, so the bound keeps a file's count
# from taking memory without limit; 2**24 nodes already take about 2 GB.
MAX_NODES = 2**24


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


@dataclass
class RoadNetwork:
    """Directed graph with per-edge time profiles and both adjacency indexes.

    The network is its per-edge columns, indexed by edge: ``tails``,
    ``heads``, ``arrivals``, ``scores`` (the profiles) and ``lengths`` (each
    ``length_m``).  The traversals walk ``out_edges`` or ``in_edges`` and
    read these columns; each profile method is looked up at the call, so a
    replaced method or a subclass override sees every call.
    """

    node_count: int
    tails: list[int] = field(repr=False)
    heads: list[int] = field(repr=False)
    arrivals: list[ArrivalProfile] = field(repr=False)
    scores: list[ScoreProfile] = field(repr=False)
    lengths: list[Optional[float]] = field(repr=False)
    out_edges: list[list[int]] = field(repr=False)
    in_edges: list[list[int]] = field(repr=False)
    labels: Optional[dict[int, str]] = None

    def __post_init__(self):
        self._name_to_id = {name: nid for nid, name in (self.labels or {}).items()}
        # (flatten's value,) once built: that value may be None.
        self._flat: Optional[tuple[Optional[FlatNetwork]]] = None

    @functools.cached_property
    def edges(self) -> list[Edge]:
        """The edges as :class:`Edge` records, built from the columns on the
        first read and kept (two first reads at once may build equal lists)."""
        columns = self.tails, self.heads, self.arrivals, self.scores, self.lengths
        return list(map(Edge, *columns))

    def flat(self) -> Optional[FlatNetwork]:
        """The network in the compiled kernel's layout, or None when the
        kernel cannot search it.

        It cannot while a profile method the kernel reproduces has been
        replaced (:func:`wayscore.kernel.native_methods`), so that the
        replacement sees every call.  Otherwise it is the arrays the kernel's
        load built, for a network it loaded, or else
        :func:`wayscore.kernel.flatten`'s value, built on first use and kept:
        once replaced methods are restored, it is the same object as before.
        Two threads that build at once build equal values, so no lock is
        needed.
        """
        if not native_methods():
            return None
        if self._flat is None:
            self._flat = (flatten(self),)
        return self._flat[0]

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
        heads = self.heads
        for idx in self.out_edges[tail]:
            if heads[idx] == head:
                return idx
        return None


def build_network(
    node_count: int,
    edges: Sequence[Edge],
    labels: Optional[dict[int, str]] = None,
) -> RoadNetwork:
    """Validate edges and index them into a RoadNetwork.

    Rejects a ``node_count`` outside ``[1, MAX_NODES]`` before allocating
    anything, and self-loops, endpoints outside ``[0, node_count)``,
    duplicate ``(tail, head)`` pairs, and non-FIFO arrival profiles, naming
    the offending edge in each case.  The edges' profiles are checked again
    here, since an ``Edge`` can carry one altered after it was built.
    """

    def fifo_checked():
        for idx, e in enumerate(edges):
            yield e.tail, e.head, e.arrival, e.score, e.length_m
            # Resumed once _index has checked and indexed the edge, so each
            # edge's FIFO check still runs after its other checks and before
            # the next edge's.
            violation = check_fifo(e.arrival.pairs())
            if violation is not None:
                raise EdgeError(
                    f"{_where(idx, (e.tail, e.head))}: FIFO violation, "
                    f"{violation.message()}"
                )

    return _index(node_count, fifo_checked(), labels)


def _where(idx: int, row: tuple) -> str:
    return f"edge {idx} ({row[0]}->{row[1]})"


def _check_node_count(node_count: int) -> None:
    if not 1 <= node_count <= MAX_NODES:
        raise NetworkError(f"node_count must be in [1, {MAX_NODES}], got {node_count}")


def _index(
    node_count: int,
    rows: Iterable[tuple],
    labels: Optional[dict[int, str]],
) -> RoadNetwork:
    """The network of ``rows``, ``(tail, head, arrival, score, length_m)``
    per edge, with ``node_count`` and each edge's endpoints checked.  The
    profiles are not looked at: :func:`load_network` builds every
    ``ArrivalProfile`` itself, and its constructor has run ``check_fifo``.
    """
    _check_node_count(node_count)
    tails, heads, arrivals, scores, lengths = [], [], [], [], []
    out_edges: list[list[int]] = [[] for _ in range(node_count)]
    in_edges: list[list[int]] = [[] for _ in range(node_count)]
    seen: set[tuple[int, int]] = set()
    for idx, row in enumerate(rows):
        tail, head, arrival, score, length = row
        if not (0 <= tail < node_count and 0 <= head < node_count):
            raise EdgeError(f"{_where(idx, row)}: endpoint outside [0, {node_count})")
        if tail == head:
            raise EdgeError(f"{_where(idx, row)}: self-loops are not allowed")
        if (tail, head) in seen:
            raise EdgeError(f"{_where(idx, row)}: duplicate edge for this node pair")
        seen.add((tail, head))
        out_edges[tail].append(idx)
        in_edges[head].append(idx)
        tails.append(tail)
        heads.append(head)
        arrivals.append(arrival)
        scores.append(score)
        lengths.append(length)
    return RoadNetwork(
        node_count, tails, heads, arrivals, scores, lengths, out_edges, in_edges, labels
    )


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_document(net), fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    return doc[key]


def _shared(xs: tuple, canonical: dict) -> tuple:
    """``xs``, or the first tuple of the same floats that ``canonical`` saw.

    ``==`` does not tell 0.0 from -0.0, so a tuple that holds a zero is
    keyed with that zero's sign as well; strictly increasing departures
    hold at most one.
    """
    key = xs
    if 0.0 in xs:
        key = (xs, math.copysign(1.0, xs[xs.index(0.0)]))
    return canonical.setdefault(key, xs)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``1.0`` are not node ids."""
    return isinstance(value, int) and not isinstance(value, bool)


def _profile(pairs: list, departures: dict) -> ArrivalProfile:
    """The validated profile of ``pairs``, its ``xs`` shared (:func:`_shared`)."""
    arrival = ArrivalProfile(pairs)
    arrival.xs = _shared(arrival.xs, departures)
    return arrival


def _arrival_hook(departures: dict, built: list):
    """The parse's ``object_hook``: it builds an object's arrival profile
    as soon as the parser has finished the object.

    An ``"arrival"`` list of ``[x, y]`` pairs of JSON floats is replaced by
    its :class:`ArrivalProfile`, so the parser drops the pair lists at
    once, and the object is recorded in ``built``.  Any other value, and a
    list whose profile raises, stays as parsed: :func:`load_network`'s edge
    loop then converts it, or meets the same error and reports it.  Taking
    floats alone keeps the profile's numbers equal, sign included, to the
    parsed ones, so :func:`_unbuild_outside_edges` can give the list back.
    """

    def hook(obj: dict) -> dict:
        pairs = obj.get("arrival")
        if type(pairs) is list:
            try:
                # A pair gives two floats only if it is a JSON list of two.
                floats = [
                    (x, y) for x, y in pairs if type(x) is float and type(y) is float
                ]
                if len(floats) == len(pairs):
                    obj["arrival"] = _profile(floats, departures)
                    built.append(obj)
            except Exception:
                # Any error, a RecursionError deep inside a nested document
                # among them: the edge loop runs at the load's own depth.
                pass
        return obj

    return hook


def _unbuild_outside_edges(doc, built: list) -> None:
    """Put the breakpoint list back into each object of ``built`` that is
    not an element of ``doc["edges"]``.

    An object of an edge's shape can sit anywhere in a file: as the
    document, a score, a ``from``, ``to`` or ``length_m`` value or a label.
    A message or a label string may show it there, and must show it as
    parsed.
    """
    edges = doc.get("edges") if isinstance(doc, dict) else None
    on_edges = {id(raw) for raw in edges} if isinstance(edges, list) else set()
    for obj in built:
        if id(obj) not in on_edges:
            obj["arrival"] = [[x, y] for x, y in obj["arrival"].pairs()]


def _check_length(length, where: str) -> None:
    if length is not None and not (
        type(length) in (int, float) and 0.0 <= length <= sys.float_info.max
    ):
        raise FormatError(
            f"{where}: length_m must be a finite number >= 0, got {length!r}"
        )


def _from_kernel(node_count: int, columns: dict, flat: FlatNetwork) -> RoadNetwork:
    """The network of :func:`wayscore.kernel.parse_network`'s columns, every
    check already passed; it adopts ``flat``, which holds the same arrays.

    Each distinct row of departures becomes one ``xs`` tuple that its edges
    share, and each distinct constant score one ``ScoreProfile``: both are
    immutable, and the rows and defaults are told apart by their bits, so a
    zero keeps its sign.
    """
    bp_start = columns["bp_start"].tolist()
    counts = [hi - lo for lo, hi in zip(bp_start, bp_start[1:])]
    unpackers = {k: struct.Struct(f"={k}d").unpack_from for k in set(counts)}
    xs_start = columns["xs_start"].tolist()
    xs, ys = columns["xs"], columns["ys"]
    rows = {s: unpackers[k](xs, 8 * s) for s, k in dict(zip(xs_start, counts)).items()}
    arrivals = list(
        map(
            ArrivalProfile._from_checked,
            map(rows.__getitem__, xs_start),
            [unpackers[k](ys, 8 * lo) for lo, k in zip(bp_start, counts)],
        )
    )
    defaults = columns["sdef"]
    bits = defaults.cast("B").cast("Q")
    constants = {
        b: ScoreProfile._from_checked((), (), default)
        for b, default in dict(zip(bits, defaults)).items()
    }
    scores = list(map(constants.__getitem__, bits))
    sc_start, sb, sv = columns["sc_start"].tolist(), columns["sb"], columns["sv"]
    for e, (lo, hi) in enumerate(zip(sc_start, sc_start[1:])):
        if lo < hi:  # the values end with one padding value
            bounds, values = tuple(sb[lo:hi].tolist()), tuple(sv[lo : hi - 1].tolist())
            scores[e] = ScoreProfile._from_checked(bounds, values, defaults[e])
    lengths = columns["length"].tolist()
    kinds = columns["length_kind"]
    if kinds.tobytes().count(REAL_LENGTH) != len(lengths):
        lengths = [
            None if kind == NO_LENGTH else int(v) if kind == INT_LENGTH else v
            for kind, v in zip(kinds, lengths)
        ]

    def grouped(start: str, order: str) -> list[list[int]]:
        offsets, edges = columns[start].tolist(), columns[order]
        return [edges[lo:hi].tolist() for lo, hi in zip(offsets, offsets[1:])]

    net = RoadNetwork(
        node_count,
        columns["tail"].tolist(),
        columns["head"].tolist(),
        arrivals,
        scores,
        lengths,
        grouped("out_start", "out_edge"),
        grouped("in_start", "in_edge"),
    )
    net._flat = (flat,)
    return net


def load_network(path: str) -> RoadNetwork:
    """Load and fully validate a network file.

    The compiled kernel loads the file first, when it is available
    (:func:`wayscore.kernel.parse_network`): it parses it, makes every check
    below as a yes/no predicate, and builds the arrays it searches and the
    columns the network's lists are built from (:func:`_from_kernel`), with
    no check made again and no index pass.  The network keeps the arrays as
    its :meth:`RoadNetwork.flat` form, so its first solve packs nothing.  A
    file the kernel does not take, or that fails a check, goes to the
    Python loader instead, from the start, which names the first fault, so
    each file loads, or fails with the same error, on either path.

    The Python loader's parse builds each edge's arrival profile as it
    finishes the edge's object (:func:`_arrival_hook`), so the load never
    holds every edge's breakpoint lists together.  A profile the parse did
    not build is built, or rejected, by the edge loop, so every file loads,
    or fails with the same error, as if the parse built none.  Each arrival
    profile is validated once, by the ``ArrivalProfile`` constructor.  The
    edges are then indexed with :func:`build_network`'s other checks, in its
    order, but without its second FIFO pass.

    On both paths, profiles with equal breakpoint departures share one
    ``xs`` tuple: on a generated grid every edge has the same ones.
    """
    parsed = parse_network(path, MAX_NODES)
    if parsed is not None:
        return _from_kernel(*parsed)
    return _read(path)


def _read(path: str) -> RoadNetwork:
    """:func:`load_network` in Python: the reference, and every message."""
    departures: dict = {}  # _shared's canonical tuples, for this load only
    built: list = []
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_hook=_arrival_hook(departures, built))
        # ValueError: a JSON error, bytes that are not UTF-8, as RFC 8259
        # requires of JSON, or an integer longer than int() converts;
        # RecursionError: arrays or objects nested deeper than the parser goes
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    _unbuild_outside_edges(doc, built)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level document must be an object")
    node_count = _require(doc, "node_count", path)
    raw_edges = _require(doc, "edges", path)
    if not _is_int(node_count) or not isinstance(raw_edges, list):
        raise FormatError(f"{path}: bad types for node_count/edges")
    _check_node_count(node_count)
    rows = []
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
        arrival = _require(raw, "arrival", where)
        if type(arrival) is not ArrivalProfile:  # the parse did not build it
            try:
                if type(arrival) is not list:
                    raise TypeError(f"breakpoints must be a list, got {arrival!r}")
                arrival = _profile(
                    [(float(x), float(y)) for x, y in arrival], departures
                )
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
        _check_length(length, where)
        rows.append((tail, head, arrival, score, length))
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
    return _index(node_count, rows, labels)
