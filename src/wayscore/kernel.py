"""The compiled search kernel: ``_kernel.c``, built at first use, called by ``ctypes``.

:func:`wayscore.solver._fast_search` stays the reference engine; the kernel
is its copy in C (:meth:`FlatNetwork.search`), which takes the same
query arguments and returns the same status, label count and candidate.  The
solver runs every search with it when it can, sequential or parallel, in
one call.  Asked for more than one worker, the kernel splits a search that
outgrows its probe among threads it starts and joins itself, so a parallel
solve runs no Python while it searches.  ``ctypes`` releases the
interpreter lock for the call, and the kernel keeps no state between calls
(each search allocates and frees its own per-edge thresholds), so solves
from several threads search side by side.

The kernel also holds ``ws_earliest``, the copy of
:func:`wayscore.traversal.earliest_arrival` (:meth:`FlatNetwork.earliest`).
Its preconditions are those of the search (a network :func:`flatten`
checked) plus a source and destination that differ and lie in
``[0, nodes)``; ``earliest_arrival`` checks the ids before the call, and
the kernel checks them again and defers rather than index with one.

The library is compiled with the system ``gcc`` on the first solve of the
process and kept under ``~/.cache/wayscore``, named by a hash of the source
and the compile command, so a changed source or command builds a new one.
A build is written under a temporary name and renamed into place, so a
concurrent or interrupted build leaves no partial library behind.
:func:`library` returns None when there is no compiler, no writable cache
directory, or the library does not load; the Python engine then runs.

The kernel also loads network files (:func:`parse_network`, through
:func:`wayscore.network.load_network`).  ``ws_load`` parses a memory-mapped
file, makes every check of the Python loader as a yes/no predicate, and
builds the network's arrays in the kernel's layout, in one block of memory
that the returned :class:`FlatNetwork` owns, with each distinct row of
breakpoint departures stored once.  It defers, and the Python loader reads
the file, on anything outside what ``save_network`` writes for a network
without labels, and on any check that fails.

A network built in Python (``build_network``, the Python loader) is
flattened on its first solve instead (:func:`flatten`, through
:meth:`wayscore.network.RoadNetwork.flat`) into ``array`` buffers of the
same layout: a CSR out-adjacency, each edge's head, breakpoints and score
intervals, and ``floor_after``'s suffix floors, which the kernel computes
by the same expressions as
:meth:`wayscore.profiles.ArrivalProfile.floor_after`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile
import threading
import weakref
from array import array
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .profiles import TIME_EPS, ArrivalProfile, ScoreProfile

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")
try:
    CACHE_DIR: Optional[Path] = Path.home() / ".cache" / "wayscore"
except RuntimeError:  # no home directory: no cache, so no kernel
    CACHE_DIR = None

# ws_search's, ws_earliest's and ws_load's return codes.  DEFER: the kernel
# met an input it does not model (a NaN departure, on which the Python code
# raises, or a file it does not parse) or ran out of memory; the caller runs
# the Python code instead.
DONE, LIMIT, DEFER = 0, 1, 2

_INT64_MAX = 2**63 - 1
# The profile methods the kernel reproduces.  A replaced one (a tracer, a
# counter) must see every call, so the Python engine runs instead.
_NATIVE_METHODS = (
    ArrivalProfile.arrival,
    ArrivalProfile.floor_after,
    ScoreProfile.value,
)


class _Network(ctypes.Structure):
    _fields_ = [
        ("nodes", ctypes.c_int64),
        ("edges", ctypes.c_int64),
        ("out_start", ctypes.c_void_p),
        ("out_edge", ctypes.c_void_p),
        ("head", ctypes.c_void_p),
        ("bp_start", ctypes.c_void_p),
        ("xs_start", ctypes.c_void_p),
        ("xs", ctypes.c_void_p),
        ("ys", ctypes.c_void_p),
        ("floors", ctypes.c_void_p),
        ("sc_start", ctypes.c_void_p),
        ("sb", ctypes.c_void_p),
        ("sv", ctypes.c_void_p),
        ("sdef", ctypes.c_void_p),
    ]


class _File(ctypes.Structure):
    _fields_ = [
        ("net", _Network),
        ("points", ctypes.c_int64),
        ("row_points", ctypes.c_int64),
        ("scores", ctypes.c_int64),
        ("tail", ctypes.c_void_p),
        ("in_start", ctypes.c_void_p),
        ("in_edge", ctypes.c_void_p),
        ("length", ctypes.c_void_p),
        ("length_kind", ctypes.c_void_p),
        ("block", ctypes.c_void_p),
        ("block_size", ctypes.c_int64),
    ]


# A ws_file's length_kind values.
NO_LENGTH, INT_LENGTH, REAL_LENGTH = 0, 1, 2


class _Result(ctypes.Structure):
    _fields_ = [
        ("explored", ctypes.c_int64),
        ("length", ctypes.c_int64),
        ("claimed", ctypes.c_int64),
        ("threads", ctypes.c_int64),
        ("score", ctypes.c_double),
        ("arrival", ctypes.c_double),
    ]


def compile_kernel(target: Path, command: Sequence[str] = COMPILE) -> None:
    """Compile ``_kernel.c`` into the shared library ``target``.

    Raises OSError when the compiler cannot run and CalledProcessError
    (with its output) when it fails.
    """
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    os.close(fd)
    try:
        subprocess.run(
            [*command, "-o", tmp, str(SOURCE)],
            check=True,
            capture_output=True,
            timeout=300,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def bind(path) -> ctypes.CDLL:
    """Load a compiled kernel and declare its functions."""
    lib = ctypes.CDLL(str(path))
    lib.ws_floors.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 5
    lib.ws_floors.restype = ctypes.c_int
    lib.ws_search.argtypes = [
        ctypes.POINTER(_Network),
        ctypes.c_void_p,  # bounds
        ctypes.c_int64,  # destination
        ctypes.c_double,  # t_arr
        ctypes.c_double,  # eps
        ctypes.c_int64,  # source
        ctypes.c_double,  # t
        ctypes.c_int64,  # cap
        ctypes.c_int64,  # workers
        ctypes.c_int64,  # split depth
        ctypes.c_int64,  # probe
        ctypes.c_void_p,  # best path
        ctypes.POINTER(_Result),
    ]
    lib.ws_search.restype = ctypes.c_int
    lib.ws_earliest.argtypes = [
        ctypes.POINTER(_Network),
        ctypes.c_int64,  # source
        ctypes.c_int64,  # destination
        ctypes.c_double,  # departure
        ctypes.c_void_p,  # path
        ctypes.POINTER(ctypes.c_int64),  # path length
        ctypes.POINTER(ctypes.c_double),  # arrival
    ]
    lib.ws_earliest.restype = ctypes.c_int
    lib.ws_load.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.POINTER(_File)]
    lib.ws_load.restype = ctypes.c_int
    lib.ws_free.argtypes = [ctypes.POINTER(_File)]
    lib.ws_free.restype = None
    return lib


_lock = threading.Lock()
# None until the first load attempt, then the library or False.
_library = None


def _build_and_bind() -> Optional[ctypes.CDLL]:
    if CACHE_DIR is None:
        return None
    try:
        key = hashlib.sha256(SOURCE.read_bytes() + "\0".join(COMPILE).encode())
        target = CACHE_DIR / f"kernel-{key.hexdigest()[:16]}.so"
        if not target.exists():
            CACHE_DIR.mkdir(parents=True, exist_ok=True)
            compile_kernel(target)
        return bind(target)
    # AttributeError: a file in the cache that lacks the kernel's functions
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def library() -> Optional[ctypes.CDLL]:
    """The kernel, built and loaded on first use; None when it cannot be."""
    global _library
    with _lock:
        if _library is None:
            _library = _build_and_bind() or False
        return _library or None


def native_methods() -> bool:
    """Whether the profile methods are the ones the kernel reproduces."""
    current = (ArrivalProfile.arrival, ArrivalProfile.floor_after, ScoreProfile.value)
    return all(a is b for a, b in zip(current, _NATIVE_METHODS))


class FlatNetwork:
    """One network's arrays in the kernel's layout, and the call into it."""

    def __init__(self, lib: ctypes.CDLL, net: _Network, owner):
        self._lib = lib
        self._owner = owner  # what holds the memory that net points into
        self._net = net
        self.nodes = net.nodes
        self.edges = net.edges
        self._pack_bounds = struct.Struct(f"{self.nodes}d").pack

    def search(
        self,
        times: Sequence[float],
        destination: int,
        t_arr: float,
        source: int,
        t: float,
        cap: Optional[int],
        workers: int,
        split_depth: int,
        probe: int,
    ) -> tuple[int, int, Optional[tuple], int, int]:
        """Search from ``source``, departing at ``t``:
        ``(status, explored, candidate, claimed, threads)``.

        The first three are :func:`wayscore.solver._fast_search`'s, the
        candidate None unless the status is DONE.
        ``times`` are the query's bounds, one per node: ``struct`` packs
        them for the kernel, about three times faster than ``array('d',
        times)``, which a short query would notice, and raises
        ``struct.error`` for any other length.  ``cap`` is the number of
        labels the search may count, or None.

        The search claims the subtrees ``split_depth`` edges deep, in walk
        order, from one counter; ``claimed`` is how many were searched.  With
        ``workers`` > 1, once it has counted more than ``probe`` labels it
        starts ``workers - 1`` threads that claim the rest, and joins them
        before it returns; ``threads`` is how many searched.
        """
        bounds = self._pack_bounds(*times)
        best = array("i", bytes(4 * self.nodes))
        out = _Result()
        status = self._lib.ws_search(
            self._net,
            bounds,
            destination,
            t_arr,
            TIME_EPS,
            source,
            t,
            _INT64_MAX if cap is None else max(-1, min(cap, _INT64_MAX)),
            workers,
            split_depth,
            probe,
            best.buffer_info()[0],
            out,
        )
        candidate = None
        if out.length and status == DONE:
            candidate = (out.score, out.arrival, tuple(best[: out.length]))
        return status, out.explored, candidate, out.claimed, out.threads

    def earliest(
        self, source: int, destination: int, t_dep: float
    ) -> tuple[int, Optional[tuple[float, list[int]]]]:
        """:func:`wayscore.traversal.earliest_arrival` in the kernel:
        ``(status, reached)``, where ``reached`` is ``(arrival, path)``, or
        None when the destination is unreachable or the status is DEFER.

        ``source`` and ``destination`` must be different ints in
        ``[0, nodes)``.  The kernel returns DEFER, and the caller runs the
        Python loop, on a NaN departure, a failed allocation, and ids that
        break that rule, which it never indexes with.
        """
        path = array("i", (0,)) * self.nodes
        length, arrival = ctypes.c_int64(), ctypes.c_double()
        status = self._lib.ws_earliest(
            self._net, source, destination, t_dep, path.buffer_info()[0],
            length, arrival,
        )
        if not length.value:
            return status, None
        return status, (arrival.value, path[: length.value].tolist())


def _doubles(tuples: list) -> array:
    """Every float of the sequences in ``tuples`` in order, as an ``array('d')``.

    ``struct`` converts each float directly, where ``array.extend`` parses
    each item through a format string and takes twice as long.  Packing a
    few hundred sequences at a time into the preallocated array keeps the
    temporaries small enough to be reused, instead of leaving megabytes of
    freed heap in the process.
    """
    out = array("d", (0.0,)) * sum(map(len, tuples))
    offset = 0
    for i in range(0, len(tuples), 256):
        values = list(chain.from_iterable(tuples[i : i + 256]))
        struct.pack_into(f"{len(values)}d", out, offset, *values)
        offset += 8 * len(values)
    return out


def flatten(net) -> Optional[FlatNetwork]:
    """``net`` in the kernel's layout, or None when the kernel cannot search it.

    It cannot when the library is unavailable or a profile is of a subclass,
    whose methods may differ.  The index arrays are checked here, since the
    kernel trusts them.  Whether the profile methods are the ones the kernel
    reproduces is for the caller to check (:func:`native_methods`), on every
    use: :meth:`wayscore.network.RoadNetwork.flat` does.  Each edge's
    departures are packed where its arrivals are, so ``xs_start`` is
    ``bp_start`` without its last entry.
    """
    lib = library()
    if lib is None:
        return None
    n, arrivals, scores = net.node_count, net.arrivals, net.scores
    m = len(arrivals)
    if (
        len(net.out_edges) != n
        or m >= 2**31
        or not set(map(type, arrivals)) <= {ArrivalProfile}
        or not set(map(type, scores)) <= {ScoreProfile}
    ):
        return None
    xs = list(map(attrgetter("xs"), arrivals))
    ys = list(map(attrgetter("ys"), arrivals))
    boundaries = list(map(attrgetter("boundaries"), scores))
    bp_start = array("q", accumulate(map(len, xs), initial=0))
    arrays = {
        "out_start": array("q", accumulate(map(len, net.out_edges), initial=0)),
        "out_edge": array("i", list(chain.from_iterable(net.out_edges))),
        "head": array("i", net.heads),
        "bp_start": bp_start,
        "xs_start": bp_start[:-1],
        "xs": _doubles(xs),
        "ys": _doubles(ys),
        "floors": None,
        "sc_start": array("q", accumulate(map(len, boundaries), initial=0)),
        "sb": _doubles(boundaries),
        # one value per boundary: the padding after the last is never read
        "sv": _doubles([s.values + (0.0,) for s in scores if s.boundaries]),
        "sdef": array("d", map(attrgetter("default"), scores)),
    }
    head, out_edge = arrays["head"], arrays["out_edge"]
    if (
        len(arrays["xs"]) != len(arrays["ys"])
        or len(arrays["sb"]) != len(arrays["sv"])
        or (head and not 0 <= min(head) <= max(head) < n)
        or (out_edge and not 0 <= min(out_edge) <= max(out_edge) < m)
    ):
        return None
    floors = arrays["floors"] = array("d", (0.0,)) * len(arrays["xs"])
    pointers = [arrays[k].buffer_info()[0] for k in ("bp_start", "xs_start", "xs", "ys")]
    if lib.ws_floors(m, *pointers, floors.buffer_info()[0]) != 0:
        return None
    fields = (arrays[name].buffer_info()[0] for name, _ in _Network._fields_[2:])
    return FlatNetwork(lib, _Network(n, m, *fields), arrays)


def parse_network(path, max_nodes: int) -> Optional[tuple[int, dict, FlatNetwork]]:
    """The network file at ``path`` loaded by the kernel's ``ws_load``, or
    None when the kernel does not take it.

    The value is ``(node_count, columns, flat)``.  ``flat`` searches the
    network, and owns the one block of memory ``ws_load`` built: the
    kernel's arrays and the columns, which ``columns`` holds as typed
    ``memoryview`` s, each keeping the block alive.  By name:

    * per edge: ``tail`` and ``head`` (``i``); ``xs_start`` (``q``), where
      its departures start in ``xs``; ``sdef``, its score default, and
      ``length``, its ``length_m`` (``d``); ``length_kind`` (``B``), one of
      ``NO_LENGTH``, ``INT_LENGTH`` (an int in the file) and ``REAL_LENGTH``
    * offsets, one more than what they index (``q``): ``bp_start`` and
      ``sc_start`` per edge, into ``ys`` and into ``sb``/``sv``;
      ``out_start`` and ``in_start`` per node, into ``out_edge`` and
      ``in_edge`` (``i``), which list each node's edges in edge order
    * ``xs`` (each distinct row of departures once: rows of the same bits,
      the sign of a zero included), ``ys`` and score ``sb``/``sv``
      (``d``); ``sv`` holds one padding value after each edge's values.

    Everything the Python loader checks has passed: ``node_count`` in
    ``[1, max_nodes]``, each profile by :func:`wayscore.profiles.check_fifo`'s
    rules, each score as ``ScoreProfile`` checks it, each ``length_m``,
    endpoints in range and apart, and no two edges between one pair of
    nodes.  None means no kernel, a path that is not a string or bytes
    without a NUL, or what ``ws_load`` defers: a file that is not a regular
    file, is not JSON, holds anything that ``save_network`` does not write
    for a network without labels, or fails a check.  The file is read
    through a memory map, so it must not shrink while it loads: a read past
    its new end raises SIGBUS.
    """
    lib = library()
    if lib is None or not isinstance(path, (str, bytes, os.PathLike)):
        return None
    name = os.fsencode(path)
    if b"\0" in name:
        return None
    loaded = _File()
    if lib.ws_load(name, max_nodes, loaded) != DONE:
        return None
    block = (ctypes.c_ubyte * loaded.block_size).from_address(loaded.block)
    weakref.finalize(block, lib.ws_free, loaded)
    whole = memoryview(block).cast("B")
    net = loaded.net
    n, m = net.nodes, net.edges
    columns = {}
    for name, where, code, count in (
        ("tail", loaded.tail, "i", m),
        ("head", net.head, "i", m),
        ("xs_start", net.xs_start, "q", m),
        ("sdef", net.sdef, "d", m),
        ("length", loaded.length, "d", m),
        ("length_kind", loaded.length_kind, "B", m),
        ("bp_start", net.bp_start, "q", m + 1),
        ("sc_start", net.sc_start, "q", m + 1),
        ("out_start", net.out_start, "q", n + 1),
        ("in_start", loaded.in_start, "q", n + 1),
        ("out_edge", net.out_edge, "i", m),
        ("in_edge", loaded.in_edge, "i", m),
        ("xs", net.xs, "d", loaded.row_points),
        ("ys", net.ys, "d", loaded.points),
        ("sb", net.sb, "d", loaded.scores),
        ("sv", net.sv, "d", loaded.scores),
    ):
        at = where - loaded.block
        columns[name] = whole[at : at + struct.calcsize(code) * count].cast(code)
    return n, columns, FlatNetwork(lib, net, block)
