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
Its preconditions are those of the search (a network ``ws_build``
built) plus a source and destination that differ and lie in
``[0, nodes)``; ``earliest_arrival`` checks the ids before the call, and
the kernel checks them again and defers rather than index with one.

The library is compiled with the system ``gcc`` on the first solve of the
process and kept under ``~/.cache/wayscore``, named by a hash of the source
and the compile command, so a changed source or command builds a new one.
A build is written under a temporary name and renamed into place, so a
concurrent or interrupted build leaves no partial library behind.
:func:`library` returns None when there is no compiler, no writable cache
directory, or the library does not load; the Python engine then runs.

Every network the kernel searches is in one layout, built by ``ws_build``
in one block of memory that a :class:`FlatNetwork` owns: a CSR
out-adjacency in edge order, each edge's head, breakpoints (each distinct
row of departures stored once) and score intervals, and ``floor_after``'s
suffix floors, computed by the same expressions as
:meth:`wayscore.profiles.ArrivalProfile.floor_after`.  ``ws_build`` reads a
network as the kernel's file parser does, from ``ws_load``
(:func:`parse_network`), which parses a network file and makes every
check of the Python loader, or from :func:`flatten`, which packs a
network built in Python on its first solve.  It checks only what the
kernel's reads rest on, so a NaN departure put into a profile after its
check is searched, and the search defers on it.
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
from itertools import chain, repeat
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

# ws_search's, ws_earliest's, ws_load's and ws_build's return codes.  DEFER:
# the kernel met an input it does not model (a NaN departure, on which the
# Python code raises, or a file it does not parse) or ran out of memory; the
# caller runs the Python code instead.
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

# A ws_edge, as flatten packs it: tail, head, the counts of breakpoints,
# score boundaries and score values, the kind of length_m (NO_LENGTH), the
# score default, length_m (0) and xs_start (set by ws_build).
_EDGE = struct.Struct("=6q2dq")


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
    # nodes, edges, records, breakpoints, xs, ys, score numbers, scores,
    # the ws_file to fill
    lib.ws_build.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p] + [
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_void_p, ctypes.POINTER(_File),
    ]
    lib.ws_build.restype = ctypes.c_int
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
    """One network's arrays in the kernel's layout, and the call into it.

    The arrays are the block ``ws_build`` mapped for ``built``; ``ws_free``
    unmaps it once neither this object nor a view of ``_block`` holds it.
    """

    def __init__(self, lib: ctypes.CDLL, built: _File):
        self._lib = lib
        self._block = (ctypes.c_ubyte * built.block_size).from_address(built.block)
        weakref.finalize(self._block, lib.ws_free, built)
        self._net = built.net
        self.nodes = built.net.nodes
        self.edges = built.net.edges
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

    It cannot when the library is unavailable, a profile is of a subclass,
    whose methods may differ, an edge's departures and arrivals differ in
    number, or ``ws_build`` refuses the network.  Whether the profile
    methods are the ones the kernel reproduces is for the caller to check
    (:func:`native_methods`), on every use:
    :meth:`wayscore.network.RoadNetwork.flat` does.  It packs what the
    kernel's parser reads from a file, a ``ws_edge`` record (:data:`_EDGE`)
    per edge and the departures, arrivals and score numbers in edge order,
    for ``ws_build``.
    """
    lib, arrivals, scores = library(), net.arrivals, net.scores
    if lib is None or not (
        set(map(type, arrivals)) <= {ArrivalProfile}
        and set(map(type, scores)) <= {ScoreProfile}
    ):
        return None
    xs = list(map(attrgetter("xs"), arrivals))
    ys = list(map(attrgetter("ys"), arrivals))
    points = list(map(len, xs))
    if points != list(map(len, ys)):
        return None
    boundaries = list(map(attrgetter("boundaries"), scores))
    values = list(map(attrgetter("values"), scores))
    packed = b"".join(map(
        _EDGE.pack, net.tails, net.heads, points, map(len, boundaries), map(len, values),
        repeat(NO_LENGTH), map(attrgetter("default"), scores), repeat(0.0), repeat(0),
    ))
    records = array("q", packed)  # writable: ws_build sets each xs_start
    pool = _doubles([seq for pair in zip(boundaries, values) if any(pair) for seq in pair])
    xs_pool, ys_pool, built = _doubles(xs), _doubles(ys), _File()
    status = lib.ws_build(
        net.node_count, len(packed) // _EDGE.size, records.buffer_info()[0],
        len(ys_pool), xs_pool.buffer_info()[0], ys_pool.buffer_info()[0],
        len(pool), pool.buffer_info()[0], built,
    )
    return FlatNetwork(lib, built) if status == DONE else None


def parse_network(path, max_nodes: int) -> Optional[tuple[int, dict, FlatNetwork]]:
    """The network file at ``path`` loaded by the kernel's ``ws_load``, or
    None when the kernel does not take it.

    The value is ``(node_count, columns, flat)``.  ``flat`` searches the
    network, and owns the one block of memory ``ws_build`` built for the
    file, as for a network :func:`flatten` packs: the kernel's arrays and
    the columns, which ``columns`` holds as typed ``memoryview`` s, each
    keeping the block alive.  By name:

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
    flat = FlatNetwork(lib, loaded)
    whole = memoryview(flat._block).cast("B")
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
    return n, columns, flat
