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

The kernel also parses network files (:func:`parse_network`, through
:func:`wayscore.network.load_network`).  ``ws_load`` reads a memory-mapped
file into per-edge columns and checks every arrival profile by
:func:`wayscore.profiles.check_fifo`'s rules; it defers, and the Python
loader reads the file, on anything outside what ``save_network`` writes for
a network without labels, and on a profile that fails the check.

A network is flattened once (:func:`flatten`, through
:meth:`wayscore.network.RoadNetwork.flat`) into ``array`` buffers: a CSR
out-adjacency, each edge's head, breakpoints and score intervals, and
``floor_after``'s suffix floors, which the kernel computes by the same
expressions as :meth:`wayscore.profiles.ArrivalProfile.floor_after`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import subprocess
import tempfile
import threading
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
        ("node_count", ctypes.c_int64),
        ("edges", ctypes.c_int64),
        ("points", ctypes.c_int64),
        ("scores", ctypes.c_int64),
        ("edge", ctypes.c_void_p),
        ("xs", ctypes.c_void_p),
        ("ys", ctypes.c_void_p),
        ("scores_pool", ctypes.c_void_p),
    ]


# A ws_edge: tail, head, the counts of breakpoints, score boundaries and
# score values, the kind of length_m, the score default and length_m.
_EDGE = struct.Struct("=6q2d")
_NO_LENGTH, _INT_LENGTH = 0, 1


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
    lib.ws_floors.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 4
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
    lib.ws_load.argtypes = [ctypes.c_char_p, ctypes.POINTER(_File)]
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

    def __init__(self, lib: ctypes.CDLL, nodes: int, arrays: dict):
        self._lib = lib
        self._arrays = arrays  # the buffers the struct points into
        self.nodes = nodes
        self.edges = len(arrays["head"])
        self._pack_bounds = struct.Struct(f"{nodes}d").pack
        self._net = _Network(
            nodes,
            self.edges,
            *(arrays[name].buffer_info()[0] for name, _ in _Network._fields_[2:]),
        )

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
    use: :meth:`wayscore.network.RoadNetwork.flat` does.
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
    arrays = {
        "out_start": array("q", accumulate(map(len, net.out_edges), initial=0)),
        "out_edge": array("i", list(chain.from_iterable(net.out_edges))),
        "head": array("i", net.heads),
        "bp_start": array("q", accumulate(map(len, xs), initial=0)),
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
    pointers = [arrays[k].buffer_info()[0] for k in ("bp_start", "xs", "ys")]
    if lib.ws_floors(m, *pointers, floors.buffer_info()[0]) != 0:
        return None
    return FlatNetwork(lib, n, arrays)


def _view(address: int, size: int):
    """``size`` bytes at ``address`` as a buffer, without a copy."""
    return (ctypes.c_char * size).from_address(address) if size else b""


def parse_network(path) -> Optional[tuple[int, list[tuple]]]:
    """The network file at ``path`` parsed by the kernel's ``ws_load``, or
    None when the kernel does not take it.

    The value is ``(node_count, rows)``, one row per edge:
    ``(tail, head, xs, ys, boundaries, values, default, length_m)``, the
    breakpoints and score numbers as tuples of floats, ``length_m`` None
    where the file has none, else an int or a float as in the file.  Rows
    whose departures are the same doubles, bit for bit, share the first
    row's ``xs`` tuple; for checked departures that is the sharing of
    ``wayscore.network._shared``, the sign of a zero included.  Every
    row's breakpoints pass :func:`wayscore.profiles.check_fifo`'s rules; no
    other check has run.  None means no kernel, a path that is not a string
    or bytes without a NUL, or what ``ws_load`` defers: a file that is not
    a regular file, is not JSON, holds anything that ``save_network`` does
    not write for a network without labels, or has a profile that fails the
    check.  The file is read through a memory map, so it must not shrink
    while it loads: a read past its new end raises SIGBUS.
    """
    lib = library()
    if lib is None or not isinstance(path, (str, bytes, os.PathLike)):
        return None
    name = os.fsencode(path)
    if b"\0" in name:
        return None
    parsed = _File()
    if lib.ws_load(name, parsed) != DONE:
        return None
    try:
        edges = _view(parsed.edge, _EDGE.size * parsed.edges)
        xs = _view(parsed.xs, 8 * parsed.points)
        ys = _view(parsed.ys, 8 * parsed.points)
        scores = _view(parsed.scores_pool, 8 * parsed.scores)
        unpackers = {}  # struct.Struct(f"={k}d").unpack_from per count k
        departures = {}  # the first xs tuple of each row's bytes
        rows = []
        at = sc = 0
        for tail, head, k, nb, nv, kind, default, length in _EDGE.iter_unpack(edges):
            unpack = unpackers.get(k)
            if unpack is None:
                unpack = unpackers[k] = struct.Struct(f"={k}d").unpack_from
            row_xs = departures.get(xs[at : at + 8 * k])
            if row_xs is None:
                row_xs = departures[xs[at : at + 8 * k]] = unpack(xs, at)
            row_ys = unpack(ys, at)
            at += 8 * k
            bounds = values = ()
            if nb or nv:
                bounds = struct.unpack_from(f"={nb}d", scores, sc)
                values = struct.unpack_from(f"={nv}d", scores, sc + 8 * nb)
                sc += 8 * (nb + nv)
            if kind == _NO_LENGTH:
                length = None
            elif kind == _INT_LENGTH:
                length = int(length)
            rows.append((tail, head, row_xs, row_ys, bounds, values, default, length))
        return parsed.node_count, rows
    finally:
        lib.ws_free(parsed)
