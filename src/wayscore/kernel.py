"""The compiled search kernel: ``_kernel.c``, built at first use, called by ``ctypes``.

:func:`wayscore.solver._fast_search` stays the reference engine; the kernel
is its copy in C, without the task sink, and gives the same status,
candidate and label count.  The solver runs every whole-subtree search with
it when it can: the sequential solve, the parallel probe and the workers'
tasks.

The library is compiled with the system ``gcc`` on the first solve of the
process and kept under ``~/.cache/wayscore``, named by a hash of the source
and the compile command, so a changed source or command builds a new one.
A build is written under a temporary name and renamed into place, so a
concurrent or interrupted build leaves no partial library behind.
:func:`library` returns None when there is no compiler, no writable cache
directory, or the library does not load; the Python engine then runs.

A network is flattened once (:func:`flatten`, through
:meth:`wayscore.network.RoadNetwork.flat`) into ``array`` buffers: a CSR
out-adjacency, each edge's head, breakpoints and score intervals, and
``floor_after``'s suffix floors, which the kernel computes by the same
expressions as :meth:`wayscore.profiles.ArrivalProfile.floor_after`.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
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
COMPILE = ("gcc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
try:
    CACHE_DIR: Optional[Path] = Path.home() / ".cache" / "wayscore"
except RuntimeError:  # no home directory: no cache, so no kernel
    CACHE_DIR = None

# ws_search's return codes.  DEFER: the kernel met an input it does not model
# (a NaN departure, on which the Python engine raises) or ran out of memory;
# the caller runs the Python engine instead.
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


class _Result(ctypes.Structure):
    _fields_ = [
        ("explored", ctypes.c_int64),
        ("length", ctypes.c_int64),
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
        ctypes.c_void_p,  # thresholds
        ctypes.c_int64,  # destination
        ctypes.c_double,  # t_arr
        ctypes.c_double,  # eps
        ctypes.c_void_p,  # prefix
        ctypes.c_int64,  # prefix length
        ctypes.c_double,  # t
        ctypes.c_double,  # score
        ctypes.c_int64,  # cap
        ctypes.c_void_p,  # best path
        ctypes.POINTER(_Result),
    ]
    lib.ws_search.restype = ctypes.c_int
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
        self._bounds_type = ctypes.c_double * nodes
        self._thresholds_type = ctypes.c_double * self.edges
        self._pack_bounds = struct.Struct(f"{nodes}d").pack_into
        self._net = _Network(
            nodes,
            self.edges,
            *(arrays[name].buffer_info()[0] for name, _ in _Network._fields_[2:]),
        )

    def bounds(self, times: Sequence[float]) -> array:
        """The query's bounds in the kernel's layout, one double per node.

        ``struct`` converts a node list about three times faster than
        ``array('d', times)``, which a short query would notice.
        """
        out = array("d", (0.0,)) * self.nodes
        self._pack_bounds(out, 0, *times)
        return out

    def thresholds(self) -> array:
        """A fresh per-query threshold buffer: none learned yet."""
        return array("d", (math.nan,)) * self.edges

    def search(
        self,
        bounds,
        thresholds: array,
        destination: int,
        t_arr: float,
        prefix: Sequence[int],
        t: float,
        score: float,
        cap: Optional[int],
    ) -> tuple[int, int, Optional[tuple]]:
        """Search the subtree below ``prefix``: ``(status, explored, candidate)``.

        ``bounds`` is any writable buffer of one double per node (an
        ``array`` or the workers' shared ``mmap``); ``cap`` is the number of
        labels the search may count, or None.
        """
        # from_buffer raises ValueError for a buffer smaller than the type.
        bounds_view = self._bounds_type.from_buffer(bounds)
        thresholds_view = self._thresholds_type.from_buffer(thresholds)
        path = array("i", prefix)
        best = array("i", bytes(4 * self.nodes))
        out = _Result()
        status = self._lib.ws_search(
            self._net,
            ctypes.addressof(bounds_view),
            ctypes.addressof(thresholds_view),
            destination,
            t_arr,
            TIME_EPS,
            path.buffer_info()[0],
            len(path),
            t,
            score,
            _INT64_MAX if cap is None else max(-1, min(cap, _INT64_MAX)),
            best.buffer_info()[0],
            out,
        )
        candidate = None
        if out.length:
            candidate = (out.score, out.arrival, tuple(best[: out.length]))
        return status, out.explored, candidate


def _doubles(tuples: list) -> array:
    """Every float of the sequences in ``tuples`` in order, as an ``array('d')``.

    ``struct`` converts each float directly, where ``array.extend`` parses
    each item through a format string and takes twice as long.  Packing a
    few hundred sequences at a time into the preallocated array keeps the
    temporaries small enough to be reused, instead of leaving megabytes of
    freed heap in the process and in every worker forked after it.
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

    It cannot when the library is unavailable, a profile method has been
    replaced, or a profile is of a subclass, whose methods may differ.  The
    index arrays are checked here, since the kernel trusts them.
    """
    lib = library()
    if lib is None or not native_methods():
        return None
    n, edges = net.node_count, net.edges
    arrivals = list(map(attrgetter("arrival"), edges))
    scores = list(map(attrgetter("score"), edges))
    if (
        len(net.out_edges) != n
        or len(edges) >= 2**31
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
        "head": array("i", list(map(attrgetter("head"), edges))),
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
        or (edges and not 0 <= min(head) <= max(head) < n)
        or (out_edge and not 0 <= min(out_edge) <= max(out_edge) < len(edges))
    ):
        return None
    floors = arrays["floors"] = array("d", (0.0,)) * len(arrays["xs"])
    pointers = [arrays[k].buffer_info()[0] for k in ("bp_start", "xs", "ys")]
    if lib.ws_floors(len(edges), *pointers, floors.buffer_info()[0]) != 0:
        return None
    return FlatNetwork(lib, n, arrays)
