"""Generated network documents through the loader and ``wayscore query``.

Every document must load or fail with a NetworkError, and the CLI must end
in a documented exit code with at most one line on stderr, never a
traceback.  Valid node counts stay small, since the loader allocates per
declared node; counts above ``MAX_NODES`` must fail before that.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import loaded_both_ways

from wayscore import kernel
from wayscore.cli import main
from wayscore.network import NetworkError, RoadNetwork
from wayscore.traversal import QueryError, build_query

# Any JSON scalar, including NaN, infinities and integers too large for a float.
_scalar = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(2**1024, 2**1100),  # beyond the float range
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_junk = st.one_of(_scalar, st.lists(_scalar, max_size=3))


def _mostly(good, bad=_junk):
    """``good`` nine times in ten, otherwise ``bad``.

    Nested ``one_of`` choices would flatten into one uniform choice, in which
    the many kinds of junk would drown the well-formed parts.
    """
    return st.integers(0, 9).flatmap(lambda roll: bad if roll == 0 else good)


_node = _mostly(st.integers(-1, 5), _scalar)
_time = _mostly(st.floats(0.0, 100.0), _scalar)
_arrival = _mostly(
    st.one_of(
        # a static edge: valid
        st.builds(lambda x, travel: [[x, x + travel]],
                  st.floats(0.0, 100.0), st.floats(0.0, 10.0)),
        st.lists(_mostly(st.lists(_time, min_size=2, max_size=2)), max_size=4),
    )
)
_score = _mostly(
    st.fixed_dictionaries(
        {},
        optional={
            "boundaries": _mostly(st.lists(_time, max_size=3)),
            "values": _mostly(st.lists(_mostly(st.floats(0.0, 10.0), _scalar),
                                       max_size=2)),
            "default": _mostly(st.floats(0.0, 10.0), _scalar),
        },
    )
)
_edge = st.fixed_dictionaries(
    {"from": _node, "to": _node, "arrival": _arrival},
    optional={"score": _score, "length_m": _mostly(st.floats(0.0, 1e3), _scalar)},
)
_document = _mostly(
    st.fixed_dictionaries(
        {
            # 1 is left out: ``--to 1`` then names no node, a usage error
            "node_count": _mostly(
                st.integers(2, 5),
                st.one_of(st.sampled_from([-1, 0, 2**24 + 1, 10**11]),
                          st.floats(), st.booleans(), st.text(max_size=2),
                          st.none()),
            ),
            "edges": _mostly(st.lists(_mostly(_edge), max_size=6)),
        },
        optional={
            "labels": _mostly(
                st.dictionaries(
                    st.integers(-1, 9).map(str),
                    _mostly(st.sampled_from(["0", "1", "A"]), _scalar),
                    max_size=3,
                ),
            ),
        },
    )
)




def _fifo(steps):
    """Breakpoints from (departure, travel) draws: departures made strictly
    increasing and arrivals non-decreasing, as a valid profile needs."""
    pairs, prev_y = [], 0.0
    for x, travel in sorted(dict(steps).items()):
        prev_y = max(x + travel, prev_y)
        pairs.append([x, prev_y])
    return pairs


# Well-formed documents on five nodes, whose query 0 -> 1 is often solvable,
# so that the search itself (the compiled kernel where it is available) sees
# generated networks.
_solvable_edge = st.fixed_dictionaries(
    {
        "arrival": st.lists(
            st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 5.0)),
            min_size=1, max_size=4,
        ).map(_fifo),
    },
    optional={
        "score": st.fixed_dictionaries(
            {"boundaries": st.just([0.0, 2.0, 4.0]),
             "values": st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2)},
            optional={"default": st.floats(0.0, 10.0)},
        ),
    },
)
_solvable = st.builds(
    lambda pairs, edges: {
        "node_count": 5,
        "edges": [dict(edge, **{"from": u, "to": v})
                  for (u, v), edge in zip(pairs, edges)],
    },
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4))
             .filter(lambda pair: pair[0] != pair[1]),
             min_size=1, max_size=10, unique=True),
    st.lists(_solvable_edge, min_size=10, max_size=10),
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "net.json")


def test_every_document_loads_or_is_a_data_error(doc_path, kernel_runs,
                                                 earliest_runs, kernel_loads):
    """The documents that load and pose a searchable query are searched by
    the compiled kernel wherever it is available, and every document that
    loads has a query derived by it, so its safety is fuzzed too: the run
    must reach it, and it must hand nothing back.  Every document is also
    loaded with the kernel's parser, which must agree with the Python
    loader, and must parse some of them."""
    _check_document(doc_path)
    if kernel.library() is not None:
        assert any(kernel_loads), "the kernel parsed no document"
        assert kernel_runs, "no document reached the kernel"
        assert kernel.DEFER not in kernel_runs
        assert earliest_runs, "no query was derived in the kernel"
        assert kernel.DEFER not in earliest_runs


def _derived(net):
    """``build_query`` from 0 to 1, or the message of its QueryError."""
    try:
        return build_query(net, 0, 1, 0.0, overhead_minutes=8.0)
    except QueryError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(_document, _solvable),
       text=_mostly(st.none(), st.text(max_size=8)),
       threads=st.sampled_from(["1", "2"]))
def _check_document(doc_path, doc, text, threads):
    with open(doc_path, "w") as fh:
        fh.write(json.dumps(doc) if text is None else text)
    try:
        net = loaded_both_ways(doc_path)
    except NetworkError:
        net = None
    if net is not None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RoadNetwork, "flat", lambda self: None)
            want = _derived(net)
        assert _derived(net) == want
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["query", "--graph", doc_path, "--from", "0", "--to", "1",
                     "--depart", "0", "--budget", "8", "--threads", threads])
    lines = err.getvalue().splitlines()
    assert code == (2 if net is None else 0), lines
    assert len(lines) == (net is None)
    assert "Traceback" not in err.getvalue()
