import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wayscore
from wayscore.bench import BENCH_CSV_FIELDS, run_bench, write_bench_csv
from wayscore.cli import main
from wayscore.datagen import GenConfig, generate_network, generate_query_sets, write_queries_csv
from wayscore.network import load_network, save_network


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """A generated network file plus a small query CSV next to it."""
    root = tmp_path_factory.mktemp("bench")
    gen = generate_network(GenConfig(rows=6, cols=6, score_density=0.3, seed=13))
    graph_path = str(root / "grid.json")
    save_network(gen.network, graph_path)
    records = generate_query_sets(
        gen.network, seed=3, count_per_set=4, buckets=((0.0, 3.0), (3.0, 6.0))
    )
    queries_path = str(root / "queries.csv")
    write_queries_csv(records, queries_path)
    return graph_path, queries_path, gen.network, records


def _one_edge_doc(**fields):
    """A two-node network document whose single edge 0->1 has ``fields``."""
    edge = {
        "from": 0,
        "to": 1,
        "arrival": [[0.0, 2.0]],
        "score": {"boundaries": [], "values": [], "default": 1.0},
    }
    edge.update(fields)
    return {"node_count": 2, "edges": [edge]}


@pytest.fixture
def toy_file(toy_network, tmp_path):
    path = str(tmp_path / "toy.json")
    save_network(toy_network, path)
    return path


class TestGenNetworkCommand:
    def test_writes_loadable_validated_file(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        rc = main(["gen-network", "--grid", "5x4", "--density", "0.2",
                   "--seed", "7", "--out", out])
        assert rc == 0
        net = load_network(out)  # load fully re-validates
        assert net.node_count == 20
        assert "wrote" in capsys.readouterr().out

    def test_bad_density_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-network", "--density", "1.5", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--edge-length", "nan"], "edge length must be finite"),
        (["--edge-length", "inf"], "edge length must be finite"),
        (["--speed-max", "inf"], "bad speed range"),
        (["--score-max", "100000000000000000000"], "bad score range"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--edge-length", "1e308"], "is too large to quantize"),
    ])
    def test_bad_number_is_data_error(self, tmp_path, capsys, flags, message):
        """Each ended in a ValueError or OverflowError traceback, from numpy
        or from quantizing a travel time."""
        out = tmp_path / "g.json"
        rc = main(["gen-network", "--grid", "3x3", *flags, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["gen-network", "--grid", "4x4", "--seed", "3",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_base_length_past_the_quantum_range_is_data_error(self, tmp_path, capsys):
        """A base network's length_m may be any finite number, but a travel
        time derived from 1e308 m has no finite count of quanta."""
        base, out = tmp_path / "base.json", tmp_path / "re.json"
        assert main(["gen-network", "--grid", "3x3", "--out", str(base)]) == 0
        doc = json.loads(base.read_text())
        doc["edges"][3]["length_m"] = 1e308
        base.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["gen-network", "--base", str(base), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "is too large to quantize" in captured.err
        assert not out.exists()

    def test_base_topology_reuse(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        redressed = str(tmp_path / "re.json")
        assert main(["gen-network", "--grid", "4x5", "--seed", "3",
                     "--out", base]) == 0
        assert main(["gen-network", "--base", base, "--seed", "9",
                     "--density", "0.5", "--out", redressed]) == 0
        a, b = load_network(base), load_network(redressed)
        assert b.node_count == a.node_count
        assert [(e.tail, e.head) for e in b.edges] == [
            (e.tail, e.head) for e in a.edges
        ]
        # same roads, fresh traffic
        assert any(x.arrival != y.arrival for x, y in zip(a.edges, b.edges))


class TestQueryCommand:
    def test_worked_example_by_node_name(self, toy_file, capsys):
        rc = main(["query", "--graph", toy_file, "--from", "A", "--to", "B",
                   "--depart", "0", "--budget", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"] == ["A", "C", "B"]
        assert doc["score"] == 7.0

    def test_answers_without_importing_numpy(self, toy_file):
        """Importing the CLI and answering a query leave numpy unimported:
        only the commands that generate or benchmark need it."""
        code = (
            "import sys\n"
            "from wayscore.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(wayscore.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code, "query", "--graph", toy_file,
             "--from", "A", "--to", "B", "--depart", "0", "--overhead-pct", "30"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["nodes"] == ["A", "B"]

    def test_datagen_imports_numpy_only_to_generate(self):
        """The settings and the query reader of ``wayscore.datagen`` leave
        numpy unimported: a process that only reads query files, a benchmark
        driver among them, does not pay for it."""
        code = (
            "import sys\n"
            "from wayscore import datagen\n"
            "datagen.GenConfig(rows=3, cols=3).validate()\n"
            "assert datagen.DEFAULT_WINDOWS and callable(datagen.read_queries_csv)\n"
            "sys.exit('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(wayscore.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_percent_overhead_budget_printed(self, toy_file, capsys):
        rc = main(["query", "--graph", toy_file, "--from", "A", "--to", "B",
                   "--depart", "0", "--overhead-pct", "30"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget"] == pytest.approx(2.0 * 1.3)

    def test_unknown_node_is_usage_error(self, toy_file, capsys):
        rc = main(["query", "--graph", toy_file, "--from", "ZZZ", "--to", "B",
                   "--depart", "0", "--budget", "8"])
        assert rc == 1
        assert "unknown node" in capsys.readouterr().err

    def test_infeasible_prints_infeasible(self, toy_file, capsys):
        rc = main(["query", "--graph", toy_file, "--from", "B", "--to", "A",
                   "--depart", "0", "--budget", "8"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "infeasible"

    def test_negative_departure(self, tmp_path, capsys):
        """A deadline before time 0 gave a wrong ``infeasible``."""
        doc = {"node_count": 3, "edges": [
            {"from": 0, "to": 1, "arrival": [[0.0, 1.0]],
             "score": {"boundaries": [], "values": [], "default": 2.0}},
            {"from": 1, "to": 2, "arrival": [[0.0, 1.0]],
             "score": {"boundaries": [], "values": [], "default": 2.0}},
            {"from": 0, "to": 2, "arrival": [[0.0, 1.5]],
             "score": {"boundaries": [], "values": [], "default": 1.0}},
        ]}
        path = tmp_path / "early.json"
        path.write_text(json.dumps(doc))
        rc = main(["query", "--graph", str(path), "--from", "0", "--to", "2",
                   "--depart", "-5", "--budget", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["node_ids"] == [0, 1, 2]
        assert out["arrivals"] == [-4.0, -3.0]

    def test_network_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        """It ended in a UnicodeDecodeError traceback."""
        path = tmp_path / "net.json"
        path.write_bytes(b'{"node_count": 2, "edges": [], "labels": {"0": "\xff"}}')
        rc = main(["query", "--graph", str(path), "--from", "0", "--to", "1",
                   "--depart", "0", "--budget", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and f"{path}: not valid JSON" in lines[0]
        assert "can't decode byte 0xff" in lines[0]

    def test_missing_graph_is_data_error(self, capsys):
        rc = main(["query", "--graph", "/nonexistent.json", "--from", "0",
                   "--to", "1", "--depart", "0", "--budget", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--depart", "0", "--budget", "nan"],
        ["--depart", "0", "--budget", "inf"],
        ["--depart", "nan", "--budget", "8"],
        ["--depart", "inf", "--overhead-pct", "30"],
        ["--depart", "0", "--overhead-abs", "nan"],
        ["--depart", "0", "--overhead-pct", "inf"],
    ])
    def test_non_finite_number_is_data_error(self, toy_file, capsys, flags):
        rc = main(["query", "--graph", toy_file, "--from", "A", "--to", "B", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("doc, message", [
        (_one_edge_doc(**{"from": "0"}), "must be integers"),
        (_one_edge_doc(**{"from": 0.0}), "must be integers"),
        (_one_edge_doc(**{"from": True}), "must be integers"),
        (_one_edge_doc(to=1.0), "must be integers"),
        ({**_one_edge_doc(), "node_count": True}, "node_count"),
        (_one_edge_doc(arrival=[[0.0, math.nan]]), "not finite"),
        (_one_edge_doc(arrival=[[0.0, 2.0], [math.nan, 3.0]]), "not finite"),
        (_one_edge_doc(arrival=[[0.0, 2.0], [math.inf, math.inf]]), "not finite"),
        (_one_edge_doc(score={"default": math.nan}), "must be finite"),
        (_one_edge_doc(score={"boundaries": [0.0, 5.0], "values": [math.nan]}),
         "must be finite"),
        (_one_edge_doc(score={"boundaries": [0.0, 5.0], "values": ["x"]}),
         "malformed score"),
        (_one_edge_doc(arrival=[[0, 10**400]]), "malformed arrival"),
        (_one_edge_doc(arrival={"02": 1}), "malformed arrival"),
        (_one_edge_doc(score={"default": 10**400}), "malformed score"),
        (_one_edge_doc(length_m="far"), "length_m must be"),
        (_one_edge_doc(length_m=-1.0), "length_m must be"),
        ({**_one_edge_doc(), "labels": {"9": "1"}}, "label for node 9 outside"),
        ({"node_count": 100000000000, "edges": []}, "node_count must be in"),
        (_one_edge_doc(arrival=[[-1e308, 1e308]]), "overflows"),
        (_one_edge_doc(arrival=[[-1e308, -1e308], [1e308, 1e308]]), "overflows"),
        (_one_edge_doc(score={"default": math.inf}), "must be finite"),
        (_one_edge_doc(score={"default": -1.0}), "must be non-negative"),
        (_one_edge_doc(score={"default": "x"}), "malformed score"),
        (_one_edge_doc(score={"boundaries": None}), "malformed score"),
        # nested deeper than the parser goes; named, as the text would be its id
        pytest.param("[" * 100_000, "not valid JSON", id="doc24-not valid JSON"),
        ({"node_count": 0, "edges": [{"from": 0, "to": 1, "arrival": [[1.0, 0.0]]}]},
         "node_count must be"),
        # an integer longer than int() converts
        pytest.param('{"node_count": 2, "edges": [], "x": ' + "9" * 5000 + "}",
                     "not valid JSON", id="doc26-not valid JSON"),
        # two paths whose scores each sum to inf: the answer was one of them
        ({"node_count": 4, "edges": [
            {"from": u, "to": v, "arrival": [[0.0, tt]], "score": {"default": s}}
            for u, v, tt, s in ((0, 1, 1.5, 1.7e308), (1, 2, 1.5, 1.7e308),
                                (0, 3, 1.0, 1.0e308), (3, 2, 1.0, 0.9e308))
        ]}, "could overflow"),
    ])
    def test_malformed_network_is_data_error(self, tmp_path, capsys, doc, message):
        path = tmp_path / "net.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        rc = main(["query", "--graph", str(path), "--from", "0", "--to", "1",
                   "--depart", "0", "--budget", "8"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_overflowing_arrival_gap_is_data_error(self, tmp_path, capsys):
        """Interpolating across an arrival gap beyond the double range gave
        a NaN arrival, and the next edge's profile an IndexError."""
        doc = {"node_count": 3, "edges": [
            {"from": 0, "to": 1,
             "arrival": [[-1.7e308, -1.7e308], [-1e308, -1e308], [5e307, 1.7e308]]},
            {"from": 1, "to": 2, "arrival": [[0.0, 1.0]]},
        ]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        rc = main(["query", "--graph", str(path), "--from", "0", "--to", "2",
                   "--depart=-1e308", "--budget", "10", "--no-pruning"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "breakpoint 2 overflows" in lines[0]

    def test_overflowing_segment_is_data_error(self, tmp_path, capsys):
        """Every gap of this segment is finite, but interpolating inside it
        overflowed to an infinite arrival, and the query answered a silently
        wrong ``infeasible``: departing at 6e307 arrives near 6.93e307."""
        doc = {"node_count": 2, "edges": [
            {"from": 0, "to": 1, "arrival": [[-8e307, -8e307], [7e307, 8e307]]},
        ]}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc))
        rc = main(["query", "--graph", str(path), "--from", "0", "--to", "1",
                   "--depart", "6e307", "--budget", "1e307"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "breakpoint 1 overflows" in lines[0]

    def test_conflicting_overheads_usage_error(self, toy_file):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--graph", toy_file, "--from", "A", "--to", "B",
                  "--depart", "0", "--budget", "8", "--overhead-pct", "30"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", [
        ["query", "--from", "A", "--to", "B", "--depart", "0", "--budget", "8"],
        ["validate", "--instances", "2"],
        ["bench", "--queries", "unread.csv"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_is_usage_error(self, toy_file, capsys,
                                                   command, threads):
        name, *flags = command
        graph = ["--graph", toy_file] if name != "validate" else []
        with pytest.raises(SystemExit) as exc:
            main([name, *graph, *flags, "--threads", threads])
        assert exc.value.code == 1
        assert "thread counts must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--threads", "2.5"], ["--threads", "True"],
        ["--max-expansions", "1.5"], ["--max-expansions", "nan"],
    ])
    def test_count_that_is_not_an_int_is_usage_error(self, toy_file, flags):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--graph", toy_file, "--from", "A", "--to", "B",
                  "--depart", "0", "--budget", "8", *flags])
        assert exc.value.code == 1


class TestBenchCommand:
    def test_csv_schema_and_thread_sweep(self, grid_files, capsys):
        graph_path, queries_path, _, _ = grid_files
        rc = main(["bench", "--graph", graph_path, "--queries", queries_path,
                   "--threads", "1,4"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert tuple(rows[0].keys()) == BENCH_CSV_FIELDS
        # two thread counts x two sets, scores identical across threads
        assert len(rows) == 4
        for set_tag in ("set-1", "set-2"):
            scores = {r["avg_score"] for r in rows if r["set"] == set_tag}
            assert len(scores) == 1

    def test_pruning_off_same_scores_more_work(self):
        # unpruned search enumerates every loopless path, so keep the
        # network tiny; the equality is what matters
        gen = generate_network(GenConfig(rows=3, cols=3, score_density=0.3, seed=2))
        records = generate_query_sets(
            gen.network, seed=4, count_per_set=3, buckets=((0.0, 2.0), (2.0, 4.0))
        )
        on = run_bench(gen.network, records, threads_list=[1], pruning=True)
        off = run_bench(gen.network, records, threads_list=[1], pruning=False)
        for row_on, row_off in zip(on, off):
            assert row_on.avg_score == row_off.avg_score
            assert row_on.explored_mean <= row_off.explored_mean
        assert any(a.explored_mean < b.explored_mean for a, b in zip(on, off))

    def test_output_file(self, grid_files, tmp_path):
        graph_path, queries_path, _, _ = grid_files
        out = str(tmp_path / "report.csv")
        rc = main(["bench", "--graph", graph_path, "--queries", queries_path,
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            assert fh.readline().strip() == ",".join(BENCH_CSV_FIELDS)

    def test_expansion_cap_not_fatal(self, grid_files):
        graph_path, queries_path, net, records = grid_files
        rows = run_bench(net, records, threads_list=[1], max_expansions=1)
        # every query trips the cap; rows still come back, tallied infeasible
        assert all(row.infeasible == row.queries for row in rows)

    @pytest.mark.parametrize("column, value, message", [
        ("budget", "abc", "line 2: bad budget 'abc'"),
        ("set", "x", "line 2: bad set 'x'"),
        ("source", "99", "source 99 out of range"),
        ("budget", "-5", "arrival deadline precedes departure"),
    ])
    def test_malformed_query_row_is_data_error(
        self, grid_files, tmp_path, capsys, column, value, message
    ):
        graph_path, queries_path, _, _ = grid_files
        with open(queries_path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields, rows = reader.fieldnames, list(reader)
        rows[0][column] = value
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fields)
            writer.writeheader()
            writer.writerows(rows)
        rc = main(["bench", "--graph", graph_path, "--queries", bad])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_query_file_that_is_not_utf8_is_data_error(self, grid_files, tmp_path,
                                                       capsys):
        """A byte that is not UTF-8 in a row ended in a UnicodeDecodeError
        traceback: only each field's conversion was guarded."""
        graph_path, queries_path, _, _ = grid_files
        with open(queries_path, "rb") as fh:
            header, first, *_ = fh.read().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header + first.replace(b",", b"\xff,", 1))
        rc = main(["bench", "--graph", graph_path, "--queries", str(bad)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and f"{bad}: not valid UTF-8" in lines[0]

    def test_write_bench_csv_stable_header(self):
        buf = io.StringIO()
        write_bench_csv([], buf)
        assert buf.getvalue().strip() == "set,threads,pruning,avg_score,avg_runtime_s,infeasible,explored_mean,explored_p95"


class TestValidateCommand:
    def test_agreement_run(self, capsys):
        rc = main(["validate", "--instances", "30", "--seed", "3"])
        assert rc == 0
        assert "30/30 agree" in capsys.readouterr().out

    def test_zero_instances_vacuous_pass(self, capsys):
        rc = main(["validate", "--instances", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "0/0 agree" in captured.out
        assert "vacuous" in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--max-nodes", "20"], "must be in [4, 14], got 20"),
        (["--max-nodes", "3"], "must be in [4, 14], got 3"),
        (["--out-degree", "0"], "must be in [1, 13], got 0"),
        (["--max-breakpoints", "0"], "must be >= 1, got 0"),
        (["--out-degree", "14"], "must be in [1, 13], got 14"),
        (["--out-degree", "100"], "must be in [1, 13], got 100"),
    ])
    def test_instance_shape_out_of_range_is_usage_error(self, capsys, flags, message):
        """Each ended in a ValueError traceback, from the oracle's node limit
        or from ``randrange``, or, for a degree past the largest a node can
        have, ran for minutes while the oracle walked a near-complete graph."""
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--instances", "2", *flags])
        assert exc.value.code == 1
        assert message in capsys.readouterr().err

    def test_injected_fault_found(self, capsys, monkeypatch):
        from wayscore import solver as solver_mod
        from wayscore.traversal import latest_departures as real_bounds

        def tightened(net, destination, t_arr, t_dep):
            bounds = real_bounds(net, destination, t_arr, t_dep)
            bounds.times = [t - 1.0 for t in bounds.times]
            return bounds

        monkeypatch.setattr(solver_mod, "latest_departures", tightened)
        rc = main(["validate", "--instances", "40", "--seed", "3"])
        assert rc == 3
        out = capsys.readouterr().out
        assert '"network"' in out and '"oracle"' in out


class TestGenQueriesCommand:
    def test_round_trip_through_cli(self, grid_files, tmp_path, capsys):
        # a 6x6 grid is small, so inflate the overhead to make every
        # default budget bucket reachable
        graph_path, _, _, _ = grid_files
        out = str(tmp_path / "q.csv")
        rc = main(["gen-queries", "--graph", graph_path, "--seed", "5",
                   "--count", "2", "--overhead-pct", "500", "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8  # 2 per default bucket
        assert {r["set"] for r in rows} == {"set-1", "set-2", "set-3", "set-4"}

    @pytest.mark.parametrize("flag", ["--overhead-pct", "--overhead-abs"])
    def test_non_finite_overhead_is_data_error(self, grid_files, tmp_path, capsys, flag):
        graph_path, _, _, _ = grid_files
        out = str(tmp_path / "q.csv")
        rc = main(["gen-queries", "--graph", graph_path, "--seed", "5",
                   "--count", "2", flag, "nan", "--out", out])
        assert rc == 2
        captured = capsys.readouterr()
        assert "overhead must be finite" in captured.err and "nan" in captured.err

    def test_negative_seed_is_data_error(self, grid_files, tmp_path, capsys):
        """It ended in a ValueError traceback from numpy's ``SeedSequence``."""
        graph_path, _, _, _ = grid_files
        rc = main(["gen-queries", "--graph", graph_path, "--seed", "-1",
                   "--overhead-pct", "30", "--out", str(tmp_path / "q.csv")])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_exhausted_sampling_is_data_error(self, grid_files, tmp_path, capsys):
        graph_path, _, _, _ = grid_files
        rc = main(["gen-queries", "--graph", graph_path, "--seed", "5",
                   "--attempt-cap", "3", "--overhead-pct", "30",
                   "--out", str(tmp_path / "q.csv")])
        assert rc == 2
        assert "gave up after" in capsys.readouterr().err
