"""Tests of the benchmark itself, at the tiny size.

Run with ``python3 -m pytest perfbench -q`` from the root of the repository.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = ROOT / "perfbench" / "expected.json"
WORKLOADS = ["short-seq", "long-seq", "par-mixed", "cli-cold"]
# Reported on the readable lines only: see README.md.
REPORT_ONLY = {"query_p95_ms": "ms", "failed_ratio": "1"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--trace", str(trace))
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        units.update(REPORT_ONLY)
    for name, unit in units.items():
        line = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b"
        assert re.search(line, proc.stdout, re.M), name
    assert "matches the committed digests" in proc.stdout


def test_counts_repeat_exactly_on_another_seed():
    runs = [result_line(bench("--workload", "long-seq", "--seed", "2", "--trace", "1"))
            for _ in range(2)]
    for name in ("solver.labels", "profiles.arrival_calls",
                 "profiles.latest_departure_calls"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    assert all(r["correct"] for r in runs)


def test_tampered_digest_counts_as_failure(tmp_path):
    doc = json.loads(EXPECTED.read_text())
    doc["tiny/short-seq/1"]["queries"][0] = "0" * 16
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(doc))
    result = result_line(bench("--workload", "short-seq", "--seed", "1",
                               "--trace", "0", "--expected", str(tampered)))
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "short-seq", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
