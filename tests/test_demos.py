"""Every script under ``demos/`` runs to the end.

Demos 02 and 05 run the Python traversals: 02 prints the bounds of
``latest_departures``, and 05 solves under constraints, which the Python
search runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wayscore

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wayscore.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
