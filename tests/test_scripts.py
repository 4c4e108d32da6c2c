"""The experiment scripts import, parse their arguments and run on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_runs(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_exact_optima_table_runs():
    # n = 3, c = 2 under the (1, 1) pattern: sum 6 and min 3; the node
    # columns are pinned by the max_exact digest in test_oracle
    done = run_script(ROOT / "scripts" / "exact_optima_table.py", "--max-n", "3", "--max-c", "2")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[:4] for row in rows] == [["3", "2", "6", "3"]]


def test_attainment_sweep_runs():
    done = run_script(ROOT / "scripts" / "attainment_sweep.py", "--scale", "1")
    assert done.returncode == 0, done.stderr
    assert "OUT OF TOLERANCE" not in done.stdout
    assert done.stdout.splitlines()[-1] == "worst deviation/tolerance ratio: 0.800"
