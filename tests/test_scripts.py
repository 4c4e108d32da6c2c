"""The experiment scripts import, parse their arguments and run on tiny inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_adjudicate_min_formula_runs():
    # the one strict case of the grid is (n, c, q) = (5, 3, 3): the oracle
    # and the build reach 12, the floor formula claims 13
    done = run_script(ROOT / "scripts" / "adjudicate_min_formula.py",
                      "--max-n", "7", "--max-c", "4", "--max-q", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["5", "3", "3", "12", "13", "1", "no", "12"]
    assert lines[-1] == ("19 instances, 1 strictly below the formula; "
                         "all divisible cases attained it exactly")



def test_adjudicate_min_formula_exits_on_a_missed_exact_label(monkeypatch):
    # an oracle below an EXACT label must fail the run, also under python -O
    spec = importlib.util.spec_from_file_location(
        "adjudicate_min_formula", ROOT / "scripts" / "adjudicate_min_formula.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "cover_oracle_s0q", lambda *args: SimpleNamespace(optimum=-1))
    monkeypatch.setattr(sys, "argv", ["adjudicate_min_formula.py", "--max-n", "3",
                                      "--max-c", "2", "--max-q", "2"])
    with pytest.raises(SystemExit, match=r"\(3, 2, 2, -1, 3\)"):
        script.main()

def test_attainment_sweep_runs():
    done = run_script(ROOT / "scripts" / "attainment_sweep.py", "--scale", "1")
    assert done.returncode == 0, done.stderr
    assert "OUT OF TOLERANCE" not in done.stdout
    assert done.stdout.splitlines()[-1] == "worst deviation/tolerance ratio: 0.800"
