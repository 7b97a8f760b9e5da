"""Golden bytes: the output of ``epsmult run`` on ``demos/scenario_pi.json``
(two variables), ``demos/scenario_space.json`` (three variables) and
``demos/scenario_4d.json`` (four variables), the same tasks run one CLI
command each, the ``epsmult paper-examples`` table and the stdout of every
``demos/*.py`` script, byte for byte.

The expected files under ``tests/golden/`` were generated before the
sequence engine and the report protocol were unified (the three-variable
ones before the ideal kernel moved to slice stacks in every dimension,
the four-variable ones while powers in four or more variables were still
decided level by level); a refactor that changes any output byte fails
here.  Each scenario runs on a
copy in a temporary directory, so nothing is written into ``demos/``.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epsmult
from epsmult.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEMOS = HERE.parent / "demos"
SCENARIO_OUTPUTS = {
    "scenario_pi": ("pi_epsilon.csv", "pi_es.json", "linear_a2.json",
                    "linear_spread.json", "closure.json", "diff.json",
                    "sweep.json"),
    "scenario_space": ("skew_eval.json", "skew2_eval.json",
                       "template_eval.json", "meet_epsilon.csv",
                       "skew_epsilon.json", "meet_es.json", "meet_a2.json",
                       "linear_spread.json", "closure.json", "diff.json",
                       "sweep.json"),
    "scenario_4d": ("closure.json", "mixed.json", "hull_eval.json"),
}
TABLE_SHA256 = "507b9e4a8a945cc6e14cef5301ad1271262b55093578763be1ff72fce9ad6407"


def _check_scenario(stem, tmp_path):
    scenario = tmp_path / f"{stem}.json"
    shutil.copy(DEMOS / f"{stem}.json", scenario)
    assert main(["run", str(scenario)]) == 0
    out = tmp_path / "out"
    outputs = SCENARIO_OUTPUTS[stem]
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs)
    for name in outputs:
        expected = (GOLDEN / stem / name).read_bytes()
        assert (out / name).read_bytes() == expected, name


def test_golden_scenario_pi_outputs(tmp_path, capsys):
    _check_scenario("scenario_pi", tmp_path)


def test_golden_scenario_space_outputs(tmp_path, capsys):
    _check_scenario("scenario_space", tmp_path)


def test_golden_scenario_4d_outputs(tmp_path, capsys):
    _check_scenario("scenario_4d", tmp_path)


def test_golden_paper_examples_table(tmp_path, capsys):
    expected = (GOLDEN / "paper_examples.txt").read_bytes()
    assert hashlib.sha256(expected).hexdigest() == TABLE_SHA256
    table = tmp_path / "table.txt"
    assert main(["paper-examples", "--out", str(table)]) == 0
    assert table.read_bytes() == expected


def _command(task, scenario, out):
    """The CLI command of one scenario task: its keys become the flags."""
    argv = [task["task"], str(scenario), "--out", str(out)]
    for key, value in task.items():
        if key not in ("task", "out"):
            if key == "levels":
                value = ",".join(map(str, value))
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize("stem", sorted(SCENARIO_OUTPUTS))
def test_golden_each_task_as_a_command(stem, tmp_path, capsys):
    scenario = DEMOS / f"{stem}.json"
    tasks = json.loads(scenario.read_text())["tasks"]
    assert sorted(Path(t["out"]).name for t in tasks) == sorted(SCENARIO_OUTPUTS[stem])
    for task in tasks:
        name = Path(task["out"]).name
        assert main(_command(task, scenario, tmp_path / name)) == 0
        assert (tmp_path / name).read_bytes() == (GOLDEN / stem / name).read_bytes(), name


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_golden_demo_stdout(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(epsmult.__file__)))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path,
                          capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == (GOLDEN / "demos" / f"{demo}.txt").read_bytes()
