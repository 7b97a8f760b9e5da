"""Golden bytes: the output of ``epsmult run demos/scenario_pi.json`` and the
``epsmult paper-examples`` table, byte for byte.

The expected files under ``tests/golden/`` were generated before the
sequence engine and the report protocol were unified; a refactor that
changes any output byte fails here.  The scenario runs on a copy in a
temporary directory, so nothing is written into ``demos/``.
"""

import hashlib
import shutil
from pathlib import Path

from epsmult.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SCENARIO = HERE.parent / "demos" / "scenario_pi.json"
SCENARIO_OUTPUTS = ("pi_epsilon.csv", "pi_es.json", "linear_a2.json",
                    "linear_spread.json", "closure.json", "diff.json",
                    "sweep.json")
TABLE_SHA256 = "507b9e4a8a945cc6e14cef5301ad1271262b55093578763be1ff72fce9ad6407"


def test_golden_scenario_pi_outputs(tmp_path, capsys):
    scenario = tmp_path / "scenario_pi.json"
    shutil.copy(SCENARIO, scenario)
    assert main(["run", str(scenario)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(SCENARIO_OUTPUTS)
    for name in SCENARIO_OUTPUTS:
        expected = (GOLDEN / "scenario_pi" / name).read_bytes()
        assert (out / name).read_bytes() == expected, name


def test_golden_paper_examples_table(tmp_path, capsys):
    expected = (GOLDEN / "paper_examples.txt").read_bytes()
    assert hashlib.sha256(expected).hexdigest() == TABLE_SHA256
    table = tmp_path / "table.txt"
    assert main(["paper-examples", "--out", str(table)]) == 0
    assert table.read_bytes() == expected
