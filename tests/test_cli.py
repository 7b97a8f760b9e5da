import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from epsmult.cli import main
from epsmult.filtration import TemplateFiltration
from epsmult.newton import SeparationCertificate, verify_separation_certificate
from epsmult.ring import RingContext
from epsmult.scenario import ScenarioError, emit, load_scenario, run_scenario
from epsmult.valuation import parse_scalar

GOLDEN_TABLE = Path(__file__).resolve().parent / "golden" / "paper_examples.txt"

SCENARIO = {
    "ring": {"dimension": 2, "names": ["x", "y"]},
    "filtrations": {
        "pi": {"type": "discrete_valued", "valuations": [
            {"weights": [1, 0], "multiplier": "pi"},
            {"weights": [1, 1], "multiplier": "2*pi"},
        ]},
        "quad": {"type": "template", "generators": [["2", "0"], ["1", "n^2"]]},
        "lin": {"type": "template", "generators": [["2", "0"], ["1", "n"]]},
        "stair": {"type": "template", "generators": [["n+1", "0"], ["n", "1"]]},
        "line": {"type": "power", "base": ["x"]},
        "short": {"type": "table", "ideals": [["x"], ["x^2"]]},
        "pi_at_x": {"type": "localized", "parent": "pi", "variables": ["x"]},
        "pi_tr2": {"type": "truncation", "parent": "pi", "level": 2},
    },
    "tasks": [],
}


def write_scenario(tmp_path, tasks, name="scn.json"):
    doc = dict(SCENARIO)
    doc["tasks"] = tasks
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_scenario_builds_all_kinds(tmp_path):
    path = write_scenario(tmp_path, [])
    scn = load_scenario(path)
    assert set(scn.filtrations) == {
        "pi", "quad", "lin", "stair", "line", "short", "pi_at_x", "pi_tr2"}
    assert scn.filtrations["pi"].ideal_at(1).gens == ((4, 3), (5, 2), (6, 1), (7, 0))
    assert scn.filtrations["pi_at_x"].ideal_at(2).gens == ((7,),)


def test_run_scenario_writes_files(tmp_path):
    tasks = [
        {"task": "epsilon", "filtration": "quad", "n_max": 30, "window": 10,
         "out": "quad.csv", "format": "csv"},
        {"task": "acheck", "filtration": "lin", "c": 2, "n_max": 20,
         "out": "ac.json"},
        {"task": "eval", "filtration": "pi", "n": 1, "out": "ideal.json"},
        {"task": "spread", "filtration": "lin", "n_max": 5, "r_max": 6,
         "out": "spread.json"},
        {"task": "closure-compare", "left": "line", "right": "stair",
         "n_max": 5, "r_max": 4, "out": "cc.json"},
        {"task": "diff-check", "inner": "quad", "outer": "lin", "n_max": 30,
         "window": 10, "out": "diff.json"},
        {"task": "es", "filtration": "line", "n_max": 30, "out": "es.json"},
        {"task": "truncate-sweep", "filtration": "pi", "levels": [1, 2],
         "n_max": 20, "window": 5, "out": "sweep.json"},
    ]
    path = write_scenario(tmp_path, tasks)
    written = run_scenario(path)
    assert len(written) == 8
    eps_text = (tmp_path / "quad.csv").read_text()
    assert eps_text.splitlines()[0] == (
        "n,length,normalized,normalized_decimal,running_sup,secant_estimate")
    assert eps_text.splitlines()[1].startswith("1,1,2,")
    ac = json.loads((tmp_path / "ac.json").read_text())
    assert ac["verdict"] == "holds-up-to-bound"
    ideal = json.loads((tmp_path / "ideal.json").read_text())
    assert ideal["generators"] == ["x^4*y^3", "x^5*y^2", "x^6*y", "x^7"]
    diff = json.loads((tmp_path / "diff.json").read_text())
    assert diff["residual"] == "0"
    es = json.loads((tmp_path / "es.json").read_text())
    assert es["value"] == "1" and es["exact"] is True
    # a task with no ``out`` and no stream to print to writes nothing
    path = write_scenario(tmp_path, [{"task": "eval", "filtration": "pi", "n": 1}], "no_out.json")
    assert run_scenario(path) == []


def test_round_trip_certificate_reverification(tmp_path):
    tasks = [{"task": "closure-compare", "left": "line", "right": "stair",
              "n_max": 5, "r_max": 4, "out": "cc.json"}]
    path = write_scenario(tmp_path, tasks)
    run_scenario(path)
    obj = json.loads((tmp_path / "cc.json").read_text())
    assert obj["outcome"] == "proven-different"
    cert_obj = obj["certificate"]
    # rebuild the certificate from serialized data alone and re-check it
    ctx = RingContext(2)
    from epsmult.textio import parse_monomial

    cert = SeparationCertificate(
        degree=obj["degree"],
        monomial=parse_monomial(cert_obj["monomial"], ctx),
        weight=tuple(cert_obj["weight"]),
        slope=parse_scalar(cert_obj["slope"]).coeff,
        intercept=int(cert_obj["intercept"]),
    )
    stair = TemplateFiltration(ctx, [("n+1", "0"), ("n", "1")])
    assert verify_separation_certificate(stair, cert, 100)


def test_pi_scenario_csv_matches_closed_form(tmp_path):
    from epsmult.valuation import ceil_mul

    tasks = [{"task": "epsilon", "filtration": "pi", "n_max": 20, "window": 5,
              "out": "pi.csv", "format": "csv"}]
    path = write_scenario(tmp_path, tasks)
    run_scenario(path)
    pi = parse_scalar("pi")
    two_pi = parse_scalar("2*pi")
    rows = (tmp_path / "pi.csv").read_text().splitlines()[1:]
    assert len(rows) == 20
    for row in rows:
        n, length = row.split(",")[:2]
        D = ceil_mul(two_pi, int(n)) - ceil_mul(pi, int(n))
        assert int(length) == D * (D + 1) // 2


def test_deeply_nested_scenario_exits_2(tmp_path, capsys):
    # json.load raises RecursionError on deep nesting, which used to escape
    # as a traceback (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(str(path))
    assert main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_scenario_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        run_scenario(str(bad))
    bad.write_text("[]")
    with pytest.raises(ScenarioError, match="scenario document must be an object"):
        run_scenario(str(bad))
    bad.write_text(json.dumps(dict(SCENARIO, tasks={})))
    with pytest.raises(ScenarioError, match="tasks must be a list"):
        run_scenario(str(bad))

    path = write_scenario(tmp_path, [{"task": "epsilon", "filtration": "nope",
                                      "n_max": 10}])
    with pytest.raises(ScenarioError, match="unknown filtration"):
        run_scenario(path)

    path = write_scenario(tmp_path, [{"task": "epsilon", "n_max": 10}])
    with pytest.raises(ScenarioError, match="missing required field"):
        run_scenario(path)

    # evaluation beyond a table's range names the failing task
    path = write_scenario(tmp_path, [{"task": "epsilon", "filtration": "short",
                                      "n_max": 10, "window": 2}])
    with pytest.raises(ScenarioError, match=r"task 1 \(epsilon\).*table"):
        run_scenario(path)

    with pytest.raises(ScenarioError, match="unknown output format 'xml'"):
        emit(None, "xml")  # an unknown format reads nothing of the payload


def test_cli_exit_codes(tmp_path, capsys):
    path = write_scenario(tmp_path, [
        {"task": "eval", "filtration": "pi", "n": 2, "out": "e.json"}])
    assert main(["run", path]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "missing required field" in err


def test_cli_single_commands(tmp_path, capsys):
    path = write_scenario(tmp_path, [])
    assert main(["epsilon", path, "--filtration", "quad", "--n-max", "20",
                 "--window", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["classification"] == "converging"
    assert main(["acheck", path, "--filtration", "lin", "--c", "2",
                 "--n-max", "15"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "holds-up-to-bound"
    assert main(["closure-compare", path, "--left", "line", "--right", "stair",
                 "--n-max", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "proven-different"
    assert main(["eval", path, "--filtration", "pi", "--n", "1"]) == 0
    assert "x^4*y^3" in capsys.readouterr().out


def test_cli_spread_reports_where_the_zero_search_ends(tmp_path, capsys):
    # no power y^r with r <= 2 lies in m * m^r: the search ends at the
    # first generator of m
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "ring": {"dimension": 2, "names": ["x", "y"]},
        "filtrations": {"m": {"type": "power", "base": ["x", "y"]}},
        "tasks": []}))
    assert main(["spread", str(path), "--filtration", "m", "--n-max", "3",
                 "--r-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["zero"] == {
        "kind": "not-found", "n": 1, "generator": "y", "searched_up_to": 2}


def test_cli_rejects_jobs_on_every_command(tmp_path, capsys):
    # every sequence runs in this process, so no command takes --jobs
    path = write_scenario(tmp_path, [])
    for argv in (["es", path, "--filtration", "pi", "--n-max", "20"],
                 ["epsilon", path, "--filtration", "quad", "--n-max", "20"],
                 ["truncate-sweep", path, "--filtration", "quad",
                  "--levels", "1", "--n-max", "20"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert main(["truncate-sweep", path, "--filtration", "quad", "--levels", "1",
                 "--n-max", "20", "--window", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"][0]["level"] == 1


def test_scenario_non_integer_jobs_or_window_exits_2(tmp_path, capsys):
    # a jobs key is ignored, but a malformed one is still a schema error
    for key, value in (("jobs", "two"), ("window", "five")):
        task = {"task": "epsilon", "filtration": "quad", "n_max": 20, key: value}
        path = write_scenario(tmp_path, [task])
        with pytest.raises(ScenarioError, match=r"task 1 \(epsilon\)"):
            run_scenario(path)
        assert main(["run", path]) == 2
        assert value in capsys.readouterr().err


def test_es_window_below_two_exits_2(tmp_path, capsys):
    # window 1 used to report pi_plane at N=40 as exact, window 0 to fit
    # the whole sequence
    for window in (1, 0):
        task = {"task": "es", "filtration": "pi", "n_max": 40, "window": window}
        path = write_scenario(tmp_path, [task])
        with pytest.raises(ScenarioError, match=r"task 1 \(es\): window"):
            run_scenario(path)
        assert main(["run", path]) == 2
        assert "window must be at least 2" in capsys.readouterr().err
        assert main(["es", path, "--filtration", "pi", "--n-max", "40",
                     "--window", str(window)]) == 2
        assert "window must be at least 2" in capsys.readouterr().err


def test_empty_bound_exits_2(tmp_path, capsys):
    # N = 0 used to report equality, A(c) and zero-spread evidence over no
    # degree at all
    space = str(Path(__file__).resolve().parents[1] / "demos" / "scenario_space.json")
    assert main(["closure-compare", space, "--left", "power", "--right", "hull",
                 "--n-max", "0"]) == 2
    assert "N must be at least 1" in capsys.readouterr().err
    for task in ({"task": "acheck", "filtration": "lin", "c": 2, "n_max": 0},
                 {"task": "spread", "filtration": "lin", "n_max": 0},
                 {"task": "closure-compare", "left": "lin", "right": "stair",
                  "n_max": -1}):
        path = write_scenario(tmp_path, [task])
        assert main(["run", path]) == 2
        assert "N must be at least 1" in capsys.readouterr().err


def test_malformed_ring_or_filtrations_exit_2(tmp_path, capsys):
    # a non-integer dimension, a filtrations list, a tau list or a tau key
    # that is not a positive decimal, a localization of a localized
    # filtration at a variable its ring lacks, variables or template rows
    # given as strings, a zero denominator in a multiplier or a template
    # row, a task that is not an object
    # and a non-string out path end in ScenarioError while the scenario
    # loads, not in a ValueError, AttributeError, IndexError or TypeError
    # traceback
    tau_list = {"t": {"type": "template", "generators": [["2", "0"], ["1", "tau(n)"]],
                      "tau": [1, 2]}}
    nested = dict(SCENARIO["filtrations"], pi_x_y={
        "type": "localized", "parent": "pi_at_x", "variables": ["y"]})
    # tau keys used to go through int(), which reads "1_0" as 10 and " 2"
    # as 2 and accepts "-1" and "01"
    bad_tau_keys = [("filtrations", {"t": dict(tau_list["t"], tau={key: 1})},
                     "tau keys must be positive integers")
                    for key in ("1_0", " 2", "-1", "01", "0", "2.0", "")]
    for key, value, message in bad_tau_keys + [
            ("ring", {"dimension": "two"}, "ring block"),
            # used to load and then fail with a TypeError while printing
            ("ring", {"dimension": 2, "names": ["x", 0]}, "need one name"),
            # used to be read letter by letter as ["x", "y"]
            ("ring", {"dimension": 2, "names": "xy"}, "names must be a list"),
            ("filtrations", [], "must be objects"),
            ("filtrations", tau_list, "tau must be an object"),
            ("filtrations", nested, "unknown variable 'y'"),
            # used to be read as ["x"] and a row "20" as ("2", "0")
            ("filtrations", dict(SCENARIO["filtrations"], pi_x={
                "type": "localized", "parent": "pi", "variables": "x"}),
             "variables must be a list of strings"),
            ("filtrations", {"t": {"type": "template", "generators": ["20", ["1", "n"]]}},
             "generators must be a list of lists"),
            # a zero denominator used to end in a ZeroDivisionError traceback
            ("filtrations", {"v": {"type": "discrete_valued", "valuations": [
                {"weights": [1, 1], "multiplier": "1/0"}]}},
             "bad scalar literal '1/0'"),
            ("filtrations", {"t": {"type": "template",
                                   "generators": [["2", "0"], ["1", "ceil(1/0*n)"]]}},
             "bad scalar literal '1/0'"),
            ("tasks", [["eval", "pi"]], "task must be an object"),
            ("tasks", [{"task": "eval", "filtration": "pi", "n": 1, "out": 3}],
             "out must be a string")]:
        doc = dict(SCENARIO, **{key: value})
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(str(path))
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_nested_localization_uses_parent_ring(tmp_path, capsys):
    # "yz" lives in the ring (y, z): its own localizations name those
    # variables, and every task prints monomials in its filtration's ring
    doc = {"ring": {"dimension": 3, "names": ["x", "y", "z"]},
           "filtrations": {
               "F": {"type": "power", "base": ["x*y^2*z"]},
               "yz": {"type": "localized", "parent": "F", "variables": ["y", "z"]},
               "at_y": {"type": "localized", "parent": "yz", "variables": ["y"]},
               "at_z": {"type": "localized", "parent": "yz", "variables": ["z"]}},
           "tasks": [{"task": "eval", "filtration": name, "n": 1,
                      "out": f"{name}.json"} for name in ("yz", "at_y", "at_z")]}
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(str(path))
    assert scn.filtrations["at_y"].ctx.names == ("y",)
    assert scn.filtrations["at_y"].ideal_at(1).gens == ((2,),)
    assert scn.filtrations["at_z"].ctx.names == ("z",)
    assert scn.filtrations["at_z"].ideal_at(1).gens == ((1,),)
    # the ring of "yz" has two coordinates, so 2 is out of range
    with pytest.raises(ValueError, match="out of range"):
        scn.filtrations["yz"].localize([2])
    run_scenario(str(path))
    printed = {name: json.loads((tmp_path / f"{name}.json").read_text())["generators"]
               for name in ("yz", "at_y", "at_z")}
    assert printed == {"yz": ["y^2*z"], "at_y": ["y^2"], "at_z": ["z"]}
    assert main(["eval", str(path), "--filtration", "yz", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["generators"] == ["y^4*z^2"]


def test_cli_closed_stdout_is_a_normal_end():
    # the reader closes the pipe before the child writes (as ``| head -1``
    # does once it has its line): exit 0 and no traceback
    import epsmult

    src = os.path.dirname(os.path.dirname(os.path.abspath(epsmult.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "epsmult.cli", "paper-examples", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_import_loads_no_process_pool():
    import epsmult

    src = os.path.dirname(os.path.dirname(os.path.abspath(epsmult.__file__)))
    code = ("import sys, epsmult; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_cli_paper_examples_subset(capsys):
    rc = main(["paper-examples", "--id", "ac-grid", "--id", "tau-cubic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] ac-grid" in out
    assert "[PASS] tau-cubic" in out


def _fixture_block(lines, fid):
    """The three table lines of fixture ``fid``: status, expected, computed."""
    i = next(i for i, line in enumerate(lines)
             if line.startswith("  [") and line.split()[1] == fid)
    return lines[i:i + 3]


def test_cli_paper_examples_dependency_seeding(capsys):
    # every fixture builds the filtration families it reads itself and no
    # cache is shared between fixtures, so each one run alone gives its row
    # of the full table
    from epsmult.fixtures import fixture_ids

    golden = GOLDEN_TABLE.read_text().splitlines()
    for fid in fixture_ids():
        rc = main(["paper-examples", "--id", fid])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert sum(line.startswith("  [") for line in out) == 1
        assert _fixture_block(out, fid) == _fixture_block(golden, fid)


def test_cli_paper_examples_unknown_id(capsys):
    assert main(["paper-examples", "--id", "nope"]) == 2
    assert "unknown fixture ids" in capsys.readouterr().err


def test_fixture_ids_consistent():
    # each id is written once in fixtures.py, in its declaration, and a
    # subset runs in declaration order whatever order it is asked in
    from epsmult import fixtures
    from epsmult.fixtures import fixture_ids, paper_examples

    results = paper_examples(["es-line", "pi-spread-max", "tau-ac-bound"])
    assert [r.fixture_id for r in results] == [
        "pi-spread-max", "tau-ac-bound", "es-line"]
    assert len(set(fixture_ids())) == len(fixture_ids())
    tree = ast.parse(Path(fixtures.__file__).read_text())
    literals = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
    assert all(literals.count(fid) == 1 for fid in fixture_ids())


def test_fixture_table_names_a_failed_fixture():
    # no estimate is never within tolerance, and a failed hard row is named
    # on the table's last line
    from epsmult.fixtures import (
        HALF_PERCENT,
        FixtureResult,
        format_fixture_table,
        within_rel,
    )

    assert within_rel(None, parse_scalar("pi"), HALF_PERCENT) is False
    row = FixtureResult("pi-lengths", "title", "literature", False, "expected",
                        "computed", False)
    assert format_fixture_table([row]).endswith("\nFAILED: pi-lengths\n")


def test_cli_paper_examples_list(capsys):
    assert main(["paper-examples", "--list"]) == 0
    out = capsys.readouterr().out
    assert "pi-lengths" in out and "sigma-oscillation" in out


def test_deterministic_output_across_runs_and_jobs(tmp_path):
    tasks = [{"task": "epsilon", "filtration": "pi", "n_max": 24, "window": 6,
              "out": "a.csv", "format": "csv", "jobs": 1}]
    p1 = write_scenario(tmp_path, tasks, "one.json")
    run_scenario(p1)
    first = (tmp_path / "a.csv").read_bytes()
    tasks2 = [dict(tasks[0], out="b.csv", jobs=2)]
    p2 = write_scenario(tmp_path, tasks2, "two.json")
    run_scenario(p2)
    second = (tmp_path / "b.csv").read_bytes()
    assert first == second
    # and a repeat run reproduces the bytes exactly
    run_scenario(p1)
    assert (tmp_path / "a.csv").read_bytes() == first


def _mutated(change):
    """SCENARIO with one eval task, after ``change(doc)`` edits it."""
    doc = json.loads(json.dumps(SCENARIO))
    doc["filtrations"]["arr"] = {"type": "power", "base": [[2, 0], [0, 3]]}
    doc["filtrations"]["tau"] = {"type": "template",
                                 "generators": [["2", "0"], ["1", "tau(n)"]],
                                 "tau": {"1": 1}}
    doc["tasks"] = [{"task": "eval", "filtration": "pi", "n": 1}]
    change(doc)
    return doc


@pytest.mark.parametrize("change, message", [
    # each of these used to run, on a number rounded down or a string
    # read digit by digit
    (lambda d: d["ring"].update(dimension=2.5), "dimension must be an integer"),
    (lambda d: d["tasks"][0].update(n=2.7), "n must be an integer"),
    (lambda d: d["tasks"][0].update(n=True), "n must be an integer"),
    (lambda d: d["tasks"].__setitem__(0, {"task": "epsilon", "filtration": "pi",
                                          "n_max": 2.7}), "n_max must be an integer"),
    (lambda d: d["tasks"].__setitem__(0, {"task": "truncate-sweep", "filtration": "pi",
                                          "levels": "12", "n_max": 4}),
     "levels must be a list of integers"),
    (lambda d: d["tasks"].__setitem__(0, {"task": "truncate-sweep", "filtration": "pi",
                                          "levels": [1, 2.0], "n_max": 4}),
     "levels must be an integer"),
    (lambda d: d["tasks"][0].update(jobs=2.0), "jobs must be an integer"),
    (lambda d: d["filtrations"]["pi"]["valuations"][0].update(weights=[1.5, 0]),
     "weights must be an integer"),
    (lambda d: d["filtrations"]["arr"].update(base=[[2.5, 0]]),
     "exponent must be an integer"),
    (lambda d: d["filtrations"]["pi_tr2"].update(level=2.5), "level must be an integer"),
    (lambda d: d["filtrations"]["tau"].update(tau={"1": 1.5}), "tau must be an integer"),
], ids=["dimension", "n", "n-bool", "n_max", "levels-string", "levels-entry", "jobs",
        "weights", "exponent", "level", "tau"])
def test_scenario_numbers_must_be_json_integers(tmp_path, capsys, change, message):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_mutated(change)))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(str(path))
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_levels_flag_must_be_integers(tmp_path, capsys):
    # "1,a" used to end in a ValueError traceback
    path = write_scenario(tmp_path, [])
    with pytest.raises(SystemExit) as exc:
        main(["truncate-sweep", path, "--filtration", "pi", "--levels", "1,a",
              "--n-max", "4"])
    assert exc.value.code == 2
    assert "'1,a'" in capsys.readouterr().err


def test_unknown_task_key_is_an_error(tmp_path, capsys):
    # a misspelt or foreign key used to be ignored; out, format and jobs
    # stay allowed on every task
    for key in ("n_mx", "window"):
        path = write_scenario(tmp_path, [
            {"task": "eval", "filtration": "pi", "n": 1, key: 3}])
        with pytest.raises(ScenarioError, match=rf"unknown keys \['{key}'\]"):
            load_scenario(path)
        assert main(["run", path]) == 2
        capsys.readouterr()
    path = write_scenario(tmp_path, [
        {"task": "eval", "filtration": "pi", "n": 1, "out": "e.json",
         "format": "csv", "jobs": 2}])
    assert main(["run", path]) == 0


@pytest.mark.parametrize("change, where", [
    (lambda d: d.update(taks=[]), "scenario"),
    # a misspelt "names" used to be ignored, so x, y named the variables
    (lambda d: d["ring"].update(nmes=["u", "v"]), "ring block"),
    (lambda d: d["filtrations"]["line"].update(tau={}), "filtration 'line'"),
    (lambda d: d["filtrations"]["stair"].update(level=2), "filtration 'stair'"),
    (lambda d: d["filtrations"]["pi_tr2"].update(variables=["x"]),
     "filtration 'pi_tr2'"),
    (lambda d: d["filtrations"]["pi"]["valuations"][1].update(weight=[1, 1]),
     "filtration 'pi'"),
], ids=["document", "ring", "power", "template", "truncation", "valuation"])
def test_unknown_block_key_is_an_error(tmp_path, capsys, change, where):
    # every block rejects a key its kind does not take, as task blocks do
    doc = json.loads(json.dumps(SCENARIO))
    change(doc)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=rf"^{where}: unknown keys \['"):
        load_scenario(str(path))
    assert main(["run", str(path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def _template_fails_before_any_task_runs(tmp_path, capsys, template, message):
    """A scenario whose task 1 evaluates ``pi`` and task 2 the template ``t``
    fails to load with ``message`` and exits 2 before task 1 writes."""
    doc = dict(SCENARIO, filtrations=dict(SCENARIO["filtrations"], t=template))
    doc["tasks"] = [{"task": "eval", "filtration": "pi", "n": 1, "out": "first.json"},
                    {"task": "eval", "filtration": "t", "n": 1, "out": "second.json"}]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(str(path))
    assert main(["run", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not (tmp_path / "first.json").exists()


def test_tau_template_without_table_fails_before_any_task_runs(tmp_path, capsys):
    # used to load, write task 1's output and only then exit 2 while
    # evaluating the template
    _template_fails_before_any_task_runs(tmp_path, capsys, {
        "type": "template", "generators": [["2", "0"], ["1", "tau(n)"]]},
        "filtration 't': tau.n. used without a tau")


def test_negative_tau_value_fails_before_any_task_runs(tmp_path, capsys):
    # used to load, write task 1's output and only then exit 2 when the
    # level with the negative exponent was built
    _template_fails_before_any_task_runs(tmp_path, capsys, {
        "type": "template", "generators": [["2", "0"], ["1", "tau(n)"]],
        "tau": {"1": -1}},
        r"filtration 't': tau values are integers >= 0, got tau\(1\) = -1")


@pytest.mark.parametrize("bad", [
    {"task": "eval", "filtration": "pi", "n": "2"},
    {"task": "eval", "filtration": "pi", "n": 2, "format": "xml"},
    {"task": "eval", "filtration": "nope", "n": 2},
    {"task": "limit", "filtration": "pi"},
], ids=["string-n", "format", "filtration", "kind"])
def test_malformed_task_fails_before_any_task_runs(tmp_path, capsys, bad):
    path = write_scenario(tmp_path, [
        {"task": "eval", "filtration": "pi", "n": 1, "out": "first.json"}, bad])
    with pytest.raises(ScenarioError, match=r"task 2 \("):
        run_scenario(path)
    assert main(["run", path]) == 2
    assert not (tmp_path / "first.json").exists()


def test_unreadable_or_unwritable_paths_exit_2(tmp_path, capsys):
    # each used to end in an OSError or UnicodeDecodeError traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(SCENARIO).encode() + b" \xe9")
    for path in (tmp_path / "missing.json", tmp_path, latin1):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(path))
        assert main(["run", str(path)]) == 2
        assert "error: scenario" in capsys.readouterr().err
    path = write_scenario(tmp_path, [
        {"task": "eval", "filtration": "pi", "n": 1, "out": ""}])
    with pytest.raises(ScenarioError, match="cannot write"):
        run_scenario(path)
    assert main(["run", path]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert main(["eval", path, "--filtration", "pi", "--n", "1",
                 "--out", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err

