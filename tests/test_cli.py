import json

import pytest

from epsmult.cli import main
from epsmult.filtration import TemplateFiltration
from epsmult.newton import SeparationCertificate, verify_separation_certificate
from epsmult.ring import RingContext
from epsmult.scenario import ScenarioError, load_scenario, run_scenario
from epsmult.valuation import parse_scalar

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


def test_scenario_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
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


def test_cli_jobs_only_on_fanout_commands(tmp_path, capsys):
    path = write_scenario(tmp_path, [])
    with pytest.raises(SystemExit) as exc:
        main(["es", path, "--filtration", "pi", "--n-max", "20", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert main(["truncate-sweep", path, "--filtration", "quad", "--levels", "1",
                 "--n-max", "20", "--window", "5", "--jobs", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"][0]["level"] == 1


def test_cli_paper_examples_subset(capsys):
    rc = main(["paper-examples", "--id", "ac-grid", "--id", "tau-cubic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] ac-grid" in out
    assert "[PASS] tau-cubic" in out


def test_cli_paper_examples_dependency_seeding(capsys):
    # growth-square-diff needs the filtrations seeded by growth-square-lengths
    rc = main(["paper-examples", "--id", "growth-square-diff"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] growth-square-diff" in out
    assert "growth-square-lengths" not in out


def test_cli_paper_examples_unknown_id(capsys):
    assert main(["paper-examples", "--id", "nope"]) == 2
    assert "unknown fixture ids" in capsys.readouterr().err


def test_fixture_ids_consistent():
    from epsmult.fixtures import fixture_ids, paper_examples

    results = paper_examples(["pi-spread-max", "tau-ac-bound", "es-line"])
    assert [r.fixture_id for r in results] == [
        "pi-spread-max", "tau-ac-bound", "es-line"]
    assert len(set(fixture_ids())) == len(fixture_ids())


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
