"""Fuzz the scenario reader and runner: one field of a small valid scenario
is replaced, deleted or joined by a stray key, and the run must either
succeed or end in ``ScenarioError`` (exit 2), never in another exception.

Values stay small, so every mutated scenario runs in milliseconds.
"""

import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epsmult.scenario import ScenarioError, run_scenario

BASE = {
    "ring": {"dimension": 2, "names": ["x", "y"]},
    "filtrations": {
        "dv": {"type": "discrete_valued", "valuations": [
            {"weights": [1, 0], "multiplier": "3/2"},
            {"weights": [1, 1], "multiplier": "2"}]},
        "pw": {"type": "power", "base": ["x^2", [1, 1]]},
        "tp": {"type": "template", "generators": [["2", "0"], ["1", "n"]]},
        "tq": {"type": "template", "generators": [["2", "0"], ["1", "n^2"]]},
        "ta": {"type": "template", "generators": [["tau(n)", "0"], ["0", "1"]],
               "tau": {"1": 1, "2": 3, "3": 4}},
        "tb": {"type": "table", "ideals": [["x"], ["x^2"], ["x^3"]]},
        "tr": {"type": "truncation", "parent": "dv", "level": 2},
        "lo": {"type": "localized", "parent": "dv", "variables": ["x"]},
    },
    "tasks": [
        {"task": "eval", "filtration": "tr", "n": 3},
        {"task": "eval", "filtration": "ta", "n": 2, "out": "o/e.json"},
        {"task": "epsilon", "filtration": "dv", "n_max": 4, "window": 2,
         "format": "csv"},
        {"task": "acheck", "filtration": "tp", "c": 2, "n_max": 3},
        {"task": "spread", "filtration": "tp", "n_max": 2, "r_max": 3},
        {"task": "closure-compare", "left": "pw", "right": "tp", "n_max": 2,
         "r_max": 2},
        {"task": "es", "filtration": "lo", "n_max": 4, "window": 2, "jobs": 1},
        {"task": "truncate-sweep", "filtration": "dv", "levels": [1, 2],
         "n_max": 4, "window": 2},
        {"task": "diff-check", "inner": "tq", "outer": "tp", "n_max": 4,
         "window": 2},
    ],
}


def _paths(node, prefix=()):
    """Every position in the document, as a tuple of keys and indices."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = sorted(_paths(BASE), key=repr)
VALUES = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([0.5, 2.5, True, False, None, "", "x", "n", "pi", "2",
                     "1,2", "dv", "tb", "tr", "eval", "..", {}]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.lists(st.sampled_from(["x", "y", "2", "n"]), max_size=2),
)


def _mutate(doc, path, action, value):
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if action == "delete":
        del parent[last]
    elif action == "add" and isinstance(parent[last], dict):
        parent[last]["extra"] = value
    else:
        parent[last] = value


def test_base_scenario_runs(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(BASE))
    out = io.StringIO()
    assert run_scenario(str(path), stdout=out) == [str(tmp_path / "o" / "e.json")]
    assert out.getvalue()


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(PATHS),
       action=st.sampled_from(["set", "delete", "add"]), value=VALUES)
def test_mutated_scenario_succeeds_or_raises_scenario_error(tmp_path, path, action,
                                                            value):
    doc = copy.deepcopy(BASE)
    _mutate(doc, path, action, value)
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(doc))
    try:
        run_scenario(str(scenario), stdout=io.StringIO())
    except ScenarioError:
        pass
