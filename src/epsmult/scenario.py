"""Scenario files: a single JSON document declaring a ring, named
filtrations, and a task list, with deterministic CSV/JSON emission.

No code is embedded in scenarios; every filtration is one of the declared
spec kinds and every task one of the kinds in ``_TASKS``, read and checked
before any task runs.  Every number is a JSON integer, never a rounded
float or a parsed string.  Output bytes are stable across runs: exact
rationals serialize as "p/q" strings (decimal renderings are separate,
explicitly labelled columns) and all JSON keys are sorted.
"""

from __future__ import annotations

import json
import os
import re

from . import textio
from ._record import Record
from .asymptotics import (
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    truncation_sweep,
)
from .diagnostics import check_Ac, spread_max_test, spread_zero_test, toric_rank_bound
from .filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TableFiltration,
    TemplateFiltration,
)
from .newton import rees_closure_compare
from .ring import MonomialIdeal, RingContext
from .valuation import MonomialValuation, parse_scalar

__all__ = ["ScenarioError", "Scenario", "load_scenario", "run_scenario", "emit"]


class ScenarioError(ValueError):
    """A scenario file fails schema validation or a task fails to run."""


def _require(obj, key, where):
    if key not in obj:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return obj[key]


def _integer(value, where):
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _integers(values, where):
    if not isinstance(values, list):
        raise ScenarioError(f"{where} must be a list of integers, got {values!r}")
    return [_integer(v, where) for v in values]


def _unique_keys(pairs):
    """A JSON object from its (key, value) pairs, a repeated key rejected."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key {key!r} in one JSON object")
        obj[key] = value
    return obj


def _known_keys(obj, allowed, where, what):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {unknown} for {what}")


def _parse_ideal(spec, ctx, where):
    """An ideal is a list of monomial strings or exponent arrays."""
    if not isinstance(spec, list):
        raise ScenarioError(f"{where}: ideal must be a list of generators")
    gens = []
    for g in spec:
        if isinstance(g, str):
            gens.append(textio.parse_monomial(g, ctx))
        elif isinstance(g, list):
            gens.append(tuple(_integers(g, f"{where}: exponent")))
        else:
            raise ScenarioError(f"{where}: bad generator {g!r}")
    return MonomialIdeal(ctx, gens)


# filtration type -> the keys its block takes besides "type"
_FILTRATION_KEYS = {
    "power": ("base",),
    "discrete_valued": ("valuations",),
    "template": ("generators", "tau"),
    "table": ("ideals",),
    "truncation": ("parent", "level"),
    "localized": ("parent", "variables"),
}


def _build_filtration(name, block, ctx, built):
    where = f"filtration {name!r}"
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: block must be an object")
    kind = _require(block, "type", where)
    if not isinstance(kind, str) or kind not in _FILTRATION_KEYS:
        raise ScenarioError(f"{where}: unknown filtration type {kind!r}")
    _known_keys(block, ("type",) + _FILTRATION_KEYS[kind], where, f"a {kind} filtration")
    try:
        if kind == "power":
            return PowerFiltration(_parse_ideal(_require(block, "base", where), ctx, where))
        if kind == "discrete_valued":
            pairs = []
            for v in _require(block, "valuations", where):
                if not isinstance(v, dict):
                    raise ScenarioError(f"{where}: valuation must be an object")
                _known_keys(v, ("weights", "multiplier"), where, "a valuation")
                weights = _integers(_require(v, "weights", where), f"{where}: weights")
                mult = parse_scalar(str(_require(v, "multiplier", where)))
                pairs.append((MonomialValuation(tuple(weights)), mult))
            return DiscreteValuedFiltration(ctx, pairs)
        if kind == "template":
            gens = _require(block, "generators", where)
            if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
                raise ScenarioError(f"{where}: generators must be a list of lists, got {gens!r}")
            tau = block.get("tau")
            if tau is not None:
                if not isinstance(tau, dict):
                    raise ScenarioError(f"{where}: tau must be an object")
                for k in tau:
                    if not re.fullmatch("[1-9][0-9]*", k):
                        raise ScenarioError(
                            f"{where}: tau keys must be positive integers, got {k!r}")
                tau = {int(k): _integer(v, f"{where}: tau") for k, v in tau.items()}
            return TemplateFiltration(ctx, gens, tau=tau)
        if kind == "table":
            ideals = [
                _parse_ideal(spec, ctx, f"{where} entry {i+1}")
                for i, spec in enumerate(_require(block, "ideals", where))
            ]
            return TableFiltration(ctx, ideals)
        parent = _require(block, "parent", where)
        if parent not in built:
            raise ScenarioError(f"{where}: unknown parent {parent!r}")
        parent = built[parent]
        if kind == "truncation":
            return parent.truncate(
                _integer(_require(block, "level", where), f"{where}: level"))
        # localized: the variables are those of the parent's ring, which is
        # smaller than the scenario's if the parent is localized itself
        names = parent.ctx.names
        variables = _require(block, "variables", where)
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ScenarioError(
                f"{where}: variables must be a list of strings, got {variables!r}")
        for v in variables:
            if v not in names:
                raise ScenarioError(f"{where}: unknown variable {v!r}")
        return parent.localize([names.index(v) for v in variables])
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


class _EvalResult:
    def __init__(self, F, n):
        self.n = n
        self.ideal = F.ideal_at(n)

    def to_obj(self, names=None):
        return {
            "n": self.n,
            "generators": [textio.format_monomial(g, names or self.ideal.ctx.names)
                           for g in self.ideal.gens],
            "exponents": textio.ideal_to_obj(self.ideal),
        }


class _SpreadResult:
    def __init__(self, F, N, r_max):
        self.maximal = spread_max_test(F, N)
        self.zero = spread_zero_test(F, N, r_max)
        self.rank_bound = toric_rank_bound(F, N)

    def to_obj(self, names=None):
        return {
            "maximal": self.maximal.to_obj(names) if self.maximal else None,
            "zero": self.zero.to_obj(names) if self.zero else None,
            "toric_rank_bound": self.rank_bound,
        }


# Task parameter kinds: a declared filtration's name, a list of integer
# levels, a required integer; any other value is an integer's default.
_FILTRATION = "filtration"
_LEVELS = "levels"
_REQUIRED = "required"

# task kind -> (CLI help, runner taking the parameter values in order,
# parameters).  A task prints in the ring of its first filtration.  Runners
# look their function up when they run, so a wrapped one (a tracer's) runs.
_TASKS = {
    "eval": ("print the ideal at one level", _EvalResult,
             {"filtration": _FILTRATION, "n": _REQUIRED}),
    "epsilon": ("normalized saturation-length report",
                lambda *a: epsilon_report(*a),
                {"filtration": _FILTRATION, "n_max": _REQUIRED, "window": None}),
    "acheck": ("property A(c) comparison", lambda *a: check_Ac(*a),
               {"filtration": _FILTRATION, "c": _REQUIRED, "n_max": _REQUIRED}),
    "spread": ("analytic spread certificates and rank bound", _SpreadResult,
               {"filtration": _FILTRATION, "n_max": _REQUIRED, "r_max": 10}),
    "closure-compare": ("compare Rees algebra closures",
                        lambda *a: rees_closure_compare(*a),
                        {"left": _FILTRATION, "right": _FILTRATION,
                         "n_max": _REQUIRED, "r_max": 4}),
    "es": ("face-prime localized multiplicity sum", lambda *a: e_s_localized(*a),
           {"filtration": _FILTRATION, "n_max": _REQUIRED, "window": None}),
    "truncate-sweep": ("level-i subfiltration estimates",
                       lambda *a: truncation_sweep(*a),
                       {"filtration": _FILTRATION, "levels": _LEVELS,
                        "n_max": _REQUIRED, "window": None}),
    "diff-check": ("limit additivity across an inclusion",
                   lambda *a: epsilon_difference_check(*a),
                   {"inner": _FILTRATION, "outer": _FILTRATION,
                    "n_max": _REQUIRED, "window": None}),
}


def _read_task(task, filtrations, label):
    """Check one task object against its kind's row of ``_TASKS``; returns
    a function that runs the task and emits its report, and its ``out``."""
    if not isinstance(task, dict):
        raise ScenarioError(f"{label}: task must be an object")
    where = f"{label} ({task.get('task', '?')})"
    kind = _require(task, "task", where)
    if not isinstance(kind, str) or kind not in _TASKS:
        raise ScenarioError(f"{where}: unknown task kind {kind!r}")
    _, runner, params = _TASKS[kind]
    _known_keys(task, (*params, "task", "out", "format", "jobs"), where, f"a {kind} task")
    # ``jobs`` (from older files) is ignored, but must still be an integer
    _integer(task.get("jobs", 1), f"{where}: jobs")
    out, fmt = task.get("out"), task.get("format", "json")
    if out is not None and not isinstance(out, str):
        raise ScenarioError(f"{where}: out must be a string path")
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"{where}: unknown output format {fmt!r}")
    args, names = [], None
    for key, spec in params.items():
        if spec == _FILTRATION:
            name = _require(task, key, where)
            if not isinstance(name, str) or name not in filtrations:
                raise ScenarioError(f"{where}: unknown filtration {name!r}")
            value = filtrations[name]
            names = names or value.ctx.names
        elif spec == _LEVELS:
            value = _integers(_require(task, key, where), f"{where}: {key}")
        else:
            value = _require(task, key, where) if spec == _REQUIRED else task.get(key, spec)
            if value is not None or spec is not None:
                _integer(value, f"{where}: {key}")
        args.append(value)

    def render():
        try:
            payload = runner(*args)
        except (ValueError, TypeError, ArithmeticError, RuntimeError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        return emit(payload, fmt, names=names)

    return render, out


class Scenario(Record):
    ctx: RingContext
    filtrations: dict
    tasks: list
    base_dir: str


def load_scenario(path) -> Scenario:
    """Read a scenario file: the ring, every filtration and every task, so
    that a malformed scenario fails before any task runs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ScenarioError(f"scenario {path}: invalid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"scenario {path}: cannot read ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    _known_keys(doc, ("ring", "filtrations", "tasks"), "scenario", "the document")
    ring = _require(doc, "ring", "scenario")
    filtrations = _require(doc, "filtrations", "scenario")
    if not isinstance(ring, dict) or not isinstance(filtrations, dict):
        raise ScenarioError("ring and filtrations must be objects")
    _known_keys(ring, ("dimension", "names"), "ring block", "the ring")
    dim = _integer(_require(ring, "dimension", "ring block"), "ring block: dimension")
    names = ring.get("names", [])
    if not isinstance(names, list):
        raise ScenarioError(f"ring block: names must be a list, got {names!r}")
    try:
        ctx = RingContext(dim, tuple(names))
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"ring block: {exc}") from exc
    built: dict[str, Filtration] = {}
    for name, block in filtrations.items():
        built[name] = _build_filtration(name, block, ctx, built)
    tasks = _require(doc, "tasks", "scenario")
    if not isinstance(tasks, list):
        raise ScenarioError("tasks must be a list")
    tasks = [_read_task(task, built, f"task {i+1}") for i, task in enumerate(tasks)]
    return Scenario(ctx=ctx, filtrations=built, tasks=tasks,
                    base_dir=os.path.dirname(os.path.abspath(path)))


def emit(payload, fmt, names=None) -> str:
    """Render a report object deterministically as CSV or JSON text."""
    if fmt == "json":
        return textio.dump_json(payload.to_obj(names))
    if fmt == "csv":
        if hasattr(payload, "rows"):
            return textio.rows_to_csv(payload.COLUMNS, payload.rows())
        flat = _flatten(payload.to_obj(names))
        return textio.rows_to_csv(["key", "value"],
                                  [{"key": k, "value": v} for k, v in flat])
    raise ScenarioError(f"unknown output format {fmt!r}")


def _flatten(obj, prefix=""):
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix.rstrip("."), obj))
    return out


def _write(text, path):
    """Write ``text`` to ``path``, making its directory, and return ``path``."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    return path


def run_scenario(path, stdout=None) -> list:
    """Execute the task list in order; emit one file per task with an ``out``
    path (resolved against the scenario's directory), or print to ``stdout``.
    Returns the list of written paths."""
    scn = load_scenario(path)
    written = []
    for render, out in scn.tasks:
        text = render()
        if out is not None:
            written.append(_write(text, os.path.join(scn.base_dir, out)))
        elif stdout is not None:
            stdout.write(text)
    return written
