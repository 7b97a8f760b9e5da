"""Scenario files: a single JSON document declaring a ring, named
filtrations, and a task list, with deterministic CSV/JSON emission.

No code is embedded in scenarios; every filtration is one of the declared
spec kinds and every task carries explicit parameters.  Output bytes are
stable across runs and worker counts: exact rationals serialize as "p/q"
strings (decimal renderings are separate, explicitly labelled columns) and
all JSON keys are sorted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import textio
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
    TableRangeError,
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


def _parse_ideal(spec, ctx, where):
    """An ideal is a list of monomial strings or exponent arrays."""
    if not isinstance(spec, list):
        raise ScenarioError(f"{where}: ideal must be a list of generators")
    gens = []
    for g in spec:
        if isinstance(g, str):
            gens.append(textio.parse_monomial(g, ctx))
        elif isinstance(g, list):
            gens.append(tuple(int(c) for c in g))
        else:
            raise ScenarioError(f"{where}: bad generator {g!r}")
    return MonomialIdeal(ctx, gens)


def _build_filtration(name, block, ctx, built):
    where = f"filtration {name!r}"
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: block must be an object")
    kind = _require(block, "type", where)
    try:
        if kind == "power":
            return PowerFiltration(_parse_ideal(_require(block, "base", where), ctx, where))
        if kind == "discrete_valued":
            pairs = []
            for v in _require(block, "valuations", where):
                weights = tuple(int(c) for c in _require(v, "weights", where))
                mult = parse_scalar(str(_require(v, "multiplier", where)))
                pairs.append((MonomialValuation(weights), mult))
            return DiscreteValuedFiltration(ctx, pairs)
        if kind == "template":
            gens = _require(block, "generators", where)
            tau = block.get("tau")
            if tau is not None:
                tau = {int(k): int(v) for k, v in tau.items()}
            return TemplateFiltration(ctx, [tuple(g) for g in gens], tau=tau)
        if kind == "table":
            ideals = [
                _parse_ideal(spec, ctx, f"{where} entry {i+1}")
                for i, spec in enumerate(_require(block, "ideals", where))
            ]
            return TableFiltration(ctx, ideals)
        if kind == "truncation":
            parent = _require(block, "parent", where)
            if parent not in built:
                raise ScenarioError(f"{where}: unknown parent {parent!r}")
            return built[parent].truncate(int(_require(block, "level", where)))
        if kind == "localized":
            parent = _require(block, "parent", where)
            if parent not in built:
                raise ScenarioError(f"{where}: unknown parent {parent!r}")
            variables = _require(block, "variables", where)
            coords = []
            for v in variables:
                if v not in ctx.names:
                    raise ScenarioError(f"{where}: unknown variable {v!r}")
                coords.append(ctx.names.index(v))
            return built[parent].localize(coords)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown filtration type {kind!r}")


@dataclass
class Scenario:
    ctx: RingContext
    filtrations: dict
    tasks: list
    base_dir: str


def load_scenario(path) -> Scenario:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    ring = _require(doc, "ring", "scenario")
    dim = int(_require(ring, "dimension", "ring block"))
    names = tuple(ring.get("names", ()))
    try:
        ctx = RingContext(dim, names)
    except ValueError as exc:
        raise ScenarioError(f"ring block: {exc}") from exc
    built: dict[str, Filtration] = {}
    for name, block in _require(doc, "filtrations", "scenario").items():
        built[name] = _build_filtration(name, block, ctx, built)
    tasks = _require(doc, "tasks", "scenario")
    if not isinstance(tasks, list):
        raise ScenarioError("tasks must be a list")
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


def _resolve_filtration(scn, task, key, where):
    name = _require(task, key, where)
    if name not in scn.filtrations:
        raise ScenarioError(f"{where}: unknown filtration {name!r}")
    return scn.filtrations[name]


class _EvalResult:
    def __init__(self, n, ideal):
        self.n = n
        self.ideal = ideal

    def to_obj(self, names=None):
        return {
            "n": self.n,
            "generators": [textio.format_monomial(g, names or self.ideal.ctx.names)
                           for g in self.ideal.gens],
            "exponents": textio.ideal_to_obj(self.ideal),
        }


class _SpreadResult:
    def __init__(self, maximal, zero, rank_bound):
        self.maximal = maximal
        self.zero = zero
        self.rank_bound = rank_bound

    def to_obj(self, names=None):
        return {
            "maximal": self.maximal.to_obj(names) if self.maximal else None,
            "zero": self.zero.to_obj(names) if self.zero else None,
            "toric_rank_bound": self.rank_bound,
        }


def _run_task(scn: Scenario, task, index):
    where = f"task {index+1} ({task.get('task', '?')})"
    if not isinstance(task, dict):
        raise ScenarioError(f"{where}: task must be an object")
    kind = _require(task, "task", where)
    jobs = int(task.get("jobs", 1))
    window = task.get("window")
    window = int(window) if window is not None else None
    try:
        if kind == "eval":
            F = _resolve_filtration(scn, task, "filtration", where)
            return _EvalResult(int(_require(task, "n", where)),
                               F.ideal_at(int(_require(task, "n", where))))
        if kind == "epsilon":
            F = _resolve_filtration(scn, task, "filtration", where)
            return epsilon_report(F, int(_require(task, "n_max", where)),
                                  window=window, jobs=jobs)
        if kind == "acheck":
            F = _resolve_filtration(scn, task, "filtration", where)
            return check_Ac(F, int(_require(task, "c", where)),
                            int(_require(task, "n_max", where)))
        if kind == "spread":
            F = _resolve_filtration(scn, task, "filtration", where)
            N = int(_require(task, "n_max", where))
            r_max = int(task.get("r_max", 10))
            return _SpreadResult(spread_max_test(F, N),
                                 spread_zero_test(F, N, r_max),
                                 toric_rank_bound(F, N))
        if kind == "closure-compare":
            F = _resolve_filtration(scn, task, "left", where)
            G = _resolve_filtration(scn, task, "right", where)
            return rees_closure_compare(F, G, int(_require(task, "n_max", where)),
                                        int(task.get("r_max", 4)))
        if kind == "es":
            F = _resolve_filtration(scn, task, "filtration", where)
            return e_s_localized(F, N=int(_require(task, "n_max", where)),
                                 window=window)
        if kind == "truncate-sweep":
            F = _resolve_filtration(scn, task, "filtration", where)
            levels = [int(i) for i in _require(task, "levels", where)]
            return truncation_sweep(F, levels, int(_require(task, "n_max", where)),
                                    window=window, jobs=jobs)
        if kind == "diff-check":
            inner = _resolve_filtration(scn, task, "inner", where)
            outer = _resolve_filtration(scn, task, "outer", where)
            return epsilon_difference_check(
                inner, outer, int(_require(task, "n_max", where)), window=window)
    except ScenarioError:
        raise
    except TableRangeError as exc:
        raise ScenarioError(f"{where}: table range exceeded ({exc})") from exc
    except (ValueError, TypeError, ArithmeticError, RuntimeError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown task kind {kind!r}")


def run_scenario(path, stdout=None) -> list:
    """Execute the task list in order; emit one file per task with an ``out``
    path (resolved against the scenario's directory), or print to ``stdout``.
    Returns the list of written paths."""
    scn = load_scenario(path)
    written = []
    for index, task in enumerate(scn.tasks):
        payload = _run_task(scn, task, index)
        fmt = task.get("format", "json")
        text = emit(payload, fmt, names=scn.ctx.names)
        out = task.get("out")
        if out is None:
            if stdout is not None:
                stdout.write(text)
            continue
        if not os.path.isabs(out):
            out = os.path.join(scn.base_dir, out)
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(out)
    return written
