"""Command line driver.

Analysis commands operate on filtrations declared in a scenario file (the
same JSON document the ``run`` command executes wholesale), so every
computation is reproducible from a single structured input with no embedded
code.  ``paper-examples`` runs the built-in worked-example corpus.
"""

from __future__ import annotations

import argparse
import sys

from . import scenario as scn_mod
from .fixtures import fixture_ids, format_fixture_table, paper_examples
from .scenario import ScenarioError, load_scenario, run_scenario


def _add_common(p, *, filtration=True, jobs=False):
    p.add_argument("scenario", help="scenario JSON file declaring the filtrations")
    if filtration:
        p.add_argument("--filtration", required=True, help="filtration name")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    if jobs:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for per-n fanout")


def build_parser():
    top = argparse.ArgumentParser(
        prog="epsmult",
        description=("exact computations with filtrations of monomial ideals: "
                     "saturation-length limits, A(c) checks, spread "
                     "certificates, and Rees closure comparisons"))
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario file's task list")
    p.add_argument("scenario")

    p = sub.add_parser("eval", help="print the ideal at one level")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("epsilon", help="normalized saturation-length report")
    _add_common(p, jobs=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window", type=int)

    p = sub.add_parser("acheck", help="property A(c) comparison")
    _add_common(p)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("spread", help="analytic spread certificates and rank bound")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--r-max", type=int, default=10)

    p = sub.add_parser("closure-compare", help="compare Rees algebra closures")
    _add_common(p, filtration=False)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--r-max", type=int, default=4)

    p = sub.add_parser("es", help="face-prime localized multiplicity sum")
    _add_common(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window", type=int)

    p = sub.add_parser("truncate-sweep", help="level-i subfiltration estimates")
    _add_common(p, jobs=True)
    p.add_argument("--levels", required=True,
                   help="comma separated truncation levels, e.g. 1,2,3,4")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window", type=int)

    p = sub.add_parser("diff-check", help="limit additivity across an inclusion")
    _add_common(p, filtration=False)
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--window", type=int)

    p = sub.add_parser("paper-examples", help="run the worked-example corpus")
    p.add_argument("--id", action="append", dest="ids",
                   help="run a single fixture by id (repeatable)")
    p.add_argument("--list", action="store_true", help="list fixture ids")
    p.add_argument("--out", help="write the table to a file")
    return top


def _task_from_args(args):
    task = {"task": args.command, "jobs": getattr(args, "jobs", 1)}
    for flag, key in (
            ("filtration", "filtration"), ("n", "n"), ("n_max", "n_max"),
            ("window", "window"), ("c", "c"), ("r_max", "r_max"),
            ("left", "left"), ("right", "right"),
            ("inner", "inner"), ("outer", "outer")):
        value = getattr(args, flag, None)
        if value is not None:
            task[key] = value
    if getattr(args, "levels", None) is not None:
        task["levels"] = [int(s) for s in args.levels.split(",")]
    return task


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            written = run_scenario(args.scenario, stdout=sys.stdout)
            for path in written:
                print(f"wrote {path}")
            return 0
        if args.command == "paper-examples":
            if args.list:
                print("\n".join(fixture_ids()))
                return 0
            try:
                results = paper_examples(args.ids)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            table = format_fixture_table(results)
            _write(table, args.out)
            if args.out:
                print(f"wrote {args.out}")
            return 0 if all(r.passed for r in results if not r.surrogate) else 1
        scn = load_scenario(args.scenario)
        payload = scn_mod._run_task(scn, _task_from_args(args), 0)
        _write(scn_mod.emit(payload, args.format, names=scn.ctx.names), args.out)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
