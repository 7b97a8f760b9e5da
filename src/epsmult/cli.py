"""Command line driver.

Analysis commands operate on filtrations declared in a scenario file (the
same JSON document the ``run`` command executes wholesale), so every
computation is reproducible from a single structured input with no embedded
code.  ``paper-examples`` runs the built-in worked-example corpus.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import scenario as scn_mod
from .fixtures import fixture_ids, format_fixture_table, paper_examples
from .scenario import ScenarioError, load_scenario, run_scenario


def _levels(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"comma separated integers expected, got {text!r}") from None


def build_parser():
    top = argparse.ArgumentParser(
        prog="epsmult",
        description=("exact computations with filtrations of monomial ideals: "
                     "saturation-length limits, A(c) checks, spread "
                     "certificates, and Rees closure comparisons"))
    sub = top.add_subparsers(dest="task", required=True)

    p = sub.add_parser("run", help="execute a scenario file's task list")
    p.add_argument("scenario")

    # one subcommand per task kind, one flag per task parameter
    for kind, (help_text, _, params) in scn_mod._TASKS.items():
        p = sub.add_parser(kind, help=help_text)
        p.add_argument("scenario", help="scenario JSON file declaring the filtrations")
        for key, spec in params.items():
            flag = "--" + key.replace("_", "-")
            if spec == scn_mod._FILTRATION:
                p.add_argument(flag, required=True, help="filtration name")
            elif spec == scn_mod._LEVELS:
                p.add_argument(flag, required=True, type=_levels,
                               help="comma separated truncation levels, e.g. 1,2,3,4")
            else:
                # an omitted flag is left out: the reader has the default
                p.add_argument(flag, type=int, required=spec == scn_mod._REQUIRED)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("paper-examples", help="run the worked-example corpus")
    p.add_argument("--id", action="append", dest="ids",
                   help="run a single fixture by id (repeatable)")
    p.add_argument("--list", action="store_true", help="list fixture ids")
    p.add_argument("--out", help="write the table to a file")
    return top


def _write(text, out):
    if out:
        scn_mod._write(text, out)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head -1``): a normal end.
        # Point stdout at /dev/null so that the final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(args) -> int:
    try:
        if args.task == "run":
            written = run_scenario(args.scenario, stdout=sys.stdout)
            for path in written:
                print(f"wrote {path}")
            return 0
        if args.task == "paper-examples":
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
        # a single command is a one-task scenario: the same reader checks it
        scn = load_scenario(args.scenario)
        task = {k: v for k, v in vars(args).items()
                if v is not None and k != "scenario"}
        render, out = scn_mod._read_task(task, scn.filtrations, "command")
        _write(render(), out)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
