"""Repeat the benchmark over seeds and summarise the run-to-run spread.

    python3 perfbench/sweep.py --workloads plane-pi,space-3d --seeds 1-10 \
        --seconds 30 [--trace 0|1] [--out perfbench/BENCH_seed.json]

For each workload and metric it prints the median of the per-run values and
their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  This is
the steadiness test a metric's bound in BENCHMARK.json must pass.  With
``--out`` the per-run results, the summary and the machine are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import machine_info  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """(median, (q3 - q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    runs = {}
    summary = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if args.trace == 0)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        summary[workload] = {}
        for name in runs[workload][0]["metrics"]:
            med, share = spread([r["metrics"][name]["value"] for r in runs[workload]])
            summary[workload][name] = {"median": med, "iqr_share": share,
                                       "unit": runs[workload][0]["metrics"][name]["unit"]}
            print(f"  {workload} {name}: median {med:.6g} spread {share:.4f}")
    if args.out:
        doc = {"machine": {**machine_info(None), "seed": parse_seeds(args.seeds)},
               "seconds": args.seconds, "trace": args.trace,
               "summary": summary, "runs": runs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
