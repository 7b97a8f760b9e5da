"""epsmult benchmark: seeded workloads timed in fresh interpreters.

    python3 perfbench/run.py --workload plane-pi --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Samples alternate between two kinds until ``--seconds`` have passed:
``--trace 0`` alternates jobs=1 and jobs=2 samples and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs=1
samples and reports the per-layer metrics.  Every sample starts a new
interpreter, so memo tables and the pi bracket cache start cold, as in one
``epsmult`` command.  Each value is the median over the run's samples.  The
last line printed is the JSON result; the lines before it give the machine,
the sample counts and the quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_spec  # noqa: E402

MIN_ROUNDS = 3
# times are reported in seconds at the core speed at which the calibration
# takes this long: wall * CALIBRATION_REF_S / calibration.  A fresh sample's
# calibration took about 0.035-0.05 s on the machine the bounds were set on
# (2 vCPU Intel Xeon, Python 3.11.7).
CALIBRATION_REF_S = 0.03
SAMPLE_TIMEOUT_S = 120
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def machine_info(seed):
    try:
        import mpmath
        mp_version = mpmath.__version__
    except ImportError:
        mp_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "mpmath": mp_version,
            "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def start_sample(spec_path, *args):
    """Run sample.py in a new interpreter, passing it the start time."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), spec_path, *args,
           "--t0", repr(time.perf_counter())]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)


def run_sample(spec_path, jobs, trace):
    """One timed sample; its result, or None when it did not finish."""
    proc = start_sample(spec_path, "--jobs", str(jobs), "--trace", str(trace))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def scaled(samples, key):
    """Seconds scaled by the speed of the core at the time of the sample: the
    calibration measured beside the timed region against its reference."""
    return [s[key] * CALIBRATION_REF_S / s["calibration_s"] for s in samples]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "epsmult", "__init__.py")):
        print(f"error: no epsmult sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    spec = make_spec(args.workload, args.seed, work)
    if args.trace:
        trace_dir = os.path.join(HERE, ".trace")
        os.makedirs(trace_dir, exist_ok=True)
        spec["spans_path"] = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    # untimed: fails fast when the program does not import, and writes the
    # bytecode cache so that the first sample's set-up does not compile it
    if start_sample(spec_path, "--setup-only").returncode != 0:
        print("error: the program does not import or build its inputs", file=sys.stderr)
        return 1

    kinds = ((1, 0), (1, 1)) if args.trace else ((1, 0), (2, 0))
    samples = {kind: [] for kind in kinds}
    attempted = failed = 0
    errors = []
    golden = None
    if spec["workload"] == "scenario-certs" and os.path.isfile(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh).get(str(args.seed))
    reference_digests = None
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds += 1
        for jobs, trace in kinds:
            if spec["workload"] == "scenario-certs":
                shutil.rmtree(os.path.join(work, f"jobs{jobs}", "out"), ignore_errors=True)
            res = run_sample(spec_path, jobs, trace)
            if res is None:
                attempted += spec["operations"]
                failed += spec["operations"]
                errors.append(f"sample jobs={jobs} trace={trace} did not finish")
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            errors.extend(res["errors"])
            digests = res["digests"]
            if digests:
                # a task also fails when its output bytes depend on jobs or,
                # for a recorded seed, differ from the recorded digest
                reference_digests = reference_digests or golden or digests
                bad = {k for k in reference_digests if digests.get(k) != reference_digests[k]}
                failed += len(bad - set(res["failed_ops"]))
                errors.extend(f"{k}: output bytes differ (jobs={jobs})" for k in sorted(bad))
            samples[(jobs, trace)].append(res)

    plain = samples[(1, 0)]
    other = samples[kinds[1]]
    if not plain or not other:
        print("error: no sample finished: " + "; ".join(errors[:3]), file=sys.stderr)
        return 1
    series = {}
    if args.trace:
        for metric in PER_LAYER:
            name = metric["name"]
            series[name] = ([s["layers"][name] for s in other], metric["unit"])
        overhead = (statistics.median(scaled(other, "run_s"))
                    - statistics.median(scaled(plain, "run_s")))
        series["trace.overhead_s"] = ([overhead], "s")
    else:
        series["run_s"] = (scaled(plain, "run_s"), "s")
        series["run_s_jobs2"] = (scaled(other, "run_s"), "s")
        series["setup_s"] = (scaled(plain + other, "setup_s"), "s")
        series["peak_rss_mb"] = ([s["peak_rss_mb"] for s in plain], "MB")

    print("# machine " + json.dumps(machine_info(args.seed), sort_keys=True))
    print(f"# workload {args.workload}: {len(plain)} + {len(other)} samples; "
          f"failed_share {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    if not args.trace:
        print("# unscaled medians: " + ", ".join(
            f"{key} {statistics.median(s['run_s'] for s in group):.6g} s"
            for key, group in (("run_s", plain), ("run_s_jobs2", other))) +
            f", calibration {statistics.median(s['calibration_s'] for s in plain + other):.6g} s")
    if reference_digests:
        print("# output sha256 " + json.dumps(reference_digests, sort_keys=True))
    for err in errors[:5]:
        print("# error " + err.strip().replace("\n", " | "))
    metrics = {}
    for name, (values, unit) in series.items():
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"# {name:<45} {med:>14.6g} {unit:<6} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
