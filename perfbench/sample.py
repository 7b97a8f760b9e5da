"""One timed sample of a workload, in a fresh interpreter.

    python3 perfbench/sample.py SPEC --jobs J --trace 0|1 --t0 T

``T`` is the parent's ``time.perf_counter()`` taken just before it started
this process (the same system-wide monotonic clock on Linux), so ``setup_s``
covers interpreter start, ``import epsmult`` and building the inputs.
``run_s`` covers only the calls into the program.  The outputs are then
checked against the oracles in the spec.  The last line printed is a JSON
object with the sample's figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

SCENARIO_FILES = ("closure.json", "spread.json", "acheck_hold.json",
                  "acheck_fail.json", "sweep.json", "es.json")


def parse_monomial(text, names):
    """``x^2*z`` to an exponent tuple (kept apart from epsmult's parser)."""
    exp = [0] * len(names)
    if text != "1":
        for factor in text.split("*"):
            name, _, power = factor.partition("^")
            exp[names.index(name)] += int(power) if power else 1
    return tuple(exp)


class Checks:
    """Operations attempted and failed, with the labels of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ops = []
        self.errors = []

    def record(self, label, ok, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.failed_ops.append(label)
            self.errors.append(label)

    def run(self, label, check):
        """Count one operation; a raised exception counts as a failure."""
        try:
            ok = bool(check())
        except Exception:
            ok = False
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
        self.record(label, ok)


def build_sequences(spec, epsmult):
    from epsmult.valuation import ExactScalar, MonomialValuation

    out = []
    for f in spec["filtrations"]:
        ctx = epsmult.RingContext(len(f["weights"][0]))
        pairs = [(MonomialValuation(tuple(w)), ExactScalar(Fraction(m), f["constant"]))
                 for w, m in zip(f["weights"], f["multipliers"])]
        out.append(epsmult.DiscreteValuedFiltration(ctx, pairs))
    return out


def calibrate():
    """Seconds taken by a fixed piece of tuple, set, sort and dict work that
    does not involve epsmult, with the collector off so that the program's
    heap does not change it.  It runs next to the timed region to measure
    how fast this core is at that moment."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(5)
        for _ in range(10):
            # small batches keep the memory high-water mark below the program's
            pts = [(rng.randrange(50), rng.randrange(50), rng.randrange(50))
                   for _ in range(2000)]
            table = {p: sum(p) for p in sorted(set(pts))}
            if len(table) < 1000:
                raise AssertionError("calibration did less work than intended")
        return time.perf_counter() - start
    finally:
        gc.enable()


class Timed:
    """The timed region, with a calibration on each side of it; the tracer,
    when given, records only inside it.  Peak memory is read as it ends."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.calibration = []

    def __enter__(self):
        self.calibration.append(calibrate())
        if self.tracer is not None:
            self.tracer.active = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.tracer is not None:
            self.tracer.active = False
        self.calibration.append(calibrate())
        return False


def run_sequences(spec, filts, jobs, epsmult, checks, timed):
    """Timed: one report or sequence per filtration.  Each level n is one
    operation, checked against the closed form after timing."""
    results = []
    with timed:
        for f, F in zip(spec["filtrations"], filts):
            try:
                if f["kind"] == "epsilon":
                    seq = epsmult.epsilon_report(
                        F, f["N"], window=f["window"], jobs=jobs).sequence
                else:
                    seq = epsmult.sat_quotient_sequence(F, f["N"], jobs=jobs)
                results.append(seq.entries)
            except Exception:
                results.append(None)
                checks.errors.append(traceback.format_exc(limit=3))
    for f, entries in zip(spec["filtrations"], results):
        if entries is None:
            checks.record(f"sequence {f['multipliers']}", False, f["N"])
            continue
        got = dict(entries)
        for n, lam in enumerate(f["expected"], start=1):
            checks.record(f"{f['multipliers']} n={n}", got.get(n) == lam)


def run_scenario_certs(spec, scn, base, jobs, epsmult, checks, timed):
    """Timed: ``run_scenario`` on the generated file and ``integral_closure``
    of its base ideal.  Each task is one operation."""
    from epsmult.diagnostics import AcReport, ZeroSpreadCertificate

    path = spec["scenarios"][str(jobs)]
    closure = None
    with timed:
        try:
            epsmult.run_scenario(path)
            closure = epsmult.integral_closure(base)
        except Exception:
            checks.errors.append(traceback.format_exc(limit=3))

    out_dir = os.path.join(os.path.dirname(path), "out")
    exp = spec["expected"]
    names = list(scn.ctx.names)
    docs, digests = {}, {}
    for name in SCENARIO_FILES:
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
        docs[name] = json.loads(data)

    def zero_certificate_rechecks():
        zero = docs["spread.json"]["zero"]
        cert = ZeroSpreadCertificate(
            bound=zero["bound"], r_max=zero["r_max"],
            entries=tuple((e["n"], parse_monomial(e["generator"], names), e["r"])
                          for e in zero["certificates"]))
        return (zero["kind"] == "zero-evidence"
                and epsmult.verify_zero_certificate(scn.filtrations["tmpl"], cert))

    def ac_witness_rechecks():
        doc = docs["acheck_fail.json"]
        report = AcReport(c=doc["c"], bound=doc["bound"], holds=False,
                          witness_n=doc["witness_n"],
                          witness=parse_monomial(doc["witness"], names))
        return (doc["verdict"] == "fails" and doc["witness_n"] == exp["acheck_fail_n"]
                and epsmult.verify_ac_witness(scn.filtrations["dv"], report))

    # each task is labelled by its output file
    checks.run("closure.json",
               lambda: docs["closure.json"]["outcome"] == exp["closure"])
    checks.run("spread.json", lambda: (
        docs["spread.json"]["maximal"]["witness_n"] == exp["spread_maximal_n"]
        and docs["spread.json"]["toric_rank_bound"] == exp["toric_rank_bound"]
        and zero_certificate_rechecks()))
    checks.run("acheck_hold.json",
               lambda: docs["acheck_hold.json"]["verdict"] == exp["acheck_hold"])
    checks.run("acheck_fail.json", ac_witness_rechecks)
    checks.run("sweep.json",
               lambda: docs["sweep.json"]["parent_estimate"] == exp["sweep_parent"])
    checks.run("es.json", lambda: docs["es.json"]["value"] == exp["es_value"])
    checks.run("integral_closure",
               lambda: sorted(map(list, closure.gens)) == exp["integral_closure"])
    return digests


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up (warms the bytecode cache)")
    args = ap.parse_args(argv)

    import epsmult

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    scenario = spec["workload"] == "scenario-certs"
    if scenario:
        scn = epsmult.load_scenario(spec["scenarios"][str(args.jobs)])
        base = epsmult.MonomialIdeal(scn.ctx, [tuple(g) for g in spec["base"]])
    else:
        filts = build_sequences(spec, epsmult)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    checks = Checks()
    timed = Timed(tracer)
    digests = {}
    if scenario:
        digests = run_scenario_certs(spec, scn, base, args.jobs, epsmult, checks, timed)
    else:
        run_sequences(spec, filts, args.jobs, epsmult, checks, timed)
    run_s = timed.seconds

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": sum(timed.calibration) / len(timed.calibration),
        "peak_rss_mb": timed.peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ops": checks.failed_ops,
        "errors": checks.errors[:5],
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(run_s)
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
