"""Spans around epsmult's public functions, recorded from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in every
epsmult module that holds it, including names other modules imported (such
as ``epsmult.asymptotics.quotient_length``), so calls between modules are
seen too.  Each call becomes one span ``[name, start, end, parent, trace]``;
a call with no open parent starts a new trace.  Spans stay in memory until
the sample ends; ``layer_metrics`` then turns them into the per-layer
metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run
TARGETS = {
    "epsmult.valuation": ("ceil_mul", "valuation_ideal"),
    "epsmult.ring": ("intersect", "saturate", "quotient_length", "colon",
                     "colength", "ideal_product", "ideal_sum", "maximal_power"),
    "epsmult.asymptotics": ("epsilon_report", "sat_quotient_sequence",
                            "e_s_localized", "truncation_sweep"),
    "epsmult.diagnostics": ("check_Ac", "spread_zero_test", "spread_max_test",
                            "toric_rank_bound"),
    "epsmult.newton": ("rees_closure_compare", "filtration_integral_member",
                       "np_membership", "integral_closure"),
    "epsmult.scenario": ("load_scenario", "emit", "run_scenario"),
}

FILTRATION_KINDS = {
    "DiscreteValuedFiltration": "discrete_valued",
    "PowerFiltration": "power",
    "TemplateFiltration": "template",
    "TruncationFiltration": "truncation",
    "LocalizedFiltration": "localized",
    "TableFiltration": "table",
}


def _m(name, unit, better):
    return {"name": name, "unit": unit, "better": better}


def _calls_self(fn):
    return [_m(f"{fn}.calls", "count", "lower"), _m(f"{fn}.self_s", "s", "lower")]


def _quotient(d):
    return [_m(f"quotient_length.{d}.calls", "count", "lower"),
            _m(f"quotient_length.{d}.self_s", "s", "lower"),
            _m(f"quotient_length.{d}.p50_ms", "ms", "lower"),
            _m(f"quotient_length.{d}.p95_ms", "ms", "lower")]


PER_LAYER = (
    # valuation
    _calls_self("ceil_mul") + _calls_self("valuation_ideal")
    + [_m("valuation_ideal.gens_out", "count", "lower")]
    # ring, d=2
    + _calls_self("intersect")
    + [_m("intersect.candidates", "count", "lower"),
       _m("intersect.gens_out", "count", "lower")]
    + _calls_self("saturate") + _quotient("d2")
    # ring, d>=3 and d=1
    + _quotient("d3") + _quotient("d1") + _calls_self("colon") + _calls_self("colength")
    # ring, construction
    + _calls_self("ideal_product")
    + [_m("ideal_product.candidates", "count", "lower"),
       _m("ideal_product.gens_out", "count", "lower")]
    + _calls_self("ideal_sum") + _calls_self("maximal_power")
    # filtration
    + [_m(f"ideal_at.{k}.self_s", "s", "lower")
       for k in ("discrete_valued", "power", "template", "truncation", "localized")]
    + [_m("ideal_at.hit_ratio", "ratio", "higher"), _m("cached_gens", "count", "lower")]
    # asymptotics
    + [_m(f"{fn}.self_s", "s", "lower") for fn in
       ("epsilon_report", "sat_quotient_sequence", "e_s_localized", "truncation_sweep")]
    # diagnostics
    + _calls_self("check_Ac") + _calls_self("spread_zero_test")
    + _calls_self("spread_max_test") + _calls_self("toric_rank_bound")
    # newton
    + [_m("rees_closure_compare.self_s", "s", "lower")]
    + _calls_self("filtration_integral_member")
    + [_m("filtration_integral_member.decided_ratio", "ratio", "higher")]
    + _calls_self("np_membership") + [_m("np_membership.p95_ms", "ms", "lower")]
    + _calls_self("integral_closure")
    # scenario / textio
    + [_m("load_scenario.self_s", "s", "lower"), _m("run_scenario.self_s", "s", "lower")]
    + _calls_self("emit") + [_m("emit.bytes", "bytes", "lower")]
    # the trace itself
    + [_m("trace.wall_s", "s", "lower"), _m("trace.overhead_s", "s", "lower"),
       _m("trace.accounted_share", "ratio", "higher")]
)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p percent of
    the values at or below it (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def self_times(spans):
    """Per-span self time: the span's duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """In-memory span recorder with counters measured at the same calls."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.filtrations = {}
        self.active = False

    def _run(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        trace = self.spans[parent][4] if parent >= 0 else index
        span = [name, time.perf_counter(), 0.0, parent, trace]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fname, fn):
        count = self.counts
        if fname == "quotient_length":
            def name_of(args):
                return f"quotient_length.d{min(args[0].dim, 3)}"
        else:
            def name_of(args):
                return fname

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self._run(name_of(args), fn, args, kwargs)
            if fname in ("intersect", "ideal_product"):
                count[f"{fname}.candidates"] += len(args[0].gens) * len(args[1].gens)
                count[f"{fname}.gens_out"] += len(result.gens)
            elif fname == "valuation_ideal":
                count["valuation_ideal.gens_out"] += len(result.gens)
            elif fname == "filtration_integral_member":
                count["filtration_integral_member.decided"] += result.status != "unknown"
            elif fname == "emit":
                count["emit.bytes"] += len(result.encode("utf-8"))
            return result
        return wrapper

    def _wrap_ideal_at(self, fn):
        count = self.counts

        @functools.wraps(fn)
        def ideal_at(filt, n):
            if not self.active or n == 0:
                return fn(filt, n)
            self.filtrations[id(filt)] = filt
            if n in filt._cache:
                count["ideal_at.hits"] += 1
                return fn(filt, n)
            count["ideal_at.misses"] += 1
            kind = FILTRATION_KINDS.get(type(filt).__name__, type(filt).__name__)
            return self._run(f"ideal_at.{kind}", fn, (filt, n), {})
        return ideal_at

    def install(self):
        """Wrap every target in every loaded epsmult module that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "epsmult" or name.startswith("epsmult."))]
        for modname, fnames in TARGETS.items():
            for fname in fnames:
                original = getattr(sys.modules[modname], fname)
                wrapped = self._wrap(fname, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        filtration = sys.modules["epsmult.filtration"].Filtration
        filtration.ideal_at = self._wrap_ideal_at(filtration.ideal_at)

    def layer_metrics(self, wall_s):
        """Per-layer values for one traced sample whose timed region took
        ``wall_s`` seconds; trace.overhead_s is filled in by the caller."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            durations[name].append((end - start) * 1000)
        c = self.counts
        hits, misses = c["ideal_at.hits"], c["ideal_at.misses"]
        fim = calls["filtration_integral_member"]
        derived = {
            "ideal_at.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cached_gens": sum(len(I.gens) for f in self.filtrations.values()
                               for I in f._cache.values()),
            "filtration_integral_member.decided_ratio":
                c["filtration_integral_member.decided"] / fim if fim else 0.0,
            "trace.wall_s": wall_s,
            "trace.overhead_s": 0.0,
            "trace.accounted_share": sum(selfs) / wall_s if wall_s > 0 else 0.0,
        }
        out = {}
        for metric in PER_LAYER:
            key = metric["name"]
            base, _, stat = key.rpartition(".")
            if key in derived:
                out[key] = derived[key]
            elif key in c:
                out[key] = c[key]
            elif stat == "calls":
                out[key] = calls[base]
            elif stat == "self_s":
                out[key] = self_s[base]
            elif stat in ("p50_ms", "p95_ms"):
                out[key] = percentile(durations[base], int(stat[1:3]))
            else:
                out[key] = 0
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace}) + "\n")
