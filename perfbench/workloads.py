"""Seeded workload inputs and their closed-form oracles.

Nothing here imports epsmult: every expected value is derived from a closed
form (plane-pi, space-3d) or from an independent lattice computation
(scenario-certs), so a wrong answer from the program cannot also be the
benchmark's reference.

Seeds vary inputs without varying the amount of work, so that run-to-run
spread measures the program and the machine rather than the draw:

* plane-pi siblings keep beta - alpha = pi, so every sibling has the same
  length growth as the paper's filtration and differs in its ceiling jitter
  and orientation;
* space-3d siblings keep b - a = 1, so the 3-variable quotients have the
  same size at every level and differ in their generators;
* siblings come in mirrored pairs alpha, 2 - alpha around the paper's
  alpha = 1, so that the generator counts, which grow with beta, balance;
* scenario-certs permutes the variables and draws the spread template's
  exponents.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

PLANE_N = 80
PLANE_WINDOW = 30
SPACE_N = 8

SCENARIO_CLOSURE_N = 4
SCENARIO_DV_N = 6
SCENARIO_ES_N = 10
SCENARIO_ES_WINDOW = 5
SCENARIO_SWEEP_N = 7
SCENARIO_SWEEP_WINDOW = 3
SCENARIO_SPREAD_N = 20
SCENARIO_SPREAD_R = 6

WORKLOADS = ("plane-pi", "space-3d", "scenario-certs")

NAMES = ("x", "y", "z")


def fraction_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _fractions_between(lo, hi, max_den):
    return sorted({Fraction(p, q) for q in range(1, max_den + 1)
                   for p in range(1, 3 * q) if lo <= Fraction(p, q) <= hi})


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def ceil_pi_multiple(n, coeff):
    """ceil(n * coeff * pi) with mpmath at 60 digits, refusing near-integers."""
    import mpmath

    with mpmath.workdps(60):
        x = n * coeff.numerator * mpmath.pi / coeff.denominator
        c = int(mpmath.ceil(x))
        if abs(x - mpmath.nint(x)) < mpmath.mpf(10) ** -40:
            raise ArithmeticError(f"n*{coeff}*pi is too close to an integer at n={n}")
    return c


def plane_lengths(alpha, beta, N):
    """lambda_n = D(D+1)/2 with D = ceil(n beta pi) - ceil(n alpha pi): the
    monomials of (x^A) with total degree below B."""
    out = []
    for n in range(1, N + 1):
        D = ceil_pi_multiple(n, beta) - ceil_pi_multiple(n, alpha)
        out.append(D * (D + 1) // 2)
    return out


def space_lengths(a, b, N):
    """lambda_n = C(D+2, 3) with D = ceil(n b) - ceil(n a): the monomials of
    (x^A) with total degree below B in three variables."""
    return [math.comb(math.ceil(n * b) - math.ceil(n * a) + 2, 3)
            for n in range(1, N + 1)]


def fit_inverse_n(pairs):
    """Exact least-squares eps in v = eps + c/n over (n, v) pairs, solved by
    Cramer's rule on the normal equations."""
    m = len(pairs)
    s1 = sum(Fraction(1, n) for n, _ in pairs)
    s2 = sum(Fraction(1, n * n) for n, _ in pairs)
    t0 = sum(Fraction(v) for _, v in pairs)
    t1 = sum(Fraction(v) / n for n, v in pairs)
    return (t0 * s2 - t1 * s1) / (m * s2 - s1 * s1)


def lattice_minimal(points):
    """Divisibility-minimal points, by brute-force pairwise comparison."""
    pts = set(points)
    return sorted(p for p in pts
                  if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in pts))


def diagonal_closure(exps):
    """Minimal generators of the integral closure of (x1^e1, ..., xd^ed): the
    lattice points u with sum u_i/e_i >= 1, enumerated over the box."""
    pts = []
    for u in itertools.product(*(range(e + 1) for e in exps[:-1])):
        rest = 1 - sum(Fraction(ui, ei) for ui, ei in zip(u, exps))
        last = max(0, math.ceil(rest * exps[-1]))
        pts.append(tuple(u) + (last,))
    return lattice_minimal(pts)


# ---------------------------------------------------------------------------
# workload specs
# ---------------------------------------------------------------------------


def _sequence_spec(kind, weights, alpha, beta, const, N, expected):
    return {"kind": kind, "weights": weights,
            "multipliers": [fraction_str(alpha), fraction_str(beta)],
            "constant": const, "N": N, "expected": expected}


def plane_spec(seed):
    """The paper's (x)^ceil(n pi) meet m^ceil(2 n pi) and seeded siblings."""
    rng = random.Random(seed)
    alpha = rng.choice(_fractions_between(Fraction(5, 6), Fraction(7, 6), 12))
    runs = [((1, 0), Fraction(1), Fraction(2))]
    for a in (alpha, 2 - alpha):
        runs.append((rng.choice([(1, 0), (0, 1)]), a, a + 1))
    return {"workload": "plane-pi", "filtrations": [
        {**_sequence_spec("epsilon", [list(first), [1, 1]], a, b, "pi", PLANE_N,
                          plane_lengths(a, b, PLANE_N)),
         "window": PLANE_WINDOW}
        for first, a, b in runs]}


def space_spec(seed):
    """(x)^n meet m^(2n) in three variables and seeded siblings."""
    rng = random.Random(seed)
    alpha = rng.choice(_fractions_between(Fraction(5, 6), Fraction(7, 6), 9))
    runs = [(0, Fraction(1), Fraction(2))]
    for a in (alpha, 2 - alpha):
        runs.append((rng.randrange(3), a, a + 1))
    specs = []
    for axis, a, b in runs:
        first = [1 if i == axis else 0 for i in range(3)]
        specs.append(_sequence_spec("sat", [first, [1, 1, 1]], a, b, None,
                                    SPACE_N, space_lengths(a, b, SPACE_N)))
    return {"workload": "space-3d", "filtrations": specs}


def _monomial(exp, names=NAMES):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e > 0]
    return "*".join(parts) if parts else "1"


def scenario_doc(seed, jobs):
    """The seeded 3-variable scenario and the oracle values for its tasks."""
    rng = random.Random(seed)
    perm = list(range(3))
    rng.shuffle(perm)

    def place(vec):
        out = [0, 0, 0]
        for i, v in enumerate(vec):
            out[perm[i]] = v
        return out

    exps = place([3, 4, 5])
    base = [place([3, 0, 0]), place([0, 4, 0]), place([0, 0, 5])]
    closure = diagonal_closure(exps)
    if sorted(map(tuple, base)) == closure:
        raise AssertionError("the closure-compare base must not be integrally closed")
    a = Fraction(4, 3)
    b = a + 1
    p = rng.choice([3, 4])
    q = rng.choice([1, 2])
    first = place([1, 0, 0])
    tmpl = [place([str(p), "0", "0"]), place([str(q), "n", "0"]),
            place([str(q), "0", "n"])]
    c_hold = math.ceil(b)
    doc = {
        "ring": {"dimension": 3, "names": list(NAMES)},
        "filtrations": {
            "base": {"type": "power", "base": [_monomial(g) for g in base]},
            "closure": {"type": "power", "base": [_monomial(g) for g in closure]},
            "dv": {"type": "discrete_valued", "valuations": [
                {"weights": first, "multiplier": fraction_str(a)},
                {"weights": [1, 1, 1], "multiplier": fraction_str(b)}]},
            "tmpl": {"type": "template", "generators": tmpl},
        },
        "tasks": [
            {"task": "closure-compare", "left": "base", "right": "closure",
             "n_max": SCENARIO_CLOSURE_N, "r_max": 2, "out": "out/closure.json"},
            {"task": "spread", "filtration": "tmpl", "n_max": SCENARIO_SPREAD_N,
             "r_max": SCENARIO_SPREAD_R, "out": "out/spread.json"},
            {"task": "acheck", "filtration": "dv", "c": c_hold,
             "n_max": SCENARIO_DV_N, "out": "out/acheck_hold.json"},
            {"task": "acheck", "filtration": "dv", "c": c_hold - 1,
             "n_max": SCENARIO_DV_N, "out": "out/acheck_fail.json"},
            {"task": "truncate-sweep", "filtration": "dv", "levels": [1, 2],
             "n_max": SCENARIO_SWEEP_N, "window": SCENARIO_SWEEP_WINDOW,
             "out": "out/sweep.json"},
            {"task": "es", "filtration": "dv", "n_max": SCENARIO_ES_N,
             "window": SCENARIO_ES_WINDOW, "out": "out/es.json"},
        ],
    }
    for task in doc["tasks"]:
        task["jobs"] = jobs
    sweep_pairs = [(n, Fraction(6 * lam, n**3)) for n, lam in
                   enumerate(space_lengths(a, b, SCENARIO_SWEEP_N), start=1)]
    es_pairs = [(n, Fraction(math.ceil(n * a), n))
                for n in range(1, SCENARIO_ES_N + 1)]
    expected = {
        # I^n and its closure's powers have equal Rees-algebra closures
        "closure": "equal-up-to-bound",
        # I_n = (x^A) meet m^B is saturated to (x^A); A(c) holds iff c >= b
        "acheck_hold": "holds-up-to-bound",
        "acheck_fail_n": 1,
        # x^p is in the saturation of (x^p, x^q y^n, x^q z^n) only once p > q
        "spread_maximal_n": 1,
        "toric_rank_bound": 3,
        "sweep_parent": fraction_str(fit_inverse_n(sweep_pairs[-SCENARIO_SWEEP_WINDOW:])),
        "es_value": fraction_str(fit_inverse_n(es_pairs[-SCENARIO_ES_WINDOW:])),
        "integral_closure": [list(g) for g in closure],
    }
    return doc, {"base": base, "expected": expected}


def scenario_spec(seed, workdir):
    """Write the jobs=1 and jobs=2 scenario files under ``workdir``."""
    paths = {}
    for jobs in (1, 2):
        doc, extra = scenario_doc(seed, jobs)
        sub = os.path.join(workdir, f"jobs{jobs}")
        os.makedirs(sub, exist_ok=True)
        path = os.path.join(sub, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        paths[str(jobs)] = path
    # one operation per task, and the integral_closure call
    return {"workload": "scenario-certs", "scenarios": paths,
            "operations": len(doc["tasks"]) + 1, **extra}


def make_spec(workload, seed, workdir):
    """The inputs and oracles of one run, with the number of operations a
    sample checks."""
    if workload == "scenario-certs":
        return scenario_spec(seed, workdir)
    if workload == "plane-pi":
        spec = plane_spec(seed)
    elif workload == "space-3d":
        spec = space_spec(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["operations"] = sum(f["N"] for f in spec["filtrations"])
    return spec
