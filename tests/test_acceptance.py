"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here, in the assertions.

Criterion 10 checks the level-i truncations of the plane ceil-pi filtration
I_n = (x)^ceil(n pi) cap m^ceil(2n pi) against their exact limits, which
differ from the parent limit pi^2.  In two variables
(x)^A cap m^B = x^A m^(B-A), so a product of such ideals is again one, with
exponents added, and the level-i truncation at n is the sum over the
compositions of n into parts <= i.  Scaled by n, the exponent pairs it
reaches fill the convex hull of the corner points
(ceil(a pi)/a, ceil(2a pi)/a), a <= i, and its saturation-quotient limit is
2 * area{p >= alpha_min, 0 <= q < f(p) - p}, where f(p) is the lowest second
coordinate of the hull over first coordinates <= p.  Levels 1..4 give
exactly 9, 9, 9 and 457/48 = 9.5208...: the corners (4, 7), (7/2, 13/2) and
(10/3, 19/3) each dominate the ones before, and level 4 adds (13/4, 13/2),
which contributes the sliver between p = 13/4 and p = 10/3.  The level-4 gap
to pi^2 = 9.8696... is therefore pi^2 - 457/48 = 0.3488..., so a bound such
as "level-4 gap < 0.1" cannot hold for any correct program; the test checks
each fitted estimate against its exact limit instead.

Levels 5..7 give exactly 737/75 = 9.8267..., 361/36 = 10.0278... and
484/49 = 9.8776...: levels 6 and 7 lie above pi^2, so the truncation limits
are not monotone in the level, and the exact gaps to pi^2 there are 0.0429,
0.1582 and 0.0079.  The fitted gaps (N=100, window 50, against the parent's
fitted 9.8666) at levels 1..7 come out 0.867, 0.867, 0.867, 0.344, 0.022,
0.159, 0.014.
"""

import random
import time
from fractions import Fraction

import pytest

from epsmult.asymptotics import (
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    samuel_of_quotient,
    sat_quotient_sequence,
    truncation_sweep,
)
from epsmult.diagnostics import (
    ZeroSpreadCertificate,
    check_Ac,
    spread_max_test,
    spread_zero_test,
    verify_ac_witness,
    verify_zero_certificate,
)
from epsmult.filtration import (
    PowerFiltration,
    TemplateFiltration,
)
from epsmult.fixtures import pi_line, pi_plane, within_rel
from epsmult.newton import (
    integral_closure,
    np_membership,
    rees_closure_compare,
    verify_separation_certificate,
)
from epsmult.ring import (
    MonomialIdeal,
    RingContext,
    ideal_product,
    intersect,
    maximal_power,
    quotient_length,
    saturate,
)
from epsmult.valuation import ExactScalar, ceil_mul
from ring_reference import brute_quotient_length

CTX2 = RingContext(2)
PI = ExactScalar(1, "pi")
TWO_PI = ExactScalar(2, "pi")
HALF_PERCENT = Fraction(1, 200)
# (ceil(a*pi), ceil(2*a*pi)) for a = 1..4, with pi = 3.14159265...
CEIL_PI_MULTIPLES = {1: (4, 7), 2: (7, 13), 3: (10, 19), 4: (13, 26)}


def announce(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def shared():
    return {"pi_plane": pi_plane(), "pi_line": pi_line()}


def test_criterion_01_pi_lengths_exact_and_fast(shared):
    fresh = pi_plane()
    start = time.monotonic()
    seq = sat_quotient_sequence(fresh, 200)
    elapsed = time.monotonic() - start
    mismatches = []
    for n, lam in seq.entries:
        D = ceil_mul(TWO_PI, n) - ceil_mul(PI, n)
        if lam != D * (D + 1) // 2:
            mismatches.append(n)
    ok = not mismatches and elapsed < 60
    assert announce(1, ok, f"200/200 exact, {elapsed:.2f}s (< 60s)")
    shared["pi_plane"]._cache.update(fresh._cache)


def test_criterion_02_pi_limit_and_localization(shared):
    F = shared["pi_plane"]
    rep = epsilon_report(F, 500, window=250)
    ok_plane = (rep.classification == "converging"
                and within_rel(rep.estimate, PI, HALF_PERCENT, power=2))
    loc = epsilon_report(F.localize([0]), 500, window=250)
    ok_loc = (loc.classification == "converging"
              and within_rel(loc.estimate, PI, HALF_PERCENT))
    ok = ok_plane and ok_loc
    assert announce(
        2, ok,
        f"plane: {rep.classification} {float(rep.estimate):.5f} (pi^2 within 0.5%); "
        f"localized: {loc.classification} {float(loc.estimate):.5f} (pi within 0.5%)")


def test_criterion_03_growth_square_family():
    J = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    I = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    normJ = sat_quotient_sequence(J, 100).normalized()
    normI = sat_quotient_sequence(I, 100).normalized()
    ok_j = all(v == 2 for _, v in normJ)
    ok_i = all(v == Fraction(2, n) for n, v in normI)
    diff = epsilon_difference_check(J, I, 100, window=20)
    ok_res = diff.residual is not None and abs(diff.residual) < Fraction(1, 100)
    ok = ok_j and ok_i and ok_res
    assert announce(
        3, ok,
        f"quadratic family exactly 2: {ok_j}; linear exactly 2/n: {ok_i}; "
        f"residual = {diff.residual}")


def test_criterion_04_ac_grid():
    cells_ok = 0
    for a in (1, 2, 3):
        K = TemplateFiltration(CTX2, [("2", "0"), ("1", f"{a}*n")])
        for c in range(1, 6):
            rep = check_Ac(K, c, 50)
            good = rep.holds == (c > a)
            if not rep.holds:
                good = good and verify_ac_witness(K, rep)
            cells_ok += good
    ok = cells_ok == 15
    assert announce(4, ok, f"{cells_ok}/15 cells match (holds iff c > a), "
                           "failure witnesses re-verified")


def test_criterion_05_ac_ascent_failure():
    J = PowerFiltration(ideal_product(MonomialIdeal(CTX2, [(1, 0)]),
                                      maximal_power(CTX2, 2)))
    I = PowerFiltration(MonomialIdeal(CTX2, [(3, 0)]))
    repJ = check_Ac(J, 1, 20)
    repI = check_Ac(I, 1, 50)
    ok = (not repJ.holds and repJ.witness_n == 1 and verify_ac_witness(J, repJ)
          and repI.holds)
    assert announce(
        5, ok, f"x*m^2 powers fail A(1) at n={repJ.witness_n} (verified); "
               f"x^3 powers hold A(1) to 50: {repI.holds}")


def test_criterion_06_line_family(shared):
    F = shared["pi_line"]
    rep = epsilon_report(F, 500, window=250)
    ok_eps = (rep.classification == "converging"
              and within_rel(rep.estimate, PI, HALF_PERCENT))
    zero = spread_zero_test(F, 20, 10)
    ok_zero = (isinstance(zero, ZeroSpreadCertificate)
               and max(r for _, _, r in zero.entries) <= 2000
               and verify_zero_certificate(F, zero))
    max_cert = spread_max_test(F, 10)
    ok_max = (max_cert is not None and max_cert.criterion_holds
              and max_cert.asserted_spread is None
              and max_cert.representation == "uncertified")
    ok = ok_eps and ok_zero and ok_max
    max_r = max(r for _, _, r in zero.entries) if ok_zero else None
    assert announce(
        6, ok,
        f"limit {float(rep.estimate):.5f} (pi within 0.5%); zero-certificates all "
        f"n<=20 with adaptive r<= {max_r}; maximality criterion holds with "
        "spread assertion withheld (not certified rational discrete-valued)")


def test_criterion_07_staircase_pair():
    I = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    seqJ = sat_quotient_sequence(J, 100)
    ok_len = all(lam == 1 for _, lam in seqJ.entries)
    repI = epsilon_report(I, 200, window=50)
    repJ = epsilon_report(J, 200, window=50)
    ok_eps = (repI.estimate is not None and abs(repI.estimate) < Fraction(1, 1000)
              and repJ.estimate is not None and abs(repJ.estimate) < Fraction(1, 1000))
    ok_loc = all(I.localize([0]).ideal_at(n) == J.localize([0]).ideal_at(n)
                 for n in range(1, 51))
    verdict = rees_closure_compare(I, J, 10, 6)
    ok_sep = (verdict.outcome == "proven-different" and verdict.degree == 1
              and verdict.monomial == (1, 0)
              and verdict.certificate.weight == (1, 1)
              and verify_separation_certificate(J, verdict.certificate, 100))
    ok = ok_len and ok_eps and ok_loc and ok_sep
    assert announce(
        7, ok,
        f"lengths all 1: {ok_len}; estimates < 1e-3: {ok_eps}; localized equal "
        f"n<=50: {ok_loc}; separated at degree 1 by x with weight (1,1), "
        f"re-verified r<=100: {ok_sep}")


def test_criterion_08_tau_pair_closure():
    T2 = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    T1 = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    verdict = rees_closure_compare(T2, T1, 20, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    assert announce(
        8, ok, f"{verdict.outcome} at (N=20, r_max=4), all memberships at "
               f"r <= {verdict.max_r_used}")


def test_criterion_09_divergence_and_ac_bound():
    T3 = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^3")])
    rep = epsilon_report(T3, 60, window=10)
    ok_div = rep.classification == "diverging"
    a, c = 2, 3
    K = TemplateFiltration(CTX2, [("2", "0"), ("1", f"{a}*n")])
    holds = check_Ac(K, c, 50).holds
    norm = sat_quotient_sequence(K, 50).normalized()
    ok_bound = holds and all(v <= Fraction(2 * c, n) for n, v in norm)
    ok = ok_div and ok_bound
    assert announce(
        9, ok, f"cubic family: {rep.classification} by N=60; A(3) holds for a=2 "
               f"and normalized <= 2c/n up to 50: {ok_bound}")


def _exact_truncation_limit(level):
    """Exact saturation-quotient limit of the level-``level`` truncation of
    the plane ceil-pi filtration (see the module docstring)."""
    corners = sorted((Fraction(A, a), Fraction(B, a))
                     for a, (A, B) in CEIL_PI_MULTIPLES.items() if a <= level)
    pareto = []
    for p in corners:
        if not pareto or p[1] < pareto[-1][1]:
            pareto.append(p)
    hull = []  # lower convex chain of the Pareto corners
    for p in pareto:
        while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    area = sum((y1 - x1 + y2 - x2) * (x2 - x1) / 2
               for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    x, y = hull[-1]
    return 2 * (area + (y - x) ** 2 / 2)


def test_criterion_10_truncation_convergence(shared):
    sweep = truncation_sweep(shared["pi_plane"], [1, 2, 3, 4], 100, window=50)
    gaps = sweep.gaps()
    non_increasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    exact = [_exact_truncation_limit(i) for i, _, _ in sweep.levels]
    assert exact == [9, 9, 9, Fraction(457, 48)]
    near_exact = all(e * (1 - HALF_PERCENT) < est < e * (1 + HALF_PERCENT)
                     for (_, est, _), e in zip(sweep.levels, exact))
    detail = ("gaps " + ", ".join(f"{float(g):.4f}" for g in gaps)
              + f"; non-increasing: {non_increasing}; estimates "
              + ", ".join(f"{float(est):.5f}" for _, est, _ in sweep.levels)
              + " within 0.5% of exact limits 9, 9, 9, 457/48: "
              + f"{near_exact}")
    ok = non_increasing and near_exact
    announce(10, ok, detail)
    assert non_increasing, "truncation gaps must be non-increasing"
    assert near_exact, (
        "a level-i fitted estimate is not within 0.5% of its exact limit "
        "(9, 9, 9, 457/48 = 9.5208 at levels 1..4; the level-4 gap to pi^2 "
        "is exactly pi^2 - 457/48 = 0.3488, see the module docstring)")


def test_criterion_11_localized_multiplicity(shared):
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    repP = e_s_localized(P, N=40)
    ok_line = repP.value == 1 and repP.exact
    ok_ratio = all(samuel_of_quotient(MonomialIdeal(CTX2, [(n, 0)])) == n
                   for n in range(1, 21))
    repF = e_s_localized(shared["pi_plane"], N=500)
    ok_pi = within_rel(repF.value, PI, HALF_PERCENT)
    ok = ok_line and ok_ratio and ok_pi
    assert announce(
        11, ok,
        f"line powers: sum = {repP.value} (exact={repP.exact}), quotient "
        f"multiplicities/n all 1: {ok_ratio}; plane ceil-pi sum "
        f"{float(repF.value):.5f} (pi within 0.5%)")


def _oracle_np_member(gens, a):
    k = len(gens)
    last = gens[-1]
    nvars = k - 1
    ineqs = [([gens[i][j] - last[j] for i in range(nvars)], a[j] - last[j])
             for j in range(len(a))]
    for i in range(nvars):
        ineqs.append(([-1 if t == i else 0 for t in range(nvars)], 0))
    ineqs.append(([1] * nvars, 1))
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in ineqs:
            cv = coeffs[var]
            (pos if cv > 0 else neg if cv < 0 else rest).append((coeffs, rhs))
        ineqs = rest + [
            ([mn * x + mp * y for x, y in zip(cp, cn)], mn * rp + mp * rn)
            for cp, rp in pos for cn, rn in neg
            for mp, mn in [(cp[var], -cn[var])]
        ]
    return all(rhs >= 0 for _, rhs in ineqs)


def test_criterion_12_oracle_suites():
    rng = random.Random(4242)
    ctx3 = RingContext(3)

    # quotient_length vs plain enumeration on 100 random finite instances
    finite_checked = 0
    trials = 0
    while finite_checked < 100 and trials < 500:
        trials += 1
        ctx = CTX2 if trials % 2 else ctx3
        gens = [tuple(rng.randint(0, 4) for _ in range(ctx.dim))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)] or [(1,) * ctx.dim]
        J = MonomialIdeal(ctx, gens)
        if trials % 3 == 0:
            I = intersect(J, maximal_power(ctx, rng.randint(1, 7)))
        else:
            extra = MonomialIdeal(ctx, [tuple(rng.randint(0, 3) for _ in range(ctx.dim))])
            I = ideal_product(J, extra) if any(extra.gens[0]) else intersect(
                J, maximal_power(ctx, 3))
        got = quotient_length(J, I)
        assert (got is not None) == saturate(I).contains_ideal(J)
        if got is not None:
            assert got == brute_quotient_length(J, I)
            finite_checked += 1
    ok_len = finite_checked == 100

    # np membership vs Fourier-Motzkin oracle on 200 instances
    np_checked = 0
    while np_checked < 200:
        d = 2 if np_checked % 2 else 3
        ctx = CTX2 if d == 2 else ctx3
        gens = [tuple(rng.randint(0, 8) for _ in range(d))
                for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if any(g)] or [(1,) * d]
        I = MonomialIdeal(ctx, gens)
        a = tuple(rng.randint(0, 10) for _ in range(d))
        assert np_membership(I, a) == _oracle_np_member(I.gens, a)
        np_checked += 1
    ok_np = np_checked == 200

    # closure idempotence and extensivity on the fixture ideals
    fixtures = [
        MonomialIdeal(CTX2, [(2, 0), (0, 3)]),
        MonomialIdeal(CTX2, [(4, 0), (1, 1), (0, 4)]),
        MonomialIdeal(CTX2, [(4, 3), (5, 2), (6, 1), (7, 0)]),
        MonomialIdeal(ctx3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        MonomialIdeal(ctx3, [(1, 1, 0), (0, 0, 2)]),
    ]
    ok_closure = True
    for I in fixtures:
        c = integral_closure(I)
        ok_closure = ok_closure and c.contains_ideal(I) and integral_closure(c) == c
    ok = ok_len and ok_np and ok_closure
    assert announce(
        12, ok,
        f"quotient lengths vs enumeration: {finite_checked}/100; polyhedron "
        f"membership vs elimination oracle: {np_checked}/200; closure "
        f"idempotent and extensive on fixtures: {ok_closure}")
