"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 02-07, 09 and 11 delegate to the worked-example fixtures of
``epsmult.fixtures`` (see ``CORPUS``): one ``paper_examples`` run serves them
all, each asserts that its fixtures pass and prints their computed lines.
Their tolerances are the fixtures' own, stated in each fixture's
``expected:`` line, which ``tests/test_golden.py`` pins byte for byte.  The
other criteria compute here, on filtrations from the fixture builders, and
pin their tolerances in the assertions.

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

from epsmult.asymptotics import sat_quotient_sequence, truncation_sweep
from epsmult.diagnostics import spread_max_test
from epsmult.fixtures import paper_examples, pi_line, pi_plane, template_family
from epsmult.newton import integral_closure, np_membership, rees_closure_compare
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
from ring_reference import brute_quotient_length, oracle_np_member

CTX2 = RingContext(2)
PI = ExactScalar(1, "pi")
TWO_PI = ExactScalar(2, "pi")
HALF_PERCENT = Fraction(1, 200)
# (ceil(a*pi), ceil(2*a*pi)) for a = 1..4, with pi = 3.14159265...
CEIL_PI_MULTIPLES = {1: (4, 7), 2: (7, 13), 3: (10, 19), 4: (13, 26)}
# the fixtures each delegated criterion runs, condition for condition
CORPUS = {
    2: ["pi-epsilon", "pi-localized"],
    3: ["growth-square-lengths", "growth-square-diff"],
    4: ["ac-grid"],
    5: ["ac-ascent"],
    6: ["ceilpi-epsilon", "ceilpi-spread-zero"],
    7: ["staircase-lengths", "staircase-closure"],
    9: ["tau-cubic", "tau-ac-bound"],
    11: ["es-line", "pi-es"],
}


def announce(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def shared():
    return {"pi_plane": pi_plane()}


@pytest.fixture(scope="module")
def corpus():
    results = paper_examples([fid for ids in CORPUS.values() for fid in ids])
    return {r.fixture_id: r for r in results}


def assert_corpus(corpus, num, ok=True, detail=""):
    """Assert criterion ``num``'s fixtures pass (and ``ok``); announce their
    computed lines."""
    rows = [corpus[fid] for fid in CORPUS[num]]
    lines = [f"{r.fixture_id}: {r.computed}" for r in rows]
    if detail:
        lines.append(detail)
    assert announce(num, ok and all(r.passed for r in rows), "; ".join(lines))


def test_criterion_01_pi_lengths_exact_and_fast():
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


def test_criterion_02_pi_limit_and_localization(corpus):
    assert_corpus(corpus, 2)


def test_criterion_03_growth_square_family(corpus):
    assert_corpus(corpus, 3)


def test_criterion_04_ac_grid(corpus):
    assert_corpus(corpus, 4)


def test_criterion_05_ac_ascent_failure(corpus):
    assert_corpus(corpus, 5)


def test_criterion_06_line_family(corpus):
    max_cert = spread_max_test(pi_line(), 10)
    ok_max = (max_cert is not None and max_cert.asserted_spread is None
              and max_cert.representation == "uncertified")
    assert_corpus(corpus, 6, ok_max,
                  f"maximality criterion holds with spread assertion withheld: {ok_max}")


def test_criterion_07_staircase_pair(corpus):
    assert_corpus(corpus, 7)


def test_criterion_08_tau_pair_closure():
    verdict = rees_closure_compare(template_family("2*n"), template_family("n"), 20, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    assert announce(
        8, ok, f"{verdict.outcome} at (N=20, r_max=4), all memberships at "
               f"r <= {verdict.max_r_used}")


def test_criterion_09_divergence_and_ac_bound(corpus):
    assert_corpus(corpus, 9)


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


def test_criterion_11_localized_multiplicity(corpus):
    assert_corpus(corpus, 11)


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
        assert np_membership(I, a) == oracle_np_member(I.gens, a)
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
