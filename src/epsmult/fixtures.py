"""Worked-example fixture corpus.

Each fixture reproduces one worked example from the source literature (or a
value derived independently here) as an executable regression, tagged with
its provenance:

* ``literature`` -- the expected value is stated in the source material
* ``derived``    -- computed here by an independent route (brute force,
                    closed forms, explicit certificates)
* ``trivial``    -- immediate from definitions

Fixtures built on the shipped surrogate oscillation function are flagged
``surrogate`` and excluded from hard pass/fail: the exact function the
oscillation examples use lives in an external reference, and the recorded
open question about its limsup constant is reported, not resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .asymptotics import (
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    samuel_of_quotient,
    sat_quotient_sequence,
    truncation_sweep,
)
from .diagnostics import (
    check_Ac,
    spread_max_test,
    spread_zero_test,
    verify_ac_witness,
    verify_zero_certificate,
)
from .filtration import (
    DiscreteValuedFiltration,
    PowerFiltration,
    TemplateFiltration,
)
from .newton import rees_closure_compare, verify_separation_certificate
from .ring import MonomialIdeal, RingContext, ideal_product, maximal_power
from .textio import decimal_str
from .valuation import ExactScalar, MonomialValuation, ceil_mul

__all__ = [
    "FixtureResult",
    "paper_examples",
    "fixture_ids",
    "format_fixture_table",
    "pi_plane",
    "pi_line",
    "within_rel",
]

HALF_PERCENT = Fraction(1, 200)
_PLANE = RingContext(2)


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    title: str
    provenance: str  # "literature" | "derived" | "trivial"
    surrogate: bool
    expected: str
    computed: str
    passed: bool


def within_rel(est, scalar, rel, power=1):
    """est within relative tolerance of scalar^power, decided with certified
    brackets so the comparison is exact."""
    if est is None:
        return False
    lo, hi = scalar.brackets(60)
    return hi**power * (1 - rel) < est < lo**power * (1 + rel)


# ---------------------------------------------------------------------------
# shared filtrations
# ---------------------------------------------------------------------------


def pi_plane():
    """The plane ceil-pi filtration I_n = (x)^ceil(n pi) cap m^ceil(2n pi)."""
    return DiscreteValuedFiltration(RingContext(2), [
        (MonomialValuation((1, 0)), ExactScalar(1, "pi")),
        (MonomialValuation((1, 1)), ExactScalar(2, "pi")),
    ])


def pi_line():
    """The line filtration I_n = (x^ceil(n pi)) in one variable."""
    return DiscreteValuedFiltration(RingContext(1), [
        (MonomialValuation((1,)), ExactScalar(1, "pi")),
    ])


# one instance per corpus run, so fixtures reuse evaluated levels
def _pi_plane(shared):
    if "pi_plane" not in shared:
        shared["pi_plane"] = pi_plane()
    return shared["pi_plane"]


def _pi_line(shared):
    if "pi_line" not in shared:
        shared["pi_line"] = pi_line()
    return shared["pi_line"]


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def fx_pi_lengths(shared):
    F = _pi_plane(shared)
    pi = ExactScalar(1, "pi")
    two_pi = ExactScalar(2, "pi")
    seq = sat_quotient_sequence(F, 200)
    bad = []
    for n, lam in seq.entries:
        D = ceil_mul(two_pi, n) - ceil_mul(pi, n)
        if lam != D * (D + 1) // 2:
            bad.append(n)
    return FixtureResult(
        "pi-lengths", "plane ceil-pi filtration: exact saturation lengths",
        "literature", False,
        "lambda = D(D+1)/2, D = ceil(2n pi) - ceil(n pi), for n <= 200",
        "all 200 match" if not bad else f"mismatch at n={bad[:5]}",
        not bad)


def fx_pi_epsilon(shared):
    F = _pi_plane(shared)
    rep = epsilon_report(F, 500, window=250)
    ok = rep.classification == "converging" and within_rel(
        rep.estimate, ExactScalar(1, "pi"), HALF_PERCENT, power=2)
    return FixtureResult(
        "pi-epsilon", "plane ceil-pi filtration: normalized limit",
        "literature", False,
        "converging within 0.5% of pi^2 at N=500",
        f"{rep.classification}, estimate {decimal_str(rep.estimate, 6)}",
        ok)


def fx_pi_localized(shared):
    F = _pi_plane(shared)
    rep = epsilon_report(F.localize([0]), 500, window=250)
    ok = rep.classification == "converging" and within_rel(
        rep.estimate, ExactScalar(1, "pi"), HALF_PERCENT)
    return FixtureResult(
        "pi-localized", "plane ceil-pi filtration localized at (x)",
        "literature", False,
        "converging within 0.5% of pi at N=500",
        f"{rep.classification}, estimate {decimal_str(rep.estimate, 6)}",
        ok)


def fx_pi_es(shared):
    F = _pi_plane(shared)
    rep = e_s_localized(F, N=500)
    ok = within_rel(rep.value, ExactScalar(1, "pi"), HALF_PERCENT)
    return FixtureResult(
        "pi-es", "plane ceil-pi filtration: face-prime multiplicity sum",
        "derived", False,
        "within 0.5% of pi at N=500 (single face prime (x))",
        f"value {decimal_str(rep.value, 6)}, primes {[c[0] for c in rep.contributions]}",
        ok)


def fx_pi_truncations(shared):
    F = _pi_plane(shared)
    sweep = truncation_sweep(F, [1, 2, 3, 4], 100, window=50)
    gaps = sweep.gaps()
    non_increasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    progress = gaps[-1] < gaps[0]
    return FixtureResult(
        "pi-truncations", "level-i subfiltrations approach the parent limit",
        "derived", False,
        "fitted-estimate gaps non-increasing over levels 1..4 and strictly smaller at 4",
        "gaps " + ", ".join(decimal_str(g, 4) for g in gaps),
        non_increasing and progress)


def fx_pi_spread_max(shared):
    F = _pi_plane(shared)
    cert_pi = spread_max_test(F, 5)
    F36 = DiscreteValuedFiltration(_PLANE, [
        (MonomialValuation((1, 0)), ExactScalar(3)),
        (MonomialValuation((1, 1)), ExactScalar(6)),
    ])
    cert36 = spread_max_test(F36, 5)
    ok = (cert_pi is not None and cert_pi.asserted_spread is None
          and cert_pi.witness_n == 1
          and cert36 is not None and cert36.asserted_spread == 2
          and cert36.representation == "rational-discrete-valued")
    return FixtureResult(
        "pi-spread-max", "saturation-gap criterion and when it may be asserted",
        "derived", False,
        "irrational spec: criterion holds, assertion withheld; rational analogue (3,6): spread 2",
        f"pi: n={cert_pi.witness_n if cert_pi else None} asserted={cert_pi.asserted_spread if cert_pi else None}; "
        f"rational: asserted={cert36.asserted_spread if cert36 else None}",
        ok)


def fx_ceilpi_epsilon(shared):
    F = _pi_line(shared)
    rep = epsilon_report(F, 500, window=250)
    ok = rep.classification == "converging" and within_rel(
        rep.estimate, ExactScalar(1, "pi"), HALF_PERCENT)
    return FixtureResult(
        "ceilpi-epsilon", "line filtration (x^ceil(n pi)): saturation limit",
        "literature", False,
        "converging within 0.5% of pi at N=500",
        f"{rep.classification}, estimate {decimal_str(rep.estimate, 6)}",
        ok)


def fx_ceilpi_ac(shared):
    F = _pi_line(shared)
    rep4 = check_Ac(F, 4, 50)
    rep3 = check_Ac(F, 3, 50)
    ok = rep4.holds and not rep3.holds and verify_ac_witness(F, rep3)
    return FixtureResult(
        "ceilpi-ac", "line filtration satisfies A(4) but not A(3)",
        "literature", False,
        "A(4) holds up to 50; A(3) fails with a verifying witness",
        f"A(4) holds={rep4.holds}; A(3) holds={rep3.holds} witness n={rep3.witness_n}",
        ok)


def fx_ceilpi_spread_zero(shared):
    F = _pi_line(shared)
    cert = spread_zero_test(F, 20, 10)
    from .diagnostics import ZeroSpreadCertificate
    if not isinstance(cert, ZeroSpreadCertificate):
        return FixtureResult(
            "ceilpi-spread-zero", "line filtration: nilpotency certificates",
            "literature", False,
            "generator certificates for all n <= 20 with adaptive r <= 2000",
            f"not found at n={cert.n}", False)
    max_r = max(r for _, _, r in cert.entries)
    ok = max_r <= 2000 and verify_zero_certificate(F, cert)
    return FixtureResult(
        "ceilpi-spread-zero", "line filtration: nilpotency certificates",
        "literature", False,
        "generator certificates for all n <= 20 with adaptive r <= 2000, re-verified",
        f"all found, max r = {max_r}",
        ok)


def fx_growth_lengths(shared):
    ctx = _PLANE
    J = TemplateFiltration(ctx, [("2", "0"), ("1", "n^2")])
    I = TemplateFiltration(ctx, [("2", "0"), ("1", "n")])
    shared["growth_J"], shared["growth_I"] = J, I
    normJ = sat_quotient_sequence(J, 100).normalized()
    normI = sat_quotient_sequence(I, 100).normalized()
    okJ = all(v == 2 for _, v in normJ)
    okI = all(v == Fraction(2, n) for n, v in normI)
    return FixtureResult(
        "growth-square-lengths", "quadratic vs linear socle growth",
        "literature", False,
        "normalized values exactly 2 and exactly 2/n for n <= 100",
        f"quadratic family exact-2: {okJ}; linear family exact-2/n: {okI}",
        okJ and okI)


def fx_growth_diff(shared):
    J, I = shared["growth_J"], shared["growth_I"]
    rep = epsilon_difference_check(J, I, 100, window=20)
    ok = rep.residual is not None and abs(rep.residual) < Fraction(1, 100)
    return FixtureResult(
        "growth-square-diff", "additivity of limits across the inclusion",
        "literature", False,
        "residual of the three-term identity below 1/100 (exactly 0 here)",
        f"residual = {rep.residual}",
        ok)


def fx_growth_closure(shared):
    J, I = shared["growth_J"], shared["growth_I"]
    verdict = rees_closure_compare(I, J, 20, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    return FixtureResult(
        "growth-square-closure", "the pair has equal Rees algebra closures",
        "derived", False,
        "equal up to (N=20, r<=4) with every membership at r <= 2",
        f"{verdict.outcome}, max r = {verdict.max_r_used}",
        ok)


def fx_ac_grid(shared):
    ctx = _PLANE
    cells = []
    all_ok = True
    for a in (1, 2, 3):
        K = TemplateFiltration(ctx, [("2", "0"), ("1", f"{a}*n")])
        for c in range(1, 6):
            rep = check_Ac(K, c, 50)
            expected = c > a
            ok = rep.holds == expected
            if not rep.holds:
                ok = ok and verify_ac_witness(K, rep)
            all_ok = all_ok and ok
            cells.append(f"a={a},c={c}:{'H' if rep.holds else 'F'}")
    return FixtureResult(
        "ac-grid", "the family (x^2, x y^(an)) satisfies A(c) iff c > a",
        "literature", False,
        "verdict equals (c > a) on all 15 cells, failures carry verified witnesses",
        " ".join(cells),
        all_ok)


def fx_ac_ascent(shared):
    ctx = _PLANE
    J = PowerFiltration(ideal_product(
        MonomialIdeal(ctx, [(1, 0)]), maximal_power(ctx, 2)))
    I = PowerFiltration(MonomialIdeal(ctx, [(3, 0)]))
    repJ = check_Ac(J, 1, 10)
    repI = check_Ac(I, 1, 50)
    ok = (not repJ.holds and repJ.witness_n == 1 and verify_ac_witness(J, repJ)
          and repI.holds)
    return FixtureResult(
        "ac-ascent", "A(1) holds below but not above an inclusion",
        "literature", False,
        "powers of x*m^2 fail A(1) at n=1; powers of x^3 hold A(1) to 50",
        f"outer witness n={repJ.witness_n}; inner holds={repI.holds}",
        ok)


def fx_tau_cubic(shared):
    ctx = _PLANE
    T = TemplateFiltration(ctx, [("2", "0"), ("1", "n^3")])
    rep = epsilon_report(T, 60, window=10)
    return FixtureResult(
        "tau-cubic", "cubic exponent growth diverges",
        "literature", False,
        "classified diverging by N=60",
        rep.classification,
        rep.classification == "diverging")


def fx_tau_ac_bound(shared):
    ctx = _PLANE
    K = TemplateFiltration(ctx, [("2", "0"), ("1", "2*n")])
    rep = check_Ac(K, 3, 50)
    norm = sat_quotient_sequence(K, 50).normalized()
    bounded = all(v <= Fraction(2 * 3, n) for n, v in norm)
    return FixtureResult(
        "tau-ac-bound", "under A(c) the normalized sequence is O(c/n)",
        "literature", False,
        "A(3) holds for a=2 and normalized values are <= 6/n for n <= 50",
        f"A(3) holds={rep.holds}; bounded={bounded}",
        rep.holds and bounded)


def fx_staircase_lengths(shared):
    ctx = _PLANE
    I = PowerFiltration(MonomialIdeal(ctx, [(1, 0)]))
    J = TemplateFiltration(ctx, [("n+1", "0"), ("n", "1")])
    shared["stair_I"], shared["stair_J"] = I, J
    seqJ = sat_quotient_sequence(J, 100)
    lengths_ok = all(lam == 1 for _, lam in seqJ.entries)
    repI = epsilon_report(I, 200, window=50)
    repJ = epsilon_report(J, 200, window=50)
    small = (repI.estimate is not None and abs(repI.estimate) < Fraction(1, 1000)
             and repJ.estimate is not None and abs(repJ.estimate) < Fraction(1, 1000))
    loc_ok = all(
        I.localize([0]).ideal_at(n) == J.localize([0]).ideal_at(n)
        for n in range(1, 51))
    return FixtureResult(
        "staircase-lengths", "principal family vs its thickened subfamily",
        "literature", False,
        "saturation length exactly 1 for n <= 100; both limits < 10^-3; localizations at (x) identical",
        f"lengths-1: {lengths_ok}; estimates small: {small}; localized equal: {loc_ok}",
        lengths_ok and small and loc_ok)


def fx_staircase_closure(shared):
    I, J = shared["stair_I"], shared["stair_J"]
    verdict = rees_closure_compare(I, J, 10, 6)
    ok = (verdict.outcome == "proven-different" and verdict.degree == 1
          and verdict.monomial == (1, 0)
          and getattr(verdict.certificate, "weight", None) == (1, 1)
          and verify_separation_certificate(J, verdict.certificate, 100))
    return FixtureResult(
        "staircase-closure", "the pair has different Rees algebra closures",
        "literature", False,
        "separation at degree 1, monomial x, weight (1,1), certificate re-verified for r <= 100",
        f"{verdict.outcome} at degree {verdict.degree}, monomial exp {verdict.monomial}",
        ok)


def fx_es_line(shared):
    ctx = _PLANE
    P = PowerFiltration(MonomialIdeal(ctx, [(1, 0)]))
    rep = e_s_localized(P, N=40)
    ratios_ok = all(
        samuel_of_quotient(MonomialIdeal(ctx, [(n, 0)])) == n
        for n in range(1, 21))
    ok = rep.value == 1 and rep.exact and ratios_ok
    return FixtureResult(
        "es-line", "face-prime sum for powers of a coordinate line",
        "derived", False,
        "localized sum exactly 1; quotient multiplicities of (x^n) equal n for n <= 20",
        f"value={rep.value} exact={rep.exact}; ratios hold: {ratios_ok}",
        ok)


def fx_sigma_oscillation(shared):
    ctx = _PLANE
    H = TemplateFiltration(ctx, [("2", "0"), ("1", "n*sigma(n)")])
    shared["sigma_H"] = H
    rep = epsilon_report(H, 1024, window=256)
    ok = rep.classification == "oscillating" and rep.estimate == 1
    return FixtureResult(
        "sigma-oscillation", "surrogate oscillating family has no limit",
        "literature", True,
        "oscillating; limsup estimate 1 = 2 * (limsup sigma(n)/n) for the surrogate "
        "(the source text records 1/2 for its own exponent function; open question, reported only)",
        f"{rep.classification}, limsup estimate {rep.estimate}",
        ok)


def fx_sigma_ac(shared):
    H = shared["sigma_H"]
    failures = {c: check_Ac(H, c, 64) for c in (1, 2, 3, 4)}
    ok = all(not rep.holds and verify_ac_witness(H, rep)
             for rep in failures.values())
    return FixtureResult(
        "sigma-ac", "surrogate oscillating family fails every A(c)",
        "literature", True,
        "A(c) fails within n <= 64 for c = 1..4, witnesses verified",
        "; ".join(f"c={c}: n={rep.witness_n}" for c, rep in failures.items()),
        ok)


def fx_sigma_closure(shared):
    ctx = _PLANE
    H = shared["sigma_H"]
    J = TemplateFiltration(ctx, [("2", "0"), ("1", "n")])
    verdict = rees_closure_compare(H, J, 12, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    return FixtureResult(
        "sigma-closure", "surrogate family shares its closure with the linear family",
        "literature", True,
        "equal up to (N=12, r<=4) with memberships at r <= 2",
        f"{verdict.outcome}, max r = {verdict.max_r_used}",
        ok)


# (id, runner, whether later fixtures read its shared state); ids match the
# FixtureResult ids, which a test asserts
_REGISTRY = [
    ("pi-lengths", fx_pi_lengths, False),
    ("pi-epsilon", fx_pi_epsilon, False),
    ("pi-localized", fx_pi_localized, False),
    ("pi-es", fx_pi_es, False),
    ("pi-truncations", fx_pi_truncations, False),
    ("pi-spread-max", fx_pi_spread_max, False),
    ("ceilpi-epsilon", fx_ceilpi_epsilon, False),
    ("ceilpi-ac", fx_ceilpi_ac, False),
    ("ceilpi-spread-zero", fx_ceilpi_spread_zero, False),
    ("growth-square-lengths", fx_growth_lengths, True),
    ("growth-square-diff", fx_growth_diff, False),
    ("growth-square-closure", fx_growth_closure, False),
    ("ac-grid", fx_ac_grid, False),
    ("ac-ascent", fx_ac_ascent, False),
    ("tau-cubic", fx_tau_cubic, False),
    ("tau-ac-bound", fx_tau_ac_bound, False),
    ("staircase-lengths", fx_staircase_lengths, True),
    ("staircase-closure", fx_staircase_closure, False),
    ("es-line", fx_es_line, False),
    ("sigma-oscillation", fx_sigma_oscillation, True),
    ("sigma-ac", fx_sigma_ac, False),
    ("sigma-closure", fx_sigma_closure, False),
]


def fixture_ids():
    return [fid for fid, _, _ in _REGISTRY]


def paper_examples(ids=None):
    """Run the fixture corpus (optionally a subset by id) in registry order.

    Fixtures share evaluated filtrations through a common cache, so a full
    run reuses the expensive sequences.
    """
    wanted = set(ids) if ids else None
    if wanted is not None:
        missing = wanted - set(fixture_ids())
        if missing:
            raise ValueError(f"unknown fixture ids: {sorted(missing)}")
    shared: dict = {}
    results = []
    for fid, fn, seeds in _REGISTRY:
        if wanted is not None and fid not in wanted:
            if seeds:
                fn(shared)
            continue
        results.append(fn(shared))
    return results


def format_fixture_table(results):
    """Human-readable pass/fail table; surrogate fixtures in a separate
    section excluded from the hard verdict."""
    lines = []
    hard = [r for r in results if not r.surrogate]
    soft = [r for r in results if r.surrogate]

    def block(rows, header):
        if not rows:
            return
        lines.append(header)
        for r in rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  [{status}] {r.fixture_id:24s} ({r.provenance}) {r.title}")
            lines.append(f"         expected: {r.expected}")
            lines.append(f"         computed: {r.computed}")
        lines.append("")

    block(hard, "== worked examples ==")
    block(soft, "== surrogate experiments (excluded from hard pass/fail) ==")
    failed = [r.fixture_id for r in hard if not r.passed]
    if failed:
        lines.append(f"FAILED: {', '.join(failed)}")
    else:
        lines.append(f"all {len(hard)} hard fixtures pass"
                     + (f"; {len(soft)} surrogate fixtures reported" if soft else ""))
    return "\n".join(lines) + "\n"
