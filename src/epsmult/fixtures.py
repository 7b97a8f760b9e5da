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

from fractions import Fraction

from ._record import Record
from .asymptotics import (
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    samuel_of_quotient,
    sat_quotient_sequence,
    truncation_sweep,
)
from .diagnostics import (
    ZeroSpreadCertificate,
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
    "rational_plane",
    "template_family",
    "staircase_pair",
    "ascent_pair",
    "within_rel",
]

HALF_PERCENT = Fraction(1, 200)
_PLANE = RingContext(2)


class FixtureResult(Record):
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
# worked-example filtrations: one builder per family
# ---------------------------------------------------------------------------


def pi_plane():
    """The plane ceil-pi filtration I_n = (x)^ceil(n pi) cap m^ceil(2n pi):
    discrete valued by the order along x and the order at the origin, with
    irrational multipliers pi and 2 pi.  Its normalized saturation lengths
    converge to pi^2, and localizing at (x) gives pi."""
    return DiscreteValuedFiltration(RingContext(2), [
        (MonomialValuation((1, 0)), ExactScalar(1, "pi")),
        (MonomialValuation((1, 1)), ExactScalar(2, "pi")),
    ])


def pi_line():
    """The line filtration I_n = (x^ceil(n pi)) in one variable: limit pi,
    A(4) but not A(3), and zero-spread certificates.  Its multiplier pi is
    irrational, so it is not Q-divisorial and lies outside the positivity
    theorem (epsilon > 0 iff the analytic spread is d), which the paper
    proves for Q-divisorial filtrations."""
    return DiscreteValuedFiltration(RingContext(1), [
        (MonomialValuation((1,)), ExactScalar(1, "pi")),
    ])


def rational_plane():
    """The rational analogue I_n = (x)^(3n) cap m^(6n) of the pi plane; a
    saturation gap certifies analytic spread 2 for it."""
    return DiscreteValuedFiltration(_PLANE, [
        (MonomialValuation((1, 0)), ExactScalar(3)),
        (MonomialValuation((1, 1)), ExactScalar(6)),
    ])


def template_family(expr):
    """The family I_n = (x^2, x y^expr) for an exponent expression in n.
    With expr = a*n it satisfies A(c) exactly when c > a; n^2 and n have
    normalized lengths exactly 2 and 2/n; n^3 diverges; n*sigma(n)
    oscillates (surrogate sigma)."""
    return TemplateFiltration(_PLANE, [("2", "0"), ("1", expr)])


def staircase_pair():
    """The staircase pair (I, J): I_n = (x)^n and J_n = (x^(n+1), x^n y).
    Both limits are 0 and their localizations at (x) agree, but their Rees
    algebras have different integral closures.  This lies outside the
    hypothesis of the closure result, which needs filtrations whose
    closures are fixed by their limit bodies (powers of an ideal, rational
    discrete-valued filtrations): J_n = {a_1 >= n, a_1 + a_2 >= n + 1} has
    an offset, so it is neither, and equal bodies ({a_1 >= 1} for both) do
    not force equal closures."""
    return (PowerFiltration(MonomialIdeal(_PLANE, [(1, 0)])),
            TemplateFiltration(_PLANE, [("n+1", "0"), ("n", "1")]))


def ascent_pair():
    """The ascent pair (J, I): powers of x*m^2 and, inside them, powers of
    x^3; A(1) fails for J at n = 1 and holds for I."""
    return (PowerFiltration(ideal_product(MonomialIdeal(_PLANE, [(1, 0)]),
                                          maximal_power(_PLANE, 2))),
            PowerFiltration(MonomialIdeal(_PLANE, [(3, 0)])))


# ---------------------------------------------------------------------------
# fixtures (each runner builds the filtration families it reads, so a
# fixture run alone gives the same row as in a full run)
# ---------------------------------------------------------------------------

# (the first five FixtureResult fields, in field order, and the runner)
_FIXTURES = []


def _fixture(fixture_id, title, provenance, expected, surrogate=False):
    """Declare a fixture's fixed table fields on its runner, which returns
    (computed, passed).  Declaration order is table order."""
    def declare(runner):
        _FIXTURES.append(
            ((fixture_id, title, provenance, surrogate, expected), runner))
        return runner
    return declare


@_fixture("pi-lengths", "plane ceil-pi filtration: exact saturation lengths",
          "literature",
          "lambda = D(D+1)/2, D = ceil(2n pi) - ceil(n pi), for n <= 200")
def fx_pi_lengths():
    F = pi_plane()
    pi = ExactScalar(1, "pi")
    two_pi = ExactScalar(2, "pi")
    seq = sat_quotient_sequence(F, 200)
    bad = []
    for n, lam in seq.entries:
        D = ceil_mul(two_pi, n) - ceil_mul(pi, n)
        if lam != D * (D + 1) // 2:
            bad.append(n)
    return "all 200 match" if not bad else f"mismatch at n={bad[:5]}", not bad


def _converging_to_pi(F, power):
    rep = epsilon_report(F, 500, window=250)
    ok = rep.classification == "converging" and within_rel(
        rep.estimate, ExactScalar(1, "pi"), HALF_PERCENT, power=power)
    return f"{rep.classification}, estimate {decimal_str(rep.estimate, 6)}", ok


@_fixture("pi-epsilon", "plane ceil-pi filtration: normalized limit",
          "literature", "converging within 0.5% of pi^2 at N=500")
def fx_pi_epsilon():
    return _converging_to_pi(pi_plane(), 2)


@_fixture("pi-localized", "plane ceil-pi filtration localized at (x)",
          "literature", "converging within 0.5% of pi at N=500")
def fx_pi_localized():
    return _converging_to_pi(pi_plane().localize([0]), 1)


@_fixture("pi-es", "plane ceil-pi filtration: face-prime multiplicity sum",
          "derived", "within 0.5% of pi at N=500 (single face prime (x))")
def fx_pi_es():
    rep = e_s_localized(pi_plane(), N=500)
    ok = within_rel(rep.value, ExactScalar(1, "pi"), HALF_PERCENT)
    return f"value {decimal_str(rep.value, 6)}, primes {[c[0] for c in rep.contributions]}", ok


@_fixture("pi-truncations", "level-i subfiltrations approach the parent limit",
          "derived",
          "fitted-estimate gaps non-increasing over levels 1..4 and strictly smaller at 4")
def fx_pi_truncations():
    sweep = truncation_sweep(pi_plane(), [1, 2, 3, 4], 100, window=50)
    gaps = sweep.gaps()
    non_increasing = all(a >= b for a, b in zip(gaps, gaps[1:]))
    progress = gaps[-1] < gaps[0]
    return ("gaps " + ", ".join(decimal_str(g, 4) for g in gaps),
            non_increasing and progress)


@_fixture("pi-spread-max", "saturation-gap criterion and when it may be asserted",
          "derived",
          "irrational spec: criterion holds, assertion withheld; rational analogue (3,6): spread 2")
def fx_pi_spread_max():
    F = pi_plane()
    cert_pi = spread_max_test(F, 5)
    cert36 = spread_max_test(rational_plane(), 5)
    ok = (cert_pi is not None and cert_pi.asserted_spread is None
          and cert_pi.witness_n == 1
          and cert36 is not None and cert36.asserted_spread == 2
          and cert36.representation == "rational-discrete-valued")
    return (f"pi: n={cert_pi.witness_n if cert_pi else None} asserted={cert_pi.asserted_spread if cert_pi else None}; "
            f"rational: asserted={cert36.asserted_spread if cert36 else None}", ok)


@_fixture("ceilpi-epsilon", "line filtration (x^ceil(n pi)): saturation limit",
          "literature", "converging within 0.5% of pi at N=500")
def fx_ceilpi_epsilon():
    return _converging_to_pi(pi_line(), 1)


@_fixture("ceilpi-ac", "line filtration satisfies A(4) but not A(3)",
          "literature", "A(4) holds up to 50; A(3) fails with a verifying witness")
def fx_ceilpi_ac():
    F = pi_line()
    rep4 = check_Ac(F, 4, 50)
    rep3 = check_Ac(F, 3, 50)
    ok = rep4.holds and not rep3.holds and verify_ac_witness(F, rep3)
    return (f"A(4) holds={rep4.holds}; A(3) holds={rep3.holds} witness n={rep3.witness_n}",
            ok)


@_fixture("ceilpi-spread-zero", "line filtration: nilpotency certificates",
          "literature",
          "generator certificates for all n <= 20 with adaptive r <= 2000, re-verified")
def fx_ceilpi_spread_zero():
    F = pi_line()
    cert = spread_zero_test(F, 20, 10)
    if not isinstance(cert, ZeroSpreadCertificate):
        return f"not found at n={cert.n}", False
    max_r = max(r for _, _, r in cert.entries)
    ok = max_r <= 2000 and verify_zero_certificate(F, cert)
    return f"all found, max r = {max_r}", ok


@_fixture("growth-square-lengths", "quadratic vs linear socle growth",
          "literature", "normalized values exactly 2 and exactly 2/n for n <= 100")
def fx_growth_lengths():
    J, I = template_family("n^2"), template_family("n")
    normJ = sat_quotient_sequence(J, 100).normalized()
    normI = sat_quotient_sequence(I, 100).normalized()
    okJ = all(v == 2 for _, v in normJ)
    okI = all(v == Fraction(2, n) for n, v in normI)
    return (f"quadratic family exact-2: {okJ}; linear family exact-2/n: {okI}",
            okJ and okI)


@_fixture("growth-square-diff", "additivity of limits across the inclusion",
          "literature",
          "residual of the three-term identity below 1/100 (exactly 0 here)")
def fx_growth_diff():
    J, I = template_family("n^2"), template_family("n")
    rep = epsilon_difference_check(J, I, 100, window=20)
    ok = rep.residual is not None and abs(rep.residual) < Fraction(1, 100)
    return f"residual = {rep.residual}", ok


@_fixture("growth-square-closure", "the pair has equal Rees algebra closures",
          "derived", "equal up to (N=20, r<=4) with every membership at r <= 2")
def fx_growth_closure():
    J, I = template_family("n^2"), template_family("n")
    verdict = rees_closure_compare(I, J, 20, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    return f"{verdict.outcome}, max r = {verdict.max_r_used}", ok


@_fixture("ac-grid", "the family (x^2, x y^(an)) satisfies A(c) iff c > a",
          "literature",
          "verdict equals (c > a) on all 15 cells, failures carry verified witnesses")
def fx_ac_grid():
    cells = []
    all_ok = True
    for a in (1, 2, 3):
        K = template_family(f"{a}*n")
        for c in range(1, 6):
            rep = check_Ac(K, c, 50)
            all_ok = (all_ok and rep.holds == (c > a)
                      and (rep.holds or verify_ac_witness(K, rep)))
            cells.append(f"a={a},c={c}:{'H' if rep.holds else 'F'}")
    return " ".join(cells), all_ok


@_fixture("ac-ascent", "A(1) holds below but not above an inclusion",
          "literature",
          "powers of x*m^2 fail A(1) at n=1; powers of x^3 hold A(1) to 50")
def fx_ac_ascent():
    J, I = ascent_pair()
    repJ = check_Ac(J, 1, 10)
    repI = check_Ac(I, 1, 50)
    ok = (not repJ.holds and repJ.witness_n == 1 and verify_ac_witness(J, repJ)
          and repI.holds)
    return f"outer witness n={repJ.witness_n}; inner holds={repI.holds}", ok


@_fixture("tau-cubic", "cubic exponent growth diverges",
          "literature", "classified diverging by N=60")
def fx_tau_cubic():
    rep = epsilon_report(template_family("n^3"), 60, window=10)
    return rep.classification, rep.classification == "diverging"


@_fixture("tau-ac-bound", "under A(c) the normalized sequence is O(c/n)",
          "literature",
          "A(3) holds for a=2 and normalized values are <= 6/n for n <= 50")
def fx_tau_ac_bound():
    K = template_family("2*n")
    rep = check_Ac(K, 3, 50)
    norm = sat_quotient_sequence(K, 50).normalized()
    bounded = all(v <= Fraction(2 * 3, n) for n, v in norm)
    return f"A(3) holds={rep.holds}; bounded={bounded}", rep.holds and bounded


@_fixture("staircase-lengths", "principal family vs its thickened subfamily",
          "literature",
          "saturation length exactly 1 for n <= 100; both limits < 10^-3; localizations at (x) identical")
def fx_staircase_lengths():
    I, J = staircase_pair()
    seqJ = sat_quotient_sequence(J, 100)
    lengths_ok = all(lam == 1 for _, lam in seqJ.entries)
    repI = epsilon_report(I, 200, window=50)
    repJ = epsilon_report(J, 200, window=50)
    small = (repI.estimate is not None and abs(repI.estimate) < Fraction(1, 1000)
             and repJ.estimate is not None and abs(repJ.estimate) < Fraction(1, 1000))
    LI, LJ = I.localize([0]), J.localize([0])
    loc_ok = all(LI.ideal_at(n) == LJ.ideal_at(n) for n in range(1, 51))
    return (f"lengths-1: {lengths_ok}; estimates small: {small}; localized equal: {loc_ok}",
            lengths_ok and small and loc_ok)


@_fixture("staircase-closure", "the pair has different Rees algebra closures",
          "literature",
          "separation at degree 1, monomial x, weight (1,1), certificate re-verified for r <= 100")
def fx_staircase_closure():
    I, J = staircase_pair()
    verdict = rees_closure_compare(I, J, 10, 6)
    ok = (verdict.outcome == "proven-different" and verdict.degree == 1
          and verdict.monomial == (1, 0)
          and getattr(verdict.certificate, "weight", None) == (1, 1)
          and verify_separation_certificate(J, verdict.certificate, 100))
    return (f"{verdict.outcome} at degree {verdict.degree}, monomial exp {verdict.monomial}",
            ok)


@_fixture("es-line", "face-prime sum for powers of a coordinate line",
          "derived",
          "localized sum exactly 1; quotient multiplicities of (x^n) equal n for n <= 20")
def fx_es_line():
    P, _ = staircase_pair()
    rep = e_s_localized(P, N=40)
    ratios_ok = all(
        samuel_of_quotient(MonomialIdeal(_PLANE, [(n, 0)])) == n
        for n in range(1, 21))
    ok = rep.value == 1 and rep.exact and ratios_ok
    return f"value={rep.value} exact={rep.exact}; ratios hold: {ratios_ok}", ok


@_fixture("sigma-oscillation", "surrogate oscillating family has no limit",
          "literature",
          "oscillating; limsup estimate 1 = 2 * (limsup sigma(n)/n) for the surrogate "
          "(the source text records 1/2 for its own exponent function; open question, reported only)",
          surrogate=True)
def fx_sigma_oscillation():
    rep = epsilon_report(template_family("n*sigma(n)"), 1024, window=256)
    ok = rep.classification == "oscillating" and rep.estimate == 1
    return f"{rep.classification}, limsup estimate {rep.estimate}", ok


@_fixture("sigma-ac", "surrogate oscillating family fails every A(c)",
          "literature", "A(c) fails within n <= 64 for c = 1..4, witnesses verified",
          surrogate=True)
def fx_sigma_ac():
    H = template_family("n*sigma(n)")
    failures = {c: check_Ac(H, c, 64) for c in (1, 2, 3, 4)}
    ok = all(not rep.holds and verify_ac_witness(H, rep)
             for rep in failures.values())
    return "; ".join(f"c={c}: n={rep.witness_n}" for c, rep in failures.items()), ok


@_fixture("sigma-closure", "surrogate family shares its closure with the linear family",
          "literature", "equal up to (N=12, r<=4) with memberships at r <= 2",
          surrogate=True)
def fx_sigma_closure():
    verdict = rees_closure_compare(
        template_family("n*sigma(n)"), template_family("n"), 12, 4)
    ok = verdict.outcome == "equal-up-to-bound" and verdict.max_r_used <= 2
    return f"{verdict.outcome}, max r = {verdict.max_r_used}", ok


def fixture_ids():
    return [decl[0] for decl, _ in _FIXTURES]


def paper_examples(ids=None):
    """Run the fixture corpus (optionally a subset by id) in declaration
    order; each fixture builds the filtrations it reads."""
    missing = set(ids or ()) - set(fixture_ids())
    if missing:
        raise ValueError(f"unknown fixture ids: {sorted(missing)}")
    return [FixtureResult(*decl, *run()) for decl, run in _FIXTURES
            if not ids or decl[0] in ids]


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
