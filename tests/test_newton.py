import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmult._polyhedra import _lp_convex_dominated
from epsmult.filtration import (
    DiscreteValuedFiltration,
    PowerFiltration,
    TableFiltration,
    TemplateFiltration,
)
from epsmult.newton import (
    ContainmentCertificate,
    SeparationCertificate,
    filtration_integral_member,
    integral_closure,
    np_membership,
    rees_closure_compare,
    verify_separation_certificate,
)
from epsmult.ring import (
    DimensionMismatchError,
    MonomialIdeal,
    RingContext,
    maximal_power,
)
from epsmult.scenario import emit
from epsmult.valuation import ExactScalar, MonomialValuation
from ring_reference import (
    LocalizedFiltration,
    oracle_np_member,
    ref_filtration_integral_member,
    ref_rees_closure_compare,
    spec,
)

CTX2 = RingContext(2)
CTX3 = RingContext(3)


def random_instance(rng, d):
    ctx = CTX2 if d == 2 else CTX3
    gens = []
    for _ in range(rng.randint(2, 4)):
        g = tuple(rng.randint(0, 8) for _ in range(d))
        if any(g):
            gens.append(g)
    if not gens:
        gens = [(1,) * d]
    I = MonomialIdeal(ctx, gens)
    a = tuple(rng.randint(0, 10) for _ in range(d))
    return I, a


def test_np_membership_examples():
    I = MonomialIdeal(CTX2, [(2, 0), (0, 3)])
    assert not np_membership(I, (1, 1))
    assert np_membership(I, (1, 2))
    for g in I.gens:
        assert np_membership(I, g)
    with pytest.raises(ValueError):
        np_membership(MonomialIdeal.zero(CTX2), (1, 1))


def test_np_membership_against_fm_oracle():
    rng = random.Random(2024)
    agreements = 0
    while agreements < 200:
        d = 2 if agreements % 2 == 0 else 3
        I, a = random_instance(rng, d)
        assert np_membership(I, a) == oracle_np_member(I.gens, a), (I.gens, a)
        agreements += 1


def test_lp_and_halfspace_routes_agree():
    # the facet route of d <= 3 against the LP oracle
    rng = random.Random(31)
    for _ in range(60):
        d = rng.choice((2, 3))
        I, _ = random_instance(rng, d)
        box = [max(g[i] for g in I.gens) + 2 for i in range(d)]
        for _ in range(15):
            p = tuple(rng.randint(0, box[i]) for i in range(d))
            assert np_membership(I, p) == _lp_convex_dominated(I.gens, p), (I.gens, p)


def test_lp_route_in_four_variables():
    # beyond three variables no facets are built and the LP decides
    ctx = RingContext(4)
    rng = random.Random(4)
    for _ in range(40):
        gens = [tuple(rng.randint(0, 5) for _ in range(4))
                for _ in range(rng.randint(1, 4))]
        I = MonomialIdeal(ctx, gens)
        a = tuple(rng.randint(0, 6) for _ in range(4))
        assert np_membership(I, a) == oracle_np_member(I.gens, a), (I.gens, a)
    squares = MonomialIdeal(ctx, [tuple(2 * (i == j) for j in range(4))
                                  for i in range(4)])
    assert integral_closure(squares) == maximal_power(ctx, 2)


def _radical(I):
    return MonomialIdeal(I.ctx, [tuple(1 if e else 0 for e in g) for g in I.gens])


def test_integral_closure_examples():
    I = MonomialIdeal(CTX2, [(2, 0), (0, 3)])
    assert integral_closure(I).gens == ((2, 0), (0, 3), (1, 2))
    P = MonomialIdeal(CTX2, [(3, 2)])
    assert integral_closure(P) == P
    for k in (1, 2, 5):
        assert integral_closure(maximal_power(CTX2, k)) == maximal_power(CTX2, k)
    with pytest.raises(ValueError, match="zero ideal"):
        integral_closure(MonomialIdeal.zero(CTX2))


def test_integral_closure_idempotent_extensive_radical():
    rng = random.Random(17)
    fixtures = [
        MonomialIdeal(CTX2, [(2, 0), (0, 3)]),
        MonomialIdeal(CTX2, [(4, 0), (1, 1), (0, 4)]),
        MonomialIdeal(CTX3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)]),
        MonomialIdeal(CTX3, [(1, 1, 0), (0, 0, 2)]),
    ]
    for _ in range(10):
        I, _ = random_instance(rng, rng.choice((2, 3)))
        fixtures.append(I)
    for I in fixtures:
        c = integral_closure(I)
        assert c.contains_ideal(I)
        assert integral_closure(c) == c
        assert _radical(c) == _radical(I)


def test_rational_discrete_valued_members_are_closed():
    F = DiscreteValuedFiltration(CTX2, [
        (MonomialValuation((1, 0)), ExactScalar(3)),
        (MonomialValuation((1, 1)), ExactScalar(6)),
    ])
    for n in range(1, 21):
        In = F.ideal_at(n)
        assert integral_closure(In) == In


# ---------------------------------------------------------------------------
# filtration membership and certificates
# ---------------------------------------------------------------------------


def test_member_yes_examples():
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    for n in (1, 2, 5):
        res = filtration_integral_member(T, (1, n), n, 4)
        assert res.status == "yes" and res.r == 2
    # any generator of I_m is a member at r = 1
    res = filtration_integral_member(T, (2, 0), 3, 4)
    assert res.status == "yes" and res.r == 1


def test_member_no_affine_certificate():
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    for n in (1, 2, 4):
        res = filtration_integral_member(J, (n, 0), n, 6)
        assert res.status == "no"
        cert = res.certificate
        assert isinstance(cert, SeparationCertificate)
        assert cert.weight == (1, 1)
        assert cert.slope == n
        assert cert.intercept == 1
        assert verify_separation_certificate(J, cert, 100)


def test_member_containment_route_for_rational_dv():
    F = DiscreteValuedFiltration(CTX2, [
        (MonomialValuation((1, 0)), ExactScalar(3)),
        (MonomialValuation((1, 1)), ExactScalar(6)),
    ])
    yes = filtration_integral_member(F, (3, 3), 1, 4)
    assert yes.status == "yes" and yes.r == 1
    no = filtration_integral_member(F, (2, 0), 1, 4)
    assert no.status == "no"
    assert isinstance(no.certificate, ContainmentCertificate)


def test_member_unknown_when_no_certificate_route():
    # non-affine template, non-member monomial: soundness demands Unknown
    S = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    res = filtration_integral_member(S, (0, 1), 1, 3)
    assert res.status == "unknown"
    # a zero level witnesses nothing, so r = 2 is skipped, not tried
    Z = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(2, 0)]), MonomialIdeal.zero(CTX2)])
    assert filtration_integral_member(Z, (1, 0), 1, 2).status == "unknown"


def test_separation_certificate_verification_catches_tampering():
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    res = filtration_integral_member(J, (1, 0), 1, 4)
    good = res.certificate
    bad = SeparationCertificate(degree=good.degree, monomial=(2, 0),
                                weight=good.weight, slope=good.slope,
                                intercept=good.intercept)
    assert not verify_separation_certificate(J, bad, 20)


# ---------------------------------------------------------------------------
# closure comparison
# ---------------------------------------------------------------------------


def test_compare_separating_pair():
    I = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    verdict = rees_closure_compare(I, J, 10, 6)
    assert verdict.outcome == "proven-different"
    assert verdict.degree == 1
    assert verdict.monomial == (1, 0)
    assert verdict.direction == "left-into-right"
    assert verify_separation_certificate(J, verdict.certificate, 100)


def test_power_verdicts_match_r_loop_reference():
    # the separating pair both ways, powers against powers (the certificates
    # then come from the base's facets, or from 0/1 weights in d = 4), and
    # random bases in d = 2 and 3
    I = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    P = PowerFiltration(MonomialIdeal(CTX2, [(2, 0), (0, 1)]))
    Q = PowerFiltration(MonomialIdeal(CTX2, [(1, 0), (0, 1)]))
    ctx4 = RingContext(4)
    Q4 = PowerFiltration(maximal_power(ctx4, 1))
    P4 = PowerFiltration(MonomialIdeal(ctx4, [tuple(2 * (i == j) for j in range(4))
                                              for i in range(4)]))
    pairs = [(I, J, 10, 6), (J, I, 10, 6), (Q, P, 4, 3), (P, Q, 4, 3),
             (Q4, P4, 2, 2), (P4, Q4, 2, 2)]
    assert rees_closure_compare(Q, P, 4, 3).to_obj()["certificate"] == {
        "kind": "affine-weight", "degree": 1, "monomial": [1, 0],
        "weight": [1, 2], "slope": "2", "intercept": "0"}
    rng = random.Random(7)
    for _ in range(8):
        base, a = random_instance(rng, rng.choice((2, 3)))
        F = PowerFiltration(base)
        closed = PowerFiltration(integral_closure(base))
        if any(a):  # one more generator, often below the base's polyhedron
            G = PowerFiltration(MonomialIdeal(base.ctx, base.gens + (a,)))
            pairs += [(F, G, 3, rng.randint(0, 3)), (G, F, 3, rng.randint(0, 3))]
        pairs += [(F, closed, 3, rng.randint(0, 3)), (closed, F, 3, rng.randint(0, 3))]
    for F, G, N, r_max in pairs:
        fast = rees_closure_compare(F, G, N, r_max).to_obj()
        ref = ref_rees_closure_compare(F, G, N, r_max).to_obj()
        assert fast == ref, (spec(F), spec(G), N, r_max)


def _bases(d):
    """Proper nonzero monomial ideals in d variables, exponents up to 3."""
    ctx = CTX2 if d == 2 else CTX3
    gens = st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=4)
    return gens.map(lambda g: MonomialIdeal(ctx, g)).filter(MonomialIdeal.is_proper)


@st.composite
def power_pairs(draw):
    """Powers of a base against powers of a second base whose Newton
    polyhedron is the same (the closure, or the base with a point of its
    polyhedron added), strictly larger (a point outside added), or drawn
    on its own (most often incomparable)."""
    d = draw(st.sampled_from((2, 3)))
    base = draw(_bases(d))
    kind = draw(st.sampled_from(("closure", "inside", "outside", "other")))
    if kind == "closure":
        other = integral_closure(base)
    elif kind == "other":
        other = draw(_bases(d))
    else:
        points = st.tuples(*[st.integers(0, 4)] * d).filter(any)
        inside = functools.partial(np_membership, base)
        a = draw(points.filter(inside if kind == "inside"
                               else lambda p: not inside(p)))
        other = MonomialIdeal(base.ctx, base.gens + (a,))
    F, G = PowerFiltration(base), PowerFiltration(other)
    return (F, G) if draw(st.booleans()) else (G, F)


@st.composite
def mixed_pairs(draw):
    """Powers against an affine template, a rational discrete-valued
    filtration or a truncation, where the comparison of bases does not
    apply."""
    d = draw(st.sampled_from((2, 3)))
    ctx = CTX2 if d == 2 else CTX3
    P = PowerFiltration(draw(_bases(d)))
    small = st.integers(0, 2)
    kind = draw(st.sampled_from(("template", "discrete", "truncation")))
    if kind == "template":
        coord = st.tuples(small, small).map(lambda ab: f"{ab[0]}*n+{ab[1]}")
        gens = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3))
        other = TemplateFiltration(ctx, gens)
    else:
        weights = st.tuples(*[small] * d).filter(any).map(MonomialValuation)
        mult = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2)).map(ExactScalar)
        other = DiscreteValuedFiltration(
            ctx, draw(st.lists(st.tuples(weights, mult), min_size=1, max_size=2)))
        if kind == "truncation":
            other = draw(st.sampled_from((other, P))).truncate(draw(st.integers(1, 2)))
    return (P, other) if draw(st.booleans()) else (other, P)


@settings(max_examples=200)
@given(st.one_of(power_pairs(), mixed_pairs()), st.integers(1, 4), st.integers(0, 3))
def test_closure_compare_matches_per_generator_reference(pair, N, r_max):
    F, G = pair
    fast = rees_closure_compare(F, G, N, r_max).to_obj()
    ref = ref_rees_closure_compare(F, G, N, r_max).to_obj()
    assert fast == ref, (spec(F), spec(G), N, r_max)


def _certified_parents(d):
    """Powers and rational discrete-valued filtrations in d variables, half
    the weights zero so that some cuts survive a localization."""
    ctx = RingContext(d)
    small = st.integers(0, 3 if d < 4 else 2)
    base = st.lists(st.tuples(*[small] * d), min_size=1, max_size=3).map(
        lambda g: MonomialIdeal(ctx, g)).filter(MonomialIdeal.is_proper)
    weights = st.tuples(*[st.sampled_from((0, 0, 1, 2))] * d).filter(any)
    mult = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2)).map(ExactScalar)
    cuts = st.lists(st.tuples(weights.map(MonomialValuation), mult), min_size=1, max_size=2)
    return st.one_of(base.map(PowerFiltration),
                     cuts.map(lambda p: DiscreteValuedFiltration(ctx, p)))


@st.composite
def localized_certified(draw):
    """Two certified parents in two to four variables, a proper nonempty
    subset S to localize both at, a degree, an r_max and a few exponents
    in the variables of S."""
    d = draw(st.sampled_from((2, 3, 4)))
    S = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1)))
    F, G = draw(_certified_parents(d)), draw(_certified_parents(d))
    m = draw(st.integers(1, 2))
    points = st.lists(st.tuples(*[st.integers(0, 4 * m)] * len(S)), min_size=1, max_size=4)
    return F, G, S, m, draw(st.integers(0, 2)), draw(points)


@settings(max_examples=100)
@given(localized_certified())
def test_localized_closure_answers_never_contradict_the_oracle(case):
    # a localized power or rational discrete-valued filtration now takes its
    # kind's path; the projected levels (the oracle) decide only "yes", and
    # no "no" may meet one, whose certificate must hold on those levels
    F, G, S, m, r_max, points = case
    L, oracle = F.localize(S), LocalizedFiltration(F, S)
    for a in points:
        fast = filtration_integral_member(L, a, m, r_max)
        ref = ref_filtration_integral_member(oracle, a, m, r_max)
        assert {fast.status, ref.status} != {"yes", "no"}, (spec(L), a, m, r_max)
        if isinstance(fast.certificate, SeparationCertificate):
            assert verify_separation_certificate(oracle, fast.certificate, 6)
        if isinstance(fast.certificate, ContainmentCertificate):
            assert not oracle.ideal_at(m).contains(a)
    fast = rees_closure_compare(L, G.localize(S), 3, r_max).outcome
    ref = ref_rees_closure_compare(oracle, LocalizedFiltration(G, S), 3, r_max).outcome
    assert {fast, ref} != {"proven-different", "equal-up-to-bound"}, (
        spec(L), spec(G), S, r_max)


def test_compare_of_powers_builds_no_power():
    # equal polyhedra: both directions follow from the bases' facets; the
    # base with a point outside added: its direction fails at n = 1, where
    # the level is the base itself
    base = MonomialIdeal(CTX3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])
    P, Q = PowerFiltration(base), PowerFiltration(integral_closure(base))
    verdict = rees_closure_compare(P, Q, 6, 3)
    assert (verdict.outcome, verdict.max_r_used) == ("equal-up-to-bound", 1)
    R = PowerFiltration(MonomialIdeal(CTX3, base.gens + ((1, 1, 0),)))
    verdict = rees_closure_compare(P, R, 6, 3)
    assert (verdict.outcome, verdict.degree, verdict.direction) == (
        "proven-different", 1, "right-into-left")
    assert verdict.max_r_used == 1
    assert P._cache == Q._cache == {} and list(R._cache) == [1]


@pytest.mark.parametrize("N", [0, -1])
def test_compare_rejects_an_empty_bound(N):
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0), (0, 1)]))
    with pytest.raises(ValueError, match="N must be at least 1"):
        rees_closure_compare(P, P, N, 2)


def test_negative_r_max_is_rejected():
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0), (0, 1)]))
    with pytest.raises(ValueError, match="r_max"):
        rees_closure_compare(P, P, 2, -1)
    with pytest.raises(ValueError, match="r_max"):
        filtration_integral_member(P, (1, 1), 1, -1)
    with pytest.raises(ValueError, match="degree must be positive"):
        filtration_integral_member(P, (1, 1), 0, 2)


def test_compare_rejects_rings_of_different_dimension():
    """Powers of (x, y) and of (x, y, z) live in different rings, so there is
    nothing to compare (a 2-entry certificate for a 3-entry monomial was the
    answer before)."""
    P2 = PowerFiltration(MonomialIdeal(CTX2, [(1, 0), (0, 1)]))
    P3 = PowerFiltration(MonomialIdeal(CTX3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    for left, right in ((P2, P3), (P3, P2)):
        with pytest.raises(DimensionMismatchError, match="dimension"):
            rees_closure_compare(left, right, 2, 2)


@pytest.mark.parametrize("a", [(1,), (1, 1, 1), ()])
def test_member_rejects_a_monomial_of_another_dimension(a):
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    R = DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 1)), ExactScalar(1))])
    for F in (PowerFiltration(MonomialIdeal(CTX2, [(1, 0), (0, 1)])), T, R):
        with pytest.raises(DimensionMismatchError):
            filtration_integral_member(F, a, 1, 2)


def test_compare_equal_pairs():
    T2 = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    T1 = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    verdict = rees_closure_compare(T2, T1, 20, 4)
    assert verdict.outcome == "equal-up-to-bound"
    assert verdict.max_r_used <= 2
    self_verdict = rees_closure_compare(T1, T1, 10, 4)
    assert self_verdict.outcome == "equal-up-to-bound"
    assert self_verdict.max_r_used == 1


def test_compare_growth_pair_bounded():
    quad = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    lin = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    verdict = rees_closure_compare(lin, quad, 20, 4)
    assert verdict.outcome == "equal-up-to-bound"
    assert verdict.max_r_used <= 2


def test_member_no_for_power_filtrations():
    # membership over an ideal-power filtration reduces to one polyhedron,
    # and exclusions carry a weight certificate with intercept 0
    P = PowerFiltration(MonomialIdeal(CTX2, [(0, 1)]))
    res = filtration_integral_member(P, (2, 0), 1, 3)
    assert res.status == "no"
    assert isinstance(res.certificate, SeparationCertificate)
    assert verify_separation_certificate(P, res.certificate, 50)


def test_compare_inconclusive_keeps_unresolved():
    # two non-affine templates whose cross memberships admit no certificate
    quad = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    other = TemplateFiltration(CTX2, [("0", "2"), ("1", "n^2")])
    verdict = rees_closure_compare(quad, other, 3, 2)
    assert verdict.outcome == "inconclusive"
    assert verdict.unresolved


def test_verdict_serialization():
    I = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    verdict = rees_closure_compare(I, J, 5, 4)
    obj = verdict.to_obj(names=CTX2.names)
    assert obj["outcome"] == "proven-different"
    assert obj["monomial"] == "x"
    assert obj["certificate"]["weight"] == [1, 1]
    assert obj["certificate"]["slope"] == "1"
    # two rational discrete-valued filtrations differ by a containment
    F = DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 0)), ExactScalar(1)),
                                        (MonomialValuation((1, 1)), ExactScalar(2))])
    G = DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 0)), ExactScalar(1)),
                                        (MonomialValuation((1, 1)), ExactScalar(3))])
    obj = json.loads(emit(rees_closure_compare(F, G, 3, 2), "json", CTX2.names))
    assert (obj["outcome"], obj["degree"], obj["monomial"]) == ("proven-different", 1, "x*y")
    assert obj["certificate"] == {"kind": "closed-filtration-containment",
                                  "degree": 1, "monomial": "x*y"}
