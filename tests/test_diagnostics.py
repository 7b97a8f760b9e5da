from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult.diagnostics import (
    MaxSpreadCertificate,
    ZeroSpreadCertificate,
    ZeroSpreadNotFound,
    _rational_rank,
    check_Ac,
    spread_max_test,
    spread_zero_test,
    toric_rank_bound,
    verify_ac_witness,
    verify_zero_certificate,
)
from epsmult.filtration import (
    DiscreteValuedFiltration,
    PowerFiltration,
    TableFiltration,
    TemplateFiltration,
)
from epsmult.fixtures import pi_line, pi_plane
from epsmult.ring import (
    MonomialIdeal,
    RingContext,
    ideal_product,
    maximal_power,
    saturate,
)
from epsmult.valuation import ExactScalar, MonomialValuation
from fraction_reference import ref_rational_rank
from ring_reference import LocalizedFiltration, ref_check_Ac, ref_spread_zero_test, spec

CTX2 = RingContext(2)


def family_K(a):
    return TemplateFiltration(CTX2, [("2", "0"), ("1", f"{a}*n")])


# ---------------------------------------------------------------------------
# A(c)
# ---------------------------------------------------------------------------


def test_ac_grid_iff():
    for a in (1, 2, 3):
        K = family_K(a)
        for c in range(1, 6):
            rep = check_Ac(K, c, 50)
            assert rep.holds == (c > a), (a, c)
            if not rep.holds:
                assert verify_ac_witness(K, rep)


def test_ac_monotone_in_c():
    for a in (1, 2, 3):
        K = family_K(a)
        previous = False
        for c in range(1, 7):
            holds = check_Ac(K, c, 30).holds
            if previous:
                assert holds, (a, c)
            previous = holds


def test_ac_fail_witness_properties():
    J = PowerFiltration(ideal_product(MonomialIdeal(CTX2, [(1, 0)]),
                                      maximal_power(CTX2, 2)))
    rep = check_Ac(J, 1, 10)
    assert not rep.holds and rep.witness_n == 1
    n, w = rep.witness_n, rep.witness
    In = J.ideal_at(n)
    assert saturate(In).contains(w)
    assert sum(w) >= rep.c * n
    assert not In.contains(w)


def test_ac_holds_cases():
    I = PowerFiltration(MonomialIdeal(CTX2, [(3, 0)]))
    assert check_Ac(I, 1, 50).holds
    line = pi_line()
    assert check_Ac(line, 4, 50).holds
    assert not check_Ac(line, 3, 50).holds


def test_ac_transfers_across_finite_inclusion():
    # inner satisfies A(2), inner <= outer <= sat(inner) with finite gaps,
    # hence outer satisfies A(2) as well
    inner = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    outer = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    assert check_Ac(inner, 2, 30).holds
    for n in range(1, 31):
        assert outer.ideal_at(n).contains_ideal(inner.ideal_at(n))
        assert saturate(inner.ideal_at(n)).contains_ideal(outer.ideal_at(n))
    assert check_Ac(outer, 2, 30).holds


# ---------------------------------------------------------------------------
# spread certificates
# ---------------------------------------------------------------------------


def test_spread_max_rational_discrete_valued():
    F = DiscreteValuedFiltration(CTX2, [
        (MonomialValuation((1, 0)), ExactScalar(3)),
        (MonomialValuation((1, 1)), ExactScalar(6)),
    ])
    cert = spread_max_test(F, 5)
    assert isinstance(cert, MaxSpreadCertificate)
    assert cert.witness_n == 1
    assert cert.representation == "rational-discrete-valued"
    assert cert.asserted_spread == 2
    # the witness is real
    I1 = F.ideal_at(1)
    assert saturate(I1) != I1


def test_spread_max_power():
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    cert = spread_max_test(P, 5)
    assert cert.witness_n == 1
    assert cert.asserted_spread == 2
    assert cert.representation == "ideal-power"


def test_spread_max_withheld_for_irrational():
    cert = spread_max_test(pi_line(), 5)
    assert cert.witness_n == 1
    assert cert.asserted_spread is None
    assert cert.representation == "uncertified"
    assert "withheld" in cert.note or "inapplicable" in cert.note


def test_spread_labels_of_localized_filtrations():
    # the seed-0 scenario-certs "dv", (x)^ceil(4n/3) meet m^ceil(7n/3), at
    # (x) is now the rational discrete-valued (x^ceil(4n/3)) in one
    # variable, so its witness asserts spread 1, where the projected levels
    # reported only the criterion, at the same n
    F = DiscreteValuedFiltration(RingContext(3), [
        (MonomialValuation((1, 0, 0)), ExactScalar(Fraction(4, 3))),
        (MonomialValuation((1, 1, 1)), ExactScalar(Fraction(7, 3)))])
    new, old = (spread_max_test(G, 10) for G in (F.localize([0]),
                                                  LocalizedFiltration(F, [0])))
    assert (new.witness_n, new.representation, new.asserted_spread) == (
        1, "rational-discrete-valued", 1)
    assert (old.witness_n, old.representation, old.asserted_spread) == (
        1, "uncertified", None)
    # pi_plane at (x) is pi_line, so the zero-spread search now raises its
    # bound by the ceiling defect, as on pi_line, and certifies where the
    # projected levels ran out of r at n = 7
    cert = spread_zero_test(pi_plane().localize([0]), 10, 10)
    assert cert == spread_zero_test(pi_line(), 10, 10)
    assert spread_zero_test(LocalizedFiltration(pi_plane(), [0]), 10, 10) == (
        ZeroSpreadNotFound(n=7, generator=(22,), searched_up_to=10))


def test_spread_max_not_found():
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    assert spread_max_test(P, 10) is None


def test_spread_zero_tau_family():
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    cert = spread_zero_test(T, 10, 4)
    assert isinstance(cert, ZeroSpreadCertificate)
    assert all(r == 2 for _, _, r in cert.entries)
    assert verify_zero_certificate(T, cert)
    amp = cert.amplified_exponents()
    assert amp[1] == 2 * 2 + 1  # two generators, max r 2


def test_zero_certificate_with_a_lowered_exponent_fails():
    # r = 1 asks for a minimal generator g of I_n inside m * I_n
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    cert = spread_zero_test(T, 3, 4)
    n, g, _ = cert.entries[-1]
    lowered = ZeroSpreadCertificate(bound=cert.bound, r_max=cert.r_max,
                                    entries=cert.entries[:-1] + ((n, g, 1),))
    assert verify_zero_certificate(T, cert)
    assert not verify_zero_certificate(T, lowered)


def test_spread_zero_adaptive_ceil():
    line = pi_line()
    cert = spread_zero_test(line, 20, 10)
    assert isinstance(cert, ZeroSpreadCertificate)
    rs = {n: r for n, _, r in cert.entries}
    assert rs[1] == 2          # 2*4 = 8 >= ceil(2 pi) + 1 = 8
    assert rs[7] > 100         # needs the adaptive raise past r_max=10
    assert max(rs.values()) <= 2000
    assert verify_zero_certificate(line, cert)


def test_spread_zero_not_found_for_maximal_powers():
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    res = spread_zero_test(P, 5, 6)
    assert isinstance(res, ZeroSpreadNotFound)
    assert res.n == 1


@st.composite
def spread_filtrations(draw, dims=st.integers(1, 3)):
    """Affine templates, discrete-valued filtrations with rational or
    pi-multiple multipliers (the pi ones raise the search bound), and
    powers (which rarely have zero-spread evidence) in a number of
    variables drawn from ``dims``, one to three by default."""
    d = draw(dims)
    ctx = RingContext(d)
    small = st.integers(0, 2)
    kind = draw(st.sampled_from(("template", "rational", "pi", "power")))
    if kind == "template":
        coord = st.tuples(small, small).map(lambda ab: f"{ab[0]}*n+{ab[1]}")
        gens = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=3))
        return TemplateFiltration(ctx, gens)
    if kind == "power":
        gens = st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3)
        return PowerFiltration(draw(gens.map(lambda g: MonomialIdeal(ctx, g)).filter(
            MonomialIdeal.is_proper)))
    constant = "pi" if kind == "pi" else None
    weights = st.tuples(*[small] * d).filter(any).map(MonomialValuation)
    mult = st.builds(lambda p, q: ExactScalar(Fraction(p, q), constant),
                     st.integers(1, 3), st.integers(1, 2))
    return DiscreteValuedFiltration(
        ctx, draw(st.lists(st.tuples(weights, mult), min_size=1, max_size=2)))


@settings(max_examples=150)
@given(spread_filtrations(), st.integers(1, 3), st.integers(2, 5))
@example(TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")]), 3, 4)
@example(PowerFiltration(MonomialIdeal.maximal(CTX2)), 2, 3)
@example(pi_line(), 3, 2)
def test_spread_zero_matches_product_reference(F, N, r_max):
    fast = spread_zero_test(F, N, r_max)
    assert fast == ref_spread_zero_test(F, N, r_max), spec(F)
    if isinstance(fast, ZeroSpreadCertificate):
        assert verify_zero_certificate(F, fast)


@settings(max_examples=100)
@given(spread_filtrations(st.integers(2, 3)), st.integers(1, 8))
# zero levels are skipped, and a unit level has no gap
@example(TableFiltration(CTX2, [MonomialIdeal.zero(CTX2), MonomialIdeal.unit(CTX2),
                                MonomialIdeal.zero(CTX2), MonomialIdeal(CTX2, [(2, 0), (1, 1)])]), 4)
@example(family_K(2), 8)
# the gap of (x^(2n), x*y^n) reaches degree 3n - 2, so A(2) first fails at n = 2
@example(TemplateFiltration(CTX2, [("2*n", "0"), ("1", "n")]), 4)
@example(pi_plane(), 5)
def test_check_Ac_matches_reference(F, N):
    # the top degree of the saturation gap against the meets with m^(cn),
    # whole reports compared, witnesses included
    for c in range(1, 5):
        rep = check_Ac(F, c, N)
        assert rep == ref_check_Ac(F, c, N), (spec(F), c)
        if not rep.holds:
            assert verify_ac_witness(F, rep)


@pytest.mark.parametrize("N", [0, -2])
def test_diagnostics_reject_an_empty_bound(N):
    T = family_K(1)
    for call in (lambda: check_Ac(T, 2, N), lambda: spread_max_test(T, N),
                 lambda: spread_zero_test(T, N, 6), lambda: toric_rank_bound(T, N)):
        with pytest.raises(ValueError, match="N must be at least 1"):
            call()


def test_diagnostics_reject_bad_parameters():
    T = family_K(1)
    with pytest.raises(ValueError, match="c must be a positive integer"):
        check_Ac(T, 0, 5)
    # c is checked before N, and N before r_max
    with pytest.raises(ValueError, match="c must be a positive integer"):
        check_Ac(T, 0, 0)
    with pytest.raises(ValueError, match="N must be at least 1"):
        spread_zero_test(T, 0, 1)
    holds = check_Ac(T, 2, 5)
    assert holds.holds
    with pytest.raises(ValueError, match="report has no witness"):
        verify_ac_witness(T, holds)
    with pytest.raises(ValueError, match="r_max must be at least 2"):
        spread_zero_test(T, 5, 1)


def test_spread_tests_consistent_on_certified_specs():
    # never both positive: spread <= dim rules out simultaneous max and zero
    candidates = [
        DiscreteValuedFiltration(CTX2, [
            (MonomialValuation((1, 0)), ExactScalar(3)),
            (MonomialValuation((1, 1)), ExactScalar(6))]),
        PowerFiltration(MonomialIdeal.maximal(CTX2)),
        PowerFiltration(MonomialIdeal(CTX2, [(1, 0)])),
        DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 0)), ExactScalar(2))]),
    ]
    for F in candidates:
        max_cert = spread_max_test(F, 6)
        zero_cert = spread_zero_test(F, 6, 8)
        both = (isinstance(max_cert, MaxSpreadCertificate)
                and max_cert.asserted_spread is not None
                and isinstance(zero_cert, ZeroSpreadCertificate))
        assert not both, spec(F)


# ---------------------------------------------------------------------------
# toric rank bound
# ---------------------------------------------------------------------------


def test_toric_rank_examples():
    assert toric_rank_bound(PowerFiltration(maximal_power(CTX2, 2)), 3) == 2
    assert toric_rank_bound(PowerFiltration(MonomialIdeal(CTX2, [(1, 0)])), 4) == 1
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    assert toric_rank_bound(J, 5) == 2  # raw rank 3 clamps to dim
    zeros = TableFiltration(CTX2, [MonomialIdeal.zero(CTX2)] * 3)
    assert toric_rank_bound(zeros, 3) == 0  # no generator, no lattice


# one integer draw per entry, read as a small entry, a zero or a large
# entry by its residue mod 3: drawing from a one_of of three strategies
# cost twice as much per entry, and the draws, not the ranks, took most of
# the test's time
_ENTRY = st.integers(-10**12, 10**12).map(lambda c: (c % 13 - 6, 0, c)[c % 3])


@st.composite
def integer_matrices(draw):
    """Up to nine rows of up to five columns, often more rows than columns,
    with negative entries, some large, and whole rows and columns of zeros."""
    cols = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                         max_size=9))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    zero_rows = draw(st.sets(st.integers(0, 8), max_size=3))
    return [[0 if i in zero_rows or j in zero_cols else c
             for j, c in enumerate(row)] for i, row in enumerate(rows)]


@settings(max_examples=300)
@given(integer_matrices())
@example([[0, 0], [2, -4], [-1, 2], [0, 0], [3, 5]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1], [1, 0, 0], [5, 5, 5]])
@example([[0, 3, 0], [0, -6, 0]])
def test_integer_rank_matches_fraction_rank(rows):
    assert _rational_rank(rows) == ref_rational_rank(rows), rows


def test_toric_rank_upper_bounds_spread():
    # zero-spread family still gets a positive rank bound (it is only a bound)
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    assert toric_rank_bound(T, 6) >= 1


def test_ac_report_serialization():
    J = PowerFiltration(ideal_product(MonomialIdeal(CTX2, [(1, 0)]),
                                      maximal_power(CTX2, 2)))
    rep = check_Ac(J, 1, 5)
    obj = rep.to_obj(names=CTX2.names)
    assert obj["verdict"] == "fails"
    assert obj["witness"] == "x"
    cert = spread_zero_test(TemplateFiltration(CTX2, [("2", "0"), ("1", "n")]),
                            3, 4)
    obj = cert.to_obj(names=CTX2.names)
    assert obj["kind"] == "zero-evidence"
    assert obj["certificates"][0]["r"] == 2
