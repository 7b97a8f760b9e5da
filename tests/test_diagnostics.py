from epsmult.diagnostics import (
    MaxSpreadCertificate,
    ZeroSpreadCertificate,
    ZeroSpreadNotFound,
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
    TemplateFiltration,
)
from epsmult.fixtures import pi_line
from epsmult.ring import (
    MonomialIdeal,
    RingContext,
    ideal_product,
    maximal_power,
    saturate,
)
from epsmult.valuation import ExactScalar, MonomialValuation

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
        assert not both, F.describe()


# ---------------------------------------------------------------------------
# toric rank bound
# ---------------------------------------------------------------------------


def test_toric_rank_examples():
    assert toric_rank_bound(PowerFiltration(maximal_power(CTX2, 2)), 3) == 2
    assert toric_rank_bound(PowerFiltration(MonomialIdeal(CTX2, [(1, 0)])), 4) == 1
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    assert toric_rank_bound(J, 5) == 2  # raw rank 3 clamps to dim


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
