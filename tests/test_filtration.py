import pytest

from epsmult.filtration import (
    PowerFiltration,
    TableFiltration,
    TableRangeError,
    TemplateFiltration,
    Witness,
    filtration_dimension,
    parse_expression,
    sigma_surrogate,
    validate_filtration,
)
from epsmult.fixtures import pi_plane
from epsmult.ring import (
    MonomialIdeal,
    RingContext,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_power,
)
from epsmult.valuation import ExactScalar

CTX2 = RingContext(2)


def test_ideal_at_examples():
    F = pi_plane()
    assert F.ideal_at(1).gens == ((4, 3), (5, 2), (6, 1), (7, 0))
    assert F.ideal_at(0).is_unit()
    P = PowerFiltration(maximal_power(CTX2, 2))
    assert P.ideal_at(3) == maximal_power(CTX2, 6)
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    assert T.ideal_at(3).gens == ((2, 0), (1, 9))
    assert T.ideal_at(0).is_unit()


def test_discrete_valued_recompute_matches_cache():
    F = pi_plane()
    first = [F.ideal_at(n) for n in range(1, 15)]
    fresh = pi_plane()
    assert first == [fresh.ideal_at(n) for n in range(1, 15)]
    assert [F.ideal_at(n) for n in range(1, 15)] == first


def test_validate_filtration():
    P = PowerFiltration(maximal_power(CTX2, 2))
    assert validate_filtration(P, 20) is None
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "2*n")])
    assert validate_filtration(T, 20) is None
    bad = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(1, 0)]),
                                 MonomialIdeal(CTX2, [(3, 0)])])
    assert validate_filtration(bad, 2) == Witness(1, 1)


def test_builtin_specs_satisfy_axiom():
    specs = [
        pi_plane(),
        PowerFiltration(MonomialIdeal(CTX2, [(2, 0), (1, 1)])),
        TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")]),
        TemplateFiltration(CTX2, [("2", "0"), ("1", "n*sigma(n)")]),
        TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")]),
    ]
    for F in specs:
        assert validate_filtration(F, 25) is None, F.describe()


def test_table_range_error():
    T = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(1, 0)])])
    assert T.ideal_at(1).gens == ((1, 0),)
    with pytest.raises(TableRangeError):
        T.ideal_at(2)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def compositions(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, max_part) + 1):
        for rest in compositions(n - first, max_part):
            yield (first,) + rest


def truncation_by_enumeration(F, i, n):
    total = None
    for comp in compositions(n, i):
        prod = MonomialIdeal.unit(F.ctx)
        for j in comp:
            prod = ideal_product(prod, F.ideal_at(j))
        total = prod if total is None else ideal_sum(total, prod)
    return total


def test_truncate_examples():
    F = pi_plane()
    t1 = F.truncate(1)
    for n in range(1, 8):
        assert t1.ideal_at(n) == ideal_power(F.ideal_at(1), n)
    t2 = F.truncate(2)
    for n in range(1, 3):
        assert t2.ideal_at(n) == F.ideal_at(n)
    assert t2.ideal_at(3) == truncation_by_enumeration(F, 2, 3)


def test_truncate_dp_matches_enumeration():
    F = pi_plane()
    for i in (2, 3):
        ti = F.truncate(i)
        for n in range(1, 9):
            assert ti.ideal_at(n) == truncation_by_enumeration(F, i, n)


def test_truncation_chain():
    F = pi_plane()
    levels = [F.truncate(i) for i in (1, 2, 3, 4)]
    for n in range(1, 21):
        In = F.ideal_at(n)
        prev = None
        for t in levels:
            tn = t.ideal_at(n)
            assert In.contains_ideal(tn)
            if prev is not None:
                assert tn.contains_ideal(prev)
            prev = tn


# ---------------------------------------------------------------------------
# localization / dimension
# ---------------------------------------------------------------------------


def test_localize_filtration_examples():
    F = pi_plane()
    L = F.localize([0])
    from epsmult.valuation import ceil_mul
    pi = ExactScalar(1, "pi")
    for n in range(1, 12):
        assert L.ideal_at(n).gens == ((ceil_mul(pi, n),),)
    # localizing at all variables is the identity
    Lall = F.localize([0, 1])
    for n in range(1, 6):
        assert Lall.ideal_at(n).gens == F.ideal_at(n).gens
    J = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    for n in range(1, 10):
        assert J.localize([0]).ideal_at(n).gens == ((n,),)


def test_filtration_dimension():
    assert filtration_dimension(pi_plane()) == 1
    assert filtration_dimension(PowerFiltration(maximal_power(CTX2, 2))) == 0
    assert filtration_dimension(PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))) == 1
    U = TableFiltration(CTX2, [MonomialIdeal.unit(CTX2)])
    with pytest.raises(ValueError):
        filtration_dimension(U)


# ---------------------------------------------------------------------------
# sigma surrogate and expression grammar
# ---------------------------------------------------------------------------


def test_sigma_surrogate_properties():
    values = [sigma_surrogate(n) for n in range(1, 4097)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for n in range(4, 4097):
        assert 1 <= values[n - 1] <= n / 2
    ratios = [values[n - 1] / n for n in range(1, 4097)]
    # peaks approach 1/2 and dips approach 1/4 (from below at finite n)
    assert max(ratios) >= 0.499
    assert 0.2497 <= min(ratios[1023:]) <= 0.25
    assert values[4**5 - 1 - 1] / (4**5 - 1) < 0.25


def test_sigma_small_values_documented():
    # the formula gives 0 below 4; the lower bound only holds from n = 4 on
    assert [sigma_surrogate(n) for n in (1, 2, 3, 4)] == [0, 0, 0, 2]


def test_expression_grammar():
    assert parse_expression("7").eval(5) == 7
    assert parse_expression("n").eval(5) == 5
    assert parse_expression("3*n").eval(5) == 15
    assert parse_expression("n+1").eval(5) == 6
    assert parse_expression("2*n+3").eval(5) == 13
    assert parse_expression("n^2").eval(5) == 25
    assert parse_expression("n^3").eval(5) == 125
    assert parse_expression("ceil(3/2*n)").eval(5) == 8
    assert parse_expression("ceil(pi*n)").eval(7) == 22
    assert parse_expression("sigma(n)").eval(8) == 3
    assert parse_expression("n*sigma(n)").eval(8) == 24
    with pytest.raises(ValueError):
        parse_expression("n^4")
    with pytest.raises(ValueError):
        parse_expression("2^n")


def test_template_tau_table():
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "tau(n)")],
                           tau={1: 1, 2: 5})
    assert T.ideal_at(2).gens == ((2, 0), (1, 5))
    with pytest.raises(TableRangeError):
        T.ideal_at(3)


def test_affine_forms():
    T = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    assert T.generator_affine_forms() == (((1, 1), (0, 0)), ((1, 0), (0, 1)))
    S = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    forms = S.generator_affine_forms()
    assert forms[0] == ((0, 2), (0, 0))
    assert forms[1][1] is None
