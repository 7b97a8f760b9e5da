import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult.asymptotics import sat_quotient_sequence
from epsmult.filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TableFiltration,
    TableRangeError,
    TemplateFiltration,
    TruncationFiltration,
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
from epsmult.valuation import ExactScalar, MonomialValuation, parse_scalar
from ring_reference import LocalizedFiltration, spec

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
    with pytest.raises(NotImplementedError):
        Filtration(RingContext(1)).ideal_at(1)


def test_discrete_valued_recompute_matches_cache():
    F = pi_plane()
    first = [F.ideal_at(n) for n in range(1, 15)]
    fresh = pi_plane()
    assert first == [fresh.ideal_at(n) for n in range(1, 15)]
    assert [F.ideal_at(n) for n in range(1, 15)] == first


def test_validate_filtration():
    P = PowerFiltration(maximal_power(CTX2, 2))
    assert validate_filtration(P, 20) is None
    # no pair m + n <= N exists below N = 2
    for N in (1, 0):
        with pytest.raises(ValueError, match="N must be at least 2"):
            validate_filtration(P, N)
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
        assert validate_filtration(F, 25) is None, spec(F)


def test_table_range_error():
    T = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(1, 0)])])
    assert T.ideal_at(1).gens == ((1, 0),)
    with pytest.raises(TableRangeError):
        T.ideal_at(2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: PowerFiltration(MonomialIdeal.zero(CTX2)), ValueError, "proper nonzero base"),
    (lambda: PowerFiltration(MonomialIdeal.unit(CTX2)), ValueError, "proper nonzero base"),
    (lambda: DiscreteValuedFiltration(CTX2, []), ValueError, "at least one"),
    (lambda: DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 1, 1)), ExactScalar(1))]),
     ValueError, "valuation dimension mismatch"),
    (lambda: DiscreteValuedFiltration(CTX2, [(MonomialValuation((1, 1)), 1)]),
     TypeError, "ExactScalar"),
    (lambda: TableFiltration(CTX2, [MonomialIdeal(RingContext(3), [(1, 0, 0)])]),
     ValueError, "table ideal dimension mismatch"),
], ids=["power-zero", "power-unit", "dv-no-pairs", "dv-dimension", "dv-multiplier",
        "table-dimension"])
def test_specs_reject_malformed_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


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


def test_cold_level_far_up_equals_the_warm_fill():
    # a cold ideal_at(n) used to fill the memo by one nested call per level
    # and raised RecursionError from about n = 700; it must give the value
    # filled warm from n = 1, for powers and for truncations alike
    n = 1500
    assert n > sys.getrecursionlimit()
    base = MonomialIdeal(CTX2, [(1, 2)])
    for make in (lambda: PowerFiltration(base),
                 lambda: PowerFiltration(base).truncate(1)):
        warm = make()
        for k in range(1, n + 1):
            warm.ideal_at(k)
        cold = make()
        assert cold.ideal_at(n) == warm.ideal_at(n) == MonomialIdeal(CTX2, [(n, 2 * n)])
        assert cold.ideal_at(n - 1) == warm.ideal_at(n - 1)


@st.composite
def truncation_cases(draw):
    """A rational discrete-valued or power filtration in two or three
    variables, a truncation level and a degree, small enough in three
    variables for the enumeration of compositions."""
    d = draw(st.sampled_from((2, 3)))
    ctx = RingContext(d)
    small = st.integers(0, 3 if d == 2 else 2)
    if draw(st.booleans()):
        weights = st.tuples(*[small] * d).filter(any)
        mult = st.builds(Fraction, st.integers(1, 6 if d == 2 else 3),
                         st.integers(1, 3)).map(ExactScalar)
        pairs = draw(st.lists(st.tuples(weights.map(MonomialValuation), mult),
                              min_size=1, max_size=3))
        F = DiscreteValuedFiltration(ctx, pairs)
    else:
        gens = st.lists(st.tuples(*[small] * d), min_size=1, max_size=3)
        base = draw(gens.map(lambda g: MonomialIdeal(ctx, g)).filter(
            MonomialIdeal.is_proper))
        F = PowerFiltration(base)
    return F, draw(st.integers(1, 3)), draw(st.integers(1, 6 if d == 2 else 5))


@settings(max_examples=60)
@given(truncation_cases())
def test_truncation_dp_matches_enumeration_property(case):
    F, i, n = case
    assert F.truncate(i).ideal_at(n) == truncation_by_enumeration(F, i, n)


@pytest.mark.parametrize("index", [2.5, 2.0, "1", -1, None, True])
def test_ideal_at_rejects_non_integer_index(index):
    with pytest.raises(ValueError):
        pi_plane().ideal_at(index)


@pytest.mark.parametrize("level", [2.5, 2.0, "2", 0, None, True])
def test_truncate_rejects_non_integer_level(level):
    with pytest.raises(ValueError):
        pi_plane().truncate(level)


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


def _levels(F, n_max):
    """I_1..I_(n_max), each an ideal or the type of the exception raised."""
    out = []
    for n in range(1, n_max + 1):
        try:
            out.append(F.ideal_at(n))
        except Exception as exc:  # compared by type with the oracle's
            out.append(type(exc))
    return out


def assert_same_levels(L, oracle, n_max=8):
    assert L.ctx == oracle.ctx
    for n, (got, want) in enumerate(zip(_levels(L, n_max), _levels(oracle, n_max)), 1):
        if isinstance(want, type):
            assert got is want, (spec(L), n, got, want)
        else:
            assert got == want and want == got, (spec(L), n)
            assert got.gens == want.gens, (spec(L), n)


def is_unit_filtration(F):
    return isinstance(F, TemplateFiltration) and all(
        c.text == "0" for g in F.generators for c in g)


def test_localize_keeps_the_kind():
    F = pi_plane()
    assert type(F.localize([0])) is DiscreteValuedFiltration
    assert type(F.truncate(2).localize([0])) is TruncationFiltration
    P = PowerFiltration(MonomialIdeal(CTX2, [(2, 0), (1, 1)]))
    assert P.localize([0]).base == MonomialIdeal(RingContext(1, ("x",)), [(1,)])
    T = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(1, 2)])])
    assert T.localize([1]).ideals == (MonomialIdeal(RingContext(1, ("y",)), [(2,)]),)


def test_localize_with_no_cut_left_is_the_unit_filtration():
    # every cut of pi_plane has a positive x weight, so at (y) each one holds
    # for a power of the unit x: every level is unit, as the projected
    # levels are, and I_1 is not proper, so the dimension is still an error
    F = pi_plane()
    L = F.localize([1])
    assert is_unit_filtration(L)
    assert_same_levels(L, LocalizedFiltration(F, [1]))
    assert all(L.ideal_at(n).is_unit() for n in range(1, 9))
    for G in (L, LocalizedFiltration(F, [1])):
        with pytest.raises(ValueError):
            filtration_dimension(G)


def test_localize_power_with_a_unit_base():
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    L = P.localize([1])
    assert is_unit_filtration(L)
    assert_same_levels(L, LocalizedFiltration(P, [1]))


def test_localized_table_past_its_range():
    T = TableFiltration(CTX2, [MonomialIdeal(CTX2, [(1, 1)]),
                               MonomialIdeal(CTX2, [(2, 3)])])
    L = T.localize([1])
    assert L.ideal_at(2).gens == ((3,),)
    with pytest.raises(TableRangeError):
        L.ideal_at(3)
    assert_same_levels(L, LocalizedFiltration(T, [1]))


def test_localized_tau_template_past_its_table():
    # the scenario fuzz template "ta": at (y) the tau(n) coordinate goes, and
    # every level is unit, but a level past the table is still an error
    ta = TemplateFiltration(CTX2, [("tau(n)", "0"), ("0", "1")],
                            tau={1: 1, 2: 3, 3: 4})
    L = ta.localize([1])
    assert L.ideal_at(3).is_unit()
    with pytest.raises(TableRangeError):
        L.ideal_at(4)
    assert_same_levels(L, LocalizedFiltration(ta, [1]))
    # a table with a gap, at both variables, nested and truncated
    gap = TemplateFiltration(CTX2, [("tau(n)", "n"), ("1", "2")], tau={1: 2, 3: 0})
    for S in ([0], [1]):
        assert_same_levels(gap.localize(S), LocalizedFiltration(gap, S))
        assert_same_levels(gap.truncate(2).localize(S),
                           LocalizedFiltration(gap.truncate(2), S))


MULTIPLIERS = ("1/2", "2/3", "1", "3/2", "1/3*pi", "1/4*pi")
TEMPLATE_COORDS = ("0", "1", "2", "n", "2*n+1", "n^2", "ceil(3/2*n)", "sigma(n)",
                   "tau(n)")
TAU = {1: 1, 2: 3, 3: 0, 5: 2}


@st.composite
def spec_filtrations(draw):
    """A filtration of one of the five kinds in two to four variables, its
    exponents and multipliers small enough that the projected levels up to
    n = 8 stay cheap in four variables."""
    d = draw(st.sampled_from((2, 3, 4)))
    ctx = RingContext(d)
    small = st.integers(0, {2: 3, 3: 2, 4: 1}[d])
    ideal = st.lists(st.tuples(*[small] * d), max_size=3).map(
        lambda g: MonomialIdeal(ctx, g))
    kind = draw(st.sampled_from(("power", "discrete_valued", "template", "table",
                                 "truncation")))
    truncated = kind == "truncation"
    if truncated:
        kind = draw(st.sampled_from(("power", "discrete_valued", "template", "table")))
    if kind == "power":
        F = PowerFiltration(draw(ideal.filter(MonomialIdeal.is_proper)))
    elif kind == "discrete_valued":
        # half the weights zero, so that some cuts survive localization
        weights = st.tuples(*[st.sampled_from((0, 0, 1, 2))] * d).filter(any)
        scalar = st.sampled_from(MULTIPLIERS).map(parse_scalar)
        F = DiscreteValuedFiltration(ctx, draw(st.lists(
            st.tuples(weights.map(MonomialValuation), scalar), min_size=1, max_size=3)))
    elif kind == "template":
        gen = st.tuples(*[st.sampled_from(TEMPLATE_COORDS)] * d)
        F = TemplateFiltration(ctx, draw(st.lists(gen, min_size=1, max_size=3)), TAU)
    else:
        F = TableFiltration(ctx, draw(st.lists(ideal, min_size=1, max_size=4)))
    return F.truncate(draw(st.integers(1, 3))) if truncated else F


@settings(max_examples=150)
@given(spec_filtrations(), st.sets(st.integers(0, 2), min_size=1), st.integers(1, 3))
@example(PowerFiltration(MonomialIdeal(CTX2, [(2, 1), (0, 3)])), {0}, 2)
def test_localize_matches_projected_levels(F, inner, level):
    # at every proper nonempty S the localized spec has the levels of the
    # projected parent (equal both ways, the same generators, the same
    # exception type), and so do its localization at the coordinates
    # ``inner`` that S has (else at its last) and its truncation
    d = F.ctx.dim
    for size in range(1, d):
        for S in combinations(range(d), size):
            L, oracle = F.localize(S), LocalizedFiltration(F, S)
            assert type(L) is type(F) or is_unit_filtration(L), (spec(F), S)
            assert_same_levels(L, oracle)
            T = [i for i in inner if i < size] or [size - 1]
            assert_same_levels(L.localize(T), oracle.localize(T))
            assert_same_levels(L.truncate(level), oracle.truncate(level))


@settings(max_examples=150)
@given(spec_filtrations(), st.sets(st.integers(0, 3)))
@example(PowerFiltration(MonomialIdeal(CTX2, [(1, 0)])), set())
def test_saturation_lengths_are_finite_integers(F, coords):
    # sat(I_n)/I_n = H^0_m(R/I_n) has finite length at every level of every
    # kind, localized (at the drawn coordinates that F has) or not, so every
    # entry of the sequence is an integer >= 0; the levels end where a table
    # or a tau template does
    coords = [i for i in coords if i < F.ctx.dim]
    G = F.localize(coords) if coords else F
    N = 0
    for n in range(1, 6):
        try:
            G.ideal_at(n)
        except TableRangeError:
            break
        N = n
    entries = sat_quotient_sequence(G, N).entries
    assert [n for n, _ in entries] == list(range(1, N + 1))
    assert all(type(lam) is int and lam >= 0 for _, lam in entries), (spec(G), entries)


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
    with pytest.raises(ValueError, match="positive integers"):
        sigma_surrogate(0)


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
    # without a table the template used to build and fail only when
    # evaluated; an empty table is a table, so its levels are out of range
    with pytest.raises(ValueError, match="without a tau table"):
        TemplateFiltration(CTX2, [("2", "0"), ("1", "tau(n)")])
    T = TemplateFiltration(CTX2, [("2", "0"), ("1", "tau(n)")], tau={})
    with pytest.raises(TableRangeError):
        T.ideal_at(1)
    # the lookup checks its own range; the template checks it first
    with pytest.raises(TableRangeError, match="no entry for n=3"):
        parse_expression("tau(n)", {1: 2}).eval(3)
    # a table value is an exponent, checked when the template is built
    for bad in (-1, True, 1.0, "2", None):
        with pytest.raises(ValueError, match="tau values are integers >= 0"):
            TemplateFiltration(CTX2, [("2", "0"), ("1", "tau(n)")], tau={1: 1, 2: bad})
    assert TemplateFiltration(CTX2, [("2", "0"), ("1", "tau(n)")],
                              tau={1: 0}).ideal_at(1).gens == ((1, 0),)


def test_affine_forms():
    T = TemplateFiltration(CTX2, [("n+1", "0"), ("n", "1")])
    assert T.generator_affine_forms() == (((1, 1), (0, 0)), ((1, 0), (0, 1)))
    S = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    forms = S.generator_affine_forms()
    assert forms[0] == ((0, 2), (0, 0))
    assert forms[1][1] is None
    # a form certifies an affine separation, so it must be exact: ceil(k*n)
    # has one only for a positive integer k
    expected = {"ceil(3*n)": (3, 0), "ceil(3/2*n)": None, "ceil(pi*n)": None,
                "n^3": None, "sigma(n)": None, "n*sigma(n)": None,
                "tau(n)": None, "5": (0, 5), "2*n+3": (2, 3)}
    for text, form in expected.items():
        U = TemplateFiltration(CTX2, [(text, "0")], tau={1: 1})
        assert U.generator_affine_forms() == ((form, (0, 0)),), text
