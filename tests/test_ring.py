import random

import pytest

from epsmult.ring import (
    DimensionMismatchError,
    IdealDomainError,
    MonomialIdeal,
    RingContext,
    _ideal,
    _weight_ideal,
    colength,
    colon,
    dim_quotient,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    localize,
    maximal_power,
    quotient_length,
    saturate,
)
from ring_reference import brute_quotient_length, ref_ideal, saturate_by_colon

CTX2 = RingContext(2)
CTX3 = RingContext(3)
CTX4 = RingContext(4)


def I2(*gens):
    return MonomialIdeal(CTX2, gens)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def random_ideal(rng, ctx, max_gens=4, max_exp=6):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(ctx.dim))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if any(g)] or [(1,) * ctx.dim]
    return MonomialIdeal(ctx, gens)


# ---------------------------------------------------------------------------
# minimalize / contains
# ---------------------------------------------------------------------------


def test_minimalize_examples():
    assert I2((2, 0), (1, 1), (2, 1)).gens == ((1, 1), (2, 0))
    assert MonomialIdeal(CTX2, []).is_zero()
    assert I2((4, 0), (3, 1), (2, 1), (0, 2)).gens == ((0, 2), (2, 1), (4, 0))


def test_minimalize_idempotent_and_order_independent():
    rng = random.Random(7)
    for _ in range(50):
        ctx = CTX2 if rng.random() < 0.5 else CTX3
        pts = [tuple(rng.randint(0, 5) for _ in range(ctx.dim))
               for _ in range(rng.randint(1, 8))]
        I = MonomialIdeal(ctx, pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert MonomialIdeal(ctx, shuffled) == I
        assert MonomialIdeal(ctx, I.gens) == I
        # antichain: no generator divides another
        for a in I.gens:
            for b in I.gens:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))


def test_contains_examples():
    I = I2((2, 0), (1, 1))
    assert I.contains((3, 1))
    assert not I.contains((0, 5))
    X = intersect(I2((4, 0)), maximal_power(CTX2, 7))
    assert X.contains((4, 3))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        I2((1, 0)).contains((1, 0, 0))


def test_contains_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        I2((1, 0)).contains((2, -1))
    with pytest.raises(ValueError, match="negative"):
        MonomialIdeal(CTX3, [(0, 0, 1)]).contains((-1, 0, 2))


# ---------------------------------------------------------------------------
# sum / product / power / intersect / colon
# ---------------------------------------------------------------------------


def test_combine_examples():
    m = MonomialIdeal.maximal(CTX2)
    assert ideal_product(m, m) == maximal_power(CTX2, 2)
    assert ideal_sum(I2((2, 0)), I2((0, 2))).gens == ((0, 2), (2, 0))
    assert ideal_power(maximal_power(CTX2, 2), 2) == maximal_power(CTX2, 4)
    assert ideal_power(I2((1, 1)), 0).is_unit()


def test_maximal_power_rejects_negative_or_non_integer_exponents():
    # k = -1 used to give (x^-1) in one variable and the zero ideal in two
    for ctx in (RingContext(1), CTX2, CTX3):
        for k in (-1, 2.5, True):
            with pytest.raises(ValueError):
                maximal_power(ctx, k)


def test_product_contains_generator_sums():
    rng = random.Random(11)
    for _ in range(25):
        I = random_ideal(rng, CTX2)
        J = random_ideal(rng, CTX2)
        P = ideal_product(I, J)
        for a in I.gens:
            for b in J.gens:
                assert P.contains(tuple(x + y for x, y in zip(a, b)))


def test_sum_of_products_joins_the_slice_below():
    # the one slice product of U*V at x^3 is S_0*T_3, and S_2*T_0 below it
    # is not contained in it; the slice at x^3 must join both, or x^5*z^3,
    # which x^2*z^3 divides, would list as a generator.  The operands are
    # written as values, so that no kernel sum builds them
    U = _ideal(CTX3, ((0, ((2, 0),)), (2, ((0, 1), (2, 0)))))  # (y^2, x^2*z)
    V = _ideal(CTX3, ((0, ((0, 2),)), (3, ((0, 2), (1, 0)))))  # (z^2, x^3*y)
    assert ideal_product(U, V).gens == ((0, 2, 2), (2, 0, 3), (3, 3, 0), (5, 1, 1))


def test_intersect_examples():
    assert intersect(I2((1, 0)), I2((0, 1))).gens == ((1, 1),)
    X = intersect(I2((4, 0)), maximal_power(CTX2, 7))
    assert X.gens == ((4, 3), (5, 2), (6, 1), (7, 0))
    I = I2((2, 0), (1, 1))
    assert intersect(I, MonomialIdeal.unit(CTX2)) == I


def test_colon_examples():
    I = I2((2, 0), (1, 1))
    assert colon(I, I2((1, 0))).gens == ((0, 1), (1, 0))
    assert colon(I, MonomialIdeal.maximal(CTX2)).gens == ((1, 0),)
    assert colon(I, MonomialIdeal.unit(CTX2)) == I
    with pytest.raises(IdealDomainError):
        colon(I, MonomialIdeal.zero(CTX2))
    assert colon(MonomialIdeal.zero(CTX2), I).is_zero()


@pytest.mark.parametrize("op", [ideal_sum, ideal_product, intersect, colon,
                                quotient_length, MonomialIdeal.contains_ideal],
                         ids=lambda op: op.__name__)
def test_binary_operations_reject_ideals_of_different_rings(op):
    I, J = I2((2, 0), (1, 1)), MonomialIdeal(CTX3, [(1, 0, 0), (0, 2, 1)])
    for left, right in ((I, J), (J, I)):
        with pytest.raises(DimensionMismatchError, match=r"dimension \d and \d"):
            op(left, right)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturate_examples():
    assert saturate(I2((2, 0), (1, 1))).gens == ((1, 0),)
    ctx1 = RingContext(1)
    assert saturate(MonomialIdeal(ctx1, [(3,)])).is_unit()
    assert saturate(maximal_power(CTX2, 3)).is_unit()


def test_saturate_matches_iterated_colon():
    rng = random.Random(23)
    for _ in range(40):
        ctx = CTX2 if rng.random() < 0.6 else CTX3
        I = random_ideal(rng, ctx)
        assert saturate(I) == saturate_by_colon(I)


def test_saturate_extensive_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        I = random_ideal(rng, CTX3)
        S = saturate(I)
        assert S.contains_ideal(I)
        assert saturate(S) == S


def test_saturated_at_non_maximal_primes():
    # prime ideals other than m are already saturated
    assert saturate(I2((1, 0))) == I2((1, 0))
    P = MonomialIdeal(CTX3, [(1, 0, 0), (0, 1, 0)])
    assert saturate(P) == P


# ---------------------------------------------------------------------------
# lengths
# ---------------------------------------------------------------------------


def test_quotient_length_examples():
    assert quotient_length(I2((1, 0)), I2((2, 0), (1, 1))) == 1
    X = intersect(I2((4, 0)), maximal_power(CTX2, 7))
    assert quotient_length(I2((4, 0)), X) == 6
    assert quotient_length(I2((1, 0)), I2((2, 0))) is None
    with pytest.raises(IdealDomainError):
        quotient_length(I2((2, 0)), I2((1, 0)))  # not I <= J
    line = RingContext(1)
    with pytest.raises(IdealDomainError, match="I contained in J"):
        quotient_length(MonomialIdeal(line, [(3,)]), MonomialIdeal(line, [(1,)]))


def test_quotient_length_rejects_i_outside_j_past_an_infinite_slice():
    # the slice at x^0 makes J/I infinite (J has y^2 there, I nothing), and
    # only the slice at x^1, where I has 1 and J still y^2, shows I not <= J;
    # the length walk checks containment, so it must not stop at infinity
    with pytest.raises(IdealDomainError):
        quotient_length(I2((0, 2)), I2((1, 0)))
    # the same one variable down, and inside a slice of a slice
    with pytest.raises(IdealDomainError):
        quotient_length(MonomialIdeal(CTX3, [(0, 0, 2)]), MonomialIdeal(CTX3, [(1, 0, 0)]))
    with pytest.raises(IdealDomainError):
        quotient_length(MonomialIdeal(CTX3, [(0, 0, 2)]),
                        MonomialIdeal(CTX3, [(0, 1, 0), (1, 0, 3)]))
    # contained, infinite: None, as before
    assert quotient_length(I2((0, 2)), I2((1, 2))) is None


def test_colength_examples():
    assert colength(maximal_power(CTX2, 2)) == 3
    assert colength(I2((2, 0), (1, 1), (0, 3))) == 4
    assert colength(I2((1, 0))) is None


def test_colength_maximal_powers_closed_form():
    for k in range(1, 51):
        assert colength(maximal_power(CTX2, k)) == k * (k + 1) // 2
    for k in range(1, 9):
        assert colength(maximal_power(CTX3, k)) == k * (k + 1) * (k + 2) // 6


def test_quotient_length_against_enumeration_oracle():
    rng = random.Random(101)
    checked_finite = 0
    trials = 0
    while checked_finite < 100 and trials < 500:
        trials += 1
        ctx = CTX2 if rng.random() < 0.5 else CTX3
        J = random_ideal(rng, ctx, max_gens=3, max_exp=4)
        style = trials % 3
        if style == 0:
            # guaranteed finite: chop J below a degree
            I = intersect(J, maximal_power(ctx, rng.randint(1, 8)))
        elif style == 1:
            I = ideal_product(J, random_ideal(rng, ctx, max_gens=2, max_exp=3))
        else:
            I = intersect(J, random_ideal(rng, ctx, max_gens=3, max_exp=4))
        got = quotient_length(J, I)
        finite_expected = saturate(I).contains_ideal(J)
        assert (got is not None) == finite_expected
        if got is not None:
            assert got == brute_quotient_length(J, I)
            checked_finite += 1
    assert checked_finite == 100


def test_quotient_length_1d_matches_enumeration():
    ctx1 = RingContext(1)
    for a in range(6):
        J = MonomialIdeal(ctx1, [(a,)])
        for b in range(a, 9):
            I = MonomialIdeal(ctx1, [(b,)])
            assert quotient_length(J, I) == b - a == brute_quotient_length(J, I)
        assert quotient_length(J, MonomialIdeal.zero(ctx1)) is None
    assert quotient_length(MonomialIdeal.zero(ctx1), MonomialIdeal.zero(ctx1)) == 0
    assert colength(MonomialIdeal(ctx1, [(7,)])) == 7


def test_quotient_length_2d_matches_general_path():
    # embed each two-variable pair in three variables, the new zero
    # coordinate at every index; the slices cut along the first coordinate,
    # so only index 0 leaves a single slice
    rng = random.Random(55)
    for _ in range(20):
        J2 = random_ideal(rng, CTX2, max_gens=3, max_exp=4)
        I2_ = intersect(J2, random_ideal(rng, CTX2, max_gens=3, max_exp=4))
        v2 = quotient_length(J2, I2_)
        if v2 is not None:
            assert v2 == brute_quotient_length(J2, I2_)
        for i in range(3):
            J3 = MonomialIdeal(CTX3, [g[:i] + (0,) + g[i:] for g in J2.gens])
            I3 = MonomialIdeal(CTX3, [g[:i] + (0,) + g[i:] for g in I2_.gens])
            # adding a variable makes every nonzero quotient infinite
            if v2 == 0:
                assert quotient_length(J3, I3) == 0
            else:
                assert quotient_length(J3, I3) is None


def test_quotient_length_4d_against_enumeration_oracle():
    rng = random.Random(404)
    checked_finite = 0
    trials = 0
    while checked_finite < 20 and trials < 200:
        trials += 1
        J = random_ideal(rng, CTX4, max_gens=3, max_exp=3)
        if trials % 2:
            I = intersect(J, maximal_power(CTX4, rng.randint(1, 6)))
        else:
            I = ideal_product(J, random_ideal(rng, CTX4, max_gens=3, max_exp=3))
        got = quotient_length(J, I)
        assert (got is not None) == saturate(I).contains_ideal(J)
        if got is not None:
            assert got == brute_quotient_length(J, I)
            checked_finite += 1
    assert checked_finite == 20


# ---------------------------------------------------------------------------
# localization and dimension
# ---------------------------------------------------------------------------


def test_localize_examples():
    X = intersect(I2((4, 0)), maximal_power(CTX2, 7))
    assert localize(X, [0]).gens == ((4,),)
    assert localize(I2((2, 0), (1, 1)), [0]).gens == ((1,),)
    I = I2((2, 0), (1, 1))
    assert localize(I, [0, 1]) == I
    with pytest.raises(ValueError, match="nonempty variable subset"):
        localize(I, [])


def test_localize_commutes_with_intersection():
    rng = random.Random(77)
    for _ in range(30):
        I = random_ideal(rng, CTX3)
        J = random_ideal(rng, CTX3)
        S = sorted(rng.sample(range(3), rng.randint(1, 3)))
        assert localize(intersect(I, J), S) == intersect(localize(I, S),
                                                         localize(J, S))


def test_dim_quotient_examples():
    assert dim_quotient(I2((1, 0))) == 1
    assert dim_quotient(maximal_power(CTX2, 2)) == 0
    assert dim_quotient(MonomialIdeal(CTX3, [(1, 1, 0), (1, 0, 1)])) == 2
    with pytest.raises(IdealDomainError):
        dim_quotient(MonomialIdeal.unit(CTX2))
    with pytest.raises(IdealDomainError):
        dim_quotient(MonomialIdeal.zero(CTX2))


def test_degenerate_values_are_canonical():
    for ctx in (RingContext(1), CTX2, CTX3):
        m = MonomialIdeal.maximal(ctx)
        assert m == MonomialIdeal(ctx, reversed(m.gens))
        assert hash(m) == hash(MonomialIdeal(ctx, m.gens))
    assert MonomialIdeal.zero(CTX2).gens == ()
    assert MonomialIdeal.unit(CTX2).gens == ((0, 0),)
    assert MonomialIdeal(CTX2, [(0, 0), (2, 1)]).is_unit()
    assert (I2((1, 0)) == 3) is False
    assert ideal_product(MonomialIdeal.zero(CTX2), I2((1, 0))).is_zero()
    assert intersect(MonomialIdeal.zero(CTX2), I2((1, 0))).is_zero()


def test_ideal_power_needs_an_integer_exponent():
    # 2.5 used to raise a bare TypeError from range(); maximal_power and
    # valuation_ideal raise ValueError for the same input
    for n in (2.5, -1, "2", True):
        with pytest.raises(ValueError, match="integer n >= 0"):
            ideal_power(I2((1, 1)), n)


def test_exponents_are_exact_integers():
    # (1.5, 0) used to give an ideal of colength 3.0, True stood for 1, and
    # contains answered False for (0.5, 3)
    for gens in ([(1.5, 0), (0, 2)], [(True, 0)], [("1", 0)]):
        with pytest.raises(ValueError, match="integer entries"):
            MonomialIdeal(CTX2, gens)
    with pytest.raises(ValueError, match="integer entries"):
        I2((1, 0)).contains((0.5, 3))


def test_ring_context_needs_an_integer_dimension():
    # 2.5 used to fail with a bare TypeError while naming the variables,
    # and 2.0 was accepted as a float dimension
    for dim in (2.5, 2.0, "2", 0, -1, None, True):
        with pytest.raises(ValueError, match="integer >= 1"):
            RingContext(dim)
    assert RingContext(3).names == ("x", "y", "z")
    assert RingContext(5).names == ("x1", "x2", "x3", "x4", "x5")
    with pytest.raises(ValueError, match="variable names must be distinct"):
        RingContext(2, ("x", "x"))


# ---------------------------------------------------------------------------
# generator lists built on first read
# ---------------------------------------------------------------------------


def kernel_builders():
    """(name, build) for every kernel builder in two to four variables;
    each ``build()`` returns a fresh ideal that holds only its value.  The
    inputs are proper, so that no builder hands back an argument."""
    rng = random.Random(21)
    cases = []
    for ctx in (CTX2, CTX3, CTX4):
        d = ctx.dim
        A = ideal_sum(random_ideal(rng, ctx, max_exp=3), maximal_power(ctx, 4))
        B = random_ideal(rng, ctx, max_exp=3)
        e1 = (1,) + (0,) * (d - 1)
        cases += [
            (f"product d={d}", lambda A=A, B=B: ideal_product(A, B)),
            (f"sum d={d}", lambda A=A, B=B: ideal_sum(A, B)),
            (f"intersect d={d}", lambda A=A, B=B: intersect(A, B)),
            (f"saturate d={d}", lambda B=B: saturate(B)),
            (f"colon d={d}", lambda A=A, B=B: colon(A, B)),
            (f"weight d={d}", lambda ctx=ctx, e1=e1: _weight_ideal(
                [(e1, 2), ((1,) * len(e1), 5)], ctx)),
            (f"localize d={d}", lambda A=A, d=d: localize(A, range(1, d))
             if d > 2 else localize(A, (0, 1))),
            (f"zero d={d}", lambda A=A, ctx=ctx: ideal_product(
                A, MonomialIdeal.zero(ctx))),
        ]
    # the unit ideal from the kernel: its value is ((0, ((0, 0),)),)
    cases.append(("unit d=3", lambda: saturate(maximal_power(CTX3, 2))))
    return cases


@pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                   for name, build in kernel_builders()])
def test_unbuilt_generator_lists_agree_with_public_twins(build):
    X = build()
    twin = MonomialIdeal(X.ctx, X.gens)  # the public constructor
    ref = ref_ideal(X.ctx, X.gens)  # the oracle's own generator list
    for read_first in (False, True):
        X = build()
        assert X._gens is None
        if read_first:
            assert X.gens == ref.gens
        for Y in (twin, ref):
            assert X == Y and Y == X and not X != Y
        assert X.is_zero() == ref.is_zero()
        assert X.is_unit() == ref.is_unit()
        # equality and the two checks read the value, not a list
        assert (X._gens is None) == (not read_first)
        assert hash(X) == hash(twin) == hash(ref)
        assert repr(X) == repr(twin) == repr(ref)


def test_kernel_unit_ideal_is_its_stack():
    U = saturate(maximal_power(CTX3, 2))
    assert U._stack == ((0, ((0, 0),)),)
    assert U._gens is None and U.is_unit() and not U.is_zero()
    assert U == MonomialIdeal.unit(CTX3) and U.gens == ((0, 0, 0),)


def test_saturation_length_leaves_the_generator_list_unbuilt():
    # (x^4) meet m^9 in three variables: x^a*y^b*z^c with a >= 4 and
    # a + b + c < 9 lies in the saturation (x^4) but not in I, C(7, 3) of
    # them; measuring the quotient reads values only
    I = _weight_ideal([((1, 0, 0), 4), ((1, 1, 1), 9)], CTX3)
    assert quotient_length(saturate(I), I) == 35
    assert I._gens is None
