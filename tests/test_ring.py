import itertools
import random

import pytest

from epsmult.ring import (
    DimensionMismatchError,
    IdealDomainError,
    MonomialIdeal,
    RingContext,
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

CTX2 = RingContext(2)
CTX3 = RingContext(3)


def I2(*gens):
    return MonomialIdeal(CTX2, gens)


def saturate_by_colon(I):
    """Reference saturation: iterate I <- I : m to a fixed point."""
    m = MonomialIdeal.maximal(I.ctx)
    cur = I
    while True:
        nxt = colon(cur, m)
        if nxt == cur:
            return cur
        cur = nxt


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_quotient_length(J, I, k_cap=100):
    """Plain enumeration: find k with m^k * J <= I by checking all degree-k
    monomials directly, then count the simplex below k + maxdeg(J)."""
    d = J.dim

    def monomials_of_degree(k):
        for comp in itertools.combinations_with_replacement(range(d), k):
            e = [0] * d
            for i in comp:
                e[i] += 1
            yield tuple(e)

    for k in range(k_cap):
        if all(I.contains(tuple(a + b for a, b in zip(g, m)))
               for g in J.gens for m in monomials_of_degree(k)):
            break
    else:
        raise AssertionError("no finite k found; oracle misuse")
    bound = k + max((sum(g) for g in J.gens), default=0)
    count = 0
    for total in range(bound):
        for m in monomials_of_degree(total):
            if J.contains(m) and not I.contains(m):
                count += 1
    return count


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


# ---------------------------------------------------------------------------
# sum / product / power / intersect / colon
# ---------------------------------------------------------------------------


def test_combine_examples():
    m = MonomialIdeal.maximal(CTX2)
    assert ideal_product(m, m) == maximal_power(CTX2, 2)
    assert ideal_sum(I2((2, 0)), I2((0, 2))).gens == ((0, 2), (2, 0))
    assert ideal_power(maximal_power(CTX2, 2), 2) == maximal_power(CTX2, 4)
    assert ideal_power(I2((1, 1)), 0).is_unit()


def test_product_contains_generator_sums():
    rng = random.Random(11)
    for _ in range(25):
        I = random_ideal(rng, CTX2)
        J = random_ideal(rng, CTX2)
        P = ideal_product(I, J)
        for a in I.gens:
            for b in J.gens:
                assert P.contains(tuple(x + y for x, y in zip(a, b)))


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


def test_quotient_length_2d_matches_general_path():
    # force the generic enumeration on 2-variable input by embedding in 3 vars
    rng = random.Random(55)
    for _ in range(20):
        J2 = random_ideal(rng, CTX2, max_gens=3, max_exp=4)
        I2_ = intersect(J2, random_ideal(rng, CTX2, max_gens=3, max_exp=4))
        J3 = MonomialIdeal(CTX3, [g + (0,) for g in J2.gens])
        I3 = MonomialIdeal(CTX3, [g + (0,) for g in I2_.gens])
        v2 = quotient_length(J2, I2_)
        # adding a variable makes every nonzero quotient infinite unless zero
        if v2 == 0:
            assert quotient_length(J3, I3) == 0
        elif v2 is not None and v2 > 0:
            assert quotient_length(J3, I3) is None


# ---------------------------------------------------------------------------
# localization and dimension
# ---------------------------------------------------------------------------


def test_localize_examples():
    X = intersect(I2((4, 0)), maximal_power(CTX2, 7))
    assert localize(X, [0]).gens == ((4,),)
    assert localize(I2((2, 0), (1, 1)), [0]).gens == ((1,),)
    I = I2((2, 0), (1, 1))
    assert localize(I, [0, 1]) == I


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
    assert MonomialIdeal.zero(CTX2).gens == ()
    assert MonomialIdeal.unit(CTX2).gens == ((0, 0),)
    assert MonomialIdeal(CTX2, [(0, 0), (2, 1)]).is_unit()
    assert ideal_product(MonomialIdeal.zero(CTX2), I2((1, 0))).is_zero()
    assert intersect(MonomialIdeal.zero(CTX2), I2((1, 0))).is_zero()
