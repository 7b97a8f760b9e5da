"""Property tests: the kernel equals the reference kernel in
``ring_reference`` on random ideals, zero and unit ideals included; in two
variables the staircase paths and saturation laws, in three and four the
sweep minimalisation and the sliced length; and the multiplicity of R/I
equals a direct count of the Hilbert function."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmult.asymptotics import samuel_of_quotient
from epsmult.ring import (
    IdealDomainError,
    MonomialIdeal,
    RingContext,
    _staircase,
    ideal_product,
    intersect,
    quotient_length,
    saturate,
)
from epsmult.valuation import MonomialValuation, valuation_ideal
from ring_reference import (
    ref_contains_ideal,
    ref_ideal,
    ref_intersect,
    ref_quotient_length,
    ref_quotient_length_2d,
    ref_samuel_of_quotient,
    ref_saturate,
    ref_valuation_ideal,
    saturate_by_colon,
)

CTX2 = RingContext(2)

# deterministic examples, so that every run checks the same ideals
PROPERTY = settings(derandomize=True, deadline=None, database=None,
                    max_examples=150)

points = st.tuples(st.integers(0, 9), st.integers(0, 9))
ideals = st.one_of(
    st.just(MonomialIdeal.zero(CTX2)),
    st.just(MonomialIdeal.unit(CTX2)),
    st.lists(points, min_size=1, max_size=7).map(
        lambda gens: MonomialIdeal(CTX2, gens)),
)
weights = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)


def assert_staircase_consistent(I):
    # the cached staircase is the generators by increasing x
    assert _staircase(I) == tuple(sorted(I.gens))


@PROPERTY
@given(ideals, ideals)
def test_intersect_matches_reference(I, J):
    X = intersect(I, J)
    assert X == ref_intersect(I, J)
    assert X == intersect(J, I)
    assert_staircase_consistent(X)


@PROPERTY
@given(ideals)
def test_saturate_matches_reference_and_laws(I):
    S = saturate(I)
    assert S == ref_saturate(I) == saturate_by_colon(I)
    assert_staircase_consistent(S)
    # extensive and idempotent
    assert S.contains_ideal(I) and ref_contains_ideal(S, I)
    assert saturate(S) == S


@PROPERTY
@given(ideals, ideals)
def test_contains_ideal_matches_reference(I, J):
    assert I.contains_ideal(J) == ref_contains_ideal(I, J)
    assert I.contains_ideal(intersect(I, J))


@PROPERTY
@given(weights, st.integers(-2, 40))
def test_valuation_ideal_matches_reference(w, n):
    v = MonomialValuation(w)
    V = valuation_ideal(v, n, CTX2)
    assert V == ref_valuation_ideal(v, n, CTX2)
    assert_staircase_consistent(V)


@PROPERTY
@given(ideals, ideals, st.booleans())
def test_quotient_length_matches_reference(J, K, use_product):
    # I <= J by construction: a product or an intersection with J
    I = ideal_product(J, K) if use_product else intersect(J, K)
    assert quotient_length(J, I) == ref_quotient_length_2d(J, I)
    assert quotient_length(saturate(I), I) == ref_quotient_length_2d(
        ref_saturate(I), I)


@PROPERTY
@given(ideals, ideals)
def test_quotient_length_rejects_non_containment(J, I):
    if ref_contains_ideal(J, I):
        assert quotient_length(J, I) == ref_quotient_length_2d(J, I)
    else:
        with pytest.raises(IdealDomainError):
            quotient_length(J, I)


# d = 3 and 4: small exponents, so that ties in every coordinate are common
CTXS = {3: RingContext(3), 4: RingContext(4)}


@st.composite
def point_lists(draw, dim):
    """A shuffled exponent list with a duplicate and with ties in the first
    and in the last coordinate."""
    coord = st.integers(0, 4)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8))
    p = draw(st.sampled_from(pts))
    same_x = (p[0],) + draw(st.tuples(*[coord] * (dim - 1)))
    same_last = draw(st.tuples(*[coord] * (dim - 1))) + (p[-1],)
    return draw(st.permutations(pts + [p, same_x, same_last]))


def ideals_of(dim):
    """Zero, unit, random and m-primary ideals (random generators plus a pure
    power of each variable), so that finite nonzero lengths are common."""
    ctx = CTXS[dim]
    coord = st.integers(0, 4 if dim == 3 else 3)
    gens = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4)
    powers = st.tuples(*[st.integers(1, 4)] * dim).map(
        lambda p: [tuple(p[i] if j == i else 0 for j in range(dim))
                   for i in range(dim)])
    return st.one_of(
        st.just(MonomialIdeal.zero(ctx)),
        st.just(MonomialIdeal.unit(ctx)),
        gens.map(lambda g: MonomialIdeal(ctx, g)),
        st.tuples(gens, powers).map(lambda t: MonomialIdeal(ctx, t[0] + t[1])),
    )


def ideal_pairs(dim):
    return st.tuples(ideals_of(dim), ideals_of(dim))


high_dim_pairs = st.one_of(ideal_pairs(3), ideal_pairs(4))


@PROPERTY
@given(st.one_of(point_lists(3), point_lists(4)))
def test_sweep_minimalisation_matches_reference(pts):
    ctx = CTXS[len(pts[0])]
    assert MonomialIdeal(ctx, pts) == ref_ideal(ctx, pts)


@PROPERTY
@given(high_dim_pairs)
def test_sliced_length_matches_reference(pair):
    J, K = pair
    meet = intersect(J, K)
    # small <= big in each case; any of them may be infinite
    for big, small in ((saturate(meet), meet),
                       (J, ideal_product(J, K)),
                       (J, meet)):
        assert quotient_length(big, small) == ref_quotient_length(big, small)


@PROPERTY
@given(high_dim_pairs)
def test_sliced_length_rejects_non_containment(pair):
    J, I = pair
    if ref_contains_ideal(J, I):
        assert quotient_length(J, I) == ref_quotient_length(J, I)
    else:
        with pytest.raises(IdealDomainError):
            quotient_length(J, I)


def proper_ideals(ctx, max_exp):
    """Proper ideals: 1-5 generators with entries up to ``max_exp``, none
    of them the monomial 1."""
    gen = st.tuples(*[st.integers(0, max_exp)] * ctx.dim).filter(any)
    return st.lists(gen, min_size=1, max_size=5).map(
        lambda gens: MonomialIdeal(ctx, gens))


@PROPERTY
@given(st.one_of(proper_ideals(CTX2, 8), proper_ideals(CTXS[3], 5)))
def test_samuel_of_quotient_matches_hilbert_function(I):
    assert samuel_of_quotient(I) == ref_samuel_of_quotient(I)
