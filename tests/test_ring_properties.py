"""Property tests: the two-variable staircase kernel equals the reference
kernel in ``ring_reference`` on random ideals, zero and unit ideals
included, and saturation obeys its laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ref_intersect,
    ref_quotient_length_2d,
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
