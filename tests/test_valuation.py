import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult import valuation
from epsmult.ring import MonomialIdeal, RingContext, ideal_product
from epsmult.valuation import (
    _DIGITS,
    CertificationError,
    ExactScalar,
    MonomialValuation,
    _atan_inv_brackets,
    _bracket_ends,
    _ceil_range,
    _pi_brackets,
    ceil_defect_lower_bound,
    ceil_mul,
    parse_scalar,
    valuation_ideal,
    valuation_of_ideal,
)
from fraction_reference import (
    ref_atan_inv_brackets,
    ref_ceil_defect_lower_bound,
    ref_ceil_mul,
)

CTX2 = RingContext(2)


def test_parse_scalar_literals():
    assert parse_scalar("3/2").coeff == Fraction(3, 2)
    assert parse_scalar("2").is_rational
    assert parse_scalar("pi").constant == "pi"
    s = parse_scalar("2*pi")
    assert s.coeff == 2 and s.constant == "pi"
    with pytest.raises(ValueError):
        parse_scalar("e^2")
    # a zero denominator used to raise ZeroDivisionError from Fraction
    for text in ("1/0", "3/0*pi", "2/00"):
        with pytest.raises(ValueError, match="bad scalar literal"):
            parse_scalar(text)
    assert parse_scalar("3/02").coeff == Fraction(3, 2)
    with pytest.raises(ValueError):
        ExactScalar(Fraction(-1))
    # pi is the one constant; any other value, a string or not, is unknown
    with pytest.raises(ValueError, match="unknown constant 'e'"):
        ExactScalar(1, "e")
    with pytest.raises(ValueError, match="unknown constant 'e'"):
        parse_scalar("e")
    with pytest.raises(ValueError, match=r"unknown constant \['pi'\]"):
        ExactScalar(1, ["pi"])
    # a rational's bracket has zero width
    half = parse_scalar("3/2")
    assert half.brackets(16) == (Fraction(3, 2), Fraction(3, 2))
    assert str(half) == "3/2"


def test_exact_scalar_rejects_float_and_bool_coefficients():
    # Fraction(0.1) is 3602879701896397/36028797018963968, whose ceiling
    # times 10 is 2, not 1; a bool is not a multiplier either
    for coeff in (0.1, 2.0, True):
        with pytest.raises(TypeError):
            ExactScalar(coeff)
        with pytest.raises(TypeError):
            ExactScalar(coeff, "pi")
    assert ExactScalar(2) == ExactScalar(Fraction(2)) == ExactScalar("2")
    assert ceil_mul(ExactScalar("1/10"), 10) == 1


def test_ceil_mul_rational_closed_form():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.randint(1, 40)
        q = rng.randint(1, 40)
        n = rng.randint(1, 60)
        assert ceil_mul(ExactScalar(Fraction(p, q)), n) == (n * p + q - 1) // q
    assert ceil_mul(parse_scalar("3/2"), 3) == 5
    assert ceil_mul(parse_scalar("2"), 5) == 10


def test_ceil_mul_needs_a_positive_integer():
    # a float or bool n used to be multiplied through, so 2.5 gave 8
    for a in (parse_scalar("pi"), parse_scalar("3/2")):
        for n in (2.5, 3.0, True, 0, -1, "2"):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                ceil_mul(a, n)
            if not a.is_rational:
                with pytest.raises(ValueError, match="n must be a positive integer"):
                    ceil_defect_lower_bound(a, n)


def test_ceil_mul_pi_against_mpmath_oracle():
    # independent certified oracle: 50-digit interval from mpmath
    import mpmath

    mpmath.mp.dps = 60
    pi_lo = Fraction(int(mpmath.floor(mpmath.pi * 10**50)), 10**50)
    pi_hi = pi_lo + Fraction(1, 10**50)
    pi = parse_scalar("pi")
    for n in range(1, 114):
        lo_c = -((-n * pi_lo.numerator) // pi_lo.denominator)
        hi_c = -((-n * pi_hi.numerator) // pi_hi.denominator)
        assert lo_c == hi_c, "oracle interval too wide"
        assert ceil_mul(pi, n) == lo_c
    assert ceil_mul(pi, 7) == 22
    assert ceil_mul(parse_scalar("2*pi"), 1) == 7


def test_pi_brackets_nested_and_shrinking():
    pi = parse_scalar("pi")
    prev = None
    for digits in (16, 32, 64, 128):
        lo, hi = pi.brackets(digits)
        assert lo < hi
        assert hi - lo < Fraction(1, 10**digits)
        if prev is not None:
            plo, phi = prev
            assert plo <= lo and hi <= phi
        prev = (lo, hi)


@pytest.mark.parametrize("x", (5, 239))
def test_atan_inv_brackets_match_the_term_by_term_sums(x):
    # one common denominator per partial sum, against a Fraction per term
    for terms in range(1, 61):
        assert _atan_inv_brackets(x, terms) == ref_atan_inv_brackets(x, terms)


def test_pi_brackets_match_the_term_by_term_sums(monkeypatch):
    # the cached integers of the first five precisions, from a cold cache,
    # against those the term-by-term sums give
    monkeypatch.setattr(valuation, "_PI_CACHE", {})
    got = [_pi_brackets(digits) for digits in _DIGITS[:5]]
    monkeypatch.setattr(valuation, "_PI_CACHE", {})
    monkeypatch.setattr(valuation, "_atan_inv_brackets", ref_atan_inv_brackets)
    assert [_pi_brackets(digits) for digits in _DIGITS[:5]] == got


def test_pi_brackets_meet_the_width_without_more_terms(monkeypatch):
    # the term counts alone give hi - lo < 10^-digits (the proof is in the
    # docstring), at every precision up to 399 digits and at each doubling
    # up to 4096
    monkeypatch.setattr(valuation, "_PI_CACHE", {})
    for digits in [*range(1, 400), *_DIGITS[:9]]:
        lo_num, lo_den, hi_num, hi_den = _pi_brackets(digits)
        lo, hi = Fraction(lo_num, lo_den), Fraction(hi_num, hi_den)
        assert lo < hi and (hi - lo) * 10**digits < Fraction(1, 30), digits


def test_ceil_mul_budget_exhaustion():
    # with an absurdly small budget near-integer multiples cannot certify
    pi = parse_scalar("pi")
    with pytest.raises(CertificationError):
        ceil_mul(pi, 113, max_digits=1)


def test_ceil_defect_lower_bound():
    with pytest.raises(ValueError, match="irrational scalars"):
        ceil_defect_lower_bound(parse_scalar("3/2"), 1)
    pi = parse_scalar("pi")
    for n in (1, 7, 113):
        d = ceil_defect_lower_bound(pi, n)
        assert 0 < d < 1
        # defect really is ceil(n pi) - n pi: compare against tight bracket
        lo, hi = pi.brackets(60)
        c = ceil_mul(pi, n)
        assert d <= c - n * lo


def _outcome(f, *args):
    """f's value, or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


# denominators of continued-fraction convergents of pi: k*pi lies within
# about 1/k' of an integer, k' the next denominator.  From 4738167652 on
# that is closer than k times the width of the 16-digit bracket, so
# ceil(k*pi) needs 32 digits.
PI_CONVERGENT_DENOMINATORS = (1, 7, 106, 113, 33102, 33215, 66317, 99532,
                              265381, 364913, 1360120, 1725033, 25510582,
                              52746197, 78256779, 131002976, 340262731,
                              811528438)
NEAR_INTEGER_MULTIPLES = (4738167652, 6701487259, 567663097408, 1142027682075)


@settings(max_examples=400)
@given(st.one_of(st.integers(1, 40), st.sampled_from(NEAR_INTEGER_MULTIPLES)),
       st.integers(1, 40),
       st.one_of(st.integers(1, 10**9),
                 st.sampled_from(PI_CONVERGENT_DENOMINATORS)),
       st.sampled_from((1, 15, 16, 20, 31, 32, 64, 100, 300)))
@example(1, 1, 113, 1)
@example(4738167652, 1, 1, 16)  # the 16-digit bracket straddles an integer
@example(4738167652, 3, 1, 32)
@example(3, 2, 99532, 300)
def test_ceil_mul_matches_fraction_reference(p, q, k, max_digits):
    # at n = q*k, n*a is p*k*pi: a convergent's near-integer when p or k is
    # one of the denominators above
    a = ExactScalar(Fraction(p, q), "pi")
    for n in {k, min(q * k, 10**9)}:
        assert _outcome(ceil_mul, a, n, max_digits) == _outcome(
            ref_ceil_mul, a, n, max_digits)
        assert _outcome(ceil_defect_lower_bound, a, n, max_digits) == _outcome(
            ref_ceil_defect_lower_bound, a, n, max_digits)


@settings(max_examples=400)
@given(st.integers(1, 10**30), st.one_of(st.integers(1, 40), st.integers(1, 10**30)),
       st.integers(1, 10**9))
@example(5, 1, 10**9)  # an integer multiplier
@example(3, 7, 7 * 10**8)  # n*a an integer
@example(10**18 + 1, 10**18, 10**9 - 1)  # just above 1
@example(10**18 - 1, 10**18, 10**9)  # just below 1
@example(1, 10**30, 10**9)  # below 1/n
def test_rational_ceil_mul_matches_fraction_reference(p, q, n):
    # the one floor division against math.ceil of the Fraction product
    a = ExactScalar(Fraction(p, q))
    assert ceil_mul(a, n) == ref_ceil_mul(a, n)


@settings(max_examples=200)
@given(st.one_of(st.integers(1, 40), st.integers(1, 10**12),
                 st.sampled_from(NEAR_INTEGER_MULTIPLES)),
       st.integers(1, 40), st.sampled_from((None, "pi")), st.integers(1, 60))
@example(3, 7, None, 60)  # a rational needs no bracket
# n*a just above an integer, with the 16-digit bracket's lower end below it:
# ceil(n*lo) is one short, and the upper end alone rejects it
@example(6701487259, 1, "pi", 3)
def test_ceil_range_matches_ceil_mul(p, q, constant, N):
    # the column of ceilings, certified against one bracket with ceil_mul
    # for what it leaves open, equals ceil_mul per n
    a = ExactScalar(Fraction(p, q), constant)
    assert _ceil_range(a, N) == [ceil_mul(a, n) for n in range(1, N + 1)]


def test_ceil_range_falls_back_past_the_first_bracket():
    # ceil(4738167652*pi) needs 32 digits, so ceil_mul refines it
    a = ExactScalar(4738167652, "pi")
    lo_num, lo_den, hi_num, hi_den = _bracket_ends(a, 1, 16)
    assert -(-lo_num // lo_den) != -(-hi_num // hi_den)
    assert _ceil_range(a, 5) == [ceil_mul(a, n) for n in range(1, 6)]


def _pi_convergent_denominator(min_digits):
    """The first continued-fraction convergent denominator of pi with at
    least ``min_digits`` digits, read off a 400-digit bracket whose two ends
    share those partial quotients."""
    lo, hi = parse_scalar("pi").brackets(400)
    lo, hi = lo - 3, hi - 3
    k0, k1 = 0, 1
    while len(str(k1)) < min_digits:
        lo, hi = 1 / hi, 1 / lo
        q = lo.numerator // lo.denominator  # the next partial quotient
        assert q == hi.numerator // hi.denominator
        lo, hi = lo - q, hi - q
        k0, k1 = k1, q * k1 + k0
    return k1


def test_ceil_range_raises_as_ceil_mul_when_the_budget_ends():
    # k*pi, k a 150-digit convergent denominator, lies within about 10^-150
    # of an integer: closer than k times the width of any bracket within the
    # 300-digit budget
    a = ExactScalar(_pi_convergent_denominator(150), "pi")
    with pytest.raises(CertificationError, match=re.escape(f"ceil(1 * {a}) within 300 digits")):
        ceil_mul(a, 1)
    assert _outcome(_ceil_range, a, 3) == _outcome(
        lambda: [ceil_mul(a, n) for n in range(1, 4)])


def test_valuation_ideal_examples():
    assert valuation_ideal(MonomialValuation((1, 0)), 3, CTX2).gens == ((3, 0),)
    assert valuation_ideal(MonomialValuation((1, 1)), 2, CTX2).gens == (
        (0, 2), (1, 1), (2, 0))
    assert valuation_ideal(MonomialValuation((1, 2)), 4, CTX2).gens == (
        (0, 2), (2, 1), (4, 0))
    assert valuation_ideal(MonomialValuation((1, 1)), 0, CTX2).is_unit()


def test_valuation_ideal_membership_characterization():
    rng = random.Random(9)
    for _ in range(30):
        w = (rng.randint(0, 3), rng.randint(1, 3))
        v = MonomialValuation(w)
        n = rng.randint(1, 12)
        I = valuation_ideal(v, n, CTX2)
        for _ in range(20):
            a = (rng.randint(0, 14), rng.randint(0, 14))
            assert I.contains(a) == (v.value(a) >= n)


def test_valuation_ideal_filtration_axiom():
    # full grid for a cheap weight, sampled grid for a mixed one
    v = MonomialValuation((1, 2))
    ideals = {n: valuation_ideal(v, n, CTX2) for n in range(1, 61)}
    for a in range(1, 31):
        for b in range(a, 31):
            assert ideals[a + b].contains_ideal(ideal_product(ideals[a], ideals[b]))
    w = MonomialValuation((2, 3))
    for a in range(1, 31, 7):
        for b in range(1, 31, 5):
            Ia = valuation_ideal(w, a, CTX2)
            Ib = valuation_ideal(w, b, CTX2)
            Iab = valuation_ideal(w, a + b, CTX2)
            assert Iab.contains_ideal(ideal_product(Ia, Ib))


def test_valuation_of_ideal_examples():
    assert valuation_of_ideal(MonomialValuation((1, 1)),
                              MonomialIdeal(CTX2, [(2, 0), (1, 1)])) == 2
    assert valuation_of_ideal(MonomialValuation((1, 2)),
                              MonomialIdeal(CTX2, [(0, 3)])) == 6
    from epsmult.ring import intersect, maximal_power
    X = intersect(MonomialIdeal(CTX2, [(4, 0)]), maximal_power(CTX2, 7))
    assert valuation_of_ideal(MonomialValuation((1, 0)), X) == 4
    with pytest.raises(ValueError):
        valuation_of_ideal(MonomialValuation((1, 0)), MonomialIdeal.zero(CTX2))
    with pytest.raises(ValueError, match="valuation and ideal dimension differ"):
        valuation_of_ideal(MonomialValuation((1, 0, 0)), X)


def test_valuation_validation():
    with pytest.raises(ValueError):
        MonomialValuation((0, 0))
    with pytest.raises(ValueError):
        MonomialValuation((-1, 2))
    assert MonomialValuation((1, 0)).center() == (0,)
    with pytest.raises(ValueError, match="valuation and ring dimension differ"):
        valuation_ideal(MonomialValuation((1, 0, 0)), 2, CTX2)
    # a level is an integer: 2.5 used to give (x^2.0) in one variable and a
    # bare TypeError in two, and True was read as 1
    for w in ((2,), (1, 1)):
        for n in (2.5, True):
            with pytest.raises(ValueError):
                valuation_ideal(MonomialValuation(w), n, RingContext(len(w)))


def test_valuation_weights_are_integers():
    # (1.5, 0) used to become (1, 0) without a word, and True was kept
    for w in ((1.5, 0), (1, Fraction(1, 2)), ("1", 0), (True, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            MonomialValuation(w)
