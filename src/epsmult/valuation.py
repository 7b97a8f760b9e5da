"""Monomial (weight vector) valuations and exact ceiling arithmetic for
rational and certified irrational multipliers.

An ``ExactScalar`` is either a rational or a positive rational multiple of
``pi``.  Pi carries certified rational brackets lo < pi < hi produced by an
alternating-series expansion whose tail bound is exact, so ``ceil(n * a)``
can be certified rather than float-rounded: the bracket is refined until
both endpoints round up to the same integer, which simultaneously certifies
that n*a is not itself an integer.

A valuation ideal {x^a : weights . a >= n} is one call to the ring's
weight-inequality builder; this module builds no ideals of its own.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ._record import Record
from .ring import MonomialIdeal, RingContext, _weight_ideal
from .textio import fraction_str

__all__ = [
    "ExactScalar",
    "MonomialValuation",
    "CertificationError",
    "parse_scalar",
    "ceil_mul",
    "valuation_ideal",
    "valuation_of_ideal",
]


class CertificationError(ArithmeticError):
    """Refinement budget exhausted: the multiplier is numerically too close
    to a rational at this n for the configured precision."""


def _atan_inv_brackets(x, terms):
    """Strict rational brackets of arctan(1/x) (x >= 2, terms >= 1): the
    alternating partial sums of K = terms and K + 1 terms, s/(L * x^(2K-1))
    and S/(L * x^(2K+1)) with L = lcm(1, 3, ..., 2K+1), each reduced once."""
    L, S = math.lcm(*range(1, 2 * terms + 2, 2)), 0
    for k in range(terms + 1):
        s, S = S, S * x * x + (-1) ** k * (L // (2 * k + 1))
    s, nxt = Fraction(s, L * x ** (2 * terms - 1)), Fraction(S, L * x ** (2 * terms + 1))
    return (s, nxt) if s < nxt else (nxt, s)


_PI_CACHE: dict[int, tuple[int, int, int, int]] = {}


def _pi_brackets(digits):
    """Certified lo < pi < hi with hi - lo < 10^-digits (Machin's formula), as
    the integers (lo.numerator, lo.denominator, hi.numerator, hi.denominator);
    cached per precision level.

    The term counts always meet the width.  A bracket of arctan(1/x) from K
    and K + 1 terms is as wide as the last term, 1/((2K+1) x^(2K+1)), so
    hi - lo = 16/((2K+1) 5^(2K+1)) + 4/((2L+1) 239^(2L+1)) for K = t5 and
    L = t239, each at least 2.  With D = digits, K >= 0.72 D + 1.01 and
    L >= 0.22 D + 1.01, so 5^(2K+1) > 125 * 5^(1.44 D) > 125 * 10^D (as
    1.44 log10(5) > 1.006) and 239^(2L+1) > 239^3 * 239^(0.44 D) >
    10^(7+D) (as 0.44 log10(239) > 1.04); hence
    hi - lo < (16/625 + 4/(5 * 10^7)) 10^-D < 10^-D / 30."""
    if digits in _PI_CACHE:
        return _PI_CACHE[digits]
    t5 = 72 * digits // 100 + 2
    t239 = 22 * digits // 100 + 2
    lo5, hi5 = _atan_inv_brackets(5, t5)
    lo239, hi239 = _atan_inv_brackets(239, t239)
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    _PI_CACHE[digits] = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return _PI_CACHE[digits]


_DIGITS = tuple(16 << k for k in range(24))  # the precisions a refinement doubles through


class ExactScalar(Record):
    """A positive multiplier: ``coeff`` times an optional named constant."""

    coeff: Fraction
    constant: str | None = None

    def __post_init__(self):
        if isinstance(self.coeff, (float, bool)):  # 0.1 is not 1/10
            raise TypeError(f"a multiplier needs an exact coefficient, got {self.coeff!r}")
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff <= 0:
            raise ValueError("multipliers must be positive")
        if self.constant not in (None, "pi"):
            raise ValueError(f"unknown constant {self.constant!r}")

    @property
    def is_rational(self):
        return self.constant is None

    def brackets(self, digits):
        """Certified lo < value < hi; successive digit levels shrink strictly
        (rational scalars report a zero-width bracket)."""
        if self.is_rational:
            return self.coeff, self.coeff
        lo_num, lo_den, hi_num, hi_den = _pi_brackets(digits)
        return self.coeff * Fraction(lo_num, lo_den), self.coeff * Fraction(hi_num, hi_den)

    def __str__(self):
        if self.is_rational:
            return fraction_str(self.coeff)
        return self.constant if self.coeff == 1 else f"{fraction_str(self.coeff)}*{self.constant}"


_SCALAR_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+(?:/0*[1-9]\d*)?)\s*(?:\*\s*(?P<const>[A-Za-z]+))?|(?P<lone>[A-Za-z]+))\s*$")


def parse_scalar(text):
    """Scalar literals: ``"3/2"``, ``"2"``, ``"pi"``, ``"2*pi"``; a zero
    denominator is a bad literal."""
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError(f"bad scalar literal {text!r}")
    if m.group("lone") is not None:
        return ExactScalar(Fraction(1), m.group("lone"))
    coeff = Fraction(m.group("coeff"))
    return ExactScalar(coeff, m.group("const"))


def _bracket_ends(a: ExactScalar, n, digits):
    """The integers (lo_num, lo_den, hi_num, hi_den) of the ``digits``-digit
    bracket lo_num/lo_den < n*a < hi_num/hi_den, for a = p/q times pi."""
    pn, q = a.coeff.numerator * n, a.coeff.denominator
    lo_num, lo_den, hi_num, hi_den = _pi_brackets(digits)
    return pn * lo_num, q * lo_den, pn * hi_num, q * hi_den


def ceil_mul(a: ExactScalar, n, max_digits=300):
    """Exact ceil(n*a) for a positive scalar and positive integer n.

    For a multiple of pi the bracket is refined until both endpoints have
    the same round-up, which also certifies n*a is not an integer; if the
    budget runs out a :class:`CertificationError` is raised.  With a = p/q,
    or p/q times pi, ceil(n*p/q) and the round-up of the endpoint
    n*p*lo/q are each one integer floor division (of n*p by q, and of
    n*p*lo.numerator by q*lo.denominator), so no rational is formed or
    normalised.
    """
    if type(n) is not int or n <= 0:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if a.is_rational:
        return -(-a.coeff.numerator * n // a.coeff.denominator)
    for digits in _DIGITS:
        if digits > max_digits:
            break
        lo_num, lo_den, hi_num, hi_den = _bracket_ends(a, n, digits)
        c = -(-lo_num // lo_den)
        if c == -(-hi_num // hi_den):
            return c
    raise CertificationError(
        f"could not certify ceil({n} * {a}) within {max_digits} digits")


def _ceil_range(a: ExactScalar, N):
    """[ceil_mul(a, n) for n = 1..N], certifying each n against the one
    16-digit bracket lo < a < hi read once: c = ceil(n*lo) is ceil(n*hi)
    exactly when n*hi <= c, as n*hi > c - 1.  An n it leaves open goes to
    ``ceil_mul``, which refines further or raises."""
    ns = range(1, N + 1)
    if a.is_rational:
        p, q = a.coeff.numerator, a.coeff.denominator
        return [-(-p * n // q) for n in ns]
    lo_num, lo_den, hi_num, hi_den = _bracket_ends(a, 1, _DIGITS[0])
    return [c if n * hi_num <= c * hi_den else ceil_mul(a, n)
            for n, c in zip(ns, [-(-n * lo_num // lo_den) for n in ns])]


def ceil_defect_lower_bound(a: ExactScalar, n, max_digits=300):
    """Certified positive rational lower bound of ceil(n*a) - n*a for an
    irrational scalar (used to size nilpotency searches): c - n*p*hi/q over
    the denominator q*hi.denominator, for a = p/q times pi."""
    if a.is_rational:
        raise ValueError("defect bound is for irrational scalars")
    c = ceil_mul(a, n, max_digits)
    for digits in _DIGITS:
        if digits > max_digits:
            break
        _, _, hi_num, hi_den = _bracket_ends(a, n, digits)
        bound = c * hi_den - hi_num
        if bound > 0:
            return Fraction(bound, hi_den)
    raise CertificationError(
        f"could not certify the ceiling defect at n={n} within {max_digits} digits")


class MonomialValuation(Record):
    """Weight-vector valuation: v(x^a) = weights . a.

    Zero weights are allowed so valuations centered at non-maximal monomial
    primes are first class; at least one weight must be positive.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if any(type(c) is not int or c < 0 for c in w):
            raise ValueError(f"weights must be nonnegative integers, got {w!r}")
        if not any(c > 0 for c in w):
            raise ValueError("at least one weight must be positive")

    @property
    def dim(self):
        return len(self.weights)

    def value(self, exp):
        return sum(w * e for w, e in zip(self.weights, exp))

    def center(self):
        """Indices of the variables generating the center prime."""
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


def valuation_ideal(v: MonomialValuation, n, ctx: RingContext):
    """Minimal generators of {x^a : weights . a >= n} for an integer level n;
    n <= 0 gives the unit ideal.  Minimal points are zero on zero-weight
    coordinates."""
    if ctx.dim != v.dim:
        raise ValueError("valuation and ring dimension differ")
    if type(n) is not int:
        raise ValueError(f"valuation ideal levels are integers, got {n!r}")
    return _weight_ideal(((v.weights, n),), ctx)


def valuation_of_ideal(v: MonomialValuation, I: MonomialIdeal):
    """min over generators of weights . generator (the valuation of I)."""
    if I.is_zero():
        raise ValueError("the zero ideal has no valuation")
    if I.dim != v.dim:
        raise ValueError("valuation and ideal dimension differ")
    return min(v.value(g) for g in I.gens)
