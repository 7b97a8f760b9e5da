"""Monomial (weight vector) valuations and exact ceiling arithmetic for
rational and certified irrational multipliers.

An ``ExactScalar`` is either a rational or a positive rational multiple of a
shipped constant (currently ``pi``).  Constants carry certified rational
brackets lo < value < hi produced by an alternating-series expansion whose
tail bound is exact, so ``ceil(n * a)`` can be certified rather than
float-rounded: the bracket is refined until both endpoints round up to the
same integer, which simultaneously certifies that n*a is not itself an
integer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .ring import MonomialIdeal, RingContext

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
    """Strict rational brackets of arctan(1/x) from consecutive alternating
    partial sums (x >= 2, terms >= 1)."""
    s = Fraction(0)
    sign = 1
    for k in range(terms):
        s += Fraction(sign, (2 * k + 1) * x ** (2 * k + 1))
        sign = -sign
    nxt = s + Fraction(sign, (2 * terms + 1) * x ** (2 * terms + 1))
    return (s, nxt) if s < nxt else (nxt, s)


_PI_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def _pi_brackets(digits):
    """Certified lo < pi < hi with hi - lo < 10^-digits (Machin's formula).

    Results are cached per precision level; entries are idempotent, so the
    cache is safe for concurrent readers.
    """
    cached = _PI_CACHE.get(digits)
    if cached is not None:
        return cached
    target = Fraction(1, 10**digits)
    # terms chosen from the tail bound of each series, then verified
    t5 = max(2, int(0.72 * digits) + 2)
    t239 = max(2, int(0.22 * digits) + 2)
    while True:
        lo5, hi5 = _atan_inv_brackets(5, t5)
        lo239, hi239 = _atan_inv_brackets(239, t239)
        lo = 16 * lo5 - 4 * hi239
        hi = 16 * hi5 - 4 * lo239
        if hi - lo < target:
            break
        t5 += 4
        t239 += 2
    _PI_CACHE[digits] = (lo, hi)
    return lo, hi


_CONSTANTS = {"pi": _pi_brackets}


@dataclass(frozen=True)
class ExactScalar:
    """A positive multiplier: ``coeff`` times an optional named constant."""

    coeff: Fraction
    constant: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff <= 0:
            raise ValueError("multipliers must be positive")
        if self.constant is not None and self.constant not in _CONSTANTS:
            raise ValueError(f"unknown constant {self.constant!r}")

    @property
    def is_rational(self):
        return self.constant is None

    def brackets(self, digits):
        """Certified lo < value < hi; successive digit levels shrink strictly
        (rational scalars report a zero-width bracket)."""
        if self.is_rational:
            return self.coeff, self.coeff
        lo, hi = _CONSTANTS[self.constant](digits)
        return self.coeff * lo, self.coeff * hi

    def __str__(self):
        if self.is_rational:
            from .textio import fraction_str
            return fraction_str(self.coeff)
        from .textio import fraction_str
        return self.constant if self.coeff == 1 else f"{fraction_str(self.coeff)}*{self.constant}"


_SCALAR_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<const>[A-Za-z]+))?|(?P<lone>[A-Za-z]+))\s*$")


def parse_scalar(text):
    """Scalar literals: ``"3/2"``, ``"2"``, ``"pi"``, ``"2*pi"``."""
    m = _SCALAR_RE.match(text)
    if not m:
        raise ValueError(f"bad scalar literal {text!r}")
    if m.group("lone") is not None:
        return ExactScalar(Fraction(1), m.group("lone"))
    coeff = Fraction(m.group("coeff"))
    return ExactScalar(coeff, m.group("const"))


def ceil_mul(a: ExactScalar, n, max_digits=300):
    """Exact ceil(n*a) for a positive scalar and positive integer n.

    For interval constants the bracket is refined until both endpoints have
    the same round-up, which also certifies n*a is not an integer; if the
    budget runs out a :class:`CertificationError` is raised.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    if a.is_rational:
        return math.ceil(a.coeff * n)
    digits = 16
    while digits <= max_digits:
        lo, hi = a.brackets(digits)
        clo = math.ceil(lo * n)
        chi = math.ceil(hi * n)
        if clo == chi:
            return clo
        digits *= 2
    raise CertificationError(
        f"could not certify ceil({n} * {a}) within {max_digits} digits")


def ceil_defect_lower_bound(a: ExactScalar, n, max_digits=300):
    """Certified positive rational lower bound of ceil(n*a) - n*a for an
    irrational scalar (used to size nilpotency searches)."""
    if a.is_rational:
        raise ValueError("defect bound is for irrational scalars")
    c = ceil_mul(a, n, max_digits)
    digits = 16
    while digits <= max_digits:
        _, hi = a.brackets(digits)
        bound = c - hi * n
        if bound > 0:
            return bound
        digits *= 2
    raise CertificationError(
        f"could not certify the ceiling defect at n={n} within {max_digits} digits")


@dataclass(frozen=True)
class MonomialValuation:
    """Weight-vector valuation: v(x^a) = weights . a.

    Zero weights are allowed so valuations centered at non-maximal monomial
    primes are first class; at least one weight must be positive.
    """

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(c) for c in self.weights)
        object.__setattr__(self, "weights", w)
        if any(c < 0 for c in w):
            raise ValueError("weights must be nonnegative")
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
    """Minimal generators of {x^a : weights . a >= n}; n <= 0 gives the unit
    ideal.  Minimal points are zero on zero-weight coordinates."""
    if ctx.dim != v.dim:
        raise ValueError("valuation and ring dimension differ")
    if n <= 0:
        return MonomialIdeal.unit(ctx)
    pos = v.center()
    w = v.weights
    pts = []

    def rec(idx, acc, remaining):
        i = pos[idx]
        if idx == len(pos) - 1:
            e = -(-remaining // w[i]) if remaining > 0 else 0
            pts.append(acc + ((i, e),))
            return
        top = -(-remaining // w[i]) if remaining > 0 else 0
        for e in range(top + 1):
            rec(idx + 1, acc + ((i, e),), remaining - e * w[i])

    rec(0, (), n)
    gens = []
    for assignment in pts:
        e = [0] * ctx.dim
        for i, c in assignment:
            e[i] = c
        gens.append(tuple(e))
    return MonomialIdeal(ctx, gens)


def valuation_of_ideal(v: MonomialValuation, I: MonomialIdeal):
    """min over generators of weights . generator (the valuation of I)."""
    if I.is_zero():
        raise ValueError("the zero ideal has no valuation")
    if I.dim != v.dim:
        raise ValueError("valuation and ideal dimension differ")
    return min(v.value(g) for g in I.gens)
