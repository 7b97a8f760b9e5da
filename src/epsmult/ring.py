"""Exact arithmetic of monomial ideals in a polynomial ring localized at the
maximal monomial ideal.

A monomial x^a is identified with its exponent vector ``a`` (a tuple of
nonnegative Python ints, so exponents may grow without bound), an ideal with
the divisibility antichain of its minimal generators in a fixed canonical
order (graded lexicographic).  Lengths of finite quotients are lattice point
counts of staircase regions.

All values are immutable and every operation is pure; the module is safe to
share between concurrent workers without synchronization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = [
    "RingContext",
    "MonomialIdeal",
    "DimensionMismatchError",
    "IdealDomainError",
    "divides",
    "ideal_sum",
    "ideal_product",
    "ideal_power",
    "intersect",
    "colon",
    "saturate",
    "quotient_length",
    "colength",
    "localize",
    "dim_quotient",
    "maximal_power",
]


class DimensionMismatchError(ValueError):
    """Operands live in rings of different dimension."""


class IdealDomainError(ValueError):
    """An operation received a zero/unit ideal it cannot accept."""


_DEFAULT_NAMES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class RingContext:
    """Ambient ring data: dimension and variable names (names are I/O only)."""

    dim: int
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ring dimension must be at least 1")
        names = self.names
        if not names:
            if self.dim <= len(_DEFAULT_NAMES):
                names = _DEFAULT_NAMES[: self.dim]
            else:
                names = tuple(f"x{i+1}" for i in range(self.dim))
            object.__setattr__(self, "names", names)
        if len(self.names) != self.dim:
            raise ValueError("need one name per variable")
        if len(set(self.names)) != self.dim:
            raise ValueError("variable names must be distinct")


def divides(g, a):
    """Componentwise g <= a, i.e. x^g divides x^a."""
    return all(gi <= ai for gi, ai in zip(g, a))


def _grlex_key(e):
    return (sum(e), e)


def _check_exponent(e, dim):
    if len(e) != dim:
        raise DimensionMismatchError(
            f"exponent {e} has length {len(e)}, expected {dim}")
    if any(c < 0 for c in e):
        raise ValueError(f"exponent {e} has a negative entry")
    return tuple(e)


def _minimal_antichain(points, dim):
    """Divisibility-minimal elements of ``points`` in canonical order."""
    if dim == 2:
        # staircase sweep: sort by (x, y); a point is minimal iff its y is
        # strictly below the smallest y seen so far
        best = None
        out = []
        for p in sorted(set(points)):
            if best is None or p[1] < best:
                out.append(p)
                best = p[1]
        return tuple(sorted(out, key=_grlex_key))
    pts = sorted(set(points), key=_grlex_key)
    out = []
    for p in pts:
        if not any(divides(q, p) for q in out):
            out.append(p)
    return tuple(out)


class MonomialIdeal:
    """A monomial ideal, stored as the canonical antichain of its minimal
    generators.

    ``gens == ()`` is the zero ideal and ``gens == ((0,...,0),)`` the unit
    ideal; both are explicit canonical values.  Equality and hashing ignore
    variable names, only the dimension and the generators matter.
    """

    __slots__ = ("ctx", "gens")

    def __init__(self, ctx, gens, _canonical=False):
        self.ctx = ctx
        if _canonical:
            self.gens = gens
        else:
            pts = [_check_exponent(g, ctx.dim) for g in gens]
            self.gens = _minimal_antichain(pts, ctx.dim)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, (), _canonical=True)

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, ((0,) * ctx.dim,), _canonical=True)

    @classmethod
    def maximal(cls, ctx):
        gens = tuple(
            tuple(1 if j == i else 0 for j in range(ctx.dim))
            for i in range(ctx.dim))
        return cls(ctx, gens, _canonical=True)

    # -- basic structure ----------------------------------------------

    @property
    def dim(self):
        return self.ctx.dim

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        return bool(self.gens) and sum(self.gens[0]) == 0

    def is_proper(self):
        return not self.is_zero() and not self.is_unit()

    def max_degree(self):
        """Largest total degree among the minimal generators (0 if none)."""
        return max((sum(g) for g in self.gens), default=0)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self.gens == other.gens

    def __hash__(self):
        return hash((self.dim, self.gens))

    def __repr__(self):
        if self.is_zero():
            return "MonomialIdeal(0)"
        names = self.ctx.names
        parts = []
        for g in self.gens:
            factors = [
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(names, g) if e > 0
            ]
            parts.append("*".join(factors) if factors else "1")
        return f"MonomialIdeal({', '.join(parts)})"

    def contains(self, a):
        """Membership of the monomial x^a: some generator divides a."""
        a = _check_exponent(a, self.dim)
        return any(divides(g, a) for g in self.gens)

    def contains_ideal(self, other):
        """Ideal containment other <= self, checked on generators."""
        _compatible(self, other)
        return all(self.contains(g) for g in other.gens)


def _compatible(I, J):
    if I.dim != J.dim:
        raise DimensionMismatchError(
            f"ideals live in dimension {I.dim} and {J.dim}")


def ideal_sum(I, J):
    _compatible(I, J)
    return MonomialIdeal(I.ctx, I.gens + J.gens)


def ideal_product(I, J):
    _compatible(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ctx)
    pts = [
        tuple(a + b for a, b in zip(g, h))
        for g in I.gens for h in J.gens
    ]
    return MonomialIdeal(I.ctx, pts)


def ideal_power(I, n):
    """I^n by repeated product; I^0 is the unit ideal by convention."""
    if n < 0:
        raise ValueError("negative power of an ideal")
    result = MonomialIdeal.unit(I.ctx)
    for _ in range(n):
        result = ideal_product(result, I)
    return result


def maximal_power(ctx, k):
    """m^k constructed directly from the compositions of k into dim parts."""
    if k == 0:
        return MonomialIdeal.unit(ctx)
    d = ctx.dim
    if d == 1:
        return MonomialIdeal(ctx, ((k,),), _canonical=True)
    gens = []
    for head in itertools.combinations(range(k + d - 1), d - 1):
        prev = -1
        e = []
        for h in head:
            e.append(h - prev - 1)
            prev = h
        e.append(k + d - 2 - prev)
        gens.append(tuple(e))
    return MonomialIdeal(ctx, gens)


def intersect(I, J):
    """Componentwise-max (lcm) intersection."""
    _compatible(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ctx)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    pts = [
        tuple(max(a, b) for a, b in zip(g, h))
        for g in I.gens for h in J.gens
    ]
    return MonomialIdeal(I.ctx, pts)


def colon(I, J):
    """(I : J); J must be nonzero.  (I : x^g) has generators max(gen-g, 0)."""
    _compatible(I, J)
    if J.is_zero():
        raise IdealDomainError("colon by the zero ideal")
    if I.is_zero():
        return I
    result = None
    for h in J.gens:
        pts = [
            tuple(max(a - b, 0) for a, b in zip(g, h))
            for g in I.gens
        ]
        part = MonomialIdeal(I.ctx, pts)
        result = part if result is None else intersect(result, part)
    return result


def saturate(I):
    """I : m^infinity.

    Computed as the intersection over variables of I : x_i^infinity, where
    the latter is obtained by zeroing the i-th coordinate of each generator;
    this closed form agrees with iterating I <- I : m to a fixed point (the
    ring tests keep that iteration as an independent oracle).
    """
    if I.is_zero() or I.is_unit():
        return I
    result = None
    for i in range(I.dim):
        pts = [g[:i] + (0,) + g[i + 1:] for g in I.gens]
        part = MonomialIdeal(I.ctx, pts)
        result = part if result is None else intersect(result, part)
    return result


def _min_y_profile(I, x_max):
    """d=2 staircase: least q with x^a*y^q in I, for a = 0..x_max (None = none)."""
    prof = [None] * (x_max + 1)
    for gx, gy in I.gens:
        if gx <= x_max and (prof[gx] is None or gy < prof[gx]):
            prof[gx] = gy
    best = None
    for a in range(x_max + 1):
        if prof[a] is not None and (best is None or prof[a] < best):
            best = prof[a]
        prof[a] = best
    return prof


def _quotient_length_2d(J, I):
    """Exact staircase count of monomials in J but not I (finiteness settled
    by the caller)."""
    x_max = 0
    for g in I.gens + J.gens:
        x_max = max(x_max, g[0])
    pi = _min_y_profile(I, x_max)
    pj = _min_y_profile(J, x_max)
    total = 0
    for a in range(x_max + 1):
        if pj[a] is None:
            continue
        if pi[a] is None:
            raise RuntimeError("infinite column in a certified-finite quotient")
        total += pi[a] - pj[a]
    # beyond x_max both profiles are constant; a nonzero difference there
    # would contradict the finiteness certificate
    if pj[x_max] is not None and pi[x_max] != pj[x_max]:
        raise RuntimeError("infinite tail in a certified-finite quotient")
    return total


def _count_region(J, I, deg_bound):
    """Count exponents a with total degree < deg_bound, a in J, a not in I."""
    d = J.dim
    count = 0

    def rec(i, prefix, remaining):
        nonlocal count
        if i == d - 1:
            for c in range(remaining):
                a = prefix + (c,)
                if J.contains(a) and not I.contains(a):
                    count += 1
            return
        for c in range(remaining):
            rec(i + 1, prefix + (c,), remaining - c)

    rec(0, (), deg_bound)
    return count


def quotient_length(J, I, k_max=None):
    """Length of J/I for monomial ideals I <= J; ``None`` means infinite.

    Finite exactly when J is contained in the saturation of I.  In the
    finite case the count is certified: once m^k * J <= I, every monomial of
    J not in I has total degree below k + max generator degree of J, and
    that simplex is enumerated (with a closed staircase count in two
    variables).
    """
    _compatible(J, I)
    if not J.contains_ideal(I):
        raise IdealDomainError("quotient_length requires I contained in J")
    if not saturate(I).contains_ideal(J):
        return None
    if I == J:
        return 0
    if J.dim == 2:
        return _quotient_length_2d(J, I)
    if k_max is None:
        k_max = 10 * max(1, I.max_degree())
    m = MonomialIdeal.maximal(I.ctx)
    cur = I
    k = 0
    while not cur.contains_ideal(J):
        cur = colon(cur, m)
        k += 1
        if k > k_max:
            raise RuntimeError(
                "length enumeration bound exceeded despite finiteness certificate")
    return _count_region(J, I, k + J.max_degree())


def colength(I):
    """Length of R/I; finite iff I is primary to the maximal ideal."""
    return quotient_length(MonomialIdeal.unit(I.ctx), I)


def localize(I, coords):
    """Delete the coordinates outside ``coords`` (those variables become
    units) and minimalize in the smaller ring."""
    coords = sorted(set(coords))
    if not coords:
        raise ValueError("localization needs a nonempty variable subset")
    for i in coords:
        if not 0 <= i < I.dim:
            raise ValueError(f"variable index {i} out of range")
    sub = RingContext(len(coords), tuple(I.ctx.names[i] for i in coords))
    if I.is_zero():
        return MonomialIdeal.zero(sub)
    pts = [tuple(g[i] for i in coords) for g in I.gens]
    return MonomialIdeal(sub, pts)


def dim_quotient(I):
    """Krull dimension of R/I for a proper nonzero monomial ideal: d minus
    the least number of variables meeting the support of every generator."""
    if not I.is_proper():
        raise IdealDomainError("dimension of R/I needs a proper nonzero ideal")
    supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in I.gens]
    d = I.dim
    for size in range(1, d + 1):
        for S in itertools.combinations(range(d), size):
            s = set(S)
            if all(s & sup for sup in supports):
                return d - size
    raise RuntimeError("no variable cover found")  # unreachable for proper ideals
