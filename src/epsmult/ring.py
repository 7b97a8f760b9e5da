"""Exact arithmetic of monomial ideals in a polynomial ring localized at the
maximal monomial ideal.

A monomial x^a is identified with its exponent vector ``a`` (a tuple of
nonnegative Python ints, so exponents may grow without bound), an ideal with
the divisibility antichain of its minimal generators in a fixed canonical
order (graded lexicographic).

In two variables an ideal is also a staircase: its generators sorted by
increasing x have strictly decreasing y, and they are the corners of the
min-y profile q(a) = least q with x^a*y^q in the ideal, a nonincreasing
step function.  Intersection, containment and lengths are linear merges of
two profiles, saturation is the single corner x^(min a)*y^(min b), and
valuation ideals are written as staircases directly.  The staircase is kept
beside the generators (built with the ideal, or sorted once on first use);
the generators themselves stay in grlex order, so equality, hashing, ``repr``
and everything serialised are the same in every dimension.

In other dimensions minimalisation is one sweep in order of the last
coordinate: a point is minimal iff its projection to the other coordinates
is not yet in the ideal of the accepted projections, which in three
variables is a 2-D staircase updated by bisection.  In d >= 3 the length of
a finite quotient is a sum over slices along the last variable: between two
consecutive last coordinates of the generators both slices are fixed
(d-1)-variable ideals, so each run adds its width times one slice length,
recursively down to the two-variable count.

Only the public constructor validates exponents.  Results of the kernel's
own operations go through ``_from_points`` (minimalise trusted points) or
``_staircase_ideal`` (a known d=2 staircase), both of which end in the
canonical constructor path.

All values are immutable (the staircase cache is filled at most once, and
with the same value by any writer) and every operation is pure; the module
is safe to share between concurrent workers without synchronization.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
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


def _check_exponent(e, dim):
    if len(e) != dim:
        raise DimensionMismatchError(
            f"exponent {e} has length {len(e)}, expected {dim}")
    if any(c < 0 for c in e):
        raise ValueError(f"exponent {e} has a negative entry")
    return tuple(e)


def _member(gens, a):
    """Some generator divides the (already valid) exponent ``a``."""
    return any(divides(g, a) for g in gens)


def _min_staircase(points):
    """d=2 minimal points by increasing x: sort by (x, y); a point is minimal
    iff its y is strictly below the smallest y seen so far."""
    best = None
    out = []
    for p in sorted(set(points)):
        if best is None or p[1] < best:
            out.append(p)
            best = p[1]
    return tuple(out)


def _grlex_of_lex(points):
    # points in lex order (as a d=2 staircase is: its x are distinct and
    # increasing) go to grlex order by a stable sort on the degree
    return tuple(sorted(points, key=sum))


def _minimal_antichain(points):
    """Divisibility-minimal elements of ``points`` in canonical order, by one
    sweep in lex order of (last coordinate, the rest), which puts every
    proper divisor before the points it divides.  A point is minimal iff its
    projection to the first d-1 coordinates is not in the ideal of the
    projections accepted so far.  In three variables that ideal is a 2-D
    staircase (corners ``xs`` increasing, ``ys`` decreasing), tested by
    bisection and updated by splicing out the corners the new point
    divides; otherwise the accepted points are tested directly, which is
    the same test as their last coordinates are no larger."""
    # lex order, then a stable sort on the last coordinate (int keys, no
    # key tuples): the order of (last coordinate, the rest)
    pts = sorted(set(points))
    pts.sort(key=lambda p: p[-1])
    staircase = bool(pts) and len(pts[0]) == 3
    xs, ys = [], []
    out = []
    for p in pts:
        if staircase:
            a, b = p[0], p[1]
            i = bisect_right(xs, a)
            if i and ys[i - 1] <= b:
                continue
            # a corner with the same x lies above (a, b), so it goes too
            lo = i - 1 if i and xs[i - 1] == a else i
            hi = i
            while hi < len(ys) and ys[hi] >= b:
                hi += 1
            xs[lo:hi] = (a,)
            ys[lo:hi] = (b,)
        elif _member(out, p):
            continue
        out.append(p)
    out.sort()
    return _grlex_of_lex(out)


class MonomialIdeal:
    """A monomial ideal, stored as the canonical antichain of its minimal
    generators.

    ``gens == ()`` is the zero ideal and ``gens == ((0,...,0),)`` the unit
    ideal; both are explicit canonical values.  Equality and hashing ignore
    variable names, only the dimension and the generators matter.  In two
    variables ``_stair`` caches the generators by increasing x, and in up
    to three ``_facets`` the facets of the Newton polyhedron.
    """

    __slots__ = ("ctx", "gens", "_stair", "_facets")

    def __init__(self, ctx, gens, _canonical=False):
        self.ctx = ctx
        if _canonical:
            self.gens = gens
        else:
            pts = [_check_exponent(g, ctx.dim) for g in gens]
            if ctx.dim == 2:
                self._stair = _min_staircase(pts)
                self.gens = _grlex_of_lex(self._stair)
            else:
                self.gens = _minimal_antichain(pts)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, (), _canonical=True)

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, ((0,) * ctx.dim,), _canonical=True)

    @classmethod
    def maximal(cls, ctx):
        # grlex order of the unit vectors: the last variable's comes first
        gens = tuple(
            tuple(1 if j == i else 0 for j in range(ctx.dim))
            for i in reversed(range(ctx.dim)))
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
        return _member(self.gens, _check_exponent(a, self.dim))

    def contains_ideal(self, other):
        """Ideal containment other <= self, checked on generators (in two
        variables: the profile of other lies on or above that of self)."""
        _compatible(self, other)
        if self.dim == 2:
            return all(qo is None or (qs is not None and qs <= qo)
                       for _, qs, qo in _profile_steps(self, other))
        gens = self.gens
        return all(_member(gens, g) for g in other.gens)


def _compatible(I, J):
    if I.dim != J.dim:
        raise DimensionMismatchError(
            f"ideals live in dimension {I.dim} and {J.dim}")


def _from_points(ctx, points):
    """Trusted internal path: the ideal generated by exponent tuples the
    kernel built itself, minimalised without re-validation."""
    if ctx.dim == 2:
        return _staircase_ideal(ctx, _min_staircase(points))
    return MonomialIdeal(ctx, _minimal_antichain(points), _canonical=True)


def _staircase_ideal(ctx, stair):
    """Trusted d=2 path: the ideal whose corners by increasing x (strictly
    decreasing y) are the tuple ``stair``."""
    I = MonomialIdeal(ctx, _grlex_of_lex(stair), _canonical=True)
    I._stair = stair
    return I


def _staircase(I):
    """The d=2 generators by increasing x, cached on the ideal."""
    try:
        return I._stair
    except AttributeError:
        I._stair = stair = tuple(sorted(I.gens))
        return stair


def _profile_steps(A, B):
    """Merge the staircases of two d=2 ideals: yield (a, qa, qb) at every x
    coordinate a of a corner of either, with the min-y profiles of A and B
    there (``None`` where the column holds no monomial of the ideal).  Both
    profiles are constant from one yielded a to the next, and beyond the
    last."""
    sa, sb = _staircase(A), _staircase(B)
    na, nb = len(sa), len(sb)
    i = j = 0
    qa = qb = None
    while i < na or j < nb:
        if j == nb or (i < na and sa[i][0] <= sb[j][0]):
            a, qa = sa[i]
            i += 1
            if j < nb and sb[j][0] == a:
                qb = sb[j][1]
                j += 1
        else:
            a, qb = sb[j]
            j += 1
        yield a, qa, qb


def ideal_sum(I, J):
    _compatible(I, J)
    return _from_points(I.ctx, I.gens + J.gens)


def ideal_product(I, J):
    _compatible(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ctx)
    pts = [
        tuple(a + b for a, b in zip(g, h))
        for g in I.gens for h in J.gens
    ]
    return _from_points(I.ctx, pts)


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
    return _from_points(ctx, gens)


def intersect(I, J):
    """Componentwise-max (lcm) intersection; in two variables the max of
    the two min-y profiles, read off one merge of the staircases."""
    _compatible(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ctx)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    if I.dim == 2:
        out = []
        last = None
        for a, qi, qj in _profile_steps(I, J):
            if qi is None or qj is None:
                continue
            q = qi if qi > qj else qj
            if last is None or q < last:
                out.append((a, q))
                last = q
        return _staircase_ideal(I.ctx, tuple(out))
    pts = [
        tuple(max(a, b) for a, b in zip(g, h))
        for g in I.gens for h in J.gens
    ]
    return _from_points(I.ctx, pts)


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
        part = _from_points(I.ctx, pts)
        result = part if result is None else intersect(result, part)
    return result


def saturate(I):
    """I : m^infinity.

    Computed as the intersection over variables of I : x_i^infinity, where
    the latter is obtained by zeroing the i-th coordinate of each generator
    (in two variables: the single generator x^(min a)*y^(min b)); this
    closed form agrees with iterating I <- I : m to a fixed point (the ring
    tests keep that iteration as an independent oracle).
    """
    if I.is_zero() or I.is_unit():
        return I
    if I.dim == 2:
        stair = _staircase(I)
        return _staircase_ideal(I.ctx, ((stair[0][0], stair[-1][1]),))
    result = None
    for i in range(I.dim):
        pts = [g[:i] + (0,) + g[i + 1:] for g in I.gens]
        part = _from_points(I.ctx, pts)
        result = part if result is None else intersect(result, part)
    return result


def _quotient_length_2d(J, I):
    """Staircase count of the monomials in J but not in I <= J, one merge of
    the two profiles; ``None`` when a column or the tail is infinite."""
    total = 0
    start = diff = 0
    for a, qj, qi in _profile_steps(J, I):
        total += (a - start) * diff
        if qj is None:
            diff = 0
        elif qi is None:
            return None
        else:
            diff = qi - qj
        start = a
    # beyond the last corner both profiles are constant
    return total if diff == 0 else None


def _sliced_length(J, I):
    """Length of J/I for I <= J in d >= 2 variables; ``None`` if infinite.

    The slice I_c is the (d-1)-variable ideal of the first d-1 coordinates of
    the generators of I whose last coordinate is at most c, so that
    lambda(J/I) = sum over c >= 0 of lambda(J_c/I_c).  Both slices change
    only at a last coordinate of some generator (below the least one both
    are zero), so each run between consecutive such cuts adds its length
    times one slice length; past the top cut the slices stay fixed, and the
    quotient is finite only if they are equal there.  Two-variable slices
    end in the staircase count.
    """
    if J.dim == 2:
        return _quotient_length_2d(J, I)
    sub = RingContext(J.dim - 1)
    # the projections of the generators of J and of I, by last coordinate
    layers = {}
    for side, ideal in enumerate((J, I)):
        for g in ideal.gens:
            layers.setdefault(g[-1], ([], []))[side].append(g[:-1])
    cuts = sorted(layers)
    Jc = Ic = MonomialIdeal.zero(sub)
    total = 0
    for c, nxt in zip(cuts, cuts[1:] + [None]):
        new_j, new_i = layers[c]
        # each slice is the one below plus the generators on the cut
        if new_j:
            Jc = _from_points(sub, Jc.gens + tuple(new_j))
        if new_i:
            Ic = _from_points(sub, Ic.gens + tuple(new_i))
        if Jc == Ic:
            continue
        if nxt is None:
            return None
        n = _sliced_length(Jc, Ic)
        if n is None:
            return None
        total += (nxt - c) * n
    return total


def quotient_length(J, I):
    """Length of J/I for monomial ideals I <= J; ``None`` means infinite.

    In one variable the length is a difference of exponents, and in two the
    staircase count merges the two profiles once.  In d >= 3 variables the
    quotient is cut along the last variable into (d-1)-variable slices,
    constant between consecutive last coordinates of the generators, and
    the slice lengths are summed down to the two-variable count; the
    quotient is infinite iff a slice quotient is, or the slices above the
    top cut still differ.
    """
    _compatible(J, I)
    if not J.contains_ideal(I):
        raise IdealDomainError("quotient_length requires I contained in J")
    if I == J:
        return 0
    if J.dim == 1:
        # (x^a) / (x^b) has length b - a, and (x^a) / 0 is infinite
        return I.gens[0][0] - J.gens[0][0] if I.gens else None
    # the slices recurse through the private helper, so that a trace
    # wrapped around this function sees one call per quotient
    return _sliced_length(J, I)


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
    return _from_points(sub, pts)


def _face_primes(I, size):
    """The coordinate sets S with |S| = ``size`` whose face prime
    P_S = (x_i : i in S) contains I, i.e. S meets the support of every
    generator, in ``itertools.combinations`` order."""
    supports = [frozenset(i for i, e in enumerate(g) if e > 0) for g in I.gens]
    for S in itertools.combinations(range(I.dim), size):
        if all(not sup.isdisjoint(S) for sup in supports):
            yield S


def dim_quotient(I):
    """Krull dimension of R/I for a proper nonzero monomial ideal: d minus
    the least number of variables meeting the support of every generator."""
    if not I.is_proper():
        raise IdealDomainError("dimension of R/I needs a proper nonzero ideal")
    for size in range(1, I.dim + 1):
        if next(_face_primes(I, size), None) is not None:
            return I.dim - size
    raise RuntimeError("no variable cover found")  # unreachable for proper ideals
