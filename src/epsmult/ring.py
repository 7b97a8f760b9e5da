"""Exact arithmetic of monomial ideals in a polynomial ring localized at the
maximal monomial ideal.

A monomial x^a is identified with its exponent vector ``a`` (a tuple of
nonnegative Python ints, so exponents may grow without bound), an ideal with
the divisibility antichain of its minimal generators in a fixed canonical
order (graded lexicographic).

In d >= 2 variables an ideal I is also a stack of slices along the first
variable: the pairs (a, S_a), by increasing a, at which the slice
S_a = {monomials m in the other d-1 variables : x^a*m in I} grows.  S_a is
generated by the projections of the generators with first coordinate at
most a, so it is constant between two entries and beyond the last.  In two
variables a slice is the principal ideal (y^q), held as the exponent q:
the stack is the staircase of corners, with strictly decreasing q.  In more
variables a slice is a (d-1)-variable ideal with its own stack.

Every kernel operation is written once over stacks.  ``_profile_steps``
merges two stacks into the runs on which both slices are constant, and each
operation recurses on the slices down to the two-variable closed forms:
intersection meets slices, containment compares them, the length of a
finite quotient sums the slice lengths times the run widths, saturation is
sat(I)_a = S_top meet sat(S_a), and minimalisation joins each column of
points to the slice below.  Only one variable keeps small closed forms of
its own.  The stack is kept beside the generators (built with the ideal, or
once on first use); the generators themselves stay in grlex order, so
equality, hashing, ``repr`` and everything serialised are the same in every
dimension.

Ideals cut out by weight inequalities {x^a : w . a >= n for every cut
(w, n)} -- valuation ideals, the levels of a discrete-valued filtration
(their meet), m and its powers, and integral closures from the facets of
the Newton polyhedron -- are built by one routine, ``_weight_ideal``, which
writes their slice stack directly from the cuts.  In two variables
``_weight_sat_length`` also measures lambda(sat(I)/I) for such an ideal
from its cuts alone: sat(I) is the corner set by the cuts with one zero
weight, and the quotient is the set of lattice points of that quadrant
under the upper envelope of the other cuts' lines, one floor sum
(``_floor_sum``) per piece of the envelope.  With k cuts at levels of size
n that is O(k log n) steps in place of a staircase of O(n) corners.

Only the public constructor validates exponents.  Results of the kernel's
own operations go through ``_from_points`` (minimalise trusted points),
``_stack_ideal`` (a known stack) or ``_weight_ideal`` (weight cuts), all of
which end in the canonical constructor path.

All values are immutable (the stack cache is filled at most once, and with
the same value by any writer) and every operation is pure.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from ._record import Record

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


class RingContext(Record):
    """Ambient ring data: dimension and variable names (names are I/O only)."""

    dim: int
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if type(self.dim) is not int or self.dim < 1:
            raise ValueError(
                f"ring dimension must be an integer >= 1, got {self.dim!r}")
        names = self.names
        if not names:
            if self.dim <= len(_DEFAULT_NAMES):
                names = _DEFAULT_NAMES[: self.dim]
            else:
                names = tuple(f"x{i+1}" for i in range(self.dim))
            object.__setattr__(self, "names", names)
        if len(self.names) != self.dim or not all(isinstance(v, str) for v in self.names):
            raise ValueError("need one name (a string) per variable")
        if len(set(self.names)) != self.dim:
            raise ValueError("variable names must be distinct")


_RINGS = {}  # d -> RingContext(d): the rings of the kernel's slices


def _ring(d):
    """RingContext(d), built once per dimension."""
    ctx = _RINGS.get(d)
    if ctx is None:
        ctx = _RINGS[d] = RingContext(d)
    return ctx


def divides(g, a):
    """Componentwise g <= a, i.e. x^g divides x^a."""
    return all(gi <= ai for gi, ai in zip(g, a))


def _check_exponent(e, dim):
    if len(e) != dim:
        raise DimensionMismatchError(
            f"exponent {e} has length {len(e)}, expected {dim}")
    if any(type(c) is not int or c < 0 for c in e):
        raise ValueError(f"exponent {e} must have nonnegative integer entries")
    return tuple(e)


def _member(gens, a):
    """Some generator divides the (already valid) exponent ``a``."""
    return any(divides(g, a) for g in gens)


class MonomialIdeal:
    """A monomial ideal, stored as the canonical antichain of its minimal
    generators.

    ``gens == ()`` is the zero ideal and ``gens == ((0,...,0),)`` the unit
    ideal; both are explicit canonical values.  Equality and hashing ignore
    variable names, only the dimension and the generators matter.  In two
    or more variables ``_stack`` caches the slice stack along the first
    variable, and in up to three ``_hull`` the Newton polyhedron: its
    facets and the vertices of its compact facets.
    """

    __slots__ = ("ctx", "gens", "_stack", "_hull")

    def __init__(self, ctx, gens, _canonical=False):
        self.ctx = ctx
        if _canonical:
            self.gens = gens
        else:
            I = _from_points(ctx, [_check_exponent(g, ctx.dim) for g in gens])
            self.gens = I.gens
            if ctx.dim > 1:
                self._stack = I._stack

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, (), _canonical=True)

    @classmethod
    def unit(cls, ctx):
        return cls(ctx, ((0,) * ctx.dim,), _canonical=True)

    @classmethod
    def maximal(cls, ctx):
        return _weight_ideal((((1,) * ctx.dim, 1),), ctx)

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
        """Ideal containment other <= self: in two or more variables every
        slice of other lies in the slice of self (for two-variable slices
        (y^q), the exponent of self is at most that of other)."""
        _compatible(self, other)
        if self.dim == 1:
            return all(_member(self.gens, g) for g in other.gens)
        flat = self.dim == 2
        return all(so is None or (ss is not None and (
            ss <= so if flat else ss.contains_ideal(so)))
            for _, ss, so in _profile_steps(self, other))


def _compatible(I, J):
    if I.dim != J.dim:
        raise DimensionMismatchError(
            f"ideals live in dimension {I.dim} and {J.dim}")


def _from_points(ctx, points):
    """Trusted internal path: the ideal generated by exponent tuples the
    kernel built itself, minimalised without re-validation."""
    if ctx.dim == 1:
        return MonomialIdeal(ctx, (min(points),) if points else (),
                             _canonical=True)
    return _stack_ideal(ctx, _stack_of(points, ctx.dim))


def _stack_of(points, d):
    """The slice stack of the ideal generated by ``points`` in d >= 2
    variables: walk the points in lex order, one column of equal first
    coordinate at a time, join the column's projections to the slice below
    and keep the column if the slice grew.  In two variables the join keeps
    the least exponent."""
    flat = d == 2
    sub = None if flat else _ring(d - 1)
    stack = []
    last = None
    for a, column in itertools.groupby(sorted(points), itemgetter(0)):
        if flat:
            s = next(column)[1]
            if last is not None and s >= last:
                continue
        else:
            s = _from_points(sub, [p[1:] for p in column]
                             + list(last.gens if last is not None else ()))
            if s == last:
                continue
        stack.append((a, s))
        last = s
    return tuple(stack)


def _stack_ideal(ctx, stack):
    """Trusted path: the ideal whose slice stack is ``stack``.  A generator
    x^a*m is a generator m of the slice at a that the slice below lacks."""
    if ctx.dim == 2:
        gens = stack
    else:
        gens = []
        old = set()
        for a, s in stack:
            gens += [(a,) + m for m in s.gens if m not in old]
            old = set(s.gens)
        gens.sort()
    # from lex to grlex order by a stable sort on the degree
    I = MonomialIdeal(ctx, tuple(sorted(gens, key=sum)), _canonical=True)
    I._stack = stack
    return I


def _slices(I):
    """The slice stack of an ideal in d >= 2 variables, cached on it."""
    try:
        return I._stack
    except AttributeError:
        I._stack = stack = _stack_of(I.gens, I.dim)
        return stack


def _profile_steps(A, B):
    """Merge the slice stacks of two ideals in d >= 2 variables: yield
    (a, sa, sb) at every first coordinate a of an entry of either, with the
    slices of A and B there (``None`` while a slice is zero).  Both slices
    are constant from one yielded a to the next, and beyond the last."""
    sa, sb = _slices(A), _slices(B)
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
    if type(n) is not int or n < 0:
        raise ValueError(f"I^n needs an integer n >= 0, got {n!r}")
    result = MonomialIdeal.unit(I.ctx)
    for _ in range(n):
        result = ideal_product(result, I)
    return result


def maximal_power(ctx, k):
    """m^k = {x^a : a_1 + ... + a_d >= k} for an integer k >= 0."""
    if type(k) is not int or k < 0:
        raise ValueError(f"m^k needs an integer k >= 0, got {k!r}")
    return _weight_ideal((((1,) * ctx.dim, k),), ctx)


def _weight_ideal(cuts, ctx):
    """{x^a : w . a >= n for every cut (w, n)}, for nonzero nonnegative
    integer weights and integer levels: valuation ideals, their meets,
    powers of m and integral closures, built as a slice stack.

    A cut with n <= 0 always holds.  In d >= 2 variables the slice at
    first exponent a has the cuts (w[1:], n - w[0]*a) one variable down.
    The slices are zero below the least a meeting every cut whose other
    weights are zero (those cuts then drop out) and constant from the
    largest ceil(n/w[0]) on.  In two variables the slice (y^q) has q the
    largest ceil(r/w[1]) over the cuts with r = n - w[0]*a > 0, and in one
    variable the ideal is (x^q) with q the largest ceil(n/w[0]).
    """
    cuts = [(w, n) for w, n in cuts if n > 0]
    if not cuts:
        return MonomialIdeal.unit(ctx)
    if ctx.dim == 1:
        q = max(-(-n // w[0]) for w, n in cuts)
        return MonomialIdeal(ctx, ((q,),), _canonical=True)
    flat = ctx.dim == 2
    sub = None if flat else _ring(ctx.dim - 1)
    start = top = 0
    live = []
    for w, n in cuts:
        bound = -(-n // w[0]) if w[0] else 0
        top = max(top, bound)
        if any(w[1:]):
            live.append((w[0], w[1] if flat else w[1:], n))
        else:
            start = max(start, bound)
    stack = []
    last = None
    for a in range(start, top + 1):
        if flat:
            s = 0
            for w0, w1, n in live:
                r = n - w0 * a
                if r > s * w1:  # ceil(r / w1) > s
                    s = -(-r // w1)
        else:
            s = _weight_ideal([(w, n - w0 * a) for w0, w, n in live], sub)
        if s != last:
            stack.append((a, s))
            last = s
    return _stack_ideal(ctx, tuple(stack))


def _floor_sum(n, m, a, b):
    """sum of floor((a*i + b) / m) for i = 0..n-1, for integers n >= 0 and
    m > 0, in O(log m) steps: the Euclid-like reduction of Graham, Knuth
    and Patashnik, Concrete Mathematics, section 3.5."""
    total = 0
    while True:
        # split off the whole parts of the slope and the offset (floor
        # division, so negative ones too), leaving 0 <= a, b < m
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a %= m
        b %= m
        # count the lattice points under the line by swapping the axes,
        # which replaces (m, a) by (a, m mod a)
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _weight_sat_length(cuts):
    """lambda(sat(I)/I) for I = ``_weight_ideal(cuts, RingContext(2))``,
    counted from the cuts without building I.

    Saturation commutes with finite meets, leaves a cut with one zero
    weight unchanged and makes a cut with both weights positive the unit
    ideal, so sat(I) = (x^A0*y^B0) with A0, B0 the largest ceil(n/w) over
    the one-weight cuts.  Shifted to that corner, an m-primary cut (w, n)
    leaves r = n - w.(A0, B0) and cuts out the triangle w.(s, t) < r, whose
    column at s holds ceil((r - w0*s)/w1) points while that is positive.
    The quotient is the union of these triangles, so each column holds the
    ceiling of the upper envelope of their lines, and the count is one floor
    sum per piece of the envelope.  A cut with n <= 0 always holds.
    """
    cuts = [(w, n) for w, n in cuts if n > 0]
    A0 = max((-(-n // w[0]) for w, n in cuts if not w[1]), default=0)
    B0 = max((-(-n // w[1]) for w, n in cuts if not w[0]), default=0)
    # the line t = (r - w0*s)/w1 of every triangle, and t = 0 closing the
    # envelope; a line is steeper than another iff its w0/w1 is larger
    lines = [(0, 1, 0)]
    for (w0, w1), n in cuts:
        r = n - w0 * A0 - w1 * B0
        if w0 and w1 and r > 0:
            lines.append((w0, w1, r))
    # heights t = h/w1 compare as integers h*(L//w1) over the common
    # denominator L of the lines' w1; the leader is a highest line at column
    # s, and equal lines give equal columns, so which of them leads does
    # not change the count
    L = math.lcm(*(l[1] for l in lines))
    w0, w1, r = max(lines, key=lambda l: l[2] * (L // l[1]))
    total = s = 0
    while w0:
        # the first column at which a less steep line reaches the leader
        # (s itself for a line equal to it there); the highest line there
        # takes over
        steps = []
        for v0, v1, q in lines:
            det = w0 * v1 - v0 * w1
            if det > 0:
                cross = -((q * w1 - r * v1) // det)
                steps.append((cross, (v0 * cross - q) * (L // v1), (v0, v1, q)))
        cross, _, line = min(steps)
        # columns s..cross-1 of the leader: ceil((r - w0*i)/w1)
        total += _floor_sum(cross - s, w1, -w0, r - w0 * s + w1 - 1)
        (w0, w1, r), s = line, cross
    return total


def intersect(I, J):
    """I meet J, slice by slice: on each run of the merged stacks the slice
    is the intersection of the two slices (of two-variable slices (y^q),
    the larger exponent)."""
    _compatible(I, J)
    if I.is_zero() or J.is_zero():
        return MonomialIdeal.zero(I.ctx)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    if I.dim == 1:
        return I if I.gens[0] >= J.gens[0] else J
    flat = I.dim == 2
    out = []
    last = None
    for a, si, sj in _profile_steps(I, J):
        if si is None or sj is None:
            continue
        s = (si if si > sj else sj) if flat else intersect(si, sj)
        if s != last:
            out.append((a, s))
            last = s
    return _stack_ideal(I.ctx, tuple(out))


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
    """I : m^infinity, slice by slice.

    I : x^infinity has every slice equal to the top slice S_top of I, and
    saturating by the other variables acts on each slice alone, so
    sat(I)_a = S_top meet sat(S_a).  A two-variable slice (y^q) saturates
    to the unit ideal, so there sat(I) is the single generator
    x^(min a)*y^(min q).  The ring tests keep the intersection over
    variables of I : x_i^infinity and the iteration I <- I : m to a fixed
    point as independent oracles.
    """
    if I.is_zero() or I.is_unit():
        return I
    if I.dim == 1:
        return MonomialIdeal.unit(I.ctx)
    flat = I.dim == 2
    stack = _slices(I)
    top = stack[-1][1]
    out = []
    last = None
    for a, s in stack[:1] if flat else stack:
        t = top if flat else intersect(top, saturate(s))
        if t != last:
            out.append((a, t))
            last = t
    return _stack_ideal(I.ctx, tuple(out))


def _length(J, I):
    """Length of J/I for I <= J in d >= 2 variables; ``None`` if infinite.

    lambda(J/I) is the sum over a of lambda(J_a/I_a).  Both slices are
    constant on each run of the merged stacks (below the first entry of J
    both are zero), so each run adds its width times one slice length, that
    of two-variable slices (y^q) being the difference of the exponents;
    beyond the last entry the slices stay fixed, and the quotient is finite
    only if they are equal there.
    """
    flat = J.dim == 2
    total = start = diff = 0
    for a, sj, si in _profile_steps(J, I):
        total += (a - start) * diff
        if sj is None:
            diff = 0
        elif si is None:
            return None
        elif flat:
            diff = si - sj
        else:
            diff = _length(sj, si)
            if diff is None:
                return None
        start = a
    return total if diff == 0 else None


def quotient_length(J, I):
    """Length of J/I for monomial ideals I <= J; ``None`` means infinite.

    In one variable the length is a difference of exponents.  In more, the
    quotient is cut along the first variable into slice quotients, constant
    on the runs of the merged slice stacks, and the slice lengths are
    summed recursively down to two-variable staircase counts; the quotient
    is infinite iff a slice quotient is, or the top slices differ.
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
    return _length(J, I)


def colength(I):
    """Length of R/I; finite iff I is primary to the maximal ideal."""
    return quotient_length(MonomialIdeal.unit(I.ctx), I)


def _localized_ring(ctx, coords):
    """The sorted coordinates of a localization at the variables
    ``coords`` and the ring of those variables; ``ValueError`` if the
    subset is empty or names a coordinate outside ``ctx``."""
    coords = tuple(sorted(set(coords)))
    if not coords:
        raise ValueError("localization needs a nonempty variable subset")
    for i in coords:
        if not 0 <= i < ctx.dim:
            raise ValueError(f"variable index {i} out of range")
    return coords, RingContext(len(coords), tuple(ctx.names[i] for i in coords))


def localize(I, coords):
    """Delete the coordinates outside ``coords`` (those variables become
    units) and minimalize in the smaller ring."""
    coords, sub = _localized_ring(I.ctx, coords)
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
