"""Exact arithmetic of monomial ideals in a polynomial ring localized at the
maximal monomial ideal.

A monomial x^a is identified with its exponent vector ``a`` (a tuple of
nonnegative Python ints, so exponents may grow without bound).  Each ideal
has one value, made of plain nested tuples.  The zero ideal is ``None``.
In one variable the value of (x^q) is q.  In d >= 2 variables it is the
stack of slices along the first variable: the pairs (a, v), by increasing
a, at which the slice S_a = {monomials m in the other d-1 variables :
x^a*m in I} grows, v being the value of S_a; S_a is constant between two
entries and beyond the last.  In two variables the stack is the staircase
of corners (a, q), with strictly decreasing q; the unit ideal in three
variables is ((0, ((0, 0),)),).  Values are equal exactly when the ideals
are.  ``MonomialIdeal`` wraps a value at the top level only, and lists its
minimal generators, in graded lexicographic order, on first read.  There
are two ways in: the public constructor validates exponents and
minimalises them into a value, and the trusted ``_ideal`` wraps a value
the kernel built itself.

Each kernel operation is one private function over values, recursing on
the slices down to a one-variable base case.  ``_steps`` merges two
stacks into the runs on which both slices are constant, for ``_meet`` and
``_contains``.  ``_mul`` writes the sum of the products of a list of pairs
of values: the slice products S_a*T_b of every pair gathered at a + b,
each key's slice built once from them and the slice below.  It serves a
product (one pair), a sum (each value paired with the unit ideal), each
level of a truncation and minimalisation (``_minimal``, whose two-variable
case is the kernel's last pass ``_corners``).  ``_sat`` uses
sat(I)_a = S_top meet sat(S_a), and ``_weight`` writes the value of an
ideal cut out by weight inequalities (valuation ideals, their meets,
powers of m and integral closures) from the cuts; ``_floor_sum`` serves
the two-variable count of lambda(sat(I)/I) from the cuts in
``epsmult.asymptotics``.  In three variables, where the time goes, the
two-variable step is taken inline rather than by recursion: ``_weight``
builds each slice with ``_staircase`` (its two-variable case too),
``_sat`` meets S_top with the single corner sat(S_a) by clamping S_top's
corners, and ``_length`` merges its two stacks inline at every level.
``_top`` walks the same merge for the largest degree of a monomial of J
outside I (the A(c) check in ``epsmult.diagnostics``), and ``_has``
decides membership of one monomial from the value, slice by slice, so no
membership test lists generators.  The public functions check the rings,
handle the zero ideal and wrap the value.

All values are immutable (the generator list is built at most once, with
the same result by any writer) and every operation is pure.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

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


def _format_monomial(exp, names):
    """``x^2*y`` text of a monomial, ``1`` for the trivial one."""
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e > 0]
    return "*".join(factors) if factors else "1"


class MonomialIdeal:
    """A monomial ideal: its value ``_stack``, set at construction, and its
    minimal generators ``gens`` in grlex order (``()`` for the zero ideal),
    built from the value on first read (``None`` until then).  Equality,
    hashing, ``is_zero`` and ``is_unit`` read the value and ignore variable
    names.  In up to three variables ``_hull`` caches the Newton
    polyhedron that ``_polyhedra._hull_of`` builds."""

    __slots__ = ("ctx", "dim", "_gens", "_stack", "_hull")

    def __init__(self, ctx, gens):
        self.ctx, self.dim, self._gens = ctx, ctx.dim, None
        self._stack = _minimal(ctx.dim, [_check_exponent(g, ctx.dim) for g in gens])

    @classmethod
    def zero(cls, ctx):
        return _ideal(ctx, None)

    @classmethod
    def unit(cls, ctx):
        return _ideal(ctx, _unit(ctx.dim))

    @classmethod
    def maximal(cls, ctx):
        return _weight_ideal((((1,) * ctx.dim, 1),), ctx)

    @property
    def gens(self):
        gens = self._gens
        if gens is None:
            value = self._stack
            gens = self._gens = () if value is None else tuple(
                sorted(_points(self.dim, value), key=sum))
        return gens

    def is_zero(self):
        return self._stack is None

    def is_unit(self):
        return self._stack == _unit(self.dim)

    def is_proper(self):
        return not self.is_zero() and not self.is_unit()

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.dim == other.dim and self._stack == other._stack

    def __hash__(self):
        return hash((self.dim, self._stack))

    def __repr__(self):
        gens = ", ".join(_format_monomial(g, self.ctx.names) for g in self.gens)
        return f"MonomialIdeal({gens or 0})"

    def contains(self, a):
        """Membership of the monomial x^a, read from the value by ``_has``
        once ``a`` is validated; no generator list is built."""
        a = _check_exponent(a, self.dim)
        value = self._stack
        return value is not None and _has(self.dim, value, a)

    def contains_ideal(self, other):
        """Ideal containment other <= self."""
        _compatible(self, other)
        u, v = self._stack, other._stack
        return v is None or (u is not None and _contains(self.dim, u, v))


def _ideal(ctx, value):
    """Trusted path: the ideal with value ``value``."""
    I = MonomialIdeal.__new__(MonomialIdeal)
    I.ctx, I.dim, I._gens, I._stack = ctx, ctx.dim, None, value
    return I


def _unit(d):
    """The value of the unit ideal in d variables: 0 in one variable, the
    stack ((0, unit one variable down),) above."""
    return 0 if d == 1 else ((0, _unit(d - 1)),)


def _compatible(I, J):
    if I.dim != J.dim:
        raise DimensionMismatchError(
            f"ideals live in dimension {I.dim} and {J.dim}")


def _minimal(d, points):
    """The value of the ideal generated by a list of ``points``: in two
    variables the staircase of the sorted points; in d >= 3 the kernel's
    product of the unit ideal with one entry (a, slice) per column of
    points of first coordinate a, the slice the value of the projected
    column (in three the column as it is, since the two-variable kernel
    reads any list of corners)."""
    if not points:
        return None
    if d == 1:
        return min(points)[0]
    if d == 2:
        return _corners(sorted(points))
    columns = defaultdict(list)
    for p in points:
        columns[p[0]].append(p[1:])
    entries = [(a, c if d == 3 else _minimal(d - 1, c)) for a, c in columns.items()]
    return _mul(d, ((entries, _unit(d)),))


def _corners(points):
    """The two-variable staircase of ``points`` sorted by first coordinate:
    the points whose height falls below every earlier one."""
    stack = []
    last = None
    for a, q in points:
        if last is None or q < last:
            stack.append((a, q))
            last = q
    return tuple(stack)


def _points(d, value):
    """The minimal generators of a nonzero value in lexicographic order:
    x^a*m for the generators m of S_a that the slice below lacks."""
    if d == 1:
        return [(value,)]
    if d == 2:
        return list(value)
    gens, below = [], ()
    for a, s in value:
        slice_gens = _points(d - 1, s)
        gens += [(a,) + m for m in slice_gens if m not in below]
        below = set(slice_gens)
    return gens


def _steps(u, v):
    """Merge two stacks: yield (a, su, sv) at every first coordinate a of
    an entry of either, with the slice values of u and v there (``None``
    while a slice is zero).  Both slices are constant from one yielded a to
    the next, and beyond the last."""
    nu, nv = len(u), len(v)
    i = j = 0
    su = sv = None
    while i < nu or j < nv:
        if j == nv or (i < nu and u[i][0] <= v[j][0]):
            a, su = u[i]
            i += 1
            if j < nv and v[j][0] == a:
                sv = v[j][1]
                j += 1
        else:
            a, sv = v[j]
            j += 1
        yield a, su, sv


def _mul(d, pairs):
    """The value of the sum of the products u*v over ``pairs`` of nonzero
    values: a product is one pair, and a pair with the unit ideal adds its
    other value.  In one variable it is the least u + v.  In two, each
    column a + b keeps its least height s + t over the corners (a, s) of u
    and (b, t) of v, and ``_corners`` keeps those whose height falls.  In
    d >= 3 the slice pairs (S_a, T_b) of every pair are gathered by a + b,
    and the slice at each key, by increasing key, is the sum of their
    products and of the slice below, one variable down."""
    if d == 1:
        return min(u + v for u, v in pairs)
    if d == 2:
        low = {}
        for u, v in pairs:
            for a, s in u:
                for b, t in v:
                    c = a + b
                    h = s + t
                    if c not in low or h < low[c]:
                        low[c] = h
        return _corners(sorted(low.items()))
    buckets = defaultdict(list)
    for u, v in pairs:
        for a, s in u:
            for b, t in v:
                buckets[a + b].append((s, t))
    unit = _unit(d - 1)
    stack = []
    below = None
    for c in sorted(buckets):
        bucket = buckets[c]
        if below is not None:
            bucket.append((below, unit))
        s = _mul(d - 1, bucket)
        if s != below:
            stack.append((c, s))
            below = s
    return tuple(stack)


def _meet(d, u, v):
    """I meet J for nonzero values: the meet of the two slices on each run
    of the merged stacks."""
    if d == 1:
        return u if u > v else v
    flat = d == 2
    out = []
    last = None
    for a, su, sv in _steps(u, v):
        if su is None or sv is None:
            continue
        s = (su if su > sv else sv) if flat else _meet(d - 1, su, sv)
        if s != last:
            out.append((a, s))
            last = s
    return tuple(out)


def _contains(d, u, v):
    """J <= I for nonzero values u of I and v of J: slice by slice."""
    if d == 1:
        return u <= v
    return all(sv is None or (su is not None and _contains(d - 1, su, sv))
               for _, su, sv in _steps(u, v))


def _sat(d, value):
    """sat(I) for a nonzero value.  I : x^infinity has every slice equal to
    the top slice S_top of I, and saturating by the other variables acts
    on each slice alone, so sat(I)_a = S_top meet sat(S_a).  A one-variable
    ideal saturates to the unit ideal, so in two variables sat(I) is the
    single corner x^(min a)*y^(min q), and in three S_top meet sat(S_a) is
    S_top meet (y^p*z^q), p and q the least exponents of y and z in S_a:
    the lcms of S_top's corners with y^p*z^q, joined.
    """
    if d == 1:
        return 0
    top = value[-1][1]
    if d == 2:
        return ((value[0][0], top),)
    out = []
    last = None
    for a, s in value:
        if d == 3:
            p, q = s[0][0], s[-1][1]
            t = []
            for b, c in top:
                if c < q:
                    c = q
                if b <= p:  # every corner up to p clamps to (p, c), the last one least
                    t = [(p, c)]
                elif not t or c < t[-1][1]:
                    t.append((b, c))
            t = tuple(t)
        else:
            t = _meet(d - 1, top, _sat(d - 1, s))
        if t != last:
            out.append((a, t))
            last = t
    return tuple(out)


def _length(d, j, i):
    """Length of J/I for nonzero values j of J and i of I, ``None`` if
    infinite; raises ``IdealDomainError`` unless I <= J.

    lambda(J/I) is the sum over a of lambda(J_a/I_a).  Both slices are
    constant on each run of the two stacks, merged inline as ``_steps``
    does (below the first entry of J both are zero), so each run adds its
    width times one slice length; beyond the last entry the slices stay
    fixed, and the quotient is finite only if they are equal there.  Each
    slice of I must lie in that of J, which the walk checks on past a run
    that made the length infinite.
    """
    if d == 1:
        if i < j:
            raise IdealDomainError("quotient_length requires I contained in J")
        return i - j
    nj, ni = len(j), len(i)
    x = y = total = start = diff = 0
    sj = si = None
    while x < nj or y < ni:
        if y == ni or (x < nj and j[x][0] <= i[y][0]):
            a, sj = j[x]
            x += 1
            if y < ni and i[y][0] == a:
                si = i[y][1]
                y += 1
        else:
            a, si = i[y]
            y += 1
        total = None if total is None or diff is None else total + (a - start) * diff
        if si is None:
            diff = 0 if sj is None else None
        elif sj is None or (d == 2 and sj > si):
            raise IdealDomainError("quotient_length requires I contained in J")
        else:
            diff = si - sj if d == 2 else _length(d - 1, sj, si)
        start = a
    return total if diff == 0 else None


def _top(d, j, i):
    """The largest degree of a monomial of J outside I, for nonzero values
    i of I <= j of J: -1 when J = I, ``None`` when the degrees are
    unbounded.  In one variable the gap is x^j .. x^(i-1).  In d >= 2 the
    stacks are merged as ``_length`` merges them; a run [a, a_next) of
    constant slices adds a_next - 1 to the top of its slices' gap (in two
    variables si - 1 when si > sj), and a zero slice of I under a nonzero
    one of J, or a gap left open past the last entry, is unbounded.
    """
    if d == 1:
        return i - 1 if i > j else -1
    nj, ni = len(j), len(i)
    x = y = 0
    best = cur = -1
    sj = si = None
    while x < nj or y < ni:
        if y == ni or (x < nj and j[x][0] <= i[y][0]):
            a, sj = j[x]
            x += 1
            if y < ni and i[y][0] == a:
                si = i[y][1]
                y += 1
        else:
            a, si = i[y]
            y += 1
        if cur is None:
            return None
        if cur >= 0:
            best = max(best, a - 1 + cur)
        if sj is None:
            cur = -1
        elif si is None:
            cur = None
        elif d == 2:
            cur = si - 1 if si > sj else -1
        else:
            cur = _top(d - 1, sj, si)
    return best if cur == -1 else None


def _has(d, value, a):
    """x^a lies in the ideal of the nonzero value ``value``: variable by
    variable, the slice of the last entry whose key is at most that
    exponent (none: the slice is zero) holds the rest of ``a``."""
    for k in range(d - 1):
        e = a[k]
        s = None
        for b, t in value:
            if b > e:
                break
            s = t
        if s is None:
            return False
        value = s
    return a[-1] >= value


def _weight(d, cuts):
    """The value of {x^a : w . a >= n for every cut (w, n)}.  A cut with
    n <= 0 always holds.  In one variable the ideal is (x^q) with q the
    largest ceil(n/w[0]) (0 with no cut left), and ``_staircase`` builds
    it in two.  In d >= 3
    variables the slice at first exponent a has the cuts
    (w[1:], n - w[0]*a) one variable down, built by ``_staircase`` directly
    in three.  The slices are zero below the least a meeting every cut
    whose other weights are zero (those cuts then drop out) and constant
    from the largest ceil(n/w[0]) on.
    """
    if d == 2:
        return _staircase([(w0, w1, n) for (w0, w1), n in cuts])
    start = top = 0
    live = []
    for w, n in cuts:
        if n > 0:
            bound = -(-n // w[0]) if w[0] else 0
            top = max(top, bound)
            if any(w[1:]):
                live.append((w[0], w[1:], n))
            else:
                start = max(start, bound)
    if d == 1:
        return top
    stack = []
    last = None
    for a in range(start, top + 1):
        if d == 3:
            s = _staircase([(w1, w2, n - w0 * a) for w0, (w1, w2), n in live])
        else:
            s = _weight(d - 1, [(w, n - w0 * a) for w0, w, n in live])
        if s != last:
            stack.append((a, s))
            last = s
    return tuple(stack)


def _staircase(rows):
    """The staircase of {y^b*z^c : w1*b + w2*c >= r for every row
    (w1, w2, r)}, each (w1, w2) nonzero: a two-variable ideal of weight
    cuts, or one slice of a three-variable one.  A row with r <= 0 always
    holds.  The slices (z^q) are zero below the least b meeting every row
    with w2 = 0 (those rows then drop out) and constant from the largest
    ceil(r/w1) on; between, q is the largest ceil((r - w1*b)/w2) over the
    other rows, at least 0."""
    start = top = 0
    live = []
    for row in rows:
        w1, w2, r = row
        if r > 0:
            bound = -(-r // w1) if w1 else 0
            if bound > top:
                top = bound
            if w2:
                live.append(row)
            elif bound > start:
                start = bound
    stack = []
    last = None
    for b in range(start, top + 1):
        q = 0
        for w1, w2, r in live:
            r -= w1 * b
            if r > q * w2:  # ceil(r / w2) > q
                q = -(-r // w2)
        if q != last:
            stack.append((b, q))
            last = q
    return tuple(stack)


def ideal_sum(I, J):
    """I + J."""
    _compatible(I, J)
    u, v = I._stack, J._stack
    unit = _unit(I.dim)
    return _ideal(I.ctx, v if u is None else u if v is None
                  else _mul(I.dim, ((u, unit), (v, unit))))


def ideal_product(I, J):
    """I * J."""
    _compatible(I, J)
    u, v = I._stack, J._stack
    return _ideal(I.ctx, None if u is None or v is None else _mul(I.dim, ((u, v),)))


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
    powers of m and integral closures, built by ``_weight``."""
    return _ideal(ctx, _weight(ctx.dim, cuts))


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


def intersect(I, J):
    """I meet J."""
    _compatible(I, J)
    u, v = I._stack, J._stack
    return _ideal(I.ctx, None if u is None or v is None else _meet(I.dim, u, v))


def colon(I, J):
    """(I : J); J must be nonzero.  (I : x^g) has generators max(gen-g, 0)."""
    _compatible(I, J)
    if J.is_zero():
        raise IdealDomainError("colon by the zero ideal")
    if I.is_zero():
        return I
    value = None
    for h in J.gens:
        part = _minimal(I.dim, [tuple(max(a - b, 0) for a, b in zip(g, h))
                                for g in I.gens])
        value = part if value is None else _meet(I.dim, value, part)
    return _ideal(I.ctx, value)


def saturate(I):
    """I : m^infinity, built slice by slice by ``_sat``.  The ring tests
    keep the intersection over variables of I : x_i^infinity and the
    iteration I <- I : m to a fixed point as independent oracles."""
    value = I._stack
    return I if value is None else _ideal(I.ctx, _sat(I.dim, value))


def quotient_length(J, I):
    """Length of J/I for monomial ideals I <= J, summed slice by slice by
    ``_length``; ``None`` means infinite."""
    _compatible(J, I)
    j, i = J._stack, I._stack
    if i is None:
        return 0 if j is None else None
    if j is None:
        raise IdealDomainError("quotient_length requires I contained in J")
    return _length(J.dim, j, i)


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
    return _ideal(sub, _minimal(sub.dim, [tuple(g[i] for i in coords)
                                         for g in I.gens]))


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
    for size in range(1, I.dim):
        if next(_face_primes(I, size), None) is not None:
            return I.dim - size
    return 0  # all d variables meet every generator of a proper ideal
