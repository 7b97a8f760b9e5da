"""Filtration specifications and their evaluation.

A filtration is a descending chain R = I_0 >= I_1 >= ... with
I_m * I_n <= I_{m+n}.  Five spec kinds are supported:

* ``Power(base)``            -- I_n = base^n
* ``DiscreteValued(pairs)``  -- I_n = intersection of valuation ideals at
                                levels ceil(n * a_i)
* ``Template(generators)``   -- fixed generator shapes whose coordinates are
                                small expressions in n
* ``Table(ideals)``          -- explicit ideals for n <= N, error beyond
* ``Truncation(parent, i)``  -- the subfiltration generated by degrees <= i

Specs are immutable; ``ideal_at`` is pure given the spec, and
``F.localize(S)`` is a spec of the same kind in the variables S.  Memo
tables are per-instance dicts with idempotent entries.
"""

from __future__ import annotations

import re

from ._record import Record
from .ring import (
    MonomialIdeal,
    RingContext,
    _localized_ring,
    _products,
    _weight_ideal,
    dim_quotient,
    ideal_product,
    localize,
)
from .valuation import ExactScalar, MonomialValuation, ceil_mul, parse_scalar

__all__ = [
    "Filtration",
    "PowerFiltration",
    "DiscreteValuedFiltration",
    "TemplateFiltration",
    "TableFiltration",
    "TruncationFiltration",
    "TableRangeError",
    "Witness",
    "sigma_surrogate",
    "parse_expression",
    "validate_filtration",
    "filtration_dimension",
]


class TableRangeError(ValueError):
    """Evaluation of a Table filtration beyond its stored range."""


def sigma_surrogate(n):
    """The shipped stand-in for the oscillating exponent function.

    sigma(n) = floor(n/2) on [4^k, 2*4^k) and the constant
    floor((2*4^k - 1)/2) on [2*4^k, 4^(k+1)).  It is nondecreasing with
    limsup sigma(n)/n = 1/2 and liminf = 1/4.  This is a documented
    surrogate, not the exact function the oscillation examples cite from
    elsewhere; note sigma(n) = 0 for n <= 3, so the bound 1 <= sigma(n)
    only holds from n = 4 on.
    """
    if n < 1:
        raise ValueError("sigma is defined on positive integers")
    k = 0
    while 4 ** (k + 1) <= n:
        k += 1
    if n < 2 * 4**k:
        return n // 2
    return (2 * 4**k - 1) // 2


# ---------------------------------------------------------------------------
# template expression grammar
# ---------------------------------------------------------------------------


class Coordinate(Record):
    """One parsed template coordinate: its text, its value as a function of
    n, and its exact affine form (a, b) with value a*n + b, or None where the
    value is not affine in n."""

    text: str
    eval: object  # int -> int
    form: tuple[int, int] | None


_AFFINE_RE = re.compile(r"(\d+)|(?:(\d+)\*)?n(?:\+(\d+))?")


def parse_expression(text, tau=None):
    """Parse one coordinate expression of the deliberately small grammar:
    constants, n, a*n+b, n^2, n^3, ceil(scalar*n), sigma(n), n*sigma(n),
    tau(n).  ``tau(n)`` reads the table ``tau`` (n -> value), which must be
    given; a level missing from it raises :class:`TableRangeError`."""
    s = text.replace(" ", "")
    if m := _AFFINE_RE.fullmatch(s):
        const, a, b = m.groups()
        a, b = (0, int(const)) if const is not None else (int(a or 1), int(b or 0))
        return Coordinate(s, lambda n: a * n + b, (a, b))
    if m := re.fullmatch(r"n\^([23])", s):
        k = int(m.group(1))
        return Coordinate(s, lambda n: n**k, None)
    if m := re.fullmatch(r"ceil\((.+)\*n\)", s):
        c = parse_scalar(m.group(1))
        # exact only when the multiplier is a positive integer
        form = (int(c.coeff), 0) if c.is_rational and c.coeff.denominator == 1 else None
        return Coordinate(s, lambda n: ceil_mul(c, n), form)
    if s == "sigma(n)":
        return Coordinate(s, sigma_surrogate, None)
    if s == "n*sigma(n)":
        return Coordinate(s, lambda n: n * sigma_surrogate(n), None)
    if s == "tau(n)":
        if tau is None:
            raise ValueError("tau(n) used without a tau table")

        def lookup(n):
            if n not in tau:
                raise TableRangeError(f"tau table has no entry for n={n}")
            return tau[n]

        return Coordinate(s, lookup, None)
    raise ValueError(f"expression {text!r} is outside the template grammar")


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


class Filtration:
    """Base class: a graded family spec with an evaluator for I_n."""

    def __init__(self, ctx: RingContext):
        self.ctx = ctx
        self._cache: dict[int, MonomialIdeal] = {}

    def ideal_at(self, n) -> MonomialIdeal:
        if type(n) is not int or n < 0:
            raise ValueError(f"filtration index must be an integer >= 0, got {n!r}")
        if n == 0:
            return MonomialIdeal.unit(self.ctx)
        cached = self._cache.get(n)
        if cached is None:
            cached = self._compute(n)
            self._cache[n] = cached
        return cached

    def _compute(self, n) -> MonomialIdeal:
        raise NotImplementedError

    def _fill_below(self, n):
        """Memoise levels up to n - 2 upward from the highest one held, so
        that a cold level far up is a loop, not a chain of nested calls."""
        k = n - 2
        while k > 1 and k not in self._cache:
            k -= 1
        for m in range(k + 1, n - 1):
            self.ideal_at(m)

    def localize(self, coords) -> "Filtration":
        """n -> localize(I_n, coords) as a spec of this kind in the variables
        ``coords`` (each kind's ``_localized``), or the unit filtration."""
        return self._localized(*_localized_ring(self.ctx, coords))

    def truncate(self, level) -> "TruncationFiltration":
        return TruncationFiltration(self, level)


class PowerFiltration(Filtration):
    """I_n = base^n, computed incrementally."""

    def __init__(self, base: MonomialIdeal):
        super().__init__(base.ctx)
        if base.is_zero() or base.is_unit():
            raise ValueError("power filtration needs a proper nonzero base")
        self.base = base

    def _compute(self, n):
        if n == 1:
            return self.base
        self._fill_below(n)
        return ideal_product(self.ideal_at(n - 1), self.base)

    def _localized(self, coords, sub):
        base = localize(self.base, coords)
        return _unit(sub) if base.is_unit() else PowerFiltration(base)


class DiscreteValuedFiltration(Filtration):
    """I_n = intersection of I(v_i) at level ceil(n * a_i)."""

    def __init__(self, ctx, pairs):
        super().__init__(ctx)
        pairs = tuple((v, a) for v, a in pairs)
        if not pairs:
            raise ValueError("need at least one (valuation, multiplier) pair")
        for v, a in pairs:
            if v.dim != ctx.dim:
                raise ValueError("valuation dimension mismatch")
            if not isinstance(a, ExactScalar):
                raise TypeError("multipliers must be ExactScalar values")
        self.pairs = pairs

    def _cuts(self, n):
        """The weight cuts (w_i, ceil(n * a_i)) whose meet is I_n."""
        return [(v.weights, ceil_mul(a, n)) for v, a in self.pairs]

    def _compute(self, n):
        return _weight_ideal(self._cuts(n), self.ctx)

    def _localized(self, coords, sub):
        # a cut centered outside S holds for a power of a unit there; the
        # others keep their multipliers, with the weights of S
        pairs = [(MonomialValuation(tuple(v.weights[i] for i in coords)), a)
                 for v, a in self.pairs if set(v.center()) <= set(coords)]
        return DiscreteValuedFiltration(sub, pairs) if pairs else _unit(sub)

    @property
    def is_rational_discrete_valued(self):
        return all(a.is_rational for _, a in self.pairs)


class TemplateFiltration(Filtration):
    """Fixed generator shapes with per-coordinate expressions in n."""

    def __init__(self, ctx, generators, tau=None):
        super().__init__(ctx)
        tau = None if tau is None else dict(tau)
        for n, v in (tau or {}).items():
            if type(v) is not int or v < 0:
                raise ValueError(f"tau values are integers >= 0, got tau({n}) = {v!r}")
        gens = []
        for g in generators:
            if len(g) != ctx.dim:
                raise ValueError("template generator has wrong arity")
            gens.append(tuple(parse_expression(str(e), tau) for e in g))
        if not gens:
            raise ValueError("need at least one generator template")
        self.generators = tuple(gens)
        # the table, if a coordinate reads it: its range is that of the spec
        self._tau = tau if any(c.text == "tau(n)" for g in gens for c in g) else None

    def _shapes(self, n):
        """The generator shapes at level n, nonnegative integer exponents
        not minimalised; a level outside the tau table raises
        :class:`TableRangeError`."""
        if self._tau is not None and n not in self._tau:
            raise TableRangeError(f"tau table has no entry for n={n}")
        return [tuple(coord.eval(n) for coord in g) for g in self.generators]

    def _compute(self, n):
        return MonomialIdeal(self.ctx, self._shapes(n))

    def _localized(self, coords, sub):
        loc = TemplateFiltration(
            sub, [[g[i].text for i in coords] for g in self.generators], self._tau)
        loc._tau = self._tau  # past the table, even with tau(n) dropped
        return loc

    def generator_affine_forms(self):
        """Per-generator tuples of (a, b) coordinate forms, or None entries
        where a coordinate is not affine in n."""
        return tuple(tuple(coord.form for coord in g) for g in self.generators)


class TableFiltration(Filtration):
    """Explicit ideals for n = 1..N; evaluation beyond N is an error."""

    def __init__(self, ctx, ideals):
        super().__init__(ctx)
        ideals = tuple(ideals)
        for I in ideals:
            if I.dim != ctx.dim:
                raise ValueError("table ideal dimension mismatch")
        self.ideals = ideals

    def _compute(self, n):
        if n > len(self.ideals):
            raise TableRangeError(
                f"table filtration only stores n <= {len(self.ideals)}, got {n}")
        return self.ideals[n - 1]

    def _localized(self, coords, sub):
        return TableFiltration(sub, [localize(I, coords) for I in self.ideals])


class TruncationFiltration(Filtration):
    """I[i]_n = sum over compositions of n into parts <= i of the products,
    via the dynamic program I[i]_n = sum_{j <= i} I_j * I[i]_{n-j}, each
    level one sum of products (``ring._products``)."""

    def __init__(self, parent: Filtration, level):
        if type(level) is not int or level < 1:
            raise ValueError(f"truncation level must be an integer >= 1, got {level!r}")
        super().__init__(parent.ctx)
        self.parent = parent
        self.level = level

    def _compute(self, n):
        if n <= self.level:
            return self.parent.ideal_at(n)
        self._fill_below(n)
        return _products(self.ctx, [(self.parent.ideal_at(j), self.ideal_at(n - j))
                                    for j in range(1, self.level + 1)])

    def _localized(self, coords, sub):
        return self.parent._localized(coords, sub).truncate(self.level)


def _unit(ctx):
    """The unit filtration: the template of the one generator 1."""
    return TemplateFiltration(ctx, [("0",) * ctx.dim])


# ---------------------------------------------------------------------------
# filtration-level operations
# ---------------------------------------------------------------------------


def _levels(F: Filtration, N):
    """The pairs (n, I_n) for n = 1..N, built lazily in n-order, N checked
    first: the one level loop of every length sequence and bounded search."""
    if type(N) is not int or N < 1:
        raise ValueError("N must be at least 1")
    return ((n, F.ideal_at(n)) for n in range(1, N + 1))


class Witness(Record):
    """First pair with I_m * I_n not contained in I_{m+n}."""

    m: int
    n: int


def validate_filtration(F: Filtration, N):
    """Check the graded family axiom for all m + n <= N, N >= 2; return None
    when it holds, else the first violating pair (by total degree, then m)."""
    if type(N) is not int or N < 2:
        raise ValueError("N must be at least 2")
    for s in range(2, N + 1):
        Is = F.ideal_at(s)
        for m in range(1, s // 2 + 1):
            prod = ideal_product(F.ideal_at(m), F.ideal_at(s - m))
            if not Is.contains_ideal(prod):
                return Witness(m, s - m)
    return None


def filtration_dimension(F: Filtration):
    """dim R/I_1 (independent of the level for a filtration)."""
    I1 = F.ideal_at(1)
    if not I1.is_proper():
        raise ValueError("filtration dimension needs a proper nonzero I_1")
    return dim_quotient(I1)
