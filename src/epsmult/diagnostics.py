"""Saturation diagnostics for filtrations: the A(c) comparison, analytic
spread certificates, and a toric lattice rank upper bound.

Property A(c) asks that (I_n : m^infinity) meet m^(cn) equal I_n meet m^(cn)
for all n; it is exactly the hypothesis under which the normalized
saturation-quotient sequence converges, so failures are reported with a
re-checkable witness monomial.  It holds at n exactly when every monomial
of sat(I_n) outside I_n has degree below cn, which ``check_Ac`` reads off
the two ideals (``ring._gap_top``) without building m^(cn).

Spread certificates come in two kinds.  A maximality certificate records an
n with I_n strictly smaller than its saturation (the maximal ideal is then
an associated prime of R/I_n); the conclusion that the analytic spread
equals the ring dimension is only asserted for certified representations
(ideal powers or rational discrete-valued specs), otherwise the verdict
reports that the criterion holds but the inference is withheld.  A
zero-spread certificate records, for every minimal generator g of I_n, an
exponent r with g^r in m * I_(rn); such generator-level certificates imply
element-level nilpotency for a common exponent by pigeonhole (recorded per
degree), which forces the fiber cone to be zero dimensional.  The search
decides g^r in m * I_(rn) from the generator shapes of a template, and by
membership in I_(rn) (``ring._in_m_times``) for every other kind, never
listing its generators.  The toric rank bound reads levels only until the
rank reaches the ring dimension.
"""

from __future__ import annotations

from math import gcd
from operator import le

from ._record import Record
from .filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TemplateFiltration,
    _levels,
)
from .ring import (
    MonomialIdeal,
    _gap_top,
    _in_m_times,
    ideal_product,
    intersect,
    maximal_power,
    saturate,
)
from .textio import monomial_obj
from .valuation import ceil_defect_lower_bound

__all__ = [
    "AcReport",
    "MaxSpreadCertificate",
    "ZeroSpreadCertificate",
    "ZeroSpreadNotFound",
    "check_Ac",
    "verify_ac_witness",
    "spread_max_test",
    "spread_zero_test",
    "verify_zero_certificate",
    "toric_rank_bound",
]


class AcReport(Record):
    """Outcome of the A(c) comparison up to the bound N."""

    c: int
    bound: int
    holds: bool
    witness_n: int | None = None
    witness: tuple | None = None  # exponent of a monomial in sat cap m^cn but not I_n

    def to_obj(self, names=None):
        obj = {"c": self.c, "bound": self.bound,
               "verdict": "holds-up-to-bound" if self.holds else "fails"}
        if not self.holds:
            obj["witness_n"] = self.witness_n
            obj["witness"] = monomial_obj(self.witness, names)
        return obj


def check_Ac(F: Filtration, c, N) -> AcReport:
    """Decide saturate(I_n) cap m^(cn) = I_n cap m^(cn) for every n <= N:
    it holds exactly when the largest degree of a monomial of
    saturate(I_n) outside I_n (``ring._gap_top``, -1 for a zero I_n) is
    finite and below cn.  Only the first failing level builds m^(cn) and
    both meets, and its witness is the first generator, in grlex order, of
    the left one outside the right one."""
    if type(c) is not int or c < 1:
        raise ValueError("c must be a positive integer")
    for n, In in _levels(F, N):
        sat = saturate(In)
        top = _gap_top(sat, In)
        if top is not None and top < c * n:
            continue
        mcn = maximal_power(F.ctx, c * n)
        right = intersect(In, mcn)
        # right <= left, and the gap reaches degree cn, so some generator
        # of left is missing from right
        witness = next(g for g in intersect(sat, mcn).gens if not right.contains(g))
        return AcReport(c=c, bound=N, holds=False, witness_n=n, witness=witness)
    return AcReport(c=c, bound=N, holds=True)


def verify_ac_witness(F: Filtration, report: AcReport) -> bool:
    """Re-check a failure witness: it lies in saturate(I_n) and in m^(cn)
    but not in I_n."""
    if report.holds:
        raise ValueError("report has no witness")
    n, w = report.witness_n, report.witness
    In = F.ideal_at(n)
    return (saturate(In).contains(w)
            and sum(w) >= report.c * n
            and not In.contains(w))


class MaxSpreadCertificate(Record):
    """Witness that I_n differs from its saturation, plus what may be
    concluded from it for this representation."""

    witness_n: int
    representation: str  # "ideal-power" | "rational-discrete-valued" | "uncertified"
    asserted_spread: int | None
    note: str

    def to_obj(self, names=None):
        return {
            "kind": "maximal",
            "witness_n": self.witness_n,
            "representation": self.representation,
            "asserted_spread": self.asserted_spread,
            "note": self.note,
        }


def spread_max_test(F: Filtration, N):
    """Search n <= N with saturate(I_n) != I_n.  For certified
    representations (ideal powers, rational discrete-valued) the certificate
    asserts that the analytic spread equals the ring dimension; otherwise it
    only reports that the criterion holds."""
    d = F.ctx.dim
    for n, In in _levels(F, N):
        if saturate(In) != In:
            if isinstance(F, PowerFiltration):
                rep = "ideal-power"
            elif isinstance(F, DiscreteValuedFiltration) and F.is_rational_discrete_valued:
                rep = "rational-discrete-valued"
            else:
                return MaxSpreadCertificate(
                    witness_n=n, representation="uncertified", asserted_spread=None,
                    note=("criterion holds; maximal-spread conclusion "
                          "inapplicable (not certified rational "
                          "discrete-valued)"))
            return MaxSpreadCertificate(
                witness_n=n, representation=rep, asserted_spread=d,
                note=(f"saturation gap at n={n}; analytic spread equals the "
                      f"ring dimension {d} for this representation"))
    return None


class ZeroSpreadCertificate(Record):
    """Per-generator nilpotency data: for each n <= bound and each minimal
    generator g of I_n, an r with g^r in m * I_(rn).

    Generator certificates amplify to all of I_n: if I_n has s generators
    with largest exponent r*, then any product of R = s*r* + 1 generators
    repeats one of them at least r* + 1 times, so f^R lands in m * I_(Rn)
    for every f in I_n.  The amplified exponent is recorded per degree.
    """

    bound: int
    r_max: int
    entries: tuple  # (n, generator exponent, r)

    def amplified_exponents(self):
        per_n: dict[int, list[int]] = {}
        for n, _, r in self.entries:
            per_n.setdefault(n, []).append(r)
        return {n: len(rs) * max(rs) + 1 for n, rs in per_n.items()}

    def to_obj(self, names=None):
        return {
            "kind": "zero-evidence",
            "bound": self.bound,
            "r_max": self.r_max,
            "certificates": [
                {"n": n, "generator": monomial_obj(g, names), "r": r}
                for n, g, r in self.entries
            ],
            "amplified_exponents": {
                str(n): e for n, e in self.amplified_exponents().items()
            },
        }


class ZeroSpreadNotFound(Record):
    """The first (n, generator) for which no exponent r <= bound worked."""

    n: int
    generator: tuple
    searched_up_to: int

    def to_obj(self, names=None):
        return {
            "kind": "not-found",
            "n": self.n,
            "generator": monomial_obj(self.generator, names),
            "searched_up_to": self.searched_up_to,
        }


def _adaptive_r_bound(F: Filtration, n, r_max):
    """For ceil-of-irrational specs the needed r scales like the inverse of
    the ceiling defect, so raise the search bound accordingly."""
    if not isinstance(F, DiscreteValuedFiltration):
        return r_max
    bound = r_max
    for _, a in F.pairs:
        if a.is_rational:
            continue
        defect = ceil_defect_lower_bound(a, n)
        bound = max(bound, int(2 / defect) + 2)
    return bound


def spread_zero_test(F: Filtration, N, r_max):
    """Search, for each n <= N and each minimal generator g of I_n, an
    exponent r with g^r in m * I_(rn); full success certifies zero analytic
    spread evidence, any failure returns the offending pair.

    Level n tries r = 2..bound(n), where bound(n) is r_max raised to
    int(2 / defect) + 2 for each irrational multiplier a of a discrete-valued
    F, defect being a certified lower bound on ceil(n*a) - n*a; a failure
    reports bound(n) as ``searched_up_to``.

    m * I_(rn) is never built.  For a template, x^b lies in it exactly
    when some generator shape h of level rn has h <= b and h != b, so
    I_(rn) is not built either (a level past a tau table still raises);
    for every other kind ``ring._in_m_times`` decides it from I_(rn) (the
    exponents come from minimal generators, so they need no validation)."""
    levels = _levels(F, N)
    if type(r_max) is not int or r_max < 2:
        raise ValueError("r_max must be at least 2")
    if isinstance(F, TemplateFiltration):
        shapes = {}  # k -> the shapes of level k, shared by every g and r

        def in_m_times(k, b):
            hs = shapes.get(k)
            if hs is None:
                hs = shapes[k] = F._shapes(k)
            for h in hs:
                if h != b and all(map(le, h, b)):
                    return True
            return False
    else:
        def in_m_times(k, b):
            return _in_m_times(F.ideal_at(k), b)
    entries = []
    for n, In in levels:
        bound = _adaptive_r_bound(F, n, r_max)
        for g in In.gens:
            found = None
            for r in range(2, bound + 1):
                if in_m_times(r * n, tuple([r * e for e in g])):
                    found = r
                    break
            if found is None:
                return ZeroSpreadNotFound(n=n, generator=g, searched_up_to=bound)
            entries.append((n, g, found))
    return ZeroSpreadCertificate(bound=N, r_max=r_max, entries=tuple(entries))


def verify_zero_certificate(F: Filtration, cert: ZeroSpreadCertificate) -> bool:
    """Re-check every generator certificate by direct containment in
    m * I_(rn), built with ``ideal_product``: an independent check of the
    membership rule that ``spread_zero_test`` decides by."""
    m = MonomialIdeal.maximal(F.ctx)
    targets = {}  # r*n -> m * I_(rn)
    for n, g, r in cert.entries:
        if r * n not in targets:
            targets[r * n] = ideal_product(m, F.ideal_at(r * n))
        if not targets[r * n].contains(tuple(r * e for e in g)):
            return False
    return True


def _capped_rank(rows, cap):
    """min(rank, cap) of the integer rows, read lazily: each row is reduced
    fraction-free against an echelon basis (each basis row zero at the
    pivots of the rows before it, divided by the gcd of its entries), kept
    if a nonzero entry is left, and no row is read once the basis holds
    ``cap`` rows (cap >= 1)."""
    basis = []  # (pivot column, row)
    for row in rows:
        for col, b in basis:
            f = row[col]
            if f:
                p = b[col]
                row = [p * x - f * y for x, y in zip(row, b)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        g = gcd(*row)
        basis.append((pivot, [x // g for x in row]))
        if len(basis) == cap:
            break
    return len(basis)


def toric_rank_bound(F: Filtration, N) -> int:
    """Rank of the lattice spanned by (g, n) over minimal generators g of
    I_n for n <= N, clamped to the ring dimension d.  This is an upper bound
    for the analytic spread (the fiber cone is a quotient of the toric
    algebra on these exponents), never an exact value.  Levels are read in
    n-order only until the rank reaches d, so no later level is built: one
    past that point that would raise (a table shorter than N) does not
    raise here."""
    return _capped_rank((g + (n,) for n, In in _levels(F, N) for g in In.gens),
                        F.ctx.dim)
