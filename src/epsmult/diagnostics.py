"""Saturation diagnostics for filtrations: the A(c) comparison, analytic
spread certificates, and a toric lattice rank upper bound.

Property A(c) asks that (I_n : m^infinity) meet m^(cn) equal I_n meet m^(cn)
for all n; it is exactly the hypothesis under which the normalized
saturation-quotient sequence converges, so failures are reported with a
re-checkable witness monomial.

Spread certificates come in two kinds.  A maximality certificate records an
n with I_n strictly smaller than its saturation (the maximal ideal is then
an associated prime of R/I_n); the conclusion that the analytic spread
equals the ring dimension is only asserted for certified representations
(ideal powers or rational discrete-valued specs), otherwise the verdict
reports that the criterion holds but the inference is withheld.  A
zero-spread certificate records, for every minimal generator g of I_n, an
exponent r with g^r in m * I_(rn); such generator-level certificates imply
element-level nilpotency for a common exponent by pigeonhole (recorded per
degree), which forces the fiber cone to be zero dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .filtration import DiscreteValuedFiltration, Filtration
from .ring import (
    MonomialIdeal,
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


@dataclass(frozen=True)
class AcReport:
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
    """Compare saturate(I_n) cap m^(cn) with I_n cap m^(cn) as canonical
    ideals for every n <= N; the first mismatch yields a witness generator."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    ctx = F.ctx
    for n in range(1, N + 1):
        In = F.ideal_at(n)
        mcn = maximal_power(ctx, c * n)
        left = intersect(saturate(In), mcn)
        right = intersect(In, mcn)
        if left != right:
            # right <= left always, so some generator of left is missing
            witness = next(g for g in left.gens if not right.contains(g))
            return AcReport(c=c, bound=N, holds=False, witness_n=n,
                            witness=witness)
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


@dataclass(frozen=True)
class MaxSpreadCertificate:
    """Witness that I_n differs from its saturation, plus what may be
    concluded from it for this representation."""

    witness_n: int
    representation: str  # "ideal-power" | "rational-discrete-valued" | "uncertified"
    asserted_spread: int | None
    note: str

    @property
    def criterion_holds(self):
        return True

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
    for n in range(1, N + 1):
        In = F.ideal_at(n)
        if saturate(In) != In:
            if F.is_power:
                rep = "ideal-power"
            elif F.is_rational_discrete_valued:
                rep = "rational-discrete-valued"
            else:
                rep = "uncertified"
            if rep == "uncertified":
                return MaxSpreadCertificate(
                    witness_n=n, representation=rep, asserted_spread=None,
                    note=("criterion holds; maximal-spread conclusion "
                          "inapplicable (not certified rational "
                          "discrete-valued)"))
            return MaxSpreadCertificate(
                witness_n=n, representation=rep, asserted_spread=d,
                note=(f"saturation gap at n={n}; analytic spread equals the "
                      f"ring dimension {d} for this representation"))
    return None


@dataclass(frozen=True)
class ZeroSpreadCertificate:
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


@dataclass(frozen=True)
class ZeroSpreadNotFound:
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
    spread evidence, any failure returns the offending pair."""
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    m = MonomialIdeal.maximal(F.ctx)
    entries = []
    for n in range(1, N + 1):
        In = F.ideal_at(n)
        for g in In.gens:
            bound = _adaptive_r_bound(F, n, r_max)
            found = None
            for r in range(2, bound + 1):
                target = ideal_product(m, F.ideal_at(r * n))
                if target.contains(tuple(r * e for e in g)):
                    found = r
                    break
            if found is None:
                return ZeroSpreadNotFound(n=n, generator=g, searched_up_to=bound)
            entries.append((n, g, found))
    return ZeroSpreadCertificate(bound=N, r_max=r_max, entries=tuple(entries))


def verify_zero_certificate(F: Filtration, cert: ZeroSpreadCertificate) -> bool:
    """Re-check every generator certificate by direct containment."""
    m = MonomialIdeal.maximal(F.ctx)
    for n, g, r in cert.entries:
        target = ideal_product(m, F.ideal_at(r * n))
        if not target.contains(tuple(r * e for e in g)):
            return False
    return True


def _rational_rank(rows):
    """Exact rank of an integer matrix by fraction-free style elimination."""
    mat = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(row + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def toric_rank_bound(F: Filtration, N) -> int:
    """Rank of the lattice spanned by (g, n) over minimal generators g of
    I_n for n <= N, clamped to the ring dimension.  This is an upper bound
    for the analytic spread (the fiber cone is a quotient of the toric
    algebra on these exponents), never an exact value."""
    rows = []
    for n in range(1, N + 1):
        for g in F.ideal_at(n).gens:
            rows.append(list(g) + [n])
    if not rows:
        return 0
    return min(_rational_rank(rows), F.ctx.dim)
