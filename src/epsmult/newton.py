"""Integral closure of monomial ideals, read off the Newton polyhedron NP(I)
that ``_polyhedra`` holds, and bounded comparison of filtration Rees
algebra closures.

Degreewise closure membership of x^a at degree m over a filtration asks for
some r with r*a in the Newton polyhedron of I_(rm).  A positive answer is a
witness exponent; a *negative* answer needs a certificate valid for all r
at once, and one is attempted only where the weight values nu_w(I_(rm)) are
provably affine in r: affine generator templates, and rational
discrete-valued specs (whose Rees algebras are already integrally closed,
reducing membership to plain containment).  Everything else is reported
Unknown rather than guessed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._polyhedra import _dot, _facets, _inside, _lp_convex_dominated
from ._record import Record
from .filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TemplateFiltration,
)
from .ring import (
    DimensionMismatchError,
    MonomialIdeal,
    _check_exponent,
    _weight_ideal,
)
from .textio import fraction_str, monomial_obj
from .valuation import MonomialValuation, valuation_of_ideal

__all__ = [
    "np_membership",
    "integral_closure",
    "ClosureMembership",
    "SeparationCertificate",
    "ContainmentCertificate",
    "ClosureVerdict",
    "filtration_integral_member",
    "verify_separation_certificate",
    "rees_closure_compare",
]


def np_membership(I: MonomialIdeal, a) -> bool:
    """x^a lies in the Newton polyhedron of I (equivalently, in the integral
    closure of I for monomial ideals): in d <= 3 by its exact facets, in
    higher dimension by the exact LP."""
    if I.is_zero():
        raise ValueError("the zero ideal has no Newton polyhedron")
    a = _check_exponent(a, I.dim)
    if I.dim > 3:
        return I.contains(a) or _lp_convex_dominated(I.gens, a)
    return _inside(I, a)


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Minimal lattice points of the Newton polyhedron.  In d <= 3 that is
    the ideal of the facet inequalities w.a >= rhs.  In higher dimension
    the box up to the componentwise generator maximum is enumerated
    (beyond it, points are dominated)."""
    if I.is_zero():
        raise ValueError("integral closure of the zero ideal")
    if I.is_unit():
        return I
    if I.dim <= 3:
        return _weight_ideal(_facets(I), I.ctx)
    box = [range(max(g[i] for g in I.gens) + 1) for i in range(I.dim)]
    return MonomialIdeal(I.ctx, [p for p in itertools.product(*box)
                                 if np_membership(I, p)])


# ---------------------------------------------------------------------------
# degreewise closure membership over a filtration
# ---------------------------------------------------------------------------


class SeparationCertificate(Record):
    """A weight w >= 0 excluding x^a from the degree-m closure for every r:
    nu_w(I_(rm)) >= slope*r + intercept while w.(r*a) = r*(w.a), and either
    w.a < slope, or w.a = slope with intercept > 0."""

    degree: int
    monomial: tuple
    weight: tuple
    slope: Fraction
    intercept: Fraction

    def to_obj(self, names=None):
        return {
            "kind": "affine-weight",
            "degree": self.degree,
            "monomial": monomial_obj(self.monomial, names),
            "weight": list(self.weight),
            "slope": fraction_str(self.slope),
            "intercept": fraction_str(self.intercept),
        }


class ContainmentCertificate(Record):
    """For a rational discrete-valued spec the Rees algebra is integrally
    closed, so degree-m closure membership is plain containment in I_m."""

    degree: int
    monomial: tuple

    def to_obj(self, names=None):
        return {
            "kind": "closed-filtration-containment",
            "degree": self.degree,
            "monomial": monomial_obj(self.monomial, names),
        }


class ClosureMembership(Record):
    status: str  # "yes" | "no" | "unknown"
    r: int | None = None
    certificate: object | None = None


def _weight_candidates(F: Filtration, m):
    """The nonzero 0/1 weights, then the facet normals of NP(I_m) in d <= 3.
    For a power filtration NP(I_m) = m * NP(base) has the base's normals in
    the same order, so I_m is not built."""
    d = F.ctx.dim
    cands = [bits for bits in itertools.product((0, 1), repeat=d) if any(bits)]
    if d > 3:
        return cands
    Im = F.base if isinstance(F, PowerFiltration) else F.ideal_at(m)
    for w, _ in _facets(Im):
        if w not in cands:
            cands.append(w)
    return cands


def _affine_separation(F: TemplateFiltration | PowerFiltration, a, m):
    """Try to exclude x^a from degree-m closure membership using a weight
    whose values on the generators of I_(rm) are affine in r.  A template
    generator coordinate f_a*n + f_b is m*f_a*r + f_b there.  Weight values
    are additive on products of monomial ideals, so for an ideal-power
    filtration nu_w(I_(rm)) = r*m * nu_w(base) exactly: the forms are the
    generators g of the base with slope m*(w.g) and intercept 0, and a
    weight with w.a < m * nu_w(base) excludes every r."""
    if isinstance(F, PowerFiltration):
        forms = [(g, (0,) * len(g)) for g in F.base.gens]
    else:
        forms = F.generator_affine_forms()
        if any(f is None for g in forms for f in g):
            return None
        forms = [tuple(zip(*g)) for g in forms]  # (slopes, intercepts) per generator
    for w in _weight_candidates(F, m):
        wa = _dot(w, a)
        per_gen = [(Fraction(m * _dot(w, s)), Fraction(_dot(w, c))) for s, c in forms]
        if all(wa < s or (wa == s and c > 0) for s, c in per_gen):
            slope = min(s for s, _ in per_gen)
            intercept = min(c for s, c in per_gen if s == slope)
            return SeparationCertificate(
                degree=m, monomial=tuple(a), weight=tuple(w),
                slope=slope, intercept=intercept)
    return None


def filtration_integral_member(F: Filtration, a, m, r_max) -> ClosureMembership:
    """Does x^a lie in the degree-m piece of the integral closure of the
    Rees algebra of F?  Yes(r) is witnessed by r*a in NP(I_(rm)); No carries
    a certificate excluding every r; otherwise Unknown.

    Over the powers of an ideal I in d <= 3 variables one polyhedron
    decides every r: NP(I^(rm)) = rm * NP(I), so for r >= 1, r*a lies in
    it exactly when w.a >= m*rhs for every facet (w, rhs) of NP(I).  The
    answer is then Yes(1) or, as no larger r can do better, a separation
    attempt; neither builds I^(rm).  A monomial with other than d entries
    raises DimensionMismatchError."""
    if m < 1:
        raise ValueError("degree must be positive")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    a = _check_exponent(a, F.ctx.dim)
    if isinstance(F, DiscreteValuedFiltration) and F.is_rational_discrete_valued:
        if F.ideal_at(m).contains(a):
            return ClosureMembership(status="yes", r=1)
        return ClosureMembership(
            status="no",
            certificate=ContainmentCertificate(degree=m, monomial=a))
    if isinstance(F, PowerFiltration) and F.ctx.dim <= 3 and r_max >= 1:
        if _inside(F.base, a, m):
            return ClosureMembership(status="yes", r=1)
    else:
        for r in range(1, r_max + 1):
            Irm = F.ideal_at(r * m)
            if Irm.is_zero():
                continue
            if np_membership(Irm, tuple(r * c for c in a)):
                return ClosureMembership(status="yes", r=r)
    if isinstance(F, (TemplateFiltration, PowerFiltration)):
        cert = _affine_separation(F, a, m)
        if cert is not None:
            return ClosureMembership(status="no", certificate=cert)
    return ClosureMembership(status="unknown")


def verify_separation_certificate(F: Filtration, cert: SeparationCertificate,
                                  r_checks=100) -> bool:
    """Numeric re-check of a separation certificate: for r = 1..r_checks the
    weight value of I_(r*degree) strictly exceeds r * (w . a)."""
    v = MonomialValuation(cert.weight)
    wa = v.value(cert.monomial)
    for r in range(1, r_checks + 1):
        if not r * wa < valuation_of_ideal(v, F.ideal_at(r * cert.degree)):
            return False
    return True


# ---------------------------------------------------------------------------
# bounded comparison of Rees algebra closures
# ---------------------------------------------------------------------------


class ClosureVerdict(Record):
    """Outcome of comparing the integral closures of two filtration Rees
    algebras degree by degree up to a bound."""

    outcome: str  # "equal-up-to-bound" | "proven-different" | "inconclusive"
    bound: int
    r_max: int
    max_r_used: int = 0
    degree: int | None = None
    monomial: tuple | None = None
    direction: str | None = None
    certificate: object | None = None
    unresolved: tuple = ()

    def to_obj(self, names=None):
        obj = {
            "outcome": self.outcome,
            "bound": self.bound,
            "r_max": self.r_max,
            "max_r_used": self.max_r_used,
        }
        if self.outcome == "proven-different":
            obj["degree"] = self.degree
            obj["monomial"] = monomial_obj(self.monomial, names)
            obj["direction"] = self.direction
            obj["certificate"] = (self.certificate.to_obj(names)
                                  if self.certificate is not None else None)
        if self.unresolved:
            obj["unresolved"] = [
                {"degree": n, "monomial": monomial_obj(g, names), "direction": side}
                for n, g, side in self.unresolved
            ]
        return obj


def _powers_inside(left: Filtration, right: Filtration, r_max):
    """Every generator of left_n is in the degree-n closure of right with
    r = 1, for every n, by the base-facet rule: both are powers in d <= 3,
    r_max >= 1, and w.h >= rhs for every generator h of left's base and
    every facet (w, rhs) of NP(right's base).  A generator of left_n is a
    sum of n such h, so it lies in n * NP(right's base) = NP(right_n)."""
    if not (isinstance(left, PowerFiltration) and isinstance(right, PowerFiltration)
            and left.ctx.dim <= 3 and r_max >= 1):
        return False
    return all(_inside(right.base, h) for h in left.base.gens)


def rees_closure_compare(F: Filtration, G: Filtration, N, r_max) -> ClosureVerdict:
    """Test every minimal generator of F_n for degree-n closure membership
    over G and vice versa, for n <= N.  Any proven exclusion settles the
    comparison; full success bounds equality up to (N, r_max); unresolved
    pairs make the verdict inconclusive.

    A direction between two powers in d <= 3 with r_max >= 1 is first
    decided from the bases by the base-facet rule: if every generator of
    the left base lies in NP(right base), every membership in it is Yes
    with r = 1 and left_n is never built.  Otherwise its generators are
    tested one by one, which settles powers at n = 1, where F_1 is the
    base.  Filtrations over rings of different dimension raise
    DimensionMismatchError."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if F.ctx.dim != G.ctx.dim:
        raise DimensionMismatchError(
            f"filtrations live in dimension {F.ctx.dim} and {G.ctx.dim}")
    directions = [(left, right, side, _powers_inside(left, right, r_max))
                  for left, right, side in ((F, G, "left-into-right"),
                                            (G, F, "right-into-left"))]
    unresolved = []
    max_r = 0
    for n in range(1, N + 1):
        for left, right, side, inside in directions:
            if inside:
                max_r = max(max_r, 1)
                continue
            for g in left.ideal_at(n).gens:
                res = filtration_integral_member(right, g, n, r_max)
                if res.status == "no":
                    return ClosureVerdict(
                        outcome="proven-different", bound=N, r_max=r_max,
                        max_r_used=max_r, degree=n, monomial=g,
                        direction=side, certificate=res.certificate)
                if res.status == "unknown":
                    unresolved.append((n, g, side))
                else:
                    max_r = max(max_r, res.r)
    if unresolved:
        return ClosureVerdict(outcome="inconclusive", bound=N, r_max=r_max,
                              max_r_used=max_r, unresolved=tuple(unresolved))
    return ClosureVerdict(outcome="equal-up-to-bound", bound=N, r_max=r_max,
                          max_r_used=max_r)
