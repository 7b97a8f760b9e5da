"""Newton polyhedra, integral closure of monomial ideals, and bounded
comparison of filtration Rees algebra closures.

For a monomial ideal the integral closure consists of the lattice points of
the Newton polyhedron (convex hull of the generator exponents plus the
nonnegative orthant).  Membership is decided by an exact rational
feasibility LP; in up to three variables a halfspace description is also
computed and the two routes are required to agree.

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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TemplateFiltration,
)
from .ring import MonomialIdeal
from .textio import fraction_str, monomial_obj
from .valuation import MonomialValuation, valuation_of_ideal

__all__ = [
    "NewtonPolyhedron",
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


# ---------------------------------------------------------------------------
# exact feasibility LP (phase-1 simplex with Bland's rule)
# ---------------------------------------------------------------------------


def _lp_convex_dominated(gens, a):
    """Is there lambda >= 0 with sum(lambda) = 1 and sum(lambda_i g_i) <= a
    componentwise?  Exact rational simplex, Bland's rule (no cycling)."""
    k = len(gens)
    d = len(a)
    ncols = k + d + 1  # lambdas, slacks, one artificial for the sum row
    rows = []
    for j in range(d):
        row = [Fraction(g[j]) for g in gens] + [Fraction(0)] * (d + 1) + [Fraction(a[j])]
        row[k + j] = Fraction(1)
        rows.append(row)
    sumrow = [Fraction(1)] * k + [Fraction(0)] * d + [Fraction(1), Fraction(1)]
    rows.append(sumrow)
    basis = list(range(k, k + d)) + [k + d]
    cost = [Fraction(0)] * (k + d) + [Fraction(1)]
    nrows = d + 1
    while True:
        y = [cost[basis[i]] for i in range(nrows)]
        enter = None
        for j in range(ncols):
            cbar = cost[j] - sum(y[i] * rows[i][j] for i in range(nrows) if y[i])
            if cbar < 0:
                enter = j
                break
        if enter is None:
            value = sum(y[i] * rows[i][-1] for i in range(nrows) if y[i])
            return value == 0
        leave = None
        best = None
        for i in range(nrows):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("unbounded phase-1 objective")  # cannot happen
        pivot = rows[leave][enter]
        rows[leave] = [c / pivot for c in rows[leave]]
        for i in range(nrows):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [c - f * p for c, p in zip(rows[i], rows[leave])]
        basis[leave] = enter


def _primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, c)
    return tuple(c // g for c in vec) if g else None


def _halfspace_normals(gens, d):
    """Candidate outer normals (w >= 0) covering every facet of
    conv(gens) + orthant, for d <= 3.  Extra valid inequalities are
    harmless since each is used with rhs = min_g w.g."""
    normals = set()
    for i in range(d):
        normals.add(tuple(1 if j == i else 0 for j in range(d)))
    if d == 2:
        for g, h in itertools.combinations(gens, 2):
            w = (g[1] - h[1], h[0] - g[0])
            if w[0] < 0 or w[1] < 0:
                w = (-w[0], -w[1])
            if w[0] >= 0 and w[1] >= 0:
                p = _primitive(w)
                if p:
                    normals.add(p)
    elif d == 3:
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

        def cross(u, v):
            return (u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0])

        dirs = []
        for g, h in itertools.combinations(gens, 2):
            dirs.append(tuple(b - a for a, b in zip(g, h)))
        candidates = []
        for u, v in itertools.combinations(dirs, 2):
            candidates.append(cross(u, v))
        for u in dirs:
            for e in axes:
                candidates.append(cross(u, e))
        for w in candidates:
            for sign in (1, -1):
                sw = tuple(sign * c for c in w)
                if all(c >= 0 for c in sw) and any(c > 0 for c in sw):
                    p = _primitive(sw)
                    if p:
                        normals.add(p)
    else:
        raise ValueError("halfspace description only computed for d <= 3")
    return tuple(sorted(normals))


class NewtonPolyhedron:
    """Convex hull of the generator exponents plus the nonnegative orthant.

    Membership is answered by the LP route in any dimension; in d <= 3 a
    halfspace description is built on demand and must agree with the LP."""

    def __init__(self, I: MonomialIdeal):
        if I.is_zero():
            raise ValueError("the zero ideal has no Newton polyhedron")
        self.ideal = I
        self._halfspaces = None

    def halfspaces(self):
        """Pairs (w, rhs) with the polyhedron equal to {x >= 0 : w.x >= rhs}."""
        if self._halfspaces is None:
            gens = self.ideal.gens
            normals = _halfspace_normals(gens, self.ideal.dim)
            self._halfspaces = tuple(
                (w, min(sum(wc * gc for wc, gc in zip(w, g)) for g in gens))
                for w in normals)
        return self._halfspaces

    def contains(self, a, method="lp"):
        if len(a) != self.ideal.dim:
            raise ValueError("point has wrong dimension")
        if method == "lp":
            return _lp_convex_dominated(self.ideal.gens, a)
        if method == "halfspace":
            return all(
                sum(wc * ac for wc, ac in zip(w, a)) >= rhs
                for w, rhs in self.halfspaces())
        raise ValueError(f"unknown method {method!r}")


def np_membership(I: MonomialIdeal, a) -> bool:
    """x^a lies in the Newton polyhedron of I (equivalently, in the integral
    closure of I for monomial ideals)."""
    if I.is_zero():
        raise ValueError("membership in the zero ideal's polyhedron is undefined")
    if I.contains(a):
        return True
    return _lp_convex_dominated(I.gens, tuple(a))


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Minimal lattice points of the Newton polyhedron.  Minimal generators
    live inside the componentwise generator maximum (beyond it, points are
    dominated), so that box is enumerated."""
    if I.is_zero():
        raise ValueError("integral closure of the zero ideal")
    if I.is_unit():
        return I
    d = I.dim
    box = tuple(max(g[i] for g in I.gens) for i in range(d))
    if d == 2:
        np_ = NewtonPolyhedron(I)
        hs = np_.halfspaces()
        pts = []
        for a in range(box[0] + 1):
            ymin = 0
            ok = True
            for (wx, wy), rhs in hs:
                need = rhs - wx * a
                if wy == 0:
                    if need > 0:
                        ok = False
                        break
                elif need > 0:
                    ymin = max(ymin, -(-need // wy))
            if ok:
                pts.append((a, ymin))
        return MonomialIdeal(I.ctx, pts)
    if d == 3:
        np_ = NewtonPolyhedron(I)
        pts = [
            p for p in itertools.product(*(range(b + 1) for b in box))
            if np_.contains(p, method="halfspace")
        ]
        return MonomialIdeal(I.ctx, pts)
    pts = [
        p for p in itertools.product(*(range(b + 1) for b in box))
        if np_membership(I, p)
    ]
    return MonomialIdeal(I.ctx, pts)


# ---------------------------------------------------------------------------
# degreewise closure membership over a filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
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


@dataclass(frozen=True)
class ContainmentCertificate:
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


@dataclass(frozen=True)
class ClosureMembership:
    status: str  # "yes" | "no" | "unknown"
    r: int | None = None
    certificate: object | None = None


def _template_affine_data(F: TemplateFiltration):
    forms = F.generator_affine_forms()
    if any(f is None for g in forms for f in g):
        return None
    return forms


def _weight_candidates(F: Filtration, m):
    d = F.ctx.dim
    cands = []
    for bits in itertools.product((0, 1), repeat=d):
        if any(bits):
            cands.append(bits)
    Im = F.ideal_at(m)
    if not Im.is_zero() and d <= 3:
        for w, _ in NewtonPolyhedron(Im).halfspaces():
            if w not in cands:
                cands.append(w)
    return cands


def _affine_separation(F: TemplateFiltration, a, m):
    """Try to exclude x^a from degree-m closure membership using a weight
    whose values on the generator templates are affine in the level."""
    forms = _template_affine_data(F)
    if forms is None:
        return None
    wa_candidates = _weight_candidates(F, m)
    for w in wa_candidates:
        wa = sum(wc * ac for wc, ac in zip(w, a))
        per_gen = []
        for gform in forms:
            slope = m * sum(wc * fa for wc, (fa, _) in zip(w, gform))
            intercept = sum(wc * fb for wc, (_, fb) in zip(w, gform))
            per_gen.append((Fraction(slope), Fraction(intercept)))
        if all(wa < s or (wa == s and c > 0) for s, c in per_gen):
            slope = min(s for s, _ in per_gen)
            intercept = min(c for s, c in per_gen if s == slope)
            return SeparationCertificate(
                degree=m, monomial=tuple(a), weight=tuple(w),
                slope=slope, intercept=intercept)
    return None


def _power_separation(F: PowerFiltration, a, m):
    """Weight values are additive on products of monomial ideals, so for an
    ideal-power filtration nu_w(I_(rm)) = r * nu_w(I_m) exactly: a weight
    with w.a < nu_w(I_m) excludes every r."""
    Im = F.ideal_at(m)
    for w in _weight_candidates(F, m):
        wa = sum(wc * ac for wc, ac in zip(w, a))
        level = min(sum(wc * gc for wc, gc in zip(w, g)) for g in Im.gens)
        if wa < level:
            return SeparationCertificate(
                degree=m, monomial=tuple(a), weight=tuple(w),
                slope=Fraction(level), intercept=Fraction(0))
    return None


def filtration_integral_member(F: Filtration, a, m, r_max) -> ClosureMembership:
    """Does x^a lie in the degree-m piece of the integral closure of the
    Rees algebra of F?  Yes(r) is witnessed by r*a in NP(I_(rm)); No carries
    a certificate excluding every r; otherwise Unknown."""
    if m < 1:
        raise ValueError("degree must be positive")
    a = tuple(a)
    if isinstance(F, DiscreteValuedFiltration) and F.is_rational_discrete_valued:
        if F.ideal_at(m).contains(a):
            return ClosureMembership(status="yes", r=1)
        return ClosureMembership(
            status="no",
            certificate=ContainmentCertificate(degree=m, monomial=a))
    for r in range(1, r_max + 1):
        Irm = F.ideal_at(r * m)
        if Irm.is_zero():
            continue
        if np_membership(Irm, tuple(r * c for c in a)):
            return ClosureMembership(status="yes", r=r)
    if isinstance(F, TemplateFiltration):
        cert = _affine_separation(F, a, m)
        if cert is not None:
            return ClosureMembership(status="no", certificate=cert)
    if isinstance(F, PowerFiltration):
        cert = _power_separation(F, a, m)
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


@dataclass(frozen=True)
class ClosureVerdict:
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


def rees_closure_compare(F: Filtration, G: Filtration, N, r_max) -> ClosureVerdict:
    """Test every minimal generator of F_n for degree-n closure membership
    over G and vice versa, for n <= N.  Any proven exclusion settles the
    comparison; full success bounds equality up to (N, r_max); unresolved
    pairs make the verdict inconclusive."""
    unresolved = []
    max_r = 0
    for n in range(1, N + 1):
        for left, right, side in ((F, G, "left-into-right"),
                                  (G, F, "right-into-left")):
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
