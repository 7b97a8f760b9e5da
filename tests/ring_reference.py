"""Reference monomial-ideal kernel: the plain algorithms that the slice
stacks of ``epsmult.ring`` (products and sums included) and
``epsmult.valuation``, the exact facets of
``epsmult.newton``, its closure membership and closure comparison over
powers read off the bases' facets, the zero-spread search by proper
divisors and the localization of filtration specs replaced, kept as test
oracles, and brute-force counts.

Every result here is built from candidate generator lists by validating each
point and minimalising with pairwise divisibility, so nothing shares the
stack merges or recursive slices of the fast kernel beyond the
``MonomialIdeal`` value type.
"""

import itertools
from fractions import Fraction
from math import gcd

from epsmult.filtration import (
    DiscreteValuedFiltration,
    Filtration,
    PowerFiltration,
    TemplateFiltration,
)
from epsmult.diagnostics import (
    ZeroSpreadCertificate,
    ZeroSpreadNotFound,
    _adaptive_r_bound,
)
from epsmult.newton import (
    ClosureMembership,
    ClosureVerdict,
    ContainmentCertificate,
    SeparationCertificate,
    _hull_of,
    _lp_convex_dominated,
    np_membership,
)
from epsmult.ring import (
    IdealDomainError,
    MonomialIdeal,
    RingContext,
    _localized_ring,
    colength,
    divides,
    ideal_power,
    ideal_product,
    localize,
)


def ref_ideal(ctx, points):
    """The validating constructor: check every exponent, keep the
    divisibility-minimal points, order them grlex.  The ideal's value comes
    from the public constructor; its generator list is this one, so
    ``.gens`` of an oracle ideal never reads the kernel's listing."""
    pts = set()
    for p in points:
        p = tuple(p)
        if len(p) != ctx.dim or any(c < 0 for c in p):
            raise ValueError(f"bad exponent {p}")
        pts.add(p)
    gens = [p for p in pts if not any(q != p and divides(q, p) for q in pts)]
    I = MonomialIdeal(ctx, gens)
    I._gens = tuple(sorted(gens, key=lambda e: (sum(e), e)))
    return I


def ref_ideal_product(I, J):
    """Pairwise sums of generators, then minimalisation."""
    return ref_ideal(I.ctx, [tuple(a + b for a, b in zip(g, h))
                             for g in I.gens for h in J.gens])


def ref_ideal_sum(I, J):
    """The union of the generators, minimalised."""
    return ref_ideal(I.ctx, I.gens + J.gens)


def ref_slice_stack(I):
    """The slice stack along the first variable, rebuilt from the generators
    of an ideal in d >= 2 variables: at each first coordinate a of a
    generator, the ideal of the projections of the generators with first
    coordinate at most a (in two variables, its least exponent), kept where
    it grows."""
    sub = RingContext(I.dim - 1)
    stack = []
    for a in sorted({g[0] for g in I.gens}):
        low = [g[1:] for g in I.gens if g[0] <= a]
        s = min(p[0] for p in low) if I.dim == 2 else ref_ideal(sub, low)
        if not stack or s != stack[-1][1]:
            stack.append((a, s))
    return tuple(stack)


def ref_contains_ideal(I, J):
    """J <= I by public membership of every generator of J."""
    return all(I.contains(g) for g in J.gens)


def ref_intersect(I, J):
    """Pairwise lcm of generators, then minimalisation."""
    return ref_ideal(I.ctx, [tuple(max(a, b) for a, b in zip(g, h))
                             for g in I.gens for h in J.gens])


def ref_colon(I, J):
    """(I : J) as the intersection over generators h of J of (I : x^h)."""
    result = None
    for h in J.gens:
        part = ref_ideal(I.ctx, [tuple(max(a - b, 0) for a, b in zip(g, h))
                                 for g in I.gens])
        result = part if result is None else ref_intersect(result, part)
    return result


def ref_saturate(I):
    """Intersection over variables of I : x_i^infinity, each obtained by
    zeroing the i-th coordinate of every generator."""
    if I.is_zero() or I.is_unit():
        return I
    result = None
    for i in range(I.dim):
        part = ref_ideal(I.ctx, [g[:i] + (0,) + g[i + 1:] for g in I.gens])
        result = part if result is None else ref_intersect(result, part)
    return result


def saturate_by_colon(I):
    """Saturation by iterating I <- I : m to a fixed point."""
    m = ref_ideal(I.ctx, [tuple(1 if j == i else 0 for j in range(I.dim))
                          for i in range(I.dim)])
    cur = I
    while True:
        nxt = ref_colon(cur, m)
        if nxt == cur:
            return cur
        cur = nxt


def ref_valuation_ideal(v, n, ctx):
    """Minimal generators of {x^a : weights . a >= n}, by recursion over the
    positive-weight coordinates (the last one takes the least value that
    reaches n)."""
    if n <= 0:
        return MonomialIdeal.unit(ctx)
    pos = v.center()
    w = v.weights
    pts = []

    def rec(idx, acc, remaining):
        i = pos[idx]
        top = -(-remaining // w[i]) if remaining > 0 else 0
        if idx == len(pos) - 1:
            pts.append(acc + ((i, top),))
            return
        for e in range(top + 1):
            rec(idx + 1, acc + ((i, e),), remaining - e * w[i])

    rec(0, (), n)
    gens = []
    for assignment in pts:
        e = [0] * ctx.dim
        for i, c in assignment:
            e[i] = c
        gens.append(tuple(e))
    return ref_ideal(ctx, gens)


def ref_maximal_power(ctx, k):
    """m^k generated by the compositions of k into ``ctx.dim`` parts, read
    off the positions of d-1 bars among k+d-1 slots."""
    d = ctx.dim
    gens = []
    for bars in itertools.combinations(range(k + d - 1), d - 1):
        edges = (-1,) + bars + (k + d - 1,)
        gens.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(d)))
    return ref_ideal(ctx, gens)


def _dense_min_y_profile(I, x_max):
    """Least q with x^a*y^q in I, for a = 0..x_max (None = none)."""
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


def ref_quotient_length_2d(J, I):
    """Length of J/I in two variables; ``None`` means infinite.  Finiteness
    is J <= sat(I); the count runs column by column over dense profiles."""
    assert J.dim == I.dim == 2
    if not ref_contains_ideal(J, I):
        raise IdealDomainError("quotient_length requires I contained in J")
    if not ref_contains_ideal(ref_saturate(I), J):
        return None
    if I == J:
        return 0
    x_max = max(g[0] for g in I.gens + J.gens)
    pi = _dense_min_y_profile(I, x_max)
    pj = _dense_min_y_profile(J, x_max)
    total = 0
    for a in range(x_max + 1):
        if pj[a] is not None:
            total += pi[a] - pj[a]
    # beyond x_max both profiles are constant and, the quotient being
    # finite, equal
    assert pj[x_max] is None or pi[x_max] == pj[x_max]
    return total


def _in_saturation(J, I):
    """J <= I : m^infinity without forming the saturation: x^g lies in
    I : x_i^infinity iff some generator of I divides g off coordinate i."""
    d = I.dim
    return all(
        any(all(h[j] <= g[j] for j in range(d) if j != i) for h in I.gens)
        for g in J.gens for i in range(d))


def _count_region(J, I, deg_bound):
    """Count exponents a with total degree < deg_bound, a in J, a not in I."""
    d = J.dim
    jg, ig = J.gens, I.gens
    count = 0

    def rec(i, prefix, remaining):
        nonlocal count
        if i == d - 1:
            for c in range(remaining):
                a = prefix + (c,)
                if (any(divides(g, a) for g in jg)
                        and not any(divides(h, a) for h in ig)):
                    count += 1
            return
        for c in range(remaining):
            rec(i + 1, prefix + (c,), remaining - c)

    rec(0, (), deg_bound)
    return count


def ref_quotient_length(J, I):
    """Length of J/I in d >= 2 variables; ``None`` means infinite.  Finite
    iff J <= sat(I); then the colons I : m^k rise until m^k * J <= I, and
    every monomial of J not in I has total degree below k + the largest
    generator degree of J, so that simplex is enumerated."""
    if not ref_contains_ideal(J, I):
        raise IdealDomainError("quotient_length requires I contained in J")
    if not _in_saturation(J, I):
        return None
    m = ref_ideal(I.ctx, [tuple(1 if j == i else 0 for j in range(I.dim))
                          for i in range(I.dim)])
    cur = I
    k = 0
    while not ref_contains_ideal(cur, J):
        cur = ref_colon(cur, m)
        k += 1
    return _count_region(J, I, k + max((sum(g) for g in J.gens), default=0))


def _monomials_of_degree(d, k):
    for comp in itertools.combinations_with_replacement(range(d), k):
        e = [0] * d
        for i in comp:
            e[i] += 1
        yield tuple(e)


def brute_quotient_length(J, I, k_cap=100):
    """Plain enumeration for a finite quotient: find k < k_cap with
    m^k * J <= I by checking all degree-k monomials directly, then count the
    simplex below k + maxdeg(J)."""
    d = J.dim
    for k in range(k_cap):
        if all(I.contains(tuple(a + b for a, b in zip(g, m)))
               for g in J.gens for m in _monomials_of_degree(d, k)):
            break
    else:
        raise AssertionError("no finite k found; oracle misuse")
    bound = k + max((sum(g) for g in J.gens), default=0)
    return sum(
        1
        for total in range(bound)
        for m in _monomials_of_degree(d, total)
        if J.contains(m) and not I.contains(m))


def ref_samuel_of_quotient(I):
    """e(R/I) for a proper nonzero I, from the Hilbert function
    k -> #{monomials of degree k outside I} counted directly.

    From degree K = sum_i max_g g_i on, a standard-pair decomposition of the
    complement is fixed, so the Hilbert function is a polynomial of degree
    s - 1 there (s = dim R/I) and its (s-1)-th difference is e(R/I); when
    it vanishes there (s = 0), e(R/I) is the number of monomials outside I.
    The order s - 1 is read off the values: the first order whose
    differences are constant over d + 2 consecutive degrees, more than the
    degree of any polynomial that could appear."""
    d = I.dim

    def hf(k):
        return sum(1 for m in _monomials_of_degree(d, k)
                   if not any(divides(g, m) for g in I.gens))

    K = sum(max(g[i] for g in I.gens) for i in range(d))
    diffs = [hf(k) for k in range(K, K + d + 2)]
    if not any(diffs):
        return sum(hf(k) for k in range(K))
    while len(set(diffs)) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        assert len(diffs) > 1, f"Hilbert function not polynomial from {K}"
    return diffs[0]


def ref_ideal_multiplicity(I, k_max=None):
    """e(I) for an m-primary I as the d-th finite difference of
    k -> colength(I^k), taken once it holds constant over three consecutive
    k (a stopping rule, not a proof; the exact value is d! * covol(NP(I)))."""
    if k_max is None:
        k_max = 8 * max(2, max((sum(g) for g in I.gens), default=0))
    values = []
    for k in range(1, k_max + 1):
        values.append(colength(ideal_power(I, k)))
        diffs = values
        for _ in range(I.dim):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
            return diffs[-1]
    raise AssertionError(f"power colengths did not stabilize within k <= {k_max}")


def _primitive(vec):
    g = 0
    for c in vec:
        g = gcd(g, c)
    return tuple(c // g for c in vec) if g else None


def ref_halfspace_normals(gens, d):
    """Candidate inner normals (w >= 0) covering every facet of
    conv(gens) + orthant, for d <= 3: the normals of the lines through two
    generators (d=2), of the planes spanned by two generator differences
    or by one and a unit vector (d=3), and the unit vectors.  Extra valid
    inequalities are harmless since each is used with rhs = min_g w.g."""
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
    elif d > 3:
        raise ValueError("halfspace description only computed for d <= 3")
    return tuple(sorted(normals))


def ref_halfspaces(I):
    """Pairs (w, rhs) over the candidate normals, rhs = min_g w.g; the
    polyhedron is {x >= 0 : w.x >= rhs for all of them}."""
    return tuple(
        (w, min(sum(wc * gc for wc, gc in zip(w, g)) for g in I.gens))
        for w in ref_halfspace_normals(I.gens, I.dim))


def ref_normalized_covolume(I):
    """d! * covol(NP(I)) for an m-primary I, by counting: the lattice points
    of the orthant outside k*NP(I) number a polynomial in k of degree d with
    leading coefficient covol(NP(I)) (Ehrhart, applied to the cones from the
    origin over the compact faces, whose vertices are lattice points), so
    its d-th difference over k = 1..d+1 is the value.  The count runs column
    by column against the candidate halfspaces; a second difference, over
    k = 2..d+2, must agree."""
    d = I.dim
    hs = ref_halfspaces(I)

    def outside(k):
        box = [range(k * max(g[i] for g in I.gens) + 1) for i in range(d - 1)]
        total = 0
        for col in itertools.product(*box):
            last = 0
            for w, rhs in hs:
                if w[-1]:
                    need = k * rhs - sum(a * b for a, b in zip(w, col))
                    last = max(last, -(-need // w[-1]))
            total += last
        return total

    diffs = [outside(k) for k in range(1, d + 3)]
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs[0] == diffs[1], "count is not a polynomial of degree d"
    return diffs[0]


def ref_integral_closure(I):
    """Every lattice point of the generator box that the LP puts in the
    Newton polyhedron, minimalised."""
    box = [range(max(g[i] for g in I.gens) + 1) for i in range(I.dim)]
    return ref_ideal(I.ctx, [p for p in itertools.product(*box)
                             if _lp_convex_dominated(I.gens, p)])


def oracle_np_member(gens, a):
    """Feasibility of sum(lam_i g_i) <= a, lam in the simplex, by eliminating
    lam_1..lam_{k-1} with Fourier-Motzkin (lam_k substituted out)."""
    k = len(gens)
    d = len(a)
    last = gens[-1]
    nvars = k - 1
    ineqs = []  # (coeff vector, rhs) meaning sum c_i x_i <= rhs
    for j in range(d):
        ineqs.append(([gens[i][j] - last[j] for i in range(nvars)],
                      a[j] - last[j]))
    for i in range(nvars):
        ineqs.append(([-1 if t == i else 0 for t in range(nvars)], 0))
    ineqs.append(([1] * nvars, 1))
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in ineqs:
            c = coeffs[var]
            (pos if c > 0 else neg if c < 0 else rest).append((coeffs, rhs))
        new = rest
        for cp, rp in pos:
            for cn, rn in neg:
                m_p, m_n = cp[var], -cn[var]
                coeffs = [m_n * x + m_p * y for x, y in zip(cp, cn)]
                new.append((coeffs, m_n * rp + m_p * rn))
        ineqs = new
    return all(rhs >= 0 for _, rhs in ineqs)


def _ref_weight_candidates(F, m):
    """The nonzero 0/1 weights, then the facet normals of NP(I_m) built from
    I_m itself in d <= 3."""
    d = F.ctx.dim
    cands = [bits for bits in itertools.product((0, 1), repeat=d) if any(bits)]
    Im = F.ideal_at(m)
    if not Im.is_zero() and d <= 3:
        for w, _ in _hull_of(Im)[0]:
            if w not in cands:
                cands.append(w)
    return cands


def _ref_affine_separation(F, a, m):
    """A weight certificate from the affine generator forms of I_(rm); for
    an ideal power they are the generators g of I_m with slope w.g and
    intercept 0."""
    if isinstance(F, PowerFiltration):
        forms = [[(c, 0) for c in g] for g in F.ideal_at(m).gens]
    else:
        forms = F.generator_affine_forms()
        if any(f is None for g in forms for f in g):
            return None
        forms = [[(m * fa, fb) for fa, fb in g] for g in forms]
    for w in _ref_weight_candidates(F, m):
        wa = sum(wc * ac for wc, ac in zip(w, a))
        per_gen = [(Fraction(sum(wc * fa for wc, (fa, _) in zip(w, gform))),
                    Fraction(sum(wc * fb for wc, (_, fb) in zip(w, gform))))
                   for gform in forms]
        if all(wa < s or (wa == s and c > 0) for s, c in per_gen):
            slope = min(s for s, _ in per_gen)
            intercept = min(c for s, c in per_gen if s == slope)
            return SeparationCertificate(
                degree=m, monomial=tuple(a), weight=tuple(w),
                slope=slope, intercept=intercept)
    return None


def ref_filtration_integral_member(F, a, m, r_max):
    """Degree-m closure membership by trying r = 1..r_max on the Newton
    polyhedron of I_(rm) itself, then a separation certificate; powers get
    no shortcut."""
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
    if isinstance(F, (TemplateFiltration, PowerFiltration)):
        cert = _ref_affine_separation(F, a, m)
        if cert is not None:
            return ClosureMembership(status="no", certificate=cert)
    return ClosureMembership(status="unknown")


def ref_rees_closure_compare(F, G, N, r_max):
    """Closure comparison by testing every minimal generator of F_n over G
    and of G_n over F, for n = 1..N, with the r-by-r reference membership;
    powers are built level by level."""
    unresolved = []
    max_r = 0
    for n in range(1, N + 1):
        for left, right, side in ((F, G, "left-into-right"),
                                  (G, F, "right-into-left")):
            for g in left.ideal_at(n).gens:
                res = ref_filtration_integral_member(right, g, n, r_max)
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


def ref_spread_zero_test(F, N, r_max):
    """Zero-spread search by containment of g^r in m * I_(rn), the product
    built with ``ideal_product`` once per level n and exponent r tried."""
    m = MonomialIdeal.maximal(F.ctx)
    entries = []
    for n in range(1, N + 1):
        bound = _adaptive_r_bound(F, n, r_max)
        targets = {}  # r -> m * I_(rn), shared by the generators of I_n
        for g in F.ideal_at(n).gens:
            found = None
            for r in range(2, bound + 1):
                if r not in targets:
                    targets[r] = ideal_product(m, F.ideal_at(r * n))
                if targets[r].contains(tuple(r * e for e in g)):
                    found = r
                    break
            if found is None:
                return ZeroSpreadNotFound(n=n, generator=g, searched_up_to=bound)
            entries.append((n, g, found))
    return ZeroSpreadCertificate(bound=N, r_max=r_max, entries=tuple(entries))


class LocalizedFiltration(Filtration):
    """n -> localize(parent I_n, S): every level of the parent is built in
    all its variables and then projected, whatever the parent's kind."""

    def __init__(self, parent, coords):
        coords, sub = _localized_ring(parent.ctx, coords)
        super().__init__(sub)
        self.parent = parent
        self.coords = coords

    def _compute(self, n):
        return localize(self.parent.ideal_at(n), self.coords)

    def _localized(self, coords, sub):
        return LocalizedFiltration(self, coords)


def spec(F):
    """A filtration for test messages: its kind and its public fields, with
    a parent filtration (of a truncation or a localization) given the same
    way."""
    return type(F).__name__, {
        k: spec(v) if isinstance(v, Filtration) else v
        for k, v in vars(F).items() if not k.startswith("_")}
