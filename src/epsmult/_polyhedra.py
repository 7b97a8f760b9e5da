"""Newton polyhedra.  For a monomial ideal the integral closure consists of
the lattice points of the Newton polyhedron NP(I) (convex hull of the
generator exponents plus the nonnegative orthant).  Its callers ask
whether x^a lies in m * NP(I) (``_inside``) and for the integral closure
(``_closure``), in any dimension.  In up to three variables one recursive
hull, built once per ideal, holds NP(I) as its exact facets, which answer
both, and the vertices of its compact facets, which give e(I) = d! *
covol(NP(I)) (``_normalized_covolume``).  In higher dimension membership
is an exact rational feasibility LP.  Tests check both against that LP and
Fourier-Motzkin.
"""

import itertools
from fractions import Fraction
from math import gcd

from .ring import MonomialIdeal, _minimal, _weight_ideal


def _lp_convex_dominated(gens, a):
    """Is there lambda >= 0 with sum(lambda) = 1 and sum(lambda_i g_i) <= a
    componentwise?  Exact rational phase-1 simplex with Bland's rule (no
    cycling) on the rows g.lambda + slack = a and sum(lambda) + t = 1,
    minimising the artificial t: feasible iff t leaves the basis or ends
    at 0.  Its row is the only one with a cost, so a column may enter iff
    it is positive there."""
    k, d = len(gens), len(a)
    rows = [[Fraction(g[j]) for g in gens] + [Fraction(int(i == j)) for i in range(d)]
            + [Fraction(0), Fraction(a[j])] for j in range(d)]
    rows.append([Fraction(1)] * k + [Fraction(0)] * d + [Fraction(1)] * 2)
    basis = list(range(k, k + d + 1))
    while k + d in basis:
        t = rows[basis.index(k + d)]
        enter = next((j for j in range(k + d) if t[j] > 0), None)
        if enter is None:
            return t[-1] == 0
        leave = min((i for i in range(d + 1) if rows[i][enter] > 0),
                    key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]))
        pivot = rows[leave]
        pivot[:] = [c / pivot[enter] for c in pivot]
        for row in rows:
            if row is not pivot and row[enter]:
                row[:] = [c - row[enter] * p for c, p in zip(row, pivot)]
        basis[leave] = enter
    return True


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _primitive(vec):
    g = gcd(*vec)
    return tuple(c // g for c in vec)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _det(rows):
    """Determinant of a square matrix, by cofactors along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]))


def _half_hull(pts, t=0, s=1):
    """Andrew's monotone chain in the (t, s) coordinate plane over points
    sorted by (t, s): the strictly convex chain turning left."""
    chain = []
    for p in pts:
        while len(chain) > 1 and (
                (chain[-1][t] - chain[-2][t]) * (p[s] - chain[-2][s])
                <= (chain[-1][s] - chain[-2][s]) * (p[t] - chain[-2][t])):
            chain.pop()
        chain.append(p)
    return chain


def _polygon(points):
    """Vertices, counterclockwise seen from above, of the convex hull of
    points on a plane w.x = c with w_3 > 0 (so the (x, y) shadow is
    one-to-one)."""
    pts = sorted(points)
    return tuple(_half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1])


def _pivot(gens, a, u, n0, c):
    """Gift wrapping across the edge through ``a`` along ``u`` of the facet
    with inner normal ``n0`` that runs from the edge towards ``c``: seen
    along the edge, the generators and rays lie in the half-plane n0 >= 0,
    and the plane through the one furthest from the facet is the other
    facet on the edge.  Returns its primitive inner normal."""
    vecs = [tuple(x - y for x, y in zip(g, a)) for g in gens] + list(_UNITS)

    def normal(v):  # u x v, turned towards c
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
        return n if _dot(n, c) > 0 else tuple(-x for x in n)

    n = normal(next(v for v in vecs if _dot(n0, v) > 0))
    for v in vecs:
        if _dot(n, v) < 0:
            n = normal(v)
    return _primitive(n)


def _hull(points):
    """Facets and compact facets of P = conv(points) + orthant in d <= 3
    variables (in d=3 the points must be an antichain, such as generators).

    The facets are sorted pairs (w, rhs): primitive integer inner normals
    w >= 0 with rhs = min over the points of w.p, and P = {x : w.x >= rhs
    for all of them}.  The compact facets (w > 0) follow in that order as
    vertex tuples: the lowest point (d=1), an edge (d=2), a polygon,
    counterclockwise seen from above (d=3).  A facet with w_k = 0 is a
    facet of the hull of the points with coordinate k dropped.  The compact
    ones are the lower hull of the staircase in d=2, and in d=3 come from
    gift wrapping across the compact edges of the facets with a zero weight
    (the facets' adjacency graph is connected, and an edge of a compact
    facet is compact)."""
    d = len(points[0])
    if d == 1:
        low = min(points)
        return (((1,), low[0]),), ((low,),)
    facets = set()
    for k in range(d):
        sub, _ = _hull([p[:k] + p[k + 1:] for p in points])
        facets.update((w[:k] + (0,) + w[k:], rhs) for w, rhs in sub)
    faces = {}
    if d == 2:
        chain = _half_hull(_minimal(2, points))  # the staircase's lower hull
        for p, q in zip(chain, chain[1:]):
            w = _primitive((p[1] - q[1], q[0] - p[0]))
            faces[w, _dot(w, p)] = (p, q)
    else:
        # a facet's plane is one-to-one on the (t, s) plane, s a zero weight
        edges = []  # (a, b, inner normal, direction into the facet from ab)
        for w, rhs in sorted(facets):
            s = max(i for i in range(3) if w[i] == 0)
            t = 3 - s - max(i for i in range(3) if w[i])
            # no two generators on it share a t (they are an antichain), so
            # its compact edges are their lower hull in the (t, s) plane
            chain = _half_hull(sorted((p for p in points if _dot(w, p) == rhs),
                                      key=lambda p: p[t]), t, s)
            edges += [(p, q, w, _UNITS[s]) for p, q in zip(chain, chain[1:])]
        done = set()
        while edges:
            a, b, n0, c = edges.pop()
            if (a, b) in done:
                continue
            done.update(((a, b), (b, a)))
            w = _pivot(points, a, tuple(y - x for x, y in zip(a, b)), n0, c)
            rhs = _dot(w, a)
            if 0 in w or (w, rhs) in faces:
                continue  # a facet with a zero weight is listed already
            faces[w, rhs] = poly = _polygon([p for p in points if _dot(w, p) == rhs])
            for i, p in enumerate(poly):
                q, r = poly[i - len(poly) + 1], poly[i - len(poly) + 2]
                edges.append((p, q, w, tuple(y - x for x, y in zip(p, r))))
    facets = sorted(facets | faces.keys())
    return tuple(facets), tuple(faces[f] for f in facets if f in faces)


def _hull_of(I):
    """``_hull`` of a nonzero ideal's generators, cached on the ideal."""
    try:
        return I._hull
    except AttributeError:
        I._hull = hull = _hull(I.gens)
        return hull


def _facets(I):
    """The facets (w, rhs) of NP(I), for a nonzero ideal in d <= 3."""
    return _hull_of(I)[0]


def _inside(I, a, m=1):
    """x^a lies in m * NP(I) = NP(I^m), for a nonzero I: in d <= 3 when
    w.a >= m * rhs for every facet, in higher dimension when x^a is a
    multiple of some (x^g)^m or the LP puts a in the hull of the m*g."""
    if I.dim > 3:
        return (any(all(m * c <= e for c, e in zip(g, a)) for g in I.gens)
                or _lp_convex_dominated([tuple(m * c for c in g) for g in I.gens], a))
    return all(_dot(w, a) >= m * rhs for w, rhs in _hull_of(I)[0])


def _closure(I):
    """The lattice points of NP(I), for a nonzero I: in d <= 3 the ideal of
    the facet inequalities, in higher dimension the points of the box up to
    the componentwise generator maximum that I holds or the LP puts in NP(I)
    (beyond the box a point is a multiple of one inside)."""
    if I.dim <= 3:
        return _weight_ideal(_facets(I), I.ctx)
    box = itertools.product(*(range(max(c) + 1) for c in zip(*I.gens)))
    return MonomialIdeal(I.ctx, [p for p in box
                                 if I.contains(p) or _lp_convex_dominated(I.gens, p)])


def _normalized_covolume(I):
    """d! * covol(NP(I)) of an m-primary ideal in d <= 3.  The orthant minus
    NP(I) is the union of the cones from the origin over the compact facets,
    so it is the sum of |det| over a fan of simplices from the first vertex
    of each."""
    d = I.dim
    return sum(abs(_det((f[0],) + f[i:i + d - 1]))
               for f in _hull_of(I)[1] for i in range(1, len(f) - d + 2))
