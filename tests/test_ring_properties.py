"""Property tests: the kernel equals the reference kernel in
``ring_reference`` on random ideals, zero and unit ideals included, in one
to four variables: intersection, products and sums (and the kernel's
sum of products against the per-pair products it replaced), containment,
saturation with its laws, valuation ideals, ideals of several weight cuts
(meets of valuation ideals), powers of m, minimalisation and lengths; the
saturation length of a two-variable ideal of weight cuts, counted from its
cuts by floor sums, equals the one of the built ideal; the stored value
of every result equals the one rebuilt from its generators; sum and
intersection obey the lattice laws and lengths add along chains; the
multiplicity of R/I equals a direct count of the Hilbert function; and in
two and three variables the exact facets of the Newton polyhedron agree
with the LP, Fourier-Motzkin and candidate-normal references, give the
integral closure and e(I), scale with the powers of the ideal, decide
closure membership over powers as the r-by-r search does, and back every
separation certificate."""

from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult import ring
from epsmult._polyhedra import _hull_of, _lp_convex_dominated
from epsmult.asymptotics import ideal_multiplicity, samuel_of_quotient
from epsmult.filtration import PowerFiltration, TemplateFiltration
from epsmult.newton import (
    _affine_separation,
    filtration_integral_member,
    integral_closure,
    np_membership,
    verify_separation_certificate,
)
from epsmult.ring import (
    IdealDomainError,
    MonomialIdeal,
    RingContext,
    _floor_sum,
    _gap_top,
    _mul,
    _weight_ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    localize,
    maximal_power,
    quotient_length,
    saturate,
)
from epsmult.valuation import MonomialValuation, valuation_ideal
from fraction_reference import ref_rational_rank, ref_weight_sat_length, weight_sat_length
from ring_reference import (
    oracle_np_member,
    ref_contains_ideal,
    ref_filtration_integral_member,
    ref_halfspaces,
    ref_ideal,
    ref_ideal_multiplicity,
    ref_ideal_product,
    ref_ideal_sum,
    ref_integral_closure,
    ref_intersect,
    ref_maximal_power,
    ref_member,
    ref_normalized_covolume,
    ref_quotient_length,
    ref_quotient_length_2d,
    ref_samuel_of_quotient,
    ref_saturate,
    ref_slice_stack,
    ref_stack_product,
    ref_stack_sum,
    ref_valuation_ideal,
    saturate_by_colon,
    spec,
)

CTXS = {d: RingContext(d) for d in (1, 2, 3, 4)}
CTX2 = CTXS[2]

# the shared profile (tests/conftest.py) makes every run check the same ideals
PROPERTY = settings(max_examples=150)
# the tests that draw from four dimensions draw twice as many examples
PROPERTY_ANY_DIM = settings(PROPERTY, max_examples=300)

points = st.tuples(st.integers(0, 9), st.integers(0, 9))
ideals = st.one_of(
    st.just(MonomialIdeal.zero(CTX2)),
    st.just(MonomialIdeal.unit(CTX2)),
    st.lists(points, min_size=1, max_size=7).map(
        lambda gens: MonomialIdeal(CTX2, gens)),
)


def ref_value(I):
    """The value of I rebuilt from its generators by ``ref_slice_stack``:
    ``None`` for the zero ideal, the exponent in one variable, the stack of
    rebuilt slice values in more."""
    if not I.gens:
        return None
    if I.dim == 1:
        return I.gens[0][0]
    stack = ref_slice_stack(I)
    return stack if I.dim == 2 else tuple((a, ref_value(s)) for a, s in stack)


def value_corners(d, v):
    """Points that generate the ideal of a nonzero value: x^a*m for each
    entry a and each corner m of its slice."""
    if d == 1:
        return [(v,)]
    return [(a,) + m for a, s in v for m in value_corners(d - 1, s)]


def value_member(d, v, p):
    """x^p lies in the ideal of the nonzero value v."""
    if d == 1:
        return p[0] >= v
    below = [s for a, s in v if a <= p[0]]
    return bool(below) and value_member(d - 1, below[-1], p[1:])


def assert_value_shape(d, v):
    # leaves are ints and every other node a tuple, so no ideal object sits
    # inside a value; first coordinates strictly increase and each slice
    # strictly contains the one before
    if d == 1:
        assert type(v) is int and v >= 0
        return
    assert type(v) is tuple and v
    for k, entry in enumerate(v):
        assert type(entry) is tuple and len(entry) == 2
        assert type(entry[0]) is int and entry[0] >= 0
        assert_value_shape(d - 1, entry[1])
        if k:
            (a, below), (b, s) = v[k - 1], entry
            assert a < b and below != s
            assert all(value_member(d - 1, s, m) for m in value_corners(d - 1, below))


def assert_stack_consistent(I):
    # the stored value is the one rebuilt from the generators, in every
    # dimension and for the zero ideal, and has the shape of a value
    assert I._stack == ref_value(I)
    if I._stack is not None:
        assert_value_shape(I.dim, I._stack)


def ideals_of(dim):
    """Zero, unit, random and m-primary ideals (random generators plus a pure
    power of each variable), so that finite nonzero lengths are common; the
    fewer the variables, the larger the exponents."""
    ctx = CTXS[dim]
    coord = st.integers(0, {1: 9, 2: 9, 3: 4, 4: 3}[dim])
    gens = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4)
    powers = st.tuples(*[st.integers(1, 4)] * dim).map(
        lambda p: [tuple(p[i] if j == i else 0 for j in range(dim))
                   for i in range(dim)])
    return st.one_of(
        st.just(MonomialIdeal.zero(ctx)),
        st.just(MonomialIdeal.unit(ctx)),
        gens.map(lambda g: MonomialIdeal(ctx, g)),
        st.tuples(gens, powers).map(lambda t: MonomialIdeal(ctx, t[0] + t[1])),
    )


def ideal_pairs(dim):
    return st.tuples(ideals_of(dim), ideals_of(dim))


# the two-variable ideals above, then ideals in one, three and four variables
any_dim_ideals = st.one_of(ideals, ideals_of(1), ideals_of(3), ideals_of(4))
any_dim_pairs = st.one_of(st.tuples(ideals, ideals), ideal_pairs(1),
                          ideal_pairs(3), ideal_pairs(4))


@PROPERTY_ANY_DIM
@given(any_dim_pairs)
def test_intersect_matches_reference(pair):
    I, J = pair
    X = intersect(I, J)
    assert X == ref_intersect(I, J)
    assert X == intersect(J, I)
    assert_stack_consistent(X)
    # containment is decided by the meet: B <= A exactly when A meet B = B
    for A, B in ((I, J), (J, I), (I, X), (X, I)):
        assert A.contains_ideal(B) == ref_contains_ideal(A, B)


@PROPERTY_ANY_DIM
@given(any_dim_pairs)
@example((MonomialIdeal.zero(CTXS[3]), MonomialIdeal.unit(CTXS[3])))
@example((MonomialIdeal.unit(CTXS[4]), MonomialIdeal(CTXS[4], [(1, 0, 2, 0), (0, 3, 0, 1)])))
def test_product_and_sum_match_reference(pair):
    # the stack products and sums against pairwise sums and the union of
    # the generators, in both argument orders
    I, J = pair
    for A, B in ((I, J), (J, I)):
        P, S = ideal_product(A, B), ideal_sum(A, B)
        assert P.gens == ref_ideal_product(A, B).gens
        assert S.gens == ref_ideal_sum(A, B).gens
        assert_stack_consistent(P)
        assert_stack_consistent(S)


@st.composite
def sums_of_products(draw):
    """One to three pairs of nonzero ideals in one to four variables, their
    operands drawn from a pool of one to three ideals (the unit ideal
    among the draws), so that an operand may repeat."""
    d = draw(st.sampled_from((2, 1, 3, 4)))
    nonzero = (ideals if d == 2 else ideals_of(d)).filter(lambda I: not I.is_zero())
    operand = st.sampled_from(draw(st.lists(nonzero, min_size=1, max_size=3)))
    return d, draw(st.lists(st.tuples(operand, operand), min_size=1, max_size=3))


@PROPERTY_ANY_DIM
@given(sums_of_products())
# S_0*T_1 and S_1*T_0 share the key 1, across the two pairs too
@example((3, [(MonomialIdeal(CTXS[3], [(0, 2, 0), (1, 0, 1)]),
               MonomialIdeal(CTXS[3], [(0, 0, 3), (1, 1, 0)])),
              (MonomialIdeal(CTXS[3], [(1, 1, 1)]), MonomialIdeal(CTXS[3], [(0, 3, 0)]))]))
# a unit operand and a repeated one
@example((4, [(MonomialIdeal(CTXS[4], [(1, 0, 2, 0), (0, 3, 0, 1)]), MonomialIdeal.unit(CTXS[4])),
              (MonomialIdeal(CTXS[4], [(1, 0, 2, 0), (0, 3, 0, 1)]),
               MonomialIdeal(CTXS[4], [(1, 0, 2, 0), (0, 3, 0, 1)]))]))
def test_sum_of_products_matches_predecessor_fold(case):
    # the kernel's one sum of products against the per-pair products it
    # replaced, folded by the predecessor's own sum, so that no step of the
    # oracle runs the kernel
    d, pairs = case
    values = [(I._stack, J._stack) for I, J in pairs]
    fold = None
    for u, v in values:
        p = ref_stack_product(d, u, v)
        fold = p if fold is None else ref_stack_sum(d, fold, p)
    assert _mul(d, values) == fold


@PROPERTY_ANY_DIM
@given(any_dim_ideals)
# S_top has corners left of and at p = 2, the first y-exponent of S_0, so
# the three-variable clamp merges them into one corner at p
@example(MonomialIdeal(CTXS[3], [(1, 0, 3), (1, 1, 2), (1, 2, 0), (0, 2, 1)]))
def test_saturate_matches_reference_and_laws(I):
    S = saturate(I)
    assert S == ref_saturate(I) == saturate_by_colon(I)
    assert_stack_consistent(S)
    # extensive and idempotent
    assert S.contains_ideal(I) and ref_contains_ideal(S, I)
    assert saturate(S) == S


@PROPERTY_ANY_DIM
@given(any_dim_pairs)
def test_contains_ideal_matches_reference(pair):
    I, J = pair
    assert I.contains_ideal(J) == ref_contains_ideal(I, J)
    assert I.contains_ideal(intersect(I, J))


@st.composite
def localized_pairs(draw):
    """Two ideals in two to four variables and a nonempty coordinate subset
    to localize them at."""
    d = draw(st.sampled_from((2, 3, 4)))
    I, J = draw(ideal_pairs(d))
    return I, J, sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))


@PROPERTY
@given(localized_pairs())
def test_localize_commutes_with_meet_sum_and_product(case):
    I, J, S = case
    LI, LJ = localize(I, S), localize(J, S)
    assert localize(intersect(I, J), S) == intersect(LI, LJ)
    assert localize(ideal_sum(I, J), S) == ideal_sum(LI, LJ)
    assert localize(ideal_product(I, J), S) == ideal_product(LI, LJ)


@st.composite
def valuation_levels(draw):
    """Weights in one to four variables and a level, the level smaller in
    more variables so that the reference enumeration stays small."""
    d = draw(st.sampled_from((2, 1, 3, 4)))
    w = draw(st.tuples(*[st.integers(0, 4)] * d).filter(any))
    return w, draw(st.integers(-2, {1: 40, 2: 40, 3: 14, 4: 7}[d]))


@PROPERTY_ANY_DIM
@given(valuation_levels())
def test_valuation_ideal_matches_reference(wn):
    w, n = wn
    v = MonomialValuation(w)
    ctx = CTXS[len(w)]
    V = valuation_ideal(v, n, ctx)
    assert V == ref_valuation_ideal(v, n, ctx)
    assert_stack_consistent(V)


@st.composite
def weight_cuts(draw):
    """One to three (weights, level) cuts in one to four variables, the
    levels smaller in more variables so that the reference intersections
    stay small."""
    d = draw(st.sampled_from((2, 1, 3, 4)))
    w = st.tuples(*[st.integers(0, 4)] * d).filter(any)
    level = st.integers(-2, {1: 40, 2: 40, 3: 8, 4: 4}[d])
    return d, draw(st.lists(st.tuples(w, level), min_size=1, max_size=3))


@PROPERTY_ANY_DIM
@given(weight_cuts())
# three-variable slices: at a = 3 every cut has r <= 0; a cut with w1 = 0;
# a cut with w2 = 0 and w1 > 0
@example((3, [((1, 0, 0), 1), ((1, 1, 1), 3)]))
@example((3, [((1, 0, 2), 6), ((1, 1, 1), 5)]))
@example((3, [((1, 2, 0), 6), ((0, 1, 3), 4)]))
def test_weight_ideal_matches_intersected_valuation_ideals(dcuts):
    d, cuts = dcuts
    ctx = CTXS[d]
    ref = None
    for w, n in cuts:
        V = ref_valuation_ideal(MonomialValuation(w), n, ctx)
        ref = V if ref is None else ref_intersect(ref, V)
    X = _weight_ideal(cuts, ctx)
    assert X == ref
    assert_stack_consistent(X)


plane_cuts = st.lists(
    st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any),
              st.integers(-3, 80)),
    min_size=1, max_size=4)


@settings(PROPERTY, max_examples=300)
@given(plane_cuts)
@example([((1, 0), 7), ((1, 1), 13)])  # the pi-plane shape
@example([((1, 2), 10), ((2, 4), 20), ((0, 1), 2)])  # equal lines
@example([((1, 1), 6), ((2, 1), 9), ((1, 3), 12)])  # crossings at integers
@example([((3, 0), 5), ((0, 2), 3), ((1, 1), 1)])  # a cut inside the corner
def test_weight_sat_length_matches_staircase(cuts):
    # the count from the cuts against building, saturating and measuring
    I = _weight_ideal(cuts, CTX2)
    assert weight_sat_length(cuts) == quotient_length(saturate(I), I)


@st.composite
def tied_plane_cuts(draw):
    """d=2 cuts whose m-primary lines all pass through one lattice point of
    the quadrant above the corner, so several lines tie at a crossing, and
    sometimes one more cut anywhere."""
    A0, B0 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cuts = [((1, 0), A0), ((0, 1), B0)]
    s, t = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    for w0, w1 in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                                min_size=2, max_size=4)):
        cuts.append(((w0, w1), w0 * (s + A0) + w1 * (t + B0)))
    return cuts + draw(st.lists(plane_cuts.map(lambda c: c[0]), max_size=1))


# one steep m-primary line and two or three less steep ones with w1 >= 2:
# lines with different w1 often first reach the steep leader at the same
# column at different heights, and only the higher may take over
steep_plane_cuts = st.tuples(
    st.tuples(st.tuples(st.integers(3, 6), st.just(1)), st.integers(5, 40)),
    st.lists(st.tuples(st.tuples(st.integers(1, 5), st.integers(2, 6)),
                       st.integers(5, 60)), min_size=2, max_size=3),
).map(lambda t: [t[0]] + t[1])


@settings(max_examples=600)
@given(st.one_of(tied_plane_cuts(), steep_plane_cuts, plane_cuts))
@example([((1, 1), 6), ((2, 1), 9), ((1, 3), 12)])  # crossings at integers
# two such lines (heights 12 and 10, 10 and 7)
@example([((6, 1), 22), ((5, 4), 58), ((1, 5), 52)])
@example([((6, 1), 24), ((1, 6), 45), ((1, 2), 23)])
@example([((1, 1), 4), ((2, 1), 6), ((1, 2), 6), ((3, 1), 8)])  # all meet at (2, 2)
@example([((0, 1), 1), ((1, 2), 8), ((2, 3), 13), ((3, 1), 9)])  # (2, 2) above the corner
# one line above the corner, counted by its single floor sum
@example([((3, 1), 12)])  # r divisible by w0
@example([((1, 0), 2), ((2, 5), 23)])  # w1 > 1
@example([((1, 0), 5), ((0, 1), 3)])  # only corner cuts: length 0
@example([((1, 1), 0), ((2, 3), -4), ((1, 0), -1)])  # every level <= 0
@example([((1, 0), 3), ((0, 1), 2), ((1, 1), 5), ((2, 1), 20)])  # the other at the corner
@example([((1, 0), 3), ((0, 1), 2), ((1, 1), 4), ((1, 2), 15)])  # the other below it
def test_weight_sat_length_matches_fraction_reference(cuts):
    # the integer envelope choice against the Fraction-keyed one, and both
    # against the staircase
    I = _weight_ideal(cuts, CTX2)
    assert weight_sat_length(cuts) == ref_weight_sat_length(cuts) == quotient_length(
        saturate(I), I)


@PROPERTY
@given(st.integers(0, 40), st.integers(1, 15), st.integers(-40, 40),
       st.integers(-300, 300))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_maximal_power_matches_reference():
    for d, k_max in ((1, 12), (2, 12), (3, 8), (4, 6)):
        ctx = CTXS[d]
        assert MonomialIdeal.maximal(ctx) == ref_maximal_power(ctx, 1)
        for k in range(k_max + 1):
            M = maximal_power(ctx, k)
            assert M == ref_maximal_power(ctx, k)
            assert_stack_consistent(M)


def _add(*lengths):
    # lengths with None for infinite
    return None if None in lengths else sum(lengths)


@PROPERTY
@given(st.one_of(*[st.tuples(ideals_of(d), ideals_of(d), ideals_of(d))
                   for d in (2, 3, 4)]))
def test_lattice_laws(triple):
    I, J, K = triple
    meet, join = intersect(I, J), ideal_sum(I, J)
    for X in (meet, join):
        assert_stack_consistent(X)
    # commutative, associative, absorption
    assert meet == intersect(J, I) and join == ideal_sum(J, I)
    assert intersect(meet, K) == intersect(I, intersect(J, K))
    assert ideal_sum(join, K) == ideal_sum(I, ideal_sum(J, K))
    assert ideal_sum(I, meet) == I == intersect(I, join)
    assert I.contains_ideal(meet) and join.contains_ideal(I)
    # lengths add along I meet K <= I <= I + J
    low = intersect(I, K)
    assert quotient_length(join, low) == _add(quotient_length(join, I),
                                              quotient_length(I, low))


@PROPERTY
@given(ideals, ideals, st.booleans())
def test_quotient_length_matches_reference(J, K, use_product):
    # I <= J by construction: a product or an intersection with J
    I = ideal_product(J, K) if use_product else intersect(J, K)
    assert quotient_length(J, I) == ref_quotient_length_2d(J, I)
    assert quotient_length(saturate(I), I) == ref_quotient_length_2d(
        ref_saturate(I), I)


@PROPERTY
@given(ideals, ideals)
def test_quotient_length_rejects_non_containment(J, I):
    if ref_contains_ideal(J, I):
        assert quotient_length(J, I) == ref_quotient_length_2d(J, I)
    else:
        with pytest.raises(IdealDomainError):
            quotient_length(J, I)


# d = 3 and 4: small exponents, so that ties in every coordinate are common


@st.composite
def point_lists(draw, dim):
    """A shuffled exponent list with a duplicate and with ties in the first
    and in the last coordinate."""
    coord = st.integers(0, 4)
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8))
    p = draw(st.sampled_from(pts))
    same_x = (p[0],) + draw(st.tuples(*[coord] * (dim - 1)))
    same_last = draw(st.tuples(*[coord] * (dim - 1))) + (p[-1],)
    return draw(st.permutations(pts + [p, same_x, same_last]))


high_dim_pairs = st.one_of(ideal_pairs(3), ideal_pairs(4))


@PROPERTY
@given(st.one_of(point_lists(3), point_lists(4)))
def test_sweep_minimalisation_matches_reference(pts):
    ctx = CTXS[len(pts[0])]
    X = MonomialIdeal(ctx, pts)
    assert X == ref_ideal(ctx, pts)
    assert_stack_consistent(X)


def test_reference_ideals_do_not_run_the_kernel(monkeypatch):
    # ref_ideal joins its value with the predecessor's ref_grow, so the
    # oracles compared with == share no step with minimalisation or the
    # sum-of-products kernel
    pts = {1: [(5,), (3,)],
           2: [(2, 0), (1, 1), (0, 3), (2, 2)],
           3: [(0, 2, 1), (1, 0, 1), (1, 1, 0), (0, 2, 1), (2, 0, 0), (1, 2, 2)],
           4: [(1, 0, 2, 0), (0, 3, 0, 1), (1, 0, 0, 2), (0, 0, 1, 1), (2, 2, 2, 2)]}
    kernel = {d: MonomialIdeal(CTXS[d], p) for d, p in pts.items()}

    def kernel_ran(*args):
        raise AssertionError("the reference ran the kernel")

    for name in ("_minimal", "_mul", "_corners"):
        monkeypatch.setattr(ring, name, kernel_ran)
    for d, p in pts.items():
        assert ref_ideal(CTXS[d], p) == kernel[d], d


@PROPERTY
@given(high_dim_pairs)
# J/(J meet K) and J/(J*K) are infinite inside the slice at x^1
@example((MonomialIdeal(CTXS[3], [(1, 0, 0)]), MonomialIdeal(CTXS[3], [(0, 1, 0)])))
def test_sliced_length_matches_reference(pair):
    J, K = pair
    meet = intersect(J, K)
    # small <= big in each case; any of them may be infinite
    for big, small in ((saturate(meet), meet),
                       (J, ideal_product(J, K)),
                       (J, meet)):
        assert quotient_length(big, small) == ref_quotient_length(big, small)


@PROPERTY
@given(high_dim_pairs)
def test_sliced_length_rejects_non_containment(pair):
    J, I = pair
    if ref_contains_ideal(J, I):
        assert quotient_length(J, I) == ref_quotient_length(J, I)
    else:
        with pytest.raises(IdealDomainError):
            quotient_length(J, I)


@PROPERTY_ANY_DIM
@given(any_dim_ideals, st.lists(st.tuples(*[st.integers(0, 10)] * 4), max_size=6))
def test_contains_matches_generator_divisors(I, points):
    # membership read from the value against a divisor among the reference
    # generators, at random points, at every generator and one step below it
    ref = ref_ideal(I.ctx, I.gens)
    below = [g[:i] + (g[i] - 1,) + g[i + 1:] for g in I.gens for i in range(I.dim) if g[i]]
    for a in [p[:I.dim] for p in points] + list(I.gens) + below:
        assert I.contains(a) == ref_member(ref, a), a


def box_gap_top(J, I):
    """The largest degree of a monomial of J outside I, -1 if there is none
    and ``None`` if the degrees are unbounded, for ideals built by
    ``ref_ideal`` with membership by ``ref_member``.  Membership in either
    ideal reads each exponent only up to B, one more than every generator
    exponent, so the box [0, B]^d holds the whole gap up to that cap: the
    gap is unbounded exactly when it meets the box's upper faces."""
    B = 1 + max(max(g) for g in I.gens + J.gens)
    top = -1
    for a in product(range(B + 1), repeat=I.dim):
        if ref_member(J, a) and not ref_member(I, a):
            if B in a:
                return None
            top = max(top, sum(a))
    return top


@st.composite
def gap_pairs(draw):
    """A nonzero meet I = A meet B in one to four variables and an ideal
    J >= I: I itself, its saturation (a finite gap), A or I + K (often
    unbounded gaps)."""
    d = draw(st.sampled_from((2, 1, 3, 4)))
    nonzero = (ideals if d == 2 else ideals_of(d)).filter(lambda I: not I.is_zero())
    A = draw(nonzero)
    I = intersect(A, draw(nonzero))
    kind = draw(st.sampled_from(("same", "sat", "A", "sum")))
    if kind == "sat":
        return saturate(I), I
    if kind == "sum":
        return ideal_sum(I, draw(nonzero)), I
    return (I if kind == "same" else A), I


@PROPERTY_ANY_DIM
@given(gap_pairs())
@example((MonomialIdeal.unit(CTXS[3]), MonomialIdeal.unit(CTXS[3])))  # J = I = R
@example((MonomialIdeal.unit(CTXS[3]), maximal_power(CTXS[3], 3)))  # R over m^3: degree 2
@example((MonomialIdeal(CTX2, [(1, 0)]), MonomialIdeal(CTX2, [(1, 1)])))  # x^k*y^0: unbounded
@example((MonomialIdeal(CTXS[1], [(2,)]), MonomialIdeal(CTXS[1], [(5,)])))  # x^2 .. x^4
# at x^1 the slices' gap y^k is unbounded, in a run that closes at x^2
@example((MonomialIdeal(CTXS[3], [(1, 0, 0)]), MonomialIdeal(CTXS[3], [(1, 0, 1), (2, 0, 0)])))
def test_gap_top_matches_box_count(pair):
    J, I = pair
    assert _gap_top(J, I) == box_gap_top(
        ref_ideal(J.ctx, J.gens), ref_ideal(I.ctx, I.gens)), (J.gens, I.gens)


def proper_ideals(ctx, max_exp):
    """Proper ideals: 1-5 generators with entries up to ``max_exp``, none
    of them the monomial 1."""
    gen = st.tuples(*[st.integers(0, max_exp)] * ctx.dim).filter(any)
    return st.lists(gen, min_size=1, max_size=5).map(
        lambda gens: MonomialIdeal(ctx, gens))


@PROPERTY
@given(st.one_of(proper_ideals(CTX2, 8), proper_ideals(CTXS[3], 5)))
def test_samuel_of_quotient_matches_hilbert_function(I):
    assert samuel_of_quotient(I) == ref_samuel_of_quotient(I)


# Newton polyhedra in d = 2 and 3: nonzero ideals, the unit ideal included,
# with small exponents so that collinear and coplanar generators are common


def nonzero_ideals(ctx, max_exp, max_gens=6):
    gen = st.tuples(*[st.integers(0, max_exp)] * ctx.dim)
    return st.lists(gen, min_size=1, max_size=max_gens).map(
        lambda gens: MonomialIdeal(ctx, gens))


polyhedra = st.one_of(nonzero_ideals(CTX2, 9), nonzero_ideals(CTXS[3], 6))


@PROPERTY
@given(polyhedra, st.lists(st.tuples(*[st.integers(0, 11)] * 3), min_size=1,
                           max_size=6))
def test_facet_membership_matches_lp_and_fm_oracles(I, points):
    for p in points:
        a = p[:I.dim]
        assert np_membership(I, a) == _lp_convex_dominated(I.gens, a) == \
            oracle_np_member(I.gens, a), a
    for g in I.gens:
        assert np_membership(I, g)


@PROPERTY
@given(polyhedra)
# the generators on a facet with a zero weight s are chained in order of
# the coordinate t (see ``_hull``); taken in order of s instead, this
# ideal gains the false facet (1, 2, 1) >= 10
@example(MonomialIdeal(CTXS[3], [(1, 2, 0), (0, 1, 3), (0, 4, 2), (6, 1, 2), (0, 0, 10)]))
def test_stored_normals_are_true_facets(I):
    d = I.dim
    facets, faces = _hull_of(I)
    assert list(facets) == sorted(set(facets))
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for w, rhs in facets:
        assert min(w) >= 0 and gcd(*w) == 1
        assert rhs == min(sum(a * b for a, b in zip(w, g)) for g in I.gens)
        # the face is conv(generators on it) + cone(rays on it): a facet
        # iff it spans dimension d - 1
        face = [g for g in I.gens if sum(a * b for a, b in zip(w, g)) == rhs]
        rays = [e for e, c in zip(units, w) if c == 0]
        spans = [tuple(a - b for a, b in zip(g, face[0])) for g in face[1:]]
        assert ref_rational_rank(spans + rays) == d - 1, (I.gens, w)
    # the stored compact facets are the facets with w > 0, one to one and
    # in order; their vertices are generators on the facet whose hull holds
    # every other one: the ends of an edge (d=2), or a strictly convex
    # polygon, counterclockwise seen from above (d=3)
    compact = [(w, rhs) for w, rhs in facets if 0 not in w]
    assert len(faces) == len(compact)
    for (w, rhs), vertices in zip(compact, faces):
        on = [g for g in I.gens if sum(a * b for a, b in zip(w, g)) == rhs]
        assert set(vertices) <= set(on) and len(set(vertices)) == len(vertices) >= d
        if d == 2:
            p, q = vertices
            assert all(p[0] <= g[0] <= q[0] for g in on), (I.gens, w)
            continue
        for p, q in zip(vertices, vertices[1:] + vertices[:1]):
            turn = {g: (q[0] - p[0]) * (g[1] - p[1]) - (q[1] - p[1]) * (g[0] - p[0])
                    for g in on}
            assert min(turn.values()) >= 0, (I.gens, w, vertices)
            assert all(turn[g] > 0 for g in vertices if g not in (p, q))


@PROPERTY
@given(polyhedra)
def test_facets_cut_out_reference_polyhedron(I):
    facets = _hull_of(I)[0]
    reference = ref_halfspaces(I)
    # every facet is one of the old candidate inequalities
    assert set(facets) <= set(reference)
    box = [range(max(g[i] for g in I.gens) + 3) for i in range(I.dim)]
    for p in product(*box):
        assert all(sum(a * b for a, b in zip(w, p)) >= rhs
                   for w, rhs in facets) == all(
            sum(a * b for a, b in zip(w, p)) >= rhs for w, rhs in reference), p


@settings(max_examples=80)
@given(polyhedra)
def test_integral_closure_matches_box_enumeration(I):
    assert integral_closure(I) == ref_integral_closure(I)


def primary_ideals(ctx, max_exp):
    """m-primary ideals: a pure power of each variable plus up to three
    random generators."""
    gen = st.tuples(*[st.integers(0, max_exp)] * ctx.dim)
    powers = st.tuples(*[st.integers(1, max_exp)] * ctx.dim).map(
        lambda p: [tuple(p[i] if j == i else 0 for j in range(ctx.dim))
                   for i in range(ctx.dim)])
    return st.tuples(powers, st.lists(gen, max_size=3)).map(
        lambda t: MonomialIdeal(ctx, t[0] + t[1]))


@settings(max_examples=60)
@given(st.one_of(primary_ideals(CTX2, 6), primary_ideals(CTXS[3], 3)))
def test_ideal_multiplicity_matches_stabilized_difference(I):
    assert ideal_multiplicity(I) == ref_ideal_multiplicity(I)


@PROPERTY
@given(st.one_of(primary_ideals(CTX2, 9), primary_ideals(CTXS[3], 6),
                 primary_ideals(CTXS[1], 30)))
def test_ideal_multiplicity_matches_lattice_count(I):
    assert ideal_multiplicity(I) == ref_normalized_covolume(I)


def affine_templates(ctx):
    """Template filtrations whose coordinates are a*n + b, a, b >= 0."""
    coord = st.tuples(st.integers(0, 2), st.integers(0, 3)).map(
        lambda ab: f"{ab[0]}*n+{ab[1]}" if ab[0] else str(ab[1]))
    gen = st.tuples(*[coord] * ctx.dim)
    return st.lists(gen, min_size=1, max_size=3).map(
        lambda gens: TemplateFiltration(ctx, gens))


certified = st.one_of(
    affine_templates(CTX2), affine_templates(CTXS[3]),
    nonzero_ideals(CTX2, 5, 4).filter(MonomialIdeal.is_proper).map(
        PowerFiltration),
    nonzero_ideals(CTXS[3], 4, 4).filter(MonomialIdeal.is_proper).map(
        PowerFiltration))


@settings(max_examples=80)
@given(certified, st.integers(1, 2))
def test_separation_certificates_recheck(F, m):
    for a in product(range(5), repeat=F.ctx.dim):
        cert = _affine_separation(F, a, m)
        if cert is not None:
            assert cert.degree == m and cert.monomial == a
            assert verify_separation_certificate(F, cert, 12), (spec(F), cert)


@settings(max_examples=60)
@given(st.one_of(nonzero_ideals(CTX2, 6, 4), nonzero_ideals(CTXS[3], 3, 3)),
       st.integers(1, 4))
def test_power_facets_scale_the_base_facets(I, k):
    # NP(I^k) = k * NP(I): the same normals, in the same order, rhs times k
    assert _hull_of(ideal_power(I, k))[0] == tuple(
        (w, k * rhs) for w, rhs in _hull_of(I)[0])


@st.composite
def power_memberships(draw):
    """A power filtration in two or three variables, a degree m <= 3, an
    r_max in 0..3 and a few exponents with entries up to 6*m."""
    base = draw(st.one_of(nonzero_ideals(CTX2, 5, 3), nonzero_ideals(CTXS[3], 3, 3))
                .filter(MonomialIdeal.is_proper))
    m = draw(st.integers(1, 3))
    coord = st.integers(0, 6 * m)
    points = draw(st.lists(st.tuples(*[coord] * base.dim), min_size=1, max_size=4))
    return PowerFiltration(base), m, draw(st.integers(0, 3)), points


@settings(max_examples=100)
@given(power_memberships())
def test_power_membership_matches_r_loop(case):
    F, m, r_max, points = case
    for a in points:
        res = filtration_integral_member(F, a, m, r_max)
        ref = ref_filtration_integral_member(F, a, m, r_max)
        assert res == ref, (spec(F), a, m, r_max)
        if res.certificate is not None:
            assert res.certificate.to_obj() == ref.certificate.to_obj()
        assert r_max or res.status != "yes"
