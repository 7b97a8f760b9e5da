import math
import statistics
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsmult.asymptotics import (
    LengthSequence,
    LocalizedSequenceError,
    _median,
    _sequence_report,
    _window_fit,
    e_s_localized,
    epsilon_difference_check,
    epsilon_report,
    ideal_multiplicity,
    samuel_of_quotient,
    samuel_sequence,
    sat_quotient_sequence,
    truncation_sweep,
)
from epsmult.filtration import (
    DiscreteValuedFiltration,
    PowerFiltration,
    TemplateFiltration,
)
from epsmult.fixtures import pi_plane
from epsmult.ring import (
    MonomialIdeal,
    RingContext,
    colength,
    ideal_power,
    maximal_power,
    quotient_length,
    saturate,
)
from epsmult.valuation import ExactScalar, MonomialValuation, ceil_mul
from fraction_reference import (
    ref_secants,
    ref_sequence_report,
    ref_window_fit,
    weight_sat_length,
)

CTX2 = RingContext(2)
PI = ExactScalar(1, "pi")
TWO_PI = ExactScalar(2, "pi")


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def test_sat_quotient_sequence_examples():
    F = pi_plane()
    seq = sat_quotient_sequence(F, 5)
    assert seq.entries[0] == (1, 6)
    # closed form for every computed n
    for n, lam in seq.entries:
        D = ceil_mul(TWO_PI, n) - ceil_mul(PI, n)
        assert lam == D * (D + 1) // 2
    J = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    seqJ = sat_quotient_sequence(J, 10)
    assert [lam for _, lam in seqJ.entries] == [n * n for n in range(1, 11)]
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    seqP = sat_quotient_sequence(P, 10)
    assert [lam for _, lam in seqP.entries] == [n * (n + 1) // 2 for n in range(1, 11)]


def test_space_sequence_matches_simplex_count():
    # I_n = (x)^A meet m^B in three variables, A = ceil(n*a) and
    # B = ceil(n*b), x along each axis: sat(I_n) = (x^A), and the quotient
    # is the monomials of (x^A) of degree below B, C(B - A + 2, 3) of them
    ctx = RingContext(3)
    for a, b in ((1, 2), (Fraction(7, 8), Fraction(15, 8)),
                 (Fraction(4, 3), Fraction(11, 5)), (Fraction(1, 2), Fraction(5, 2))):
        for axis in range(3):
            first = tuple(int(i == axis) for i in range(3))
            F = DiscreteValuedFiltration(ctx, [(MonomialValuation(first), ExactScalar(a)),
                                               (MonomialValuation((1, 1, 1)), ExactScalar(b))])
            assert [lam for _, lam in sat_quotient_sequence(F, 8).entries] == [
                math.comb(math.ceil(n * b) - math.ceil(n * a) + 2, 3) for n in range(1, 9)]


@st.composite
def plane_discrete_valued(draw):
    """A discrete-valued filtration in two variables: one to three pairs,
    weights up to 3 with either one zero, and multipliers p/q or p/q*pi."""
    weights = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    scalar = st.builds(lambda p, q, c: ExactScalar(Fraction(p, q), c),
                       st.integers(1, 12), st.integers(1, 5), st.sampled_from((None, "pi")))
    return DiscreteValuedFiltration(CTX2, draw(st.lists(
        st.tuples(weights.map(MonomialValuation), scalar), min_size=1, max_size=3)))


def _plane(*pairs):
    return DiscreteValuedFiltration(CTX2, [(MonomialValuation(w), a) for w, a in pairs])


@settings(max_examples=80)
@given(plane_discrete_valued(), st.integers(1, 12))
@example(_plane(((1, 0), PI), ((0, 2), ExactScalar(3)), ((1, 1), TWO_PI)), 8)
# two m-primary lines above the corner at every level: the envelope walk
@example(_plane(((1, 2), PI), ((3, 1), ExactScalar(Fraction(7, 2)))), 10)
# one-weight cuts only: each level is its own saturation, lambda = 0
@example(_plane(((2, 0), PI), ((0, 3), ExactScalar(Fraction(5, 2)))), 6)
# a zero weight in each coordinate: a corner off both axes, below a line
@example(_plane(((2, 0), PI), ((0, 1), ExactScalar(1)), ((1, 2), ExactScalar(4, "pi"))), 9)
# 0, 0, 1, 2, 2, ... lines above the corner as n grows: the merged count's
# state from one row to the next
@example(_plane(((1, 0), PI), ((1, 1), ExactScalar(Fraction(10, 3))), ((2, 1), ExactScalar(7))), 8)
def test_batched_plane_sequence_matches_each_level(F, N):
    # the d=2 discrete-valued sequence, counted from one ceiling column per
    # pair, against each level's own cuts and against the kernel's count of
    # the built level; the levels stay out of the memo table
    for n, lam in sat_quotient_sequence(F, N).entries:
        assert lam == weight_sat_length(F._cuts(n))
        I = F._compute(n)
        assert lam == quotient_length(saturate(I), I), (F.pairs, n)
    assert not F._cache
    for bad in (0, -1):
        with pytest.raises(ValueError, match="N must be at least 1"):
            sat_quotient_sequence(F, bad)


def test_samuel_sequence_rejects_levels_not_m_primary():
    # (x)^n has infinite colength in k[x, y]; its saturation quotient is
    # finite (zero), as every sat(I)/I = H^0_m(R/I) is.  The sequence stops
    # at the first infinite colength, so no later level is built
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    with pytest.raises(LocalizedSequenceError, match="I_1 is not primary"):
        samuel_sequence(P, 40)
    assert list(P._cache) == [1]
    assert sat_quotient_sequence(P, 5).entries == tuple((n, 0) for n in range(1, 6))


def test_running_sup_monotone():
    F = pi_plane()
    rep = epsilon_report(F, 30, window=5)
    sups = rep.running_sup
    assert all(a <= b for a, b in zip(sups, sups[1:]))
    assert sups == tuple(max(v for _, v in rep.sequence.normalized()[:k])
                         for k in range(1, 31))


def test_default_window():
    # max(2, min(50, N // 5))
    F = pi_plane()
    assert epsilon_report(F, 100).window == 20
    assert epsilon_report(F, 12).window == 2


# ---------------------------------------------------------------------------
# classification and estimation
# ---------------------------------------------------------------------------


def _seq(dim, lams):
    return LengthSequence(dim=dim, entries=tuple(
        (n, lam) for n, lam in enumerate(lams, start=1)))


def test_secant_exact_on_polynomial_model():
    # lambda(n) = a n^d + b n^(d-1): normalized = d!(a + b/n); both the
    # difference-quotient secants and the fitted estimate recover d! a exactly
    a, b, d = 3, 7, 2
    seq = _seq(d, [a * n**2 + b * n for n in range(1, 41)])
    rep = _sequence_report(seq, 10)
    assert rep.classification == "converging"
    assert rep.estimate == math.factorial(d) * a
    assert rep.fitted == math.factorial(d) * a
    for s in rep.secant:
        if s is not None:
            assert s == math.factorial(d) * a


def test_classification_diverging():
    seq = _seq(2, [2 * n**3 for n in range(1, 61)])
    rep = _sequence_report(seq, 10)
    assert rep.classification == "diverging"
    assert rep.estimate is None and rep.residual is None


def test_classification_constant_exact():
    seq = _seq(2, [n * n for n in range(1, 101)])
    rep = _sequence_report(seq, 20)
    assert rep.classification == "converging"
    assert rep.estimate == 2
    assert rep.residual == 0


def test_classification_oscillating_reports_running_sup():
    # alternate between two slopes so the tail never settles
    lams = [(n * n if n % 2 else 2 * n * n) for n in range(1, 81)]
    seq = _seq(2, lams)
    rep = _sequence_report(seq, 10)
    assert rep.classification == "oscillating"
    assert rep.estimate == max(v for _, v in seq.normalized())


def test_fit_inverse_n_exact():
    # d=1 lengths 5n + 3 normalize to 5 + 3/n
    eps, c, spread, mean = _window_fit([(n, 5 * n + 3) for n in range(7, 30)], 1)
    assert eps == 5 and c == 3 and spread == 0
    assert mean == 5 + Fraction(3, 23) * sum(Fraction(1, n) for n in range(7, 30))


@st.composite
def length_sequences(draw):
    """(sequence, window): d = 1..3, a window of 2..30, at least twice as
    many entries, lengths up to 10^6 and a few zero entries anywhere."""
    d = draw(st.integers(1, 3))
    window = draw(st.integers(2, 30))
    N = draw(st.integers(2 * window, 2 * window + 12))
    lams = draw(st.lists(st.integers(0, 10**6), min_size=N, max_size=N))
    for i in draw(st.sets(st.integers(0, N - 1), max_size=3)):
        lams[i] = 0
    return _seq(d, lams), window


@settings(max_examples=100)
@given(length_sequences())
@example((_seq(2, [3 * n * n + 7 * n for n in range(1, 41)]), 10))
@example((_seq(1, [0] + list(range(1, 8))), 2))
def test_window_sums_match_fraction_reference(case):
    # the integer fit over (n, lam) against the Fraction one over the
    # normalized values; the secants are checked with the whole report
    seq, window = case
    norm = seq.normalized()
    # every window of consecutive entries, not only the trailing one
    for i in range(len(norm) - window + 1):
        tail = norm[i:i + window]
        eps, c, spread, mean = _window_fit(seq.entries[i:i + window], seq.dim)
        assert (eps, c, spread) == ref_window_fit(tail)
        assert mean == sum(v for _, v in tail) / window


@settings(max_examples=100)
@given(length_sequences())
@example((_seq(2, [3 * n * n + 7 * n for n in range(1, 41)]), 10))  # converging
@example((_seq(2, [n * n if n % 2 else 2 * n * n for n in range(1, 81)]), 10))  # oscillating
@example((_seq(2, [2 * n**3 for n in range(1, 61)]), 10))  # diverging
@example((_seq(2, [n * n for n in range(1, 41)]), 10))  # every value ties the sup
# the corrected spread 0.92 and 1.007 times the tolerance max(1/1000, mean/100)
@example((_seq(1, [100 * n + n % 2 * 11 for n in range(1, 21)]), 10))
@example((_seq(1, [100 * n + n % 2 * 12 for n in range(1, 21)]), 10))
# the corrected spread 2 equals the tolerance mean/100 = 2: not converging
@example((_seq(1, [0, 0, 0, 1702, 865, 9]), 3))
# a flat tail does not increase, however far above the head it lies
@example((_seq(1, list(range(1, 11)) + [1000 * n for n in range(11, 21)]), 10))
@example((_seq(3, [0, 0, 5, 0, 40, 300, 343, 0, 729, 1000]), 3))  # zero entries
def test_sequence_report_matches_fraction_reference(case):
    # the integer comparisons and common-denominator mean against Fraction
    # ones, over the whole report, and the columns formed on reading
    # against Fraction ones
    seq, window = case
    rep = _sequence_report(seq, window)
    assert rep == ref_sequence_report(seq, window)
    norm = seq.normalized()
    assert rep.running_sup == tuple(accumulate((v for _, v in norm), max))
    assert rep.secant == ref_secants(norm, window)


# fractions drawn as numerator and denominator: st.fractions() spent most
# of the test's time drawing, not in the median
@settings(max_examples=200)
@given(st.lists(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
                min_size=1, max_size=12))
@example([Fraction(1, 3), Fraction(2, 3)])
@example([Fraction(5), Fraction(1, 2), Fraction(5)])
def test_median_matches_statistics(values):
    """The classifier's exact median is ``statistics.median``, for odd and
    even lengths, equal entries and any order."""
    assert _median(values) == statistics.median(values)
    assert _median(values[::-1]) == statistics.median(values)


def test_window_validation():
    F = pi_plane()
    with pytest.raises(ValueError):
        epsilon_report(F, 10, window=6)  # needs N >= 2*window
    with pytest.raises(ValueError):
        epsilon_report(F, 10, window=1)
    # a one-point fit always has zero spread, and window 0 fitted the
    # whole sequence
    for window in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            e_s_localized(F, N=40, window=window)


# ---------------------------------------------------------------------------
# samuel multiplicities
# ---------------------------------------------------------------------------


def test_samuel_sequence_examples():
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    seq = samuel_sequence(P, 20)
    assert [lam for _, lam in seq.entries] == [n * (n + 1) // 2 for n in range(1, 21)]
    P2 = PowerFiltration(maximal_power(CTX2, 2))
    seq2 = samuel_sequence(P2, 10)
    assert [lam for _, lam in seq2.entries] == [2 * n * (2 * n + 1) // 2 for n in range(1, 11)]
    # (x^2, y^3): colength 3n^2 + 3n by brute force, normalized -> 6
    P3 = PowerFiltration(MonomialIdeal(CTX2, [(2, 0), (0, 3)]))
    seq3 = samuel_sequence(P3, 10)
    for n, lam in seq3.entries:
        assert lam == colength(ideal_power(MonomialIdeal(CTX2, [(2, 0), (0, 3)]), n))
        assert lam == 3 * n * n + 3 * n


def test_samuel_of_quotient_examples():
    assert samuel_of_quotient(MonomialIdeal(CTX2, [(1, 0)])) == 1
    assert samuel_of_quotient(MonomialIdeal(CTX2, [(3, 0)])) == 3
    # m-primary: dim R/I = 0, the multiplicity is the colength
    assert samuel_of_quotient(maximal_power(CTX2, 2)) == 3
    # the Hilbert function of R/I plateaus before it is polynomial: for
    # x^5*(x, y^6) it is 6 for k = 5..10 and 5 from k = 11 on
    assert samuel_of_quotient(MonomialIdeal(CTX2, [(6, 0), (5, 6)])) == 5
    # z^3*(x, y^6): only the face prime (z) has dimension 2, with (z^3)
    assert samuel_of_quotient(MonomialIdeal(RingContext(3),
                                            [(1, 0, 3), (0, 6, 3)])) == 3


def test_ideal_multiplicity_matches_power_colengths():
    fixtures = {
        ((1, 0), (0, 1)): 1,
        ((2, 0), (1, 1), (0, 2)): 4,
        ((2, 0), (0, 3)): 6,
        ((3, 0), (0, 4)): 12,
        ((2, 0), (1, 1), (0, 3)): 5,
    }
    for gens, expected in fixtures.items():
        I = MonomialIdeal(CTX2, list(gens))
        assert ideal_multiplicity(I) == expected
        # independent route: d-th difference of the power colengths
        lams = [colength(ideal_power(I, k)) for k in range(1, 9)]
        d2 = [lams[k + 2] - 2 * lams[k + 1] + lams[k] for k in range(len(lams) - 2)]
        assert d2[-1] == d2[-2] == expected
    with pytest.raises(ValueError):
        ideal_multiplicity(MonomialIdeal(CTX2, [(1, 0)]))
    # the third differences of k -> colength(I^k) hold at 119 four times
    # in a row before they settle at e(I) = 6 * covol(NP(I)) = 120
    I = MonomialIdeal(RingContext(3), [(0, 4, 0), (0, 0, 5), (1, 1, 3),
                                       (6, 0, 0), (5, 3, 2)])
    assert ideal_multiplicity(I) == 120
    # exact only through the Newton polyhedron's facets, so d <= 3
    with pytest.raises(ValueError, match="d <= 3"):
        ideal_multiplicity(maximal_power(RingContext(4), 1))


# ---------------------------------------------------------------------------
# localized multiplicity sum
# ---------------------------------------------------------------------------


def test_e_s_localized_line():
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    rep = e_s_localized(P, N=40)
    assert rep.value == 1 and rep.exact
    assert [c[0] for c in rep.contributions] == [("x",)]
    # cross-check against the quotient multiplicity route
    for n in range(1, 21):
        assert samuel_of_quotient(MonomialIdeal(CTX2, [(n, 0)])) == n


def test_e_s_localized_zero_dimensional():
    # s = 0: the only face prime is the maximal ideal itself and the sum is
    # the normalized colength limit
    P = PowerFiltration(maximal_power(CTX2, 2))
    rep = e_s_localized(P, N=30)
    assert rep.s == 0
    assert rep.value == 4  # multiplicity of m^2


def test_e_s_localized_empty_sum():
    # above the filtration dimension no face prime of dimension s contains
    # I_1, so the sum is empty
    P = PowerFiltration(maximal_power(CTX2, 2))
    rep = e_s_localized(P, N=30, s=1)
    assert rep.value == 0 and rep.exact
    assert rep.contributions == ()
    with pytest.raises(ValueError):
        e_s_localized(P, N=30, s=2)


def test_e_s_localized_pi():
    F = pi_plane()
    rep = e_s_localized(F, N=120)
    lo, hi = PI.brackets(40)
    assert hi * Fraction(97, 100) < rep.value < lo * Fraction(103, 100)
    assert not rep.exact


# ---------------------------------------------------------------------------
# difference check and truncation sweep
# ---------------------------------------------------------------------------


def test_difference_check_growth_pair():
    J = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    I = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    rep = epsilon_difference_check(J, I, 60, window=15)
    assert rep.inner.estimate == 2
    assert rep.outer.estimate == 0
    assert rep.gap.estimate == 2
    assert rep.residual == 0
    # gap lengths are exactly n^2 - n
    assert [lam for _, lam in rep.gap.sequence.entries] == [
        n * n - n for n in range(1, 61)]


def test_difference_check_identical():
    J = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    rep = epsilon_difference_check(J, J, 30, window=10)
    assert rep.residual == 0
    assert rep.gap.estimate == 0


def test_difference_check_violations():
    small = TemplateFiltration(CTX2, [("2", "0"), ("1", "n^2")])
    big = TemplateFiltration(CTX2, [("2", "0"), ("1", "n")])
    with pytest.raises(ValueError,
                       match=r"^containment inner <= outer fails at n=2$"):
        epsilon_difference_check(big, small, 10, window=3)
    P = PowerFiltration(MonomialIdeal(CTX2, [(2, 0)]))
    Q = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    with pytest.raises(ValueError, match="infinite"):
        epsilon_difference_check(P, Q, 10, window=3)
    with pytest.raises(ValueError,
                       match=r"^containment inner <= outer fails at n=1$"):
        epsilon_difference_check(Q, P, 10, window=3)
    # an empty bound is named before any level is built, on the kernel
    # branch of the report as on every other sequence
    for call in (lambda: samuel_sequence(P, 0), lambda: epsilon_difference_check(Q, P, 0),
                 lambda: truncation_sweep(pi_plane(), [1], 0), lambda: epsilon_report(small, 0)):
        with pytest.raises(ValueError, match=r"^N must be at least 1$"):
            call()


def test_truncation_sweep_structure():
    F = pi_plane()
    sweep = truncation_sweep(F, [1, 2], 40, window=10)
    assert len(sweep.levels) == 2
    assert sweep.levels[0][0] == 1
    for _, est, gap in sweep.levels:
        assert gap == abs(est - sweep.parent_estimate)
