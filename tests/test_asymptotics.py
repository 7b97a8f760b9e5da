import math
from fractions import Fraction

import pytest

from epsmult.asymptotics import (
    LengthSequence,
    LocalizedSequenceError,
    _fit_inverse_n,
    _sequence_report,
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
)
from epsmult.valuation import ExactScalar, ceil_mul

CTX2 = RingContext(2)
PI = ExactScalar(1, "pi")
TWO_PI = ExactScalar(2, "pi")


def synthetic_report(values, window):
    entries = tuple((n, v) for n, v in enumerate(values, start=1))
    # dim=1 with lam = value so normalized = value/n ... use direct sequences
    return entries


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
    # fanned out to workers, the sequence is the same
    assert sat_quotient_sequence(J, 10, jobs=2) == seqJ
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    seqP = sat_quotient_sequence(P, 10)
    assert [lam for _, lam in seqP.entries] == [n * (n + 1) // 2 for n in range(1, 11)]


def test_infinite_entries_recorded_not_fatal():
    # powers of (x) have saturation equal to themselves => lengths 0; build a
    # filtration with infinite saturation quotients instead: powers of (x)
    # have length 0, so use a table with I_n = (x^n) inside dimension 2 and
    # sat quotient zero; infinite entries need sat(I_n) != I_n with infinite
    # quotient, impossible; instead check colength sequence error handling.
    P = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    with pytest.raises(LocalizedSequenceError):
        samuel_sequence(P, 5)


def test_running_sup_monotone():
    F = pi_plane()
    rep = epsilon_report(F, 30, window=5)
    sups = [s for s in rep.running_sup if s is not None]
    assert all(a <= b for a, b in zip(sups, sups[1:]))


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
    pairs = [(n, Fraction(5) + Fraction(3, n)) for n in range(7, 30)]
    eps, c = _fit_inverse_n(pairs)
    assert eps == 5 and c == 3


def test_window_validation():
    F = pi_plane()
    with pytest.raises(ValueError):
        epsilon_report(F, 10, window=6)  # needs N >= 2*window
    with pytest.raises(ValueError):
        epsilon_report(F, 10, window=1)


# ---------------------------------------------------------------------------
# samuel multiplicities
# ---------------------------------------------------------------------------


def test_samuel_sequence_examples():
    P = PowerFiltration(MonomialIdeal.maximal(CTX2))
    seq = samuel_sequence(P, 20)
    assert [lam for _, lam in seq.entries] == [n * (n + 1) // 2 for n in range(1, 21)]
    assert samuel_sequence(P, 20, jobs=3) == seq
    assert samuel_sequence(P, 2, jobs=3).entries == seq.entries[:2]  # fewer levels than workers
    P2 = PowerFiltration(maximal_power(CTX2, 2))
    seq2 = samuel_sequence(P2, 10)
    assert [lam for _, lam in seq2.entries] == [2 * n * (2 * n + 1) // 2 for n in range(1, 11)]
    # (x^2, y^3): colength 3n^2 + 3n by brute force, normalized -> 6
    P3 = PowerFiltration(MonomialIdeal(CTX2, [(2, 0), (0, 3)]))
    seq3 = samuel_sequence(P3, 10)
    for n, lam in seq3.entries:
        assert lam == colength(ideal_power(MonomialIdeal(CTX2, [(2, 0), (0, 3)]), n))
        assert lam == 3 * n * n + 3 * n


def test_samuel_stabilization_budget():
    from epsmult.asymptotics import StabilizationError

    with pytest.raises(StabilizationError):
        samuel_of_quotient(MonomialIdeal(CTX2, [(9, 0)]), k_max=3)


def test_samuel_of_quotient_examples():
    assert samuel_of_quotient(MonomialIdeal(CTX2, [(1, 0)])) == 1
    assert samuel_of_quotient(MonomialIdeal(CTX2, [(3, 0)])) == 3
    # m-primary: dim R/I = 0, the stabilized value is the colength
    assert samuel_of_quotient(maximal_power(CTX2, 2)) == 3


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
    with pytest.raises(ValueError, match="containment"):
        epsilon_difference_check(big, small, 10, window=3)
    P = PowerFiltration(MonomialIdeal(CTX2, [(2, 0)]))
    Q = PowerFiltration(MonomialIdeal(CTX2, [(1, 0)]))
    with pytest.raises(ValueError, match="infinite"):
        epsilon_difference_check(P, Q, 10, window=3)


def test_truncation_sweep_structure():
    F = pi_plane()
    sweep = truncation_sweep(F, [1, 2], 40, window=10)
    assert len(sweep.levels) == 2
    assert sweep.levels[0][0] == 1
    for _, est, gap in sweep.levels:
        assert gap == abs(est - sweep.parent_estimate)
