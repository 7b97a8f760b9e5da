"""Length sequences and multiplicity estimation.

The central quantity is the saturation quotient length lambda(I_n^sat / I_n),
normalized to d! * lambda / n^d.  Reports classify the normalized sequence as
converging, oscillating, or diverging with explicit rational thresholds, and
never assert anything beyond the computed window.

Classification rules (all comparisons are exact rational):

* trailing-window values strictly increasing and the last one exceeding
  10x the median of the first window             ->  diverging
* else fit v = eps + c/n by least squares over the trailing window; if the
  corrected values v - c/n have spread below max(1/1000, |window mean|/100)
  the sequence is converging with estimate eps and residual that spread
* otherwise oscillating, reporting the final running sup as the limsup
  estimate.

The least-squares fit replaces a two-point secant through the window
endpoints: both recover eps exactly on model data eps + c/n, but ceiling
jitter of order 1/n makes endpoint fits noisy while the fitted estimate
averages it out.  Per-entry difference-quotient secants are still reported
as a diagnostic column.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .filtration import DiscreteValuedFiltration, Filtration, _levels, filtration_dimension
from .ring import (
    IdealDomainError,
    MonomialIdeal,
    _face_primes,
    _floor_sum,
    colength,
    dim_quotient,
    localize,
    quotient_length,
    saturate,
)
from .textio import decimal_str, fraction_str
from .valuation import _ceil_range

__all__ = [
    "LengthSequence",
    "EpsilonReport",
    "DifferenceReport",
    "ESLocalizedReport",
    "LocalizedSequenceError",
    "TruncationSweep",
    "sat_quotient_sequence",
    "epsilon_report",
    "samuel_sequence",
    "samuel_of_quotient",
    "ideal_multiplicity",
    "e_s_localized",
    "epsilon_difference_check",
    "truncation_sweep",
]

ABS_TOL = Fraction(1, 1000)
REL_TOL = Fraction(1, 100)
DIVERGENCE_FACTOR = 10


class LocalizedSequenceError(RuntimeError):
    """A level of a colength sequence is not primary to the maximal ideal."""


class LengthSequence(Record):
    """Entries (n, length) with an integer length, and exact normalized
    values d! * length / n^dim.  Every length is finite: the saturation
    quotient sat(I)/I is H^0_m(R/I), which has finite length, and colength
    and gap sequences reject a level whose quotient is infinite."""

    dim: int
    entries: tuple

    def normalized(self):
        fact = math.factorial(self.dim)
        return tuple((n, Fraction(fact * lam, n**self.dim))
                     for n, lam in self.entries)


def _window_fit(entries, dim):
    """Exact least squares of v = eps + c/n over (n, lam) entries, with
    v = dim! * lam / n^dim; return (eps, c, spread, mean): spread is the
    range of the corrected values v - c/n (zero exactly when the window
    matches the model) and mean that of the v.  Each v is y / D with
    D = N^dim, N the lcm of the n, x = N/n and y = dim! * lam * x^dim, so
    with the integer sums X, XX, Y, XY of x, x^2, y, x*y:
    c = N*(m*XY - X*Y) / (D*(m*XX - X^2)), eps = (Y*XX - X*XY) / (D*(m*XX -
    X^2)), mean = Y / (D*m), and the corrected values are numerators over
    D*N*c.denominator."""
    m = len(entries)
    fact = math.factorial(dim)
    N = math.lcm(*(n for n, _ in entries))
    D = N**dim
    xs = [N // n for n, _ in entries]
    ys = [fact * lam * x**dim for (_, lam), x in zip(entries, xs)]
    X, Y = sum(xs), sum(ys)
    XX = sum(x * x for x in xs)
    XY = sum(x * y for x, y in zip(xs, ys))
    den = D * (m * XX - X * X)
    eps, c = Fraction(Y * XX - X * XY, den), Fraction(N * (m * XY - X * Y), den)
    p, q = c.numerator * D, N * c.denominator
    corrected = [y * q - p * x for x, y in zip(xs, ys)]
    return eps, c, Fraction(max(corrected) - min(corrected), D * q), Fraction(Y, D * m)


class EpsilonReport(Record):
    sequence: LengthSequence
    window: int
    classification: str  # "converging" | "oscillating" | "diverging"
    estimate: Fraction | None
    residual: Fraction | None
    # least-squares extrapolation over the trailing window; equals
    # ``estimate`` for converging sequences and is the point estimate sweeps
    # should compare
    fitted: Fraction

    # the per-n columns of rows(), in CSV order
    COLUMNS = ("n", "length", "normalized", "normalized_decimal",
               "running_sup", "secant_estimate")

    @property
    def running_sup(self):
        """The largest normalized value up to each n, formed when read."""
        return tuple(itertools.accumulate((v for _, v in self.sequence.normalized()), max))

    @property
    def secant(self):
        """Per n, the secant d! * (lam * n0^e - lam0 * n^e) / ((n * n0)^e * (n - n0)),
        e = d - 1, to the entry ``window`` places back (None before it)."""
        d, entries, w = self.sequence.dim, self.sequence.entries, self.window
        fact, e = math.factorial(d), d - 1
        return (None,) * w + tuple(
            Fraction(fact * (lam * n0**e - lam0 * n**e), (n * n0)**e * (n - n0))
            for (n0, lam0), (n, lam) in zip(entries, entries[w:]))

    def rows(self):
        norm = self.sequence.normalized()
        return [
            dict(zip(self.COLUMNS, (
                n, str(lam), fraction_str(v), decimal_str(v),
                fraction_str(sup), fraction_str(sec))))
            for (n, lam), (_, v), sup, sec in zip(
                self.sequence.entries, norm, self.running_sup, self.secant)
        ]

    def to_obj(self, names=None):
        return {
            "dimension": self.sequence.dim,
            "window": self.window,
            "classification": self.classification,
            "estimate": fraction_str(self.estimate) if self.estimate is not None else None,
            "estimate_decimal": decimal_str(self.estimate) if self.estimate is not None else None,
            "residual": fraction_str(self.residual) if self.residual is not None else None,
            "fitted": fraction_str(self.fitted),
            "fitted_decimal": decimal_str(self.fitted),
            "entries": self.rows(),
        }


def _median(values):
    """The median of a nonempty list, as ``statistics.median`` defines it:
    the middle value, or the mean of the two middle values."""
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _sequence_report(seq: LengthSequence, window):
    """Report on the normalized values v = d! * lam / n^d under the
    documented classification rules, read from the integer entries (n, lam):
    v_a < v_b exactly when lam_a * n_b^d < lam_b * n_a^d.  The running
    maximum is held as the pair (lam, n^d), and a rational is formed only
    for a value the report holds: the sup of an oscillating sequence and
    the integer fit's eps, spread and mean."""
    if window is None:
        window = max(2, min(50, len(seq.entries) // 5))
    if window < 2:
        raise ValueError("window must be at least 2")
    if len(seq.entries) < 2 * window:
        raise ValueError("need at least 2*window entries")
    d, entries = seq.dim, seq.entries
    fact = math.factorial(d)
    scaled = [(lam, n**d) for n, lam in entries]
    top_lam, top_nd = scaled[0]
    for lam, nd in scaled:
        if lam * top_nd > top_lam * nd:
            top_lam, top_nd = lam, nd
    eps, _, spread, mean = _window_fit(entries[-window:], d)
    tail = scaled[-window:]
    last_lam, last_nd = tail[-1]
    if (all(a * nb < b * na for (a, na), (b, nb) in zip(tail, tail[1:]))
            and fact * last_lam > last_nd * DIVERGENCE_FACTOR * _median(
                [Fraction(fact * lam, nd) for lam, nd in scaled[:window]])):
        classification, estimate, residual = "diverging", None, None
    elif spread < max(ABS_TOL, REL_TOL * abs(mean)):
        classification, estimate, residual = "converging", eps, spread
    else:
        classification, estimate, residual = "oscillating", Fraction(fact * top_lam, top_nd), None
    return EpsilonReport(
        sequence=seq,
        window=window,
        classification=classification,
        estimate=estimate,
        residual=residual,
        fitted=eps,
    )


# ---------------------------------------------------------------------------
# sequence computation
# ---------------------------------------------------------------------------

def _weight_sat_lengths(weights, columns):
    """lambda(sat(I)/I) for each row of the level columns, I the meet of the
    two-variable cuts w . a >= n over the ``weights`` and the row's levels n,
    counted from the cuts without building I.  A cut with n <= 0 always
    holds.

    Saturation commutes with finite meets, leaves a cut with one zero
    weight unchanged and makes a cut with both weights positive the unit
    ideal, so sat(I) = (x^A0*y^B0) with A0, B0 the largest ceil(n/w) over
    the one-weight cuts.  Shifted to that corner, an m-primary cut (w, n)
    leaves r = n - w.(A0, B0) and cuts out the triangle w.(s, t) < r, whose
    column at s holds ceil((r - w0*s)/w1) points while that is positive.
    The quotient is the union of these triangles, so each column holds the
    ceiling of the upper envelope of their lines, and the count is one floor
    sum per piece of the envelope: a single line is the one piece over the
    columns s < ceil(r/w0).  The cuts are sorted by their zero weights once
    for all rows."""
    xs = [(i, w0) for i, (w0, w1) in enumerate(weights) if not w1]
    ys = [(i, w1) for i, (w0, w1) in enumerate(weights) if not w0]
    primary = [(i, w0, w1) for i, (w0, w1) in enumerate(weights) if w0 and w1]
    lengths = []
    for row in zip(*columns):
        A0 = B0 = 0
        for i, w in xs:
            c = -(-row[i] // w)
            if c > A0:
                A0 = c
        for i, w in ys:
            c = -(-row[i] // w)
            if c > B0:
                B0 = c
        # the line t = (r - w0*s)/w1 of every triangle above the corner
        lines = []
        for i, w0, w1 in primary:
            r = row[i] - w0 * A0 - w1 * B0
            if r > 0:
                lines.append((w0, w1, r))
        if len(lines) == 1:
            (w0, w1, r), = lines
            lengths.append(_floor_sum(-(-r // w0), w1, -w0, r + w1 - 1))
            continue
        # t = 0 closes the envelope (and is all of it when no line is
        # left); a line is steeper than another iff its w0/w1 is larger.
        # Heights t = h/w1 compare as integers h*(L//w1) over the common
        # denominator L of the lines' w1; the leader is a highest line at
        # column s, and equal lines give equal columns, so which of them
        # leads does not change the count
        lines.append((0, 1, 0))
        L = math.lcm(*(l[1] for l in lines))
        w0, w1, r = max(lines, key=lambda l: l[2] * (L // l[1]))
        total = s = 0
        while w0:
            # the first column at which a less steep line reaches the leader
            # (s itself for a line equal to it there); the highest line
            # there takes over
            steps = []
            for v0, v1, q in lines:
                det = w0 * v1 - v0 * w1
                if det > 0:
                    cross = -((q * w1 - r * v1) // det)
                    steps.append((cross, (v0 * cross - q) * (L // v1), (v0, v1, q)))
            cross, _, line = min(steps)
            # columns s..cross-1 of the leader: ceil((r - w0*i)/w1)
            total += _floor_sum(cross - s, w1, -w0, r - w0 * s + w1 - 1)
            (w0, w1, r), s = line, cross
        lengths.append(total)
    return lengths


def sat_quotient_sequence(F: Filtration, N, jobs=1) -> LengthSequence:
    """lambda(I_n^sat / I_n) for n = 1..N.  A discrete-valued filtration in
    two variables is counted from one column of ceilings ceil(n * a_i) per
    multiplier, by floor sums, and its levels are never built, so they do
    not enter its memo table; every other level is built, saturated and
    measured.  ``jobs`` is accepted for compatibility and ignored: every
    level is computed in this process."""
    levels = _levels(F, N)
    if isinstance(F, DiscreteValuedFiltration) and F.ctx.dim == 2:
        entries = list(enumerate(_weight_sat_lengths(
            [v.weights for v, _ in F.pairs], [_ceil_range(a, N) for _, a in F.pairs]), start=1))
    else:  # the one saturation of each level, measured against the level
        entries = [(n, quotient_length(saturate(I), I)) for n, I in levels]
    return LengthSequence(dim=F.ctx.dim, entries=tuple(entries))


def epsilon_report(F: Filtration, N, window=None, jobs=1) -> EpsilonReport:
    """Normalized saturation-quotient sequence with convergence diagnostics.
    ``jobs`` is accepted for compatibility and ignored."""
    return _sequence_report(sat_quotient_sequence(F, N), window)


def samuel_sequence(F: Filtration, N) -> LengthSequence:
    """Colengths of I_n (requires every member primary to the maximal
    ideal; raises at the first one that is not, building no later level)."""
    entries = []
    for n, I in _levels(F, N):
        lam = colength(I)
        if lam is None:
            raise LocalizedSequenceError(
                f"I_{n} is not primary to the maximal ideal of "
                f"{', '.join(F.ctx.names)}")
        entries.append((n, lam))
    return LengthSequence(dim=F.ctx.dim, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Samuel-type multiplicities
# ---------------------------------------------------------------------------


def samuel_of_quotient(I: MonomialIdeal) -> Fraction:
    """Multiplicity of the quotient module R/I with respect to the maximal
    ideal, exactly, by the associativity formula (Bruns-Herzog,
    Cohen-Macaulay Rings, Cor. 4.7.8): with s = dim R/I, the sum of the
    colengths of I localized at the face primes P_S containing I with
    |S| = d - s (each such R/P_S is a polynomial ring, of multiplicity 1)."""
    codim = I.dim - dim_quotient(I)
    return Fraction(sum(colength(localize(I, S))
                        for S in _face_primes(I, codim)))


def ideal_multiplicity(I: MonomialIdeal) -> Fraction:
    """Samuel multiplicity of an m-primary ideal I in d <= 3 variables,
    exactly: e(I) = e of the integral closure = d! * covol(NP(I)) (Rees;
    for monomial ideals see Huneke-Swanson, Integral Closure of Ideals,
    Rings, and Modules, 2006)."""
    if I.dim > 3 or colength(I) is None:
        raise ValueError("ideal multiplicity needs an m-primary ideal in d <= 3")
    from ._polyhedra import _normalized_covolume  # here, so import epsmult leaves it unrun
    return Fraction(_normalized_covolume(I))


# ---------------------------------------------------------------------------
# localized multiplicity sum
# ---------------------------------------------------------------------------


class ESLocalizedReport(Record):
    value: Fraction
    exact: bool
    s: int
    contributions: tuple  # (variable names, value, exact) per face prime

    def to_obj(self, names=None):
        return {
            "value": fraction_str(self.value),
            "value_decimal": decimal_str(self.value),
            "exact": self.exact,
            "s": self.s,
            "contributions": [
                {"prime": list(names), "value": fraction_str(v),
                 "value_decimal": decimal_str(v), "exact": ex}
                for names, v, ex in self.contributions
            ],
        }


def e_s_localized(F: Filtration, N=200, window=None, s=None) -> ESLocalizedReport:
    """Sum over face primes p with dim R/p = s of the local Samuel-type
    multiplicity of the localized filtration (the maximal-ideal multiplier
    of each face prime quotient is 1 in a polynomial ring).

    ``s`` defaults to the filtration dimension and may be anything between
    it and d-1; above the filtration dimension no face prime of dimension s
    contains I_1 and the sum is empty (zero).  Each local multiplicity is
    lim (d-s)! * colength_p(I_n R_p) / n^(d-s), estimated by the same
    least-squares extrapolation as the epsilon machinery; a contribution is
    flagged exact when the localized sequence matches eps + c/n exactly
    across the trailing window, which must hold at least two points (a
    one-point fit always matches).
    """
    fdim = filtration_dimension(F)
    d = F.ctx.dim
    if s is None:
        s = fdim
    if not fdim <= s <= d - 1:
        raise ValueError(f"s must lie between the filtration dimension {fdim} "
                         f"and {d - 1}")
    codim = d - s
    if window is None:
        window = max(2, N // 2)
    if window < 2:
        raise ValueError("window must be at least 2")
    if N < 2 * window:
        raise ValueError("need N >= 2*window")
    contributions = []
    for S in _face_primes(F.ideal_at(1), codim):
        L = F.localize(S)
        # the localized ring has dimension codim, so this is the normalized
        # colength (d-s)! * colength_p(I_n R_p) / n^(d-s)
        seq = samuel_sequence(L, N)
        eps, _, spread, _ = _window_fit(seq.entries[-window:], seq.dim)
        contributions.append((L.ctx.names, eps, spread == 0))
    return ESLocalizedReport(
        value=sum((eps for _, eps, _ in contributions), Fraction(0)),
        exact=all(exact for _, _, exact in contributions), s=s,
        contributions=tuple(contributions))


# ---------------------------------------------------------------------------
# epsilon difference (inclusion of filtrations)
# ---------------------------------------------------------------------------


class DifferenceReport(Record):
    """Estimates for an inclusion of filtrations inner <= outer: the two
    saturation-quotient limits, the normalized gap limit
    d! * lambda(outer_n / inner_n) / n^d, and the residual
    inner_estimate - outer_estimate - gap_estimate."""

    inner: EpsilonReport
    outer: EpsilonReport
    gap: EpsilonReport
    residual: Fraction | None

    def to_obj(self, names=None):
        return {
            "inner": self.inner.to_obj(names),
            "outer": self.outer.to_obj(names),
            "gap": self.gap.to_obj(names),
            "residual": fraction_str(self.residual) if self.residual is not None else None,
            "residual_decimal": decimal_str(self.residual) if self.residual is not None else None,
        }


def epsilon_difference_check(inner_f: Filtration, outer_f: Filtration, N,
                             window=None) -> DifferenceReport:
    """Check the additivity of the saturation-quotient limits across an
    inclusion inner <= outer with finite quotients.

    Preconditions (checked for every n <= N, with a witness on violation):
    inner_n <= outer_n and lambda(outer_n / inner_n) finite.
    """
    gap_entries = []
    for n, Jn in _levels(inner_f, N):
        In = outer_f.ideal_at(n)
        try:
            lam = quotient_length(In, Jn)
        except IdealDomainError:
            raise ValueError(f"containment inner <= outer fails at n={n}") from None
        if lam is None:
            raise ValueError(f"lambda(outer_n/inner_n) is infinite at n={n}")
        gap_entries.append((n, lam))
    gap_seq = LengthSequence(dim=outer_f.ctx.dim, entries=tuple(gap_entries))
    inner_rep = epsilon_report(inner_f, N, window=window)
    outer_rep = epsilon_report(outer_f, N, window=window)
    gap_rep = _sequence_report(gap_seq, window)
    residual = None
    if all(r.estimate is not None for r in (inner_rep, outer_rep, gap_rep)):
        residual = inner_rep.estimate - outer_rep.estimate - gap_rep.estimate
    return DifferenceReport(inner=inner_rep, outer=outer_rep, gap=gap_rep,
                            residual=residual)


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------


class TruncationSweep(Record):
    """Fitted estimates for the level-i subfiltrations against the parent.

    Gaps are compared with the trailing-window least-squares estimates
    (``fitted``): those are defined for every classification, whereas the
    limsup estimate of an oscillating report is dominated by shared small-n
    transients and would make the comparison vacuous.
    """

    N: int
    window: int
    parent_estimate: Fraction
    levels: tuple  # (level, fitted estimate, gap)

    def to_obj(self, names=None):
        return {
            "N": self.N,
            "window": self.window,
            "parent_estimate": fraction_str(self.parent_estimate),
            "parent_estimate_decimal": decimal_str(self.parent_estimate),
            "levels": [
                {"level": i, "estimate": fraction_str(v),
                 "estimate_decimal": decimal_str(v),
                 "gap": fraction_str(gap), "gap_decimal": decimal_str(gap)}
                for i, v, gap in self.levels
            ],
        }

    def gaps(self):
        return [gap for _, _, gap in self.levels]


def truncation_sweep(F: Filtration, levels, N, window=None) -> TruncationSweep:
    """Estimate the saturation-quotient limit of each level-i truncation of F
    and report the absolute gaps from the parent's estimate."""
    parent = epsilon_report(F, N, window)
    rows = []
    for i in levels:
        rep = epsilon_report(F.truncate(i), N, window)
        rows.append((i, rep.fitted, abs(rep.fitted - parent.fitted)))
    return TruncationSweep(N=N, window=parent.window,
                           parent_estimate=parent.fitted, levels=tuple(rows))
