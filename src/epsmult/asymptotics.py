"""Length sequences and multiplicity estimation.

The central quantity is the saturation quotient length lambda(I_n^sat / I_n),
normalized to d! * lambda / n^d.  Reports classify the normalized sequence as
converging, oscillating, or diverging with explicit rational thresholds, and
never assert anything beyond the computed window.

Classification rules (all comparisons are exact rational):

* infinite entries inside the trailing window  ->  diverging
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

Per-n length computations are independent; with ``jobs > 1`` they fan out to
a process pool and are reassembled in n-order, so output is identical to a
sequential run.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .filtration import Filtration, filtration_dimension
from .ring import (
    MonomialIdeal,
    colength,
    dim_quotient,
    ideal_power,
    ideal_sum,
    maximal_power,
    quotient_length,
    saturate,
)
from .textio import decimal_str, fraction_str, length_str

__all__ = [
    "LengthSequence",
    "EpsilonReport",
    "DifferenceReport",
    "ESLocalizedReport",
    "StabilizationError",
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


class StabilizationError(RuntimeError):
    """A finite-difference computation did not stabilize within its budget."""


class LocalizedSequenceError(RuntimeError):
    """A localized colength sequence is infinite or fails to classify."""


@dataclass(frozen=True)
class LengthSequence:
    """Entries (n, length) with ``None`` recording an infinite length, and
    exact normalized values d! * length / n^dim for the finite ones."""

    dim: int
    entries: tuple

    def normalized(self):
        fact = math.factorial(self.dim)
        return tuple(
            (n, None if lam is None else Fraction(fact * lam, n**self.dim))
            for n, lam in self.entries)


def _median(values):
    vals = sorted(values)
    k = len(vals)
    if k == 0:
        raise ValueError("median of empty data")
    if k % 2:
        return vals[k // 2]
    return (vals[k // 2 - 1] + vals[k // 2]) / 2


def _fit_inverse_n(pairs):
    """Exact least squares of v = eps + c * (1/n) over (n, v) pairs."""
    m = len(pairs)
    if m == 1:
        return pairs[0][1], Fraction(0)
    sx = sum(Fraction(1, n) for n, _ in pairs)
    sxx = sum(Fraction(1, n * n) for n, _ in pairs)
    sy = sum(v for _, v in pairs)
    sxy = sum(Fraction(v, n) for n, v in pairs)
    denom = m * sxx - sx * sx
    if denom == 0:
        return pairs[-1][1], Fraction(0)
    c = Fraction(m * sxy - sx * sy, denom)
    eps = (sy - c * sx) / m
    return eps, c


def _window_fit(tail):
    """Fit v = eps + c/n over a trailing window of finite (n, v) pairs;
    return (eps, c, spread), where spread is the range of the corrected
    values v - c/n (zero exactly when the window matches the model)."""
    eps, c = _fit_inverse_n(tail)
    corrected = [v - c * Fraction(1, n) for n, v in tail]
    return eps, c, max(corrected) - min(corrected)


@dataclass(frozen=True)
class EpsilonReport:
    sequence: LengthSequence
    window: int
    running_sup: tuple
    secant: tuple
    classification: str  # "converging" | "oscillating" | "diverging"
    estimate: Fraction | None
    residual: Fraction | None
    # least-squares extrapolation over the trailing window, available whenever
    # that window is finite; equals ``estimate`` for converging sequences and
    # is the point estimate sweeps should compare
    fitted: Fraction | None = None

    # the per-n columns of rows(), in CSV order
    COLUMNS = ("n", "length", "normalized", "normalized_decimal",
               "running_sup", "secant_estimate")

    def rows(self):
        norm = self.sequence.normalized()
        return [
            dict(zip(self.COLUMNS, (
                n, length_str(lam), fraction_str(v), decimal_str(v),
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
            "fitted": fraction_str(self.fitted) if self.fitted is not None else None,
            "fitted_decimal": decimal_str(self.fitted) if self.fitted is not None else None,
            "entries": self.rows(),
        }


def _running_sup(normalized):
    sup = None
    out = []
    for _, v in normalized:
        if v is not None and (sup is None or v > sup):
            sup = v
        out.append(sup)
    return tuple(out)


def _secants(normalized, window):
    out = []
    for i, (n, v) in enumerate(normalized):
        j = i - window
        if j < 0 or v is None or normalized[j][1] is None:
            out.append(None)
            continue
        n0, v0 = normalized[j]
        out.append(Fraction(n * v - n0 * v0, n - n0))
    return tuple(out)


def _classify(normalized, window):
    """Apply the documented classification rules to (n, value) pairs."""
    tail = normalized[-window:]
    if any(v is None for _, v in tail):
        return "diverging", None, None
    head_vals = [v for _, v in normalized[:window] if v is not None]
    tail_vals = [v for _, v in tail]
    increasing = all(a < b for a, b in zip(tail_vals, tail_vals[1:]))
    if head_vals and increasing and tail_vals[-1] > DIVERGENCE_FACTOR * _median(head_vals):
        return "diverging", None, None
    eps, _, spread = _window_fit(tail)
    mean = sum(tail_vals) / len(tail_vals)
    tol = max(ABS_TOL, REL_TOL * abs(mean))
    if spread < tol:
        return "converging", eps, spread
    sup = max((v for _, v in normalized if v is not None), default=None)
    return "oscillating", sup, None


def _sequence_report(seq: LengthSequence, window):
    if window is None:
        window = max(2, min(50, len(seq.entries) // 5))
    if window < 2:
        raise ValueError("window must be at least 2")
    if len(seq.entries) < 2 * window:
        raise ValueError("need at least 2*window entries")
    norm = seq.normalized()
    classification, estimate, residual = _classify(norm, window)
    tail = norm[-window:]
    fitted = None
    if all(v is not None for _, v in tail):
        fitted, _ = _fit_inverse_n(tail)
    return EpsilonReport(
        sequence=seq,
        window=window,
        running_sup=_running_sup(norm),
        secant=_secants(norm, window),
        classification=classification,
        estimate=estimate,
        residual=residual,
        fitted=fitted,
    )


# ---------------------------------------------------------------------------
# sequence computation (optionally fanned out to workers)
# ---------------------------------------------------------------------------

# per-n functions fn(F, n) -> length or None, at module level so that a
# process pool can pickle them


def _sat_quotient_at(F, n):
    I = F.ideal_at(n)
    return quotient_length(saturate(I), I)


def _colength_at(F, n):
    return colength(F.ideal_at(n))


def _gap_at(inner_f, outer_f, n):
    Jn = inner_f.ideal_at(n)
    In = outer_f.ideal_at(n)
    if not In.contains_ideal(Jn):
        raise ValueError(f"containment inner <= outer fails at n={n}")
    lam = quotient_length(In, Jn)
    if lam is None:
        raise ValueError(f"lambda(outer_n/inner_n) is infinite at n={n}")
    return lam


def _entries(fn, F, N, jobs=1):
    """(n, fn(F, n)) for n = 1..N.  With jobs > 1 the levels go to a process
    pool in contiguous chunks, one per worker, and come back in n-order."""
    if N < 1:
        raise ValueError("N must be at least 1")
    ns = range(1, N + 1)
    if jobs <= 1:
        return [(n, fn(F, n)) for n in ns]
    step = (N + jobs - 1) // jobs
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(zip(ns, pool.map(fn, itertools.repeat(F, N), ns,
                                     chunksize=step)))


def sat_quotient_sequence(F: Filtration, N, jobs=1) -> LengthSequence:
    """lambda(I_n^sat / I_n) for n = 1..N, with infinite entries recorded as
    ``None`` rather than raised."""
    entries = _entries(_sat_quotient_at, F, N, jobs)
    return LengthSequence(dim=F.ctx.dim, entries=tuple(entries))


def epsilon_report(F: Filtration, N, window=None, jobs=1) -> EpsilonReport:
    """Normalized saturation-quotient sequence with convergence diagnostics."""
    return _sequence_report(sat_quotient_sequence(F, N, jobs=jobs), window)


def samuel_sequence(F: Filtration, N, jobs=1) -> LengthSequence:
    """Colengths of I_n (requires every member primary to the maximal ideal)."""
    entries = _entries(_colength_at, F, N, jobs)
    for n, lam in entries:
        if lam is None:
            raise LocalizedSequenceError(
                f"I_{n} is not primary to the maximal ideal of "
                f"{', '.join(F.ctx.names)}")
    return LengthSequence(dim=F.ctx.dim, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Samuel-type multiplicities
# ---------------------------------------------------------------------------


def _finite_differences(values, order):
    diffs = list(values)
    for _ in range(order):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return diffs


def _stabilized_difference(f, order, k_max, what):
    """Evaluate f(1), f(2), ... until the order-th finite differences hold
    constant over three consecutive steps; return that constant."""
    values = []
    k = 0
    while k < k_max:
        k += 1
        values.append(f(k))
        if len(values) >= order + 3:
            diffs = _finite_differences(values, order)
            if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3]:
                return diffs[-1]
    raise StabilizationError(f"{what} did not stabilize within k <= {k_max}")


def samuel_of_quotient(I: MonomialIdeal, k_max=None) -> Fraction:
    """Multiplicity of the quotient module R/I with respect to the maximal
    ideal, at s = dim R/I: the stabilized s-th finite difference of
    k -> lambda(R/(I + m^k))."""
    s = dim_quotient(I)
    if k_max is None:
        k_max = 8 * max(2, I.max_degree())
    ctx = I.ctx

    def f(k):
        return colength(ideal_sum(I, maximal_power(ctx, k)))

    return Fraction(_stabilized_difference(f, s, k_max, "Hilbert function"))


def ideal_multiplicity(I: MonomialIdeal, k_max=None) -> Fraction:
    """Samuel multiplicity of an m-primary ideal I: the stabilized d-th
    finite difference of k -> lambda(R/I^k)."""
    if colength(I) is None:
        raise ValueError("ideal multiplicity needs an m-primary ideal")
    if k_max is None:
        k_max = 8 * max(2, I.max_degree())

    def f(k):
        return colength(ideal_power(I, k))

    return Fraction(_stabilized_difference(f, I.dim, k_max, "power colengths"))


# ---------------------------------------------------------------------------
# localized multiplicity sum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ESLocalizedReport:
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
    across the trailing window.
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
    if N < 2 * window:
        raise ValueError("need N >= 2*window")
    I1 = F.ideal_at(1)
    contributions = []
    total = Fraction(0)
    all_exact = True
    for S in itertools.combinations(range(d), codim):
        supports = (frozenset(i for i, e in enumerate(g) if e > 0) for g in I1.gens)
        if not all(set(S) & sup for sup in supports):
            continue
        # the localized ring has dimension codim, so this is the normalized
        # colength (d-s)! * colength_p(I_n R_p) / n^(d-s)
        norm = samuel_sequence(F.localize(S), N).normalized()
        eps, _, spread = _window_fit(norm[-window:])
        exact = spread == 0
        names = tuple(F.ctx.names[i] for i in S)
        contributions.append((names, eps, exact))
        total += eps
        all_exact = all_exact and exact
    return ESLocalizedReport(
        value=total,
        exact=all_exact,
        s=s,
        contributions=tuple(contributions),
    )


# ---------------------------------------------------------------------------
# epsilon difference (inclusion of filtrations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceReport:
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
    gap_entries = _entries(functools.partial(_gap_at, inner_f), outer_f, N)
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


@dataclass(frozen=True)
class TruncationSweep:
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


def truncation_sweep(F: Filtration, levels, N, window=None, jobs=1) -> TruncationSweep:
    """Estimate the saturation-quotient limit of each level-i truncation of F
    and report the absolute gaps from the parent's estimate."""
    parent = epsilon_report(F, N, window=window, jobs=jobs)
    if parent.fitted is None:
        raise LocalizedSequenceError("parent sequence has infinite window entries")
    rows = []
    for i in levels:
        rep = epsilon_report(F.truncate(i), N, window=window, jobs=jobs)
        if rep.fitted is None:
            raise LocalizedSequenceError(
                f"truncation level {i} has infinite window entries")
        rows.append((i, rep.fitted, abs(rep.fitted - parent.fitted)))
    return TruncationSweep(N=N, window=parent.window,
                           parent_estimate=parent.fitted, levels=tuple(rows))
