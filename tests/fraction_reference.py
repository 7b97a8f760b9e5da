"""Fraction-arithmetic references: the exact-rational versions of the
arctan series, certified ceilings, the d=2 saturation-length envelope, the
window fit, the sequence report and the toric lattice rank that the integer
paths of ``epsmult.valuation``, ``epsmult.asymptotics`` and
``epsmult.diagnostics`` replaced, kept as test oracles.

Each one forms and normalises a ``Fraction`` per term, as the library did
before its sums moved to common denominators; the values are the same exact
rationals, so the fast paths must agree with these exactly, errors included.
``weight_sat_length`` is not a reference: it puts one level's cuts through
the library's column count, for the tests that compare it with the oracles.
"""

import math
import statistics
from fractions import Fraction

from epsmult.asymptotics import (
    ABS_TOL,
    DIVERGENCE_FACTOR,
    REL_TOL,
    EpsilonReport,
    _weight_sat_lengths,
)
from epsmult.ring import _floor_sum
from epsmult.valuation import CertificationError


def ref_atan_inv_brackets(x, terms):
    """Brackets of arctan(1/x) from consecutive alternating partial sums,
    adding one ``Fraction`` term at a time."""
    s = Fraction(0)
    sign = 1
    for k in range(terms):
        s += Fraction(sign, (2 * k + 1) * x ** (2 * k + 1))
        sign = -sign
    nxt = s + Fraction(sign, (2 * terms + 1) * x ** (2 * terms + 1))
    return (s, nxt) if s < nxt else (nxt, s)


def ref_ceil_mul(a, n, max_digits=300):
    """ceil(n*a) from the scaled Fraction brackets of ``a``."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    if a.is_rational:
        return math.ceil(a.coeff * n)
    digits = 16
    while digits <= max_digits:
        lo, hi = a.brackets(digits)
        clo = math.ceil(lo * n)
        chi = math.ceil(hi * n)
        if clo == chi:
            return clo
        digits *= 2
    raise CertificationError(
        f"could not certify ceil({n} * {a}) within {max_digits} digits")


def ref_ceil_defect_lower_bound(a, n, max_digits=300):
    """ceil(n*a) - n*hi for the first bracket hi that makes it positive."""
    if a.is_rational:
        raise ValueError("defect bound is for irrational scalars")
    c = ref_ceil_mul(a, n, max_digits)
    digits = 16
    while digits <= max_digits:
        _, hi = a.brackets(digits)
        bound = c - hi * n
        if bound > 0:
            return bound
        digits *= 2
    raise CertificationError(
        f"could not certify the ceiling defect at n={n} within {max_digits} digits")


def weight_sat_length(cuts):
    """lambda(sat(I)/I) for the d=2 weight cuts (w, n), by the library's
    column count with one-row columns."""
    return _weight_sat_lengths([w for w, _ in cuts], [[n] for _, n in cuts])[0]


def ref_weight_sat_length(cuts):
    """lambda(sat(I)/I) for the d=2 weight cuts, choosing the envelope's
    leading line and each takeover by ``Fraction`` heights."""
    cuts = [(w, n) for w, n in cuts if n > 0]
    A0 = max((-(-n // w[0]) for w, n in cuts if not w[1]), default=0)
    B0 = max((-(-n // w[1]) for w, n in cuts if not w[0]), default=0)
    lines = [(0, 1, 0)]
    for (w0, w1), n in cuts:
        r = n - w0 * A0 - w1 * B0
        if w0 and w1 and r > 0:
            lines.append((w0, w1, r))
    w0, w1, r = max(lines, key=lambda l: Fraction(l[2], l[1]))
    total = s = 0
    while w0:
        steps = []
        for v0, v1, q in lines:
            det = w0 * v1 - v0 * w1
            if det > 0:
                cross = -((q * w1 - r * v1) // det)
                steps.append((cross, -Fraction(q - v0 * cross, v1), (v0, v1, q)))
        cross, _, line = min(steps)
        total += _floor_sum(cross - s, w1, -w0, r - w0 * s + w1 - 1)
        (w0, w1, r), s = line, cross
    return total


def ref_fit_inverse_n(pairs):
    """Least squares of v = eps + c/n, one Fraction per term."""
    m = len(pairs)
    sx = sum(Fraction(1, n) for n, _ in pairs)
    sxx = sum(Fraction(1, n * n) for n, _ in pairs)
    sy = sum(v for _, v in pairs)
    sxy = sum(Fraction(v, n) for n, v in pairs)
    c = Fraction(m * sxy - sx * sy, m * sxx - sx * sx)
    eps = (sy - c * sx) / m
    return eps, c


def ref_window_fit(tail):
    """(eps, c, range of v - c/n) over a finite window."""
    eps, c = ref_fit_inverse_n(tail)
    corrected = [v - c * Fraction(1, n) for n, v in tail]
    return eps, c, max(corrected) - min(corrected)


def ref_secants(normalized, window):
    """(n*v - n0*v0) / (n - n0) against the entry ``window`` places back."""
    out = []
    for i, (n, v) in enumerate(normalized):
        j = i - window
        if j < 0 or v is None or normalized[j][1] is None:
            out.append(None)
            continue
        n0, v0 = normalized[j]
        out.append(Fraction(n * v - n0 * v0, n - n0))
    return tuple(out)


def ref_sequence_report(seq, window):
    """The report on a length sequence with a ``Fraction`` sup,
    ``Fraction`` comparisons in the classifier and a ``Fraction`` sum for
    the window mean.  Its diagnostic columns are read from the report, so
    the tests check them against ``accumulate`` and ``ref_secants``."""
    norm = seq.normalized()
    eps, _, spread = ref_window_fit(norm[-window:])
    head_vals = [v for _, v in norm[:window]]
    tail_vals = [v for _, v in norm[-window:]]
    increasing = all(a < b for a, b in zip(tail_vals, tail_vals[1:]))
    if increasing and tail_vals[-1] > DIVERGENCE_FACTOR * statistics.median(head_vals):
        classification, estimate, residual = "diverging", None, None
    elif spread < max(ABS_TOL, REL_TOL * abs(sum(tail_vals) / len(tail_vals))):
        classification, estimate, residual = "converging", eps, spread
    else:
        classification, estimate, residual = "oscillating", max(v for _, v in norm), None
    return EpsilonReport(
        sequence=seq, window=window, classification=classification,
        estimate=estimate, residual=residual, fitted=eps)


def ref_rational_rank(rows):
    """Rank of an integer matrix by Gaussian elimination over ``Fraction``."""
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
