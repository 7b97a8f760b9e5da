"""Monomial text syntax, rational strings, and deterministic CSV/JSON emission.

Monomials print as ``x^2*y^3`` (``1`` for the trivial monomial), generator
lists as ``[x^2, x*y^3]``.  Ideal JSON is an array of exponent arrays.
Rationals serialize as exact ``p/q`` strings, never floats; decimal columns
are explicitly labelled renderings.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from .ring import MonomialIdeal, RingContext
from .ring import _format_monomial as format_monomial

__all__ = [
    "format_monomial",
    "monomial_obj",
    "parse_monomial",
    "format_generators",
    "ideal_to_obj",
    "fraction_str",
    "decimal_str",
    "dump_json",
    "rows_to_csv",
]

_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def monomial_obj(exp, names=None):
    """A monomial in a report: ``x^2*y`` text when variable names are given,
    else its exponent list."""
    return format_monomial(exp, names) if names else list(exp)


def parse_monomial(text, ctx: RingContext):
    """Parse ``x^2*y^3`` style syntax into an exponent tuple."""
    text = text.strip()
    if text == "1":
        return (0,) * ctx.dim
    index = {n: i for i, n in enumerate(ctx.names)}
    exp = [0] * ctx.dim
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ValueError(f"bad monomial factor {factor!r} in {text!r}")
        name, power = m.group(1), m.group(2)
        if name not in index:
            raise ValueError(f"unknown variable {name!r} in {text!r}")
        exp[index[name]] += int(power) if power is not None else 1
    return tuple(exp)


def format_generators(I: MonomialIdeal):
    if I.is_zero():
        return "[]"
    return "[" + ", ".join(format_monomial(g, I.ctx.names) for g in I.gens) + "]"


def ideal_to_obj(I: MonomialIdeal):
    return [list(g) for g in I.gens]


def fraction_str(q):
    if q is None:
        return ""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def decimal_str(q, places=12):
    """Fixed-point decimal rendering of a rational (an explicit, lossy view)."""
    if q is None:
        return ""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = (q.numerator * 10**places + q.denominator // 2) // q.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def dump_json(obj):
    """Deterministic JSON bytes: sorted keys, fixed separators, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def rows_to_csv(columns, rows):
    """Render dict rows into CSV with a fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(c, "") for c in columns])
    return buf.getvalue()
