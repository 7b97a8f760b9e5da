"""Replayable mutants: hand-made faults that the tests must catch.

Each row of ``MUTANTS`` is (file, old text, new text, pytest target, what
the mutant breaks).  Run ``python tests/mutants.py`` from anywhere: it
copies ``src/``, ``tests/`` and ``demos/`` to a temporary directory, applies each row
alone to its file there, and runs the row's target against that copy with
``-x``.  It exits 1 if a mutant survives (its target passes), if a target
does not run (pytest exits with neither 0 nor 1), or if a row's old text
does not occur exactly once in its file, so a change that rewrites the
mutated code must update its rows on purpose.  The property tests are
derandomized (``tests/conftest.py``), so each mutant meets the same
examples on every run, and run under its ``mutants`` profile, which skips
shrinking: a row needs a failing example, not a minimal one.

Removing a row or weakening its target is a change to a check.  Mutants
that no test can kill, because they compute the same values, are kept as
comments, not rows.  pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ASYMPTOTICS = "src/epsmult/asymptotics.py"
DIAGNOSTICS = "src/epsmult/diagnostics.py"
NEWTON = "src/epsmult/newton.py"
POLYHEDRA = "src/epsmult/_polyhedra.py"
RING = "src/epsmult/ring.py"
VALUATION = "src/epsmult/valuation.py"
PLANE_SEQUENCE = "tests/test_asymptotics.py::test_batched_plane_sequence_matches_each_level"
ENVELOPE = "tests/test_ring_properties.py::test_weight_sat_length_matches_fraction_reference"
REPORT = "tests/test_asymptotics.py::test_sequence_report_matches_fraction_reference"
POWER_MEMBERSHIP = "tests/test_ring_properties.py::test_power_membership_matches_r_loop"
SLICED_LENGTH = "tests/test_ring_properties.py::test_sliced_length_matches_reference"
TRUNCATION_DP = "tests/test_filtration.py::test_truncate_dp_matches_enumeration"
GAP_TOP = "tests/test_ring_properties.py::test_gap_top_matches_box_count"
COVOLUME = "tests/test_ring_properties.py::test_ideal_multiplicity_matches_lattice_count"
INSIDE_4D = "tests/test_newton.py::test_inside_in_four_variables_matches_lp_on_powers"
SPREAD_ZERO = "tests/test_diagnostics.py::test_spread_zero_matches_product_reference"

# Equivalent mutants of the two-variable count, left out: which of two equal
# lines leads (equal lines give equal columns), and whether a line takes
# over at the first column where it reaches the leader or the first where
# it passes it.  Equivalent in the classifier: ``abs(mean)`` as ``mean`` in
# the tolerance, since every length is a count, so the window's values
# d! * lam / n^d and their mean are never negative.  Equivalent in the
# two-variable staircase: ``r > q * w2`` as ``r >= q * w2``, since its loop
# keeps only rows with w2 > 0, and at r = q * w2 the ceiling r / w2 is q.
# Equivalent in the three-variable hull (the same ``_hull`` on 39000 random
# ideals): ``min`` for either ``max`` that picks s and t of a facet with a
# zero weight, since its generators' compact edges are one lower chain in
# either coordinate plane; ``_dot(n, c) >= 0`` in ``_pivot``, since a
# point in the facet's plane lies on the c side of the edge, never replaces
# n, and so n.c is never 0; and ``edges.pop(0)``, since gift wrapping finds
# every compact facet in any order.  Equivalent in four variables: either
# pre-test dropped, ``any(...) or`` in ``_inside`` or ``I.contains(p) or``
# in ``_closure``, since a multiple of some m*g is a point the LP finds
# feasible.  Equivalent in the rank bound: a basis row kept without
# dividing it by the gcd of its entries, which only lets them grow.
MUTANTS = [
    (ASYMPTOTICS,
     "lengths.append(_floor_sum(-(-r // w0), w1, -w0, r + w1 - 1))",
     "lengths.append(_floor_sum(r // w0, w1, -w0, r + w1 - 1))",
     PLANE_SEQUENCE,
     "a single line's columns end at floor(r/w0), dropping the last one"),
    (ASYMPTOTICS,
     "xs = [(i, w0) for i, (w0, w1) in enumerate(weights) if not w1]",
     "xs = [(i, w1) for i, (w0, w1) in enumerate(weights) if not w0]",
     PLANE_SEQUENCE,
     "the corner's A0 is read from the cuts with the other zero weight"),
    (ASYMPTOTICS,
     "total += _floor_sum(cross - s, w1, -w0, r - w0 * s + w1 - 1)",
     "total += _floor_sum(cross - s + 1, w1, -w0, r - w0 * s + w1 - 1)",
     ENVELOPE,
     "each envelope piece counts one column past its end"),
    (ASYMPTOTICS,
     "cross = -((q * w1 - r * v1) // det)",
     "cross = 1 - ((q * w1 - r * v1) // det)",
     ENVELOPE,
     "a line takes over one column after it reaches the leader"),
    (ASYMPTOTICS,
     "steps.append((cross, (v0 * cross - q) * (L // v1), (v0, v1, q)))",
     "steps.append((cross, (q - v0 * cross) * (L // v1), (v0, v1, q)))",
     ENVELOPE,
     "the lowest line at a shared crossing takes over, not the highest"),
    (VALUATION,
     "return [c if n * hi_num <= c * hi_den else ceil_mul(a, n)",
     "return [c if n * lo_num <= c * lo_den else ceil_mul(a, n)",
     "tests/test_valuation.py::test_ceil_range_matches_ceil_mul",
     "ceil(n*lo) is certified against lo, so it passes where hi is above it"),
    (RING,
     "total += n * (n - 1) // 2 * (a // m) + n * (b // m)",
     "total += n * (n + 1) // 2 * (a // m) + n * (b // m)",
     "tests/test_ring_properties.py::test_floor_sum_matches_direct_sum",
     "the floor sum's triangle term counts one step of the slope too many"),
    (ASYMPTOTICS,
     "return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2",
     "return s[k]",
     "tests/test_asymptotics.py::test_median_matches_statistics",
     "the median of an even count is the upper middle value"),
    (POLYHEDRA,
     "return all(_dot(w, a) >= m * rhs for w, rhs in _hull_of(I)[0])",
     "return all(_dot(w, a) > m * rhs for w, rhs in _hull_of(I)[0])",
     "tests/test_newton.py::test_np_membership_examples",
     "a point on a facet of the Newton polyhedron counts as outside it"),
    (ASYMPTOTICS,
     "elif spread < max(ABS_TOL, REL_TOL * abs(mean)):",
     "elif spread <= max(ABS_TOL, REL_TOL * abs(mean)):",
     REPORT,
     "a spread equal to the tolerance counts as converging"),
    (ASYMPTOTICS,
     "elif spread < max(ABS_TOL, REL_TOL * abs(mean)):",
     "elif spread < min(ABS_TOL, REL_TOL * abs(mean)):",
     REPORT,
     "the tolerance is the smaller of the absolute and relative ones"),
    (ASYMPTOTICS,
     "last_nd * DIVERGENCE_FACTOR * _median(",
     "last_nd * _median(",
     "tests/test_asymptotics.py::test_difference_check_growth_pair",
     "a strictly increasing tail diverges once it passes the head's median"),
    (ASYMPTOTICS,
     "all(a * nb < b * na for",
     "all(a * nb <= b * na for",
     REPORT,
     "a tail that only does not decrease counts as increasing"),
    (NEWTON,
     "            and r_max >= 1):",
     "            and r_max >= 0):",
     "tests/test_newton.py::test_power_verdicts_match_r_loop_reference",
     "the base rule answers a comparison whose r_max of 0 allows no r"),
    (NEWTON,
     "if isinstance(F, PowerFiltration) and r_max >= 1:",
     "if isinstance(F, PowerFiltration) and r_max >= 0:",
     POWER_MEMBERSHIP,
     "a power membership with r_max 0 answers yes at r = 1"),
    (POLYHEDRA,
     "_lp_convex_dominated([tuple(m * c for c in g) for g in I.gens], a)",
     "_lp_convex_dominated(list(I.gens), a)",
     INSIDE_4D,
     "in four variables the LP puts a in NP(I), not in m * NP(I)"),
    (POLYHEDRA,
     "any(all(m * c <= e for c, e in zip(g, a)) for g in I.gens)",
     "any(all(c <= e for c, e in zip(g, a)) for g in I.gens)",
     INSIDE_4D,
     "in four variables a multiple of some x^g counts as inside m * NP(I)"),
    (POLYHEDRA,
     "range(max(c) + 1)",
     "range(max(c))",
     "tests/test_newton.py::test_lp_route_in_four_variables",
     "the four-variable closure box stops short of the generator maximum"),
    (POLYHEDRA,
     "return all(_dot(w, a) >= m * rhs for w, rhs in _hull_of(I)[0])",
     "return all(_dot(w, a) > m * rhs for w, rhs in _hull_of(I)[0])",
     POWER_MEMBERSHIP,
     "a power membership on a facet of m * NP(base) is not found"),
    (NEWTON,
     "max_r = max(max_r, 1)",
     "max_r = max(max_r, 0)",
     "tests/test_newton.py::test_compare_of_powers_builds_no_power",
     "a direction settled by the base rule reports max_r_used 0, not 1"),
    (RING,
     "if s != below:",
     "if s is not below:",
     "tests/test_ring.py::test_minimalize_idempotent_and_order_independent",
     "the stack keeps an entry whose slice equals the one below it"),
    ("src/epsmult/filtration.py",
     "if type(N) is not int or N < 1:",
     "if type(N) is not int or N < 0:",
     "tests/test_diagnostics.py::test_diagnostics_reject_an_empty_bound",
     "a bound of 0 runs a search over no level instead of being rejected"),
    (ASYMPTOTICS,
     "Fraction(Y, D * m)",
     "Fraction(Y, D * (m + 1))",
     REPORT,
     "the window mean divides by one value more than the window holds"),
    (RING,
     "s = (su if su > sv else sv) if flat else _meet(d - 1, su, sv)",
     "s = (su if su < sv else sv) if flat else _meet(d - 1, su, sv)",
     "tests/test_ring_properties.py::test_intersect_matches_reference",
     "a two-variable meet takes the lower of two slices, not the higher"),
    (RING,
     "return min(u + v for u, v in pairs)",
     "return max(u + v for u, v in pairs)",
     "tests/test_ring_properties.py::test_product_and_sum_match_reference",
     "a one-variable sum of products takes the highest exponent, not the lowest"),
    (VALUATION,
     "return -(-a.coeff.numerator * n // a.coeff.denominator)",
     "return a.coeff.numerator * n // a.coeff.denominator",
     "tests/test_valuation.py::test_rational_ceil_mul_matches_fraction_reference",
     "the rational ceil(n*a) is taken as a floor"),
    (VALUATION,
     "[-(-p * n // q) for n in ns]",
     "[p * n // q for n in ns]",
     "tests/test_valuation.py::test_ceil_range_matches_ceil_mul",
     "the rational ceiling column is a column of floors"),
    (RING,
     "(i < nu and u[i][0] <= v[j][0])",
     "(i < nu and u[i][0] < v[j][0])",
     "tests/test_ring.py::test_quotient_length_against_enumeration_oracle",
     "two stacks' entries at one first coordinate are merged as two steps"),
    (RING,
     "            if w2:\n                live.append(row)",
     "            if w1:\n                live.append(row)",
     "tests/test_ring_properties.py::test_weight_ideal_matches_intersected_valuation_ideals",
     "the staircase keeps the rows with w1 > 0 in its loop, not those with w2 > 0"),
    (RING,
     "if b <= p:",
     "if b < p:",
     "tests/test_ring_properties.py::test_saturate_matches_reference_and_laws",
     "the three-variable saturation clamps the corners left of p but not one at p"),
    (RING,
     "(d == 2 and sj > si)",
     "(d == 2 and sj >= si)",
     SLICED_LENGTH,
     "the two-variable length walk rejects a slice of I equal to that of J"),
    (RING,
     "bucket.append((below, unit))",
     "pass",
     "tests/test_ring.py::test_sum_of_products_joins_the_slice_below",
     "the slice at a key of a product is the sum of its own slice products only"),
    (RING,
     "if last is None or q < last:",
     "if last is None or q <= last:",
     TRUNCATION_DP,
     "a two-variable staircase keeps a corner whose height equals the one before"),
    (RING,
     "if c not in low or h < low[c]:",
     "if c not in low or h > low[c]:",
     TRUNCATION_DP,
     "a column of a two-variable product keeps its larger height, not its least"),
    (RING,
     "if below is not None:\n            bucket.append((below, unit))",
     "if below is not None and d > 3:\n            bucket.append((below, unit))",
     "tests/test_ring_properties.py::test_sweep_minimalisation_matches_reference",
     "a three-variable minimalisation leaves the slice below out of each key's slice"),
    (RING,
     "best = max(best, a - 1 + cur)",
     "best = max(best, a + cur)",
     GAP_TOP,
     "a run of the gap ends at a_next, not at a_next - 1"),
    (RING,
     "return best if cur == -1 else None",
     "return best",
     GAP_TOP,
     "a gap left open past the last entry counts as bounded"),
    (RING,
     "if b > e:",
     "if b >= e:",
     "tests/test_ring_properties.py::test_contains_matches_generator_divisors",
     "membership at an entry's own key reads the slice below that entry"),
    (RING,
     "_has(d, value, b[:i] + (e - 1,) + b[i + 1:])",
     "_has(d, value, b)",
     "tests/test_diagnostics.py::test_spread_zero_not_found_for_maximal_powers",
     "the zero-spread rule asks for x^b in I_(rn), not in m * I_(rn)"),
    (DIAGNOSTICS,
     "if h != b and all(map(le, h, b)):",
     "if all(map(le, h, b)):",
     SPREAD_ZERO,
     "the template zero-spread rule asks for x^b in I_(rn), not in m * I_(rn)"),
    (DIAGNOSTICS,
     "if h != b and all(map(le, h, b)):",
     "if h != b and all(map(le, b, h)):",
     SPREAD_ZERO,
     "the template zero-spread rule asks for a shape above x^b, not below it"),
    (DIAGNOSTICS,
     "if isinstance(F, TemplateFiltration):",
     "if False:",
     "tests/test_diagnostics.py::test_spread_zero_builds_no_template_level_above_N",
     "a template's zero-spread search builds the levels above N"),
    (DIAGNOSTICS,
     "if len(basis) == cap:",
     "if len(basis) == cap + 1:",
     "tests/test_diagnostics.py::test_toric_rank_builds_no_level_after_the_stop",
     "the rank bound reads on past the ring dimension"),
    (DIAGNOSTICS,
     "row = [p * x - f * y for x, y in zip(row, b)]",
     "row = [x - f * y for x, y in zip(row, b)]",
     "tests/test_diagnostics.py::test_integer_rank_matches_fraction_rank",
     "a row is reduced against the basis without scaling it by the pivot"),
    (DIAGNOSTICS,
     "if top is not None and top < c * n:",
     "if top is not None and top <= c * n:",
     "tests/test_diagnostics.py::test_check_Ac_matches_reference",
     "A(c) holds at n with a gap monomial of degree exactly cn"),
    (POLYHEDRA,
     "        if _dot(n, v) < 0:\n            n = normal(v)",
     "        if _dot(n, v) > 0:\n            n = normal(v)",
     "tests/test_ring_properties.py::test_facets_cut_out_reference_polyhedron",
     "gift wrapping turns towards the points inside its plane, not past those outside"),
    (POLYHEDRA,
     "key=lambda p: p[t]), t, s)",
     "key=lambda p: p[s]), t, s)",
     "tests/test_ring_properties.py::test_stored_normals_are_true_facets",
     "a zero-weight facet's generators are chained in order of s, not of t"),
    (POLYHEDRA,
     "<= (chain[-1][s] - chain[-2][s]) * (p[t] - chain[-2][t])):",
     "< (chain[-1][s] - chain[-2][s]) * (p[t] - chain[-2][t])):",
     "tests/test_asymptotics.py::test_ideal_multiplicity_matches_power_colengths",
     "a chain keeps a point inside an edge, splitting a compact facet in two"),
    (POLYHEDRA,
     "_half_hull(pts[::-1])[:-1])",
     "_half_hull(pts[::-1])[:-2])",
     COVOLUME,
     "a compact facet's polygon drops its last vertex"),
    (POLYHEDRA,
     "return sum(abs(_det((f[0],) + f[i:i + d - 1]))",
     "return sum((_det((f[0],) + f[i:i + d - 1]))",
     COVOLUME,
     "the fan sum adds signed determinants, not their absolute values"),
    (RING,
     "values = [(u, v) for u, v in values if u is not None and v is not None]",
     "values = [(u, v) for u, v in values if u is not None or v is not None]",
     "tests/test_ring_properties.py::test_product_and_sum_match_reference",
     "the sum of products keeps a pair with one zero factor"),
    (RING,
     "return -1 if j is None else None",
     "return None",
     "tests/test_diagnostics.py::test_check_Ac_matches_reference",
     "a zero level's empty gap counts as unbounded, so A(c) fails there"),
    (RING,
     "_meet(self.dim, u, v) == v)",
     "_meet(self.dim, u, v) == u)",
     "tests/test_ring_properties.py::test_intersect_matches_reference",
     "containment of J in I compares I meet J with I, so it decides I <= J"),
    (RING,
     "sv = v[j][1]",
     "sv = sv",
     GAP_TOP,
     "at a first coordinate both stacks hold, the merge keeps v's slice from below it"),
    (ASYMPTOTICS,
     "    _levels(F, N)\n    if window is None:",
     "    if window is None:",
     "tests/test_asymptotics.py::test_window_is_checked_before_any_level_is_built",
     "a report with N = 0 rejects its window instead of N"),
    (ASYMPTOTICS,
     "    window = _window(F, N, max(2, N // 2) if window is None else window)\n"
     "    s = filtration_dimension(F)",
     "    s = filtration_dimension(F)\n"
     "    window = _window(F, N, max(2, N // 2) if window is None else window)",
     "tests/test_asymptotics.py::test_window_is_checked_before_any_level_is_built",
     "e_s_localized builds I_1 before it rejects its window"),
    (DIAGNOSTICS,
     "if type(c) is not int or c < 1:",
     "if c < 1:",
     "tests/test_diagnostics.py::test_counts_must_be_integers",
     "A(c) runs with a c that is not an integer"),
    ("src/epsmult/filtration.py",
     "if type(N) is not int or N < 2:",
     "if N < 2:",
     "tests/test_diagnostics.py::test_counts_must_be_integers",
     "the graded family check runs with an N that is not an integer"),
    (NEWTON,
     "if type(r_checks) is not int or r_checks < 1:",
     "if r_checks < 1:",
     "tests/test_diagnostics.py::test_counts_must_be_integers",
     "a separation re-check runs with an r_checks that is not an integer"),
    ("src/epsmult/scenario.py",
     "            raise ScenarioError(f\"duplicate key {key!r} in one JSON object\")",
     "            pass",
     "tests/test_cli.py::test_repeated_key_exits_2",
     "a key repeated in a scenario object silently takes its last value"),
    ("src/epsmult/cli.py",
     "except BrokenPipeError:",
     "except ConnectionResetError:",
     "tests/test_cli.py::test_cli_closed_stdout_is_a_normal_end",
     "a closed stdout ends the command line in a traceback"),
]


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # no bytecode cache, so a mutant of the same size as the original
        # is never run from a stale cache
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        for path, old, new, target, breaks in MUTANTS:
            text = (ROOT / path).read_text()
            count = text.count(old)
            if count != 1:
                print(f"BAD ROW  {path}: the old text occurs {count} times: {old!r}")
                failures += 1
                continue
            mutated = tmp / path
            mutated.write_text(text.replace(old, new))
            start = time.perf_counter()
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "--hypothesis-profile=mutants", target],
                    cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ).returncode
            finally:
                mutated.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"NOT RUN (pytest exit {code})")
            failures += code != 1
            print(f"{verdict:<8} {time.perf_counter() - start:5.1f} s  {path}: {breaks}  [{target}]")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
