"""Tests of the benchmark's own arithmetic and oracles.

    python3 -m pytest -q perfbench/test_harness.py
"""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import PER_LAYER, percentile, self_times  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_nested_and_siblings():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("a.inner", 2.0, 3.0, 1),
             span("b", 5.0, 7.0, 0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 4.0, 0),
             span("b", 3.0, 6.0, 0),
             span("late", 9.0, 12.0, 0)]
    # children cover [1, 6] and, clipped to the parent, [9, 10]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [span("root", 0.0, 8.0, -1), span("a", 0.5, 6.0, 0),
             span("b", 1.0, 2.0, 1), span("c", 2.5, 5.0, 1), span("d", 3.0, 4.0, 3)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_percentile_is_nearest_rank():
    values = list(range(20, 0, -1))
    assert percentile(values, 50) == 10
    assert percentile(values, 95) == 19
    assert percentile(values, 100) == 20
    assert percentile([7.5], 95) == 7.5
    assert percentile([], 50) == 0.0
    assert percentile([1, 2, 3, 4], 50) == 2


def brute_sat_quotient(A, B, d):
    """#(sat(I) \\ I) for I = (x1^A) meet m^B, by testing lattice points of a
    box: p is in sat(I) when p + K e_i is in I for every variable i."""
    def member(p):
        return p[0] >= A and sum(p) >= B

    K = B + 2
    count = 0
    for p in itertools.product(range(B + 2), repeat=d):
        in_sat = all(member(tuple(c + (K if j == i else 0) for j, c in enumerate(p)))
                     for i in range(d))
        count += in_sat and not member(p)
    return count


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(5, 6), Fraction(8, 7)])
def test_plane_closed_form_matches_lattice_count(alpha):
    beta = alpha + 1
    lengths = workloads.plane_lengths(alpha, beta, 5)
    for n, lam in enumerate(lengths, start=1):
        A = workloads.ceil_pi_multiple(n, alpha)
        B = workloads.ceil_pi_multiple(n, beta)
        assert A == math.ceil(n * float(alpha) * math.pi)
        assert lam == brute_sat_quotient(A, B, 2)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(5, 6), Fraction(7, 9)])
def test_space_closed_form_matches_lattice_count(a):
    b = a + 1
    for n, lam in enumerate(workloads.space_lengths(a, b, 4), start=1):
        assert lam == brute_sat_quotient(math.ceil(n * a), math.ceil(n * b), 3)


def test_fit_recovers_model_data():
    pairs = [(n, Fraction(7, 3) + Fraction(5, n)) for n in range(4, 10)]
    assert workloads.fit_inverse_n(pairs) == Fraction(7, 3)


def test_diagonal_closure():
    assert workloads.diagonal_closure([2, 2]) == [(0, 2), (1, 1), (2, 0)]
    exps = (3, 4, 5)
    closure = workloads.diagonal_closure(list(exps))
    assert (2, 2, 0) in closure
    # a box point is above the Newton polyhedron's facet exactly when some
    # generator divides it
    for p in itertools.product(*(range(e + 2) for e in exps)):
        above = sum(Fraction(c, e) for c, e in zip(p, exps)) >= 1
        assert above == any(all(g <= c for g, c in zip(gen, p)) for gen in closure)


def test_specs_are_deterministic_per_seed(tmp_path):
    for workload in ("plane-pi", "space-3d"):
        assert workloads.make_spec(workload, 3, str(tmp_path)) == \
            workloads.make_spec(workload, 3, str(tmp_path))
    docs = [workloads.scenario_doc(seed, 1) for seed in range(6)]
    assert docs[0] == workloads.scenario_doc(0, 1)
    assert len({json.dumps(d[0], sort_keys=True) for d in docs}) > 1


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["per_layer"] == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "space-3d",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in PER_LAYER]
    assert result["metrics"]["quotient_length.d3.calls"]["value"] > 0
    assert result["metrics"]["trace.accounted_share"]["value"] > 0.5
