"""Self-tests of the benchmark.

Negative control: a coefficient file whose roots differ from the recorded ones
must be counted as failed operations, while the correct files still pass.

    python3 -m pytest perfbench
"""

import itertools
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from quinticlab import cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Tally, run_op  # noqa: E402
from workloads import QUERY_KINDS, coeffs_queries, sample_roots, write_coeffs_file  # noqa: E402


def test_wrong_coefficient_file_counts_as_failed(tmp_path):
    workload = coeffs_queries(seed=3, work=tmp_path)
    ops = list(itertools.islice(workload.stream(), 2 * len(QUERY_KINDS)))
    wrong = Path(ops[0].argv[2])
    write_coeffs_file(wrong, sample_roots(np.random.default_rng(99)))

    tally = Tally()
    for op in ops:
        tally.add(op, *run_op(cli.main, op))

    failed_fraction = len(tally.failures) / len(tally.latencies)
    assert failed_fraction == 0.5
    assert all("not recovered" in reason for reason in tally.failures)
    assert {reason.split()[0] for reason in tally.failures} == set(QUERY_KINDS)


def test_missing_layer_function_is_reported_missing_not_zero(monkeypatch):
    monkeypatch.delattr("quinticlab.polynomials.find_roots")
    metrics = Tracer().metrics(instances=1, overhead=1.0)
    assert metrics["polynomials.find_roots.self_s"] is None
    assert metrics["polynomials.calls"] == 0  # poly_from_roots is still traced
