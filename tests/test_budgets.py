"""Work budgets: call counts and memory bounds derived from arithmetic, not
from timers.

A budget fails when a change adds work that the result does not need, on any
machine, without a noisy wall-time measurement.
"""

import sys
import tracemalloc

import numpy as np

from quinticlab import f_family, random_instance, relation_rank, run_verify
from quinticlab import kernels, polynomials
from quinticlab.cli import main


def _tally_calls(monkeypatch, original, work=lambda args: 1) -> list:
    """Count calls of ``original`` made through any quinticlab namespace.

    ``from .x import y`` copies the binding into the importing module, so the
    counting wrapper replaces every binding of the function object.
    """
    tally = []

    def counted(*args, **kwargs):
        tally.append(work(args))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "quinticlab" or name.startswith("quinticlab.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return tally


def test_verify_work_per_instance(monkeypatch):
    # One sweep per instance: 120 relabelings x 6 family members = 720 kernel
    # rows.  The principal quintic of the five product values is expanded
    # once, by phi_quintic; newton_bridge_gaps reads its coefficients.
    n = 50
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, lambda args: len(args[1]))
    expansions = _tally_calls(monkeypatch, polynomials.poly_from_roots)

    report = run_verify(1, n)

    assert report["summary"]["ok"]
    assert report["summary"]["skipped"] == []
    assert sum(rows) == 720 * n
    assert len(expansions) == n


def test_batch_orbit_work_per_instance(monkeypatch, capsys):
    # One kernel call per instance: 60 even relabelings of f plus the 6
    # family rows, which the rank test reuses.
    n = 16
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, lambda args: len(args[1]))

    code = main(["orbit", "--seed", "5", "--n", str(n), "--format", "json"])
    capsys.readouterr()

    assert code == 0
    assert len(rows) == n
    assert sum(rows) == 66 * n


def test_relation_rank_memory_is_linear_in_rows():
    # The N x 6 complex128 sample matrix, a thin U of the same size and the
    # SVD workspace fit in 8 matrices.  A full N x N unitary (256 MB at
    # N = 4,000) or a scan of a coefficient grid cannot.
    n = 4000
    samples = [f_family(random_instance(61, i)) for i in range(n)]
    budget = 8 * n * 6 * np.dtype(np.complex128).itemsize

    tracemalloc.start()
    try:
        report = relation_rank(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert report.rank == 3
    assert peak <= budget
