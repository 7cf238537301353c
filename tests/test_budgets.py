"""Work budgets: call counts and memory bounds derived from arithmetic, not
from timers.

A budget fails when a change adds work that the result does not need, on any
machine, without a noisy wall-time measurement.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import quinticlab
from quinticlab import f_family, poly_from_roots, random_instance, relation_rank, run_verify
from quinticlab import clustering, kernels, polynomials
from quinticlab.cli import main
from quinticlab.instances import complex_to_pair


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
    # One sweep per instance: the 720 entries of 120 relabelings x 6 family
    # members are f at the 120 distinct index rows, one kernel call.  The
    # orbit and product-value counts come from constant class tables, with no
    # clustering.  The principal quintic of the five product values is
    # expanded once, by phi_quintic; newton_bridge_gaps reads its coefficients.
    n = 50
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, lambda args: len(args[1]))
    expansions = _tally_calls(monkeypatch, polynomials.poly_from_roots)
    clusterings = _tally_calls(monkeypatch, clustering.cluster_values)

    report = run_verify(1, n)

    assert report["summary"]["ok"]
    assert report["summary"]["skipped"] == []
    assert rows == [120] * n
    assert len(expansions) == n
    assert clusterings == []


def test_batch_orbit_work_per_instance(monkeypatch, capsys):
    # One kernel call per instance: the 60 even relabelings of f.  The family
    # patterns are even, so the family rows, which the rank test reuses, are
    # among them.  The count, pairs and labels come from constant tables.
    n = 16
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, lambda args: len(args[1]))
    clusterings = _tally_calls(monkeypatch, clustering.cluster_values)

    code = main(["orbit", "--seed", "5", "--n", str(n), "--format", "json"])
    capsys.readouterr()

    assert code == 0
    assert rows == [60] * n
    assert clusterings == []


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


# numpy submodules that load only on first use and cost 10 to 40 ms each.
LAZY_NUMPY = ("numpy.random", "numpy.ma", "numpy.testing", "numpy.polynomial")


def _lazy_numpy_loaded(*argv) -> tuple[int, list[str]]:
    """Exit code of ``main(argv)`` in a fresh process that first imports the
    CLI, and the lazy numpy submodules loaded by then."""
    code = (
        "import contextlib, io, json, sys\n"
        "import quinticlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = quinticlab.cli.main(sys.argv[1:])\n"
        f"print(json.dumps([code, [m for m in {LAZY_NUMPY!r} if m in sys.modules]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quinticlab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env
    )
    exit_code, loaded = json.loads(out.stdout)
    return exit_code, loaded


def test_import_and_coefficient_query_load_no_lazy_numpy(tmp_path):
    # Set-up of a single query is the import plus one call: none of these
    # submodules may enter it, whether loaded at import or by the call.
    path = tmp_path / "coeffs.json"
    coeffs = poly_from_roots(random_instance(5, 3)).coeffs
    path.write_text(json.dumps({"coefficients": [complex_to_pair(c) for c in coeffs]}))
    assert _lazy_numpy_loaded("resolve", "--coeffs", str(path)) == (0, [])


def test_batch_commands_do_not_load_numpy_ma(tmp_path):
    # numpy.ma comes in with a bare np.unique; counting by class tables needs none.
    for argv in (
        ("orbit", "--seed", "5", "--n", "16"),
        ("verify", "--seed", "5", "--n", "20", "--out", str(tmp_path / "report.json")),
    ):
        code, loaded = _lazy_numpy_loaded(*argv)
        assert code == 0
        assert "numpy.ma" not in loaded
