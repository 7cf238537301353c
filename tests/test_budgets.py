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
from quinticlab import clustering, instances, kernels, polynomials, resolvent
from quinticlab.cli import main
from quinticlab.instances import complex_to_pair


def _tally_calls(monkeypatch, original, work=lambda args, result: 1) -> list:
    """Count calls of ``original`` made through any quinticlab namespace.

    ``from .x import y`` copies the binding into the importing module, so the
    counting wrapper replaces every binding of the function object.  Each
    call adds ``work(args, result)`` to the tally.
    """
    tally = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        tally.append(work(args, result))
        return result

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "quinticlab" or name.startswith("quinticlab.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return tally


def _kernel_rows(args, result) -> int:
    """Values of one kernel call: index rows times tuples."""
    return np.size(result)


def _polynomials(args, result) -> int:
    """Polynomials of one expand_roots call, one per entry of a coefficient."""
    return np.size(result[0])


def test_verify_work_per_instance(monkeypatch):
    # One kernel call for the whole batch: f at the 120 distinct index rows
    # of every instance, whose 720 entries per instance are the sweep of 120
    # relabelings x 6 family members.  The orbit and product-value counts
    # come from constant class tables, with no clustering.  Two expansions:
    # two sextics of every instance, the identity's and the first odd
    # relabeling's, and the principal quintic of every instance's five
    # product values.
    n = 50
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, _kernel_rows)
    expansions = _tally_calls(monkeypatch, polynomials.expand_roots, _polynomials)
    clusterings = _tally_calls(monkeypatch, clustering.cluster_values)

    report = run_verify(1, n)

    assert report["summary"]["ok"]
    assert report["summary"]["skipped"] == []
    assert rows == [120 * n]
    assert sorted(expansions) == [n, 2 * n]
    assert clusterings == []


def test_verify_fits_once_per_instance(monkeypatch):
    # The instance's fit is row 0 (the identity) of the two-row fit that
    # two-valuedness makes, so verify never fits a single sextic.
    fits = _tally_calls(monkeypatch, resolvent.fit_abc)

    report = run_verify(1, 50)

    assert report["summary"]["ok"]
    assert fits == []


def test_batch_orbit_work_per_instance(monkeypatch, capsys):
    # One kernel call for the whole batch: the 60 even relabelings of f of
    # every instance.  The family patterns are even, so the family rows,
    # which the rank test reuses, are among them.  The count, pairs and
    # labels come from constant tables.
    n = 16
    rows = _tally_calls(monkeypatch, kernels.eval_f_rows, _kernel_rows)
    clusterings = _tally_calls(monkeypatch, clustering.cluster_values)

    code = main(["orbit", "--seed", "5", "--n", str(n), "--format", "json"])
    capsys.readouterr()

    assert code == 0
    assert rows == [60 * n]
    assert clusterings == []


def test_sampled_tuples_are_screened_once(monkeypatch, capsys):
    # random_instance rejects every tuple that is_degenerate flags, so no
    # batch path screens a sampled tuple again.
    original = polynomials.is_degenerate
    screens = _tally_calls(monkeypatch, original)
    monkeypatch.setattr(instances, "is_degenerate", original)  # the sampler's own screen

    assert run_verify(1, 50)["summary"]["ok"]
    assert main(["orbit", "--seed", "5", "--n", "16", "--format", "json"]) == 0
    capsys.readouterr()
    assert screens == []


def test_documents_use_the_c_encoder_once(monkeypatch, tmp_path, capsys):
    # With ``indent``, json writes through its pure-Python encoder, which cost
    # more than the checks of a `verify --n 100` call.  Each document is one
    # C-encoded string: the same bytes on stdout and in --out.
    python_encoder = []
    original = json.encoder._make_iterencode
    monkeypatch.setattr(json.encoder, "_make_iterencode",
                        lambda *args, **kwargs: python_encoder.append(1) or original(*args, **kwargs))
    out = tmp_path / "report.json"

    assert main(["verify", "--seed", "5", "--n", "20", "--out", str(out), "--format", "json"]) == 0
    stdout = capsys.readouterr().out
    assert main(["orbit", "--seed", "5", "--n", "16", "--format", "json"]) == 0
    capsys.readouterr()

    assert python_encoder == []
    assert out.read_bytes() == stdout.encode("utf-8")


def test_relation_rank_memory_is_linear_in_rows():
    # The N x 6 complex128 sample matrix, a thin U of the same size and the
    # SVD workspace fit in 8 matrices.  A full N x N unitary (256 MB at
    # N = 4,000) or a scan of a coefficient grid cannot.
    n = 4000
    samples = np.array([f_family(random_instance(61, i)).values() for i in range(n)])
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
