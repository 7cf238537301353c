"""Every function defined in ``src/`` runs on some CLI path.

The CLI paths run in process under a ``sys.setprofile`` hook that records the
code object of every Python call: ``verify`` (json and text), ``resolve``,
``orbit`` and ``brioschi`` on ``--seed``, ``--roots`` and ``--coeffs`` (json
and text), and batch ``orbit``.  Every function that the package's modules
define, found by ``ast``, must have run, apart from the named allow-list.  A
function that no path runs is a test reference, which belongs in
``tests/oracles.py``, or dead code.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import quinticlab
from quinticlab.cli import main
from quinticlab.instances import complex_to_pair, random_instance
from quinticlab.polynomials import poly_from_roots

SRC = Path(quinticlab.__file__).resolve().parent

# (module file, qualified name): why no CLI path runs it.
TRACER_PINNED = (
    "perfbench/tracing.py LAYERS times it as a reference layer; it leaves src/ "
    "when the tracer is retargeted (ROADMAP item 11)"
)
ALLOWED = {
    ("cli.py", "entrypoint"): "console-script wrapper of main; tests run it in a subprocess",
    ("errors.py", "NumericFailureError.__init__"): "error constructor; runs only on failure",
    ("clustering.py", "first_occurrence"): "runs only at import, to build the class tables",
    ("ffamily.py", "s5_index"): "runs only at import, to build the class tables",
    ("clustering.py", "cluster_values"): TRACER_PINNED,
    ("clustering.py", "_component_labels"): "runs only inside cluster_values",
    ("clustering.py", "ClusterResult.count"): "read only off cluster_values results",
    ("resolvent.py", "two_valuedness_check"): TRACER_PINNED,
    ("verify.py", "verify_instance"): TRACER_PINNED,
}


def _defined_functions() -> dict:
    """(file, first line) -> (file, qualified name) for every def in src/."""
    found = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    # A decorated function's code starts at its first decorator.
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(str(path), first)] = (path.name, qualname)
                walk(child, path, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def _cli_paths(tmp_path: Path) -> list[list[str]]:
    roots = random_instance(11, 0)
    roots_file = tmp_path / "roots.json"
    roots_file.write_text(json.dumps({"roots": [complex_to_pair(z) for z in roots]}))
    coeffs_file = tmp_path / "coeffs.json"
    coeffs = poly_from_roots(random_instance(11, 1)).coeffs
    coeffs_file.write_text(json.dumps({"coefficients": [complex_to_pair(z) for z in coeffs]}))
    out = str(tmp_path / "report.json")
    paths = [
        ["verify", "--seed", "1", "--n", "12", "--format", "json", "--out", out],
        ["verify", "--seed", "1", "--n", "12", "--format", "text"],
        ["orbit", "--seed", "1", "--n", "12", "--format", "json"],
    ]
    for command in ("resolve", "orbit", "brioschi"):
        for source in (["--seed", "42"], ["--roots", str(roots_file)], ["--coeffs", str(coeffs_file)]):
            for fmt in ("json", "text"):
                paths.append([command, *source, "--format", fmt])
    return paths


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("reachability")
    called = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    codes = []
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _cli_paths(tmp_path):
                codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(codes)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}


def test_every_function_in_src_runs_on_a_cli_path(ran):
    defined = _defined_functions()
    never = sorted(name for key, name in defined.items() if key not in ran)
    assert [name for name in never if name not in ALLOWED] == []


def test_allow_list_is_current(ran):
    defined = _defined_functions()
    names = set(defined.values())
    assert set(ALLOWED) <= names
    assert not [name for key, name in defined.items() if key in ran and name in ALLOWED]
