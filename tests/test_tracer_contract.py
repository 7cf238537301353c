"""The benchmark's tracer finds every function it times.

``perfbench/tracing.py`` names the functions of each layer by module and
attribute.  A function that leaves its home module is reported as missing and
its per-layer metrics as null, which makes a traced benchmark run malformed.
"""

import importlib.util
from pathlib import Path

import quinticlab.cli  # noqa: F401  (loads every module the tracer looks in)
from quinticlab import f_family, random_instance, relation_rank

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_in_its_home_module():
    assert _load_tracing().Tracer().missing == []


def test_relation_rank_result_has_the_counted_field():
    tracing = _load_tracing()
    samples = [f_family(random_instance(3, i)).values() for i in range(10)]
    assert tracing._relations_found(relation_rank(samples)) is not None
