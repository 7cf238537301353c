"""In-memory span tracing of quinticlab's layers, from outside the package.

Each traced function is replaced by a wrapper in every loaded ``quinticlab``
module namespace that holds the same function object.  ``from .x import y``
copies the binding into the importing module, so rebinding only ``x.y`` would
miss the calls made through the copies.

A span records (id, parent id, function, operation, start ns, end ns).  Self
time is a span's duration minus the durations of its direct child spans.  A
layer's total time counts only its outermost spans, so nested calls within one
layer are not counted twice.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

# The public functions timed in each layer (quinticlab module).
LAYERS = {
    "instances": ("random_instance", "load_instance_file"),
    "kernels": ("eval_f_rows",),
    "clustering": ("cluster_values",),
    "polynomials": ("poly_from_roots", "find_roots"),
    "ffamily": ("f_family", "a5_orbit", "relation_rank"),
    "resolvent": ("sextic_from_family", "fit_abc", "two_valuedness_check"),
    "principal": ("phi_values", "phi_quintic", "power_sum_check"),
    "verify": ("run_verify", "verify_instance"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


_MISSING = object()


def _relations_found(result):
    """Integer relations returned by one rank test; None once the field is gone."""
    relations = getattr(result, "integer_relations", _MISSING)
    if relations is _MISSING:
        return None
    return len(relations or ())

# Work counted at a layer boundary: (layer.function) -> f(args, kwargs, result).
WORK = {
    "kernels.eval_f_rows": lambda a, k, r: len(_arg(a, k, 1, "idx")),
    "clustering.cluster_values": lambda a, k, r: len(_arg(a, k, 0, "values")),
    "ffamily.relation_rank": lambda a, k, r: _relations_found(r),
}


class Tracer:
    """Wraps the LAYERS functions; ``install`` and ``uninstall`` bracket the
    traced calls and may alternate with untraced ones."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function", index = function id
        self.missing: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op = -1
        n = sum(len(fns) for fns in LAYERS.values())
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.work: list[int | None] = [0] * n
        self.layer_total_ns = {layer: 0 for layer in LAYERS}
        self._layer_depth = {layer: 0 for layer in LAYERS}
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._ids = itertools.count()
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._rebound: list[tuple[object, str, object]] = []
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"quinticlab.{layer}")
            for fn in fns:
                self.names.append(f"{layer}.{fn}")
                original = getattr(home, fn, None)
                if callable(original):
                    self._wrappers.append(
                        (original, self._wrap(len(self.names) - 1, layer, original)))
                else:
                    self.missing.append(f"{layer}.{fn}")

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "quinticlab" or name.startswith("quinticlab."))
        ]
        for original, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, index: int, layer: str, original):
        stack, spans, ids = self._stack, self.spans, self._ids
        depth, layer_total = self._layer_depth, self.layer_total_ns
        calls, self_ns, work = self.calls, self.self_ns, self.work
        count_work = WORK.get(self.names[index])
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if depth[layer] == 0:
                    layer_total[layer] += duration
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                spans.append((span_id, parent, index, self.op, start, end))
            if count_work is not None and work[index] is not None:
                found = count_work(args, kwargs, result)
                work[index] = None if found is None else work[index] + found
            return result

        return wrapper

    def write_spans(self, path: Path) -> None:
        base = min((s[4] for s in self.spans), default=0)
        doc = {
            "functions": self.names,
            "columns": ["id", "parent", "function", "op", "start_ns", "end_ns"],
            "spans": [[i, p, f, op, s - base, e - base] for i, p, f, op, s, e in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")

    def metrics(self, instances: int, overhead: float) -> dict:
        """Per-layer metrics of the traced calls; None marks a missing function."""
        ids = {name: i for i, name in enumerate(self.names)}

        def get(values, name):
            return None if name in self.missing else values[ids[name]]

        def ratio(num, den):
            return None if num is None or den is None else (num / den if den else 0.0)

        out = {}
        for layer, fns in LAYERS.items():
            present = [ids[f"{layer}.{fn}"] for fn in fns if f"{layer}.{fn}" not in self.missing]
            found = bool(present)
            out[f"{layer}.calls"] = sum(self.calls[i] for i in present) if found else None
            out[f"{layer}.total_s"] = self.layer_total_ns[layer] / 1e9 if found else None
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in present) / 1e9 if found else None
        for name in (
            "resolvent.two_valuedness_check",
            "resolvent.fit_abc",
            "ffamily.relation_rank",
            "polynomials.find_roots",
            "instances.load_instance_file",
        ):
            out[f"{name}.self_s"] = ratio(get(self.self_ns, name), 1e9)
        out["polynomials.poly_from_roots.calls_per_instance"] = ratio(
            get(self.calls, "polynomials.poly_from_roots"), instances)
        out["kernels.rows_per_instance"] = ratio(get(self.work, "kernels.eval_f_rows"), instances)
        out["clustering.values_per_instance"] = ratio(
            get(self.work, "clustering.cluster_values"), instances)
        out["ffamily.relation_rank.relations_found_per_call"] = ratio(
            get(self.work, "ffamily.relation_rank"), get(self.calls, "ffamily.relation_rank"))
        out["trace_overhead"] = overhead
        return out
