"""One benchmark process: import quinticlab, make the warm-up call, then run a
workload's closed loop by calling ``quinticlab.cli.main`` in-process.

Started by ``run.py``, never by hand; it writes its raw measurements as JSON
to ``--result``.  Set-up time runs from the parent's spawn timestamp to the
end of the import, plus the warm-up call; generating benchmark inputs in
between is not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_op(main, op) -> tuple[float, str | None]:
    """Call ``main(op.argv)``; returns (seconds, failure reason or None)."""
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    try:
        reason = op.check(code, out.getvalue())
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output: {exc!r}"
    if reason and err.getvalue():
        reason += f" (stderr: {err.getvalue().strip()[-200:]})"
    return elapsed, reason


class Tally:
    """Latencies, instances and failures of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.instances = 0
        self.failures: list[str] = []
        self.labels: list[int] = []

    def add(self, op, elapsed: float, reason: str | None) -> None:
        self.latencies.append(elapsed)
        self.instances += op.instances
        if op.label is not None:
            self.labels.append(op.label)
        if reason is not None:
            self.failures.append(f"{' '.join(op.argv[:3])}: {reason}")


def closed_loop(main, ops, seconds: float, tally: Tally) -> None:
    """Run ``ops`` back to back until ``seconds`` have passed (at least one)."""
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        tally.add(op, *run_op(main, op))
        if time.perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from quinticlab import cli  # the import is part of set-up time

    import_done = time.monotonic()
    import numpy
    import scipy

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work)
    warm = Tally()  # checked like every other call, but not timed as one
    warm.add(workload.warmup, *run_op(cli.main, workload.warmup))
    result = {
        "setup_s": import_done - args.spawned_at + warm.latencies[0],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    tallies = [warm]
    if not args.setup_only:
        for op in workload.prime:
            warm.add(op, *run_op(cli.main, op))
        tally = Tally()
        closed_loop(cli.main, workload.stream(), args.seconds, tally)
        tallies.append(tally)
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            latencies=tally.latencies,
            instances=tally.instances,
            labels=tally.labels,
            inputs=workload.inputs,
        )
        if args.trace:
            replay, traced = Tally(), Tally()
            result["per_layer"], result["spans"] = _traced_pass(
                cli, workload, replay, traced, args.work)
            tallies += [replay, traced]
    result["attempted"] = sum(len(t.latencies) for t in tallies)
    result["failures"] = [reason for t in tallies for reason in t.failures]
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _traced_pass(cli, workload, untraced: Tally, traced: Tally, work: Path):
    """Replay the first ``trace_ops`` operations, each once untraced and once
    traced, in alternation so that drift in machine speed affects both alike.

    The overhead is the traced time over the untraced time of the replay.
    """
    from tracing import Tracer

    tracer = Tracer()
    for i, op in enumerate(itertools.islice(workload.stream(), workload.trace_ops)):
        untraced.add(op, *run_op(cli.main, op))
        tracer.op = i
        tracer.install()
        try:
            traced.add(op, *run_op(cli.main, op))
        finally:
            tracer.uninstall()
    overhead = sum(traced.latencies) / sum(untraced.latencies)
    spans = work.parent / f"spans-{workload.name}.json"
    tracer.write_spans(spans)
    return tracer.metrics(traced.instances, overhead), str(spans.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
