#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the quinticlab verifier.

    python3 perfbench/run.py --workload verify_batch --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run starts fresh worker processes with
BLAS pinned to one thread.  With ``--trace 0`` it prints every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` every per-layer metric, from a
traced replay that follows an untraced timed loop.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A run record (workload seeds, versions, CPU, BLAS pinning, failures) goes to
``.perfbench/``.  The exit code is 1 when any output check failed and 2 when
the benchmark itself could not run; no result line is printed in the latter
case.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5  # fresh processes per run whose set-up time is measured
DEADLINE_S = 170.0  # every run ends well inside the 180 s limit
BLAS_PINNING = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    result = work / f"result-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--result", str(result),
        "--spawned-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=dict(os.environ, **BLAS_PINNING), stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the time limit: {exc}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"worker left no readable result: {exc}") from exc


def _end_to_end(main: dict, setup: list[float]) -> dict:
    lat = main["latencies"]
    return {
        "setup_s": statistics.median(setup),
        "instances_per_s": main["instances"] / sum(lat),
        "call_p50_ms": statistics.median(lat) * 1e3,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def _p90_ms(latencies: list[float]) -> float:
    """Printed and recorded, not gated: on a shared 2-core machine its spread
    across runs exceeds the largest regression bound BENCHMARK.json allows."""
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        probes = [] if args.trace else [
            _spawn(args, work, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)
        ]
        main = _spawn(args, work, deadline, setup_only=False)
    setup = [p["setup_s"] for p in probes + [main]]
    attempted = sum(p["attempted"] for p in probes + [main])
    failures = [reason for p in probes + [main] for reason in p["failures"]]

    values = main["per_layer"] if args.trace else _end_to_end(main, setup)
    if set(values) != set(units):
        raise BenchmarkError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    failed = len(failures)
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(main["latencies"]),
        "call_p90_ms": _p90_ms(main["latencies"]),
        "call_latencies_ms": [x * 1e3 for x in main["latencies"]],
        "instances": main["instances"],
        "quinticlab_seeds": main["labels"],
        "inputs": main["inputs"],
        "setup_samples_s": setup,
        "failures": failures,
        "failed_fraction": failed / attempted,
        "metrics": values,
        "spans_file": main.get("spans"),
        "environment": {
            **main["versions"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "blas_pinning": BLAS_PINNING,
        },
    }
    name = f"run-{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {record['calls']} calls, "
          f"{record['instances']} instances, {failed} of {attempted} operations failed "
          f"(failed_fraction {record['failed_fraction']:.4g})")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    for metric, value in values.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:52s} {shown} {units[metric]}")
    print(f"  {'call_p90_ms (not gated)':52s} {record['call_p90_ms']:.6g} ms "
          f"over {record['calls']} calls")
    print(f"  run record: {(OUT / name).relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
