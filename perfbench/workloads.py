"""Workload definitions: seeded inputs, the CLI call for each operation, and
the check that decides whether the call's output is correct.

Every workload is a closed loop with one client: the next CLI call starts when
the previous one returned.  Inputs come only from the workload seed; quinticlab
receives generated seeds or generated coefficient files, never the workload
seed itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

VERIFY_N = 100  # instances per `verify` call
ORBIT_N = 16  # instances per `orbit --n` call; the rank test needs at least 10
COEFFS_POOL = 60  # distinct coefficient files cycled by `coeffs_queries`
QUERY_KINDS = ("resolve", "orbit", "brioschi")
ROOT_MATCH_REL = 1e-9  # reported roots must match the generated ones this closely

# Same population as quinticlab's own generator: the annulus 0.5 <= |z| <= 1.5
# with pairwise separation >= 1e-2.  Sampled here with the benchmark's own RNG.
_R2_LO, _R2_HI = 0.25, 2.25
_SEPARATION_MIN = 1e-2


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, how many root tuples it checks, and its check.

    ``check(exit_code, stdout)`` returns None when the output is correct and a
    reason string otherwise.  ``out`` is a file the call writes; it is removed
    before the call so a stale file cannot pass the check.
    """

    argv: list[str]
    instances: int
    check: Callable[[int, str], str | None]
    out: Path | None = None
    label: int | None = None  # the quinticlab seed, for seeded calls


@dataclass
class Workload:
    """Seeded operation stream for one workload.

    ``warmup`` is the call whose completion ends set-up; ``prime`` holds
    further untimed calls that fill lazy state before timing starts.
    ``trace_ops`` fixes how many operations the traced pass replays, so
    per-layer totals cover the same work on every run of one seed.
    """

    name: str
    warmup: Op
    prime: list[Op]
    stream: Callable[[], Iterator[Op]]
    trace_ops: int
    inputs: dict = field(default_factory=dict)


def _check_verify(n: int, out: Path) -> Callable[[int, str], str | None]:
    def check(code: int, _stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        report = json.loads(out.read_text(encoding="utf-8"))
        summary = report["summary"]
        if not summary["ok"]:
            return "summary.ok is false"
        if report["rank_test"]["rank"] != 3:
            return f"rank {report['rank_test']['rank']} != 3"
        if summary["failed"] or summary["skipped"]:
            return f"failed {summary['failed']} skipped {summary['skipped']}"
        if len(report["instances"]) != n:
            return f"{len(report['instances'])} instance records, expected {n}"
        return None

    return check


def _check_orbit_batch(n: int) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(stdout)
        batch = payload["batch"]
        if not payload["ok"]:
            return "ok is false"
        if batch["orbit_counts"] != [12] * n:
            return f"orbit counts {batch['orbit_counts']}"
        if batch["rank"] != 3:
            return f"rank {batch['rank']} != 3"
        return None

    return check


def _seeded(name: str, seed: int, make_op: Callable[[int], Op],
            make_warmup: Callable[[int], Op], trace_ops: int, inputs: dict) -> Workload:
    """Calls on distinct quinticlab seeds drawn from ``seed``; the first draw
    seeds the warm-up call."""
    rng = random.Random(f"{name}:{seed}")
    warm_seed = rng.getrandbits(63)
    base = rng.getstate()

    def stream() -> Iterator[Op]:
        r = random.Random()
        r.setstate(base)
        while True:
            yield make_op(r.getrandbits(63))

    return Workload(name, make_warmup(warm_seed), [], stream, trace_ops, inputs)


def verify_batch(seed: int, work: Path) -> Workload:
    out = work / "verify-report.json"

    def op(s: int, n: int = VERIFY_N) -> Op:
        argv = ["verify", "--seed", str(s), "--n", str(n), "--out", str(out)]
        return Op(argv, n, _check_verify(n, out), out=out, label=s)

    # The warm-up batch is small but keeps the square-sum control meaningful:
    # it tolerates one low-control instance in 20, not in 10.
    return _seeded("verify_batch", seed, op, lambda s: op(s, 20), 3, {"n": VERIFY_N})


def orbit_batches(seed: int, work: Path) -> Workload:
    def op(s: int) -> Op:
        argv = ["orbit", "--seed", str(s), "--n", str(ORBIT_N), "--format", "json"]
        return Op(argv, ORBIT_N, _check_orbit_batch(ORBIT_N), label=s)

    return _seeded("orbit_batches", seed, op, op, 16, {"n": ORBIT_N})


def sample_roots(rng: np.random.Generator) -> np.ndarray:
    """Five annulus roots with pairwise separation >= 1e-2."""
    while True:
        radius = np.sqrt(rng.uniform(_R2_LO, _R2_HI, size=5))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=5)
        roots = radius * np.exp(1j * theta)
        gaps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gaps, np.inf)
        if float(gaps.min()) >= _SEPARATION_MIN:
            return roots


def write_coeffs_file(path: Path, roots) -> None:
    """The monic quintic through ``roots``, as a ``--coeffs`` JSON file."""
    coeffs = np.poly(np.asarray(roots, dtype=complex))[1:]
    pairs = [[float(c.real), float(c.imag)] for c in coeffs]
    path.write_text(json.dumps({"coefficients": pairs}), encoding="utf-8")


def roots_mismatch(reported, expected) -> str | None:
    """None when the reported [re, im] pairs equal ``expected`` as a set."""
    got = [complex(re, im) for re, im in reported]
    if len(got) != len(expected):
        return f"{len(got)} roots reported, expected {len(expected)}"
    for z in expected:
        j = min(range(len(got)), key=lambda k: abs(got[k] - z))
        if abs(got[j] - z) > ROOT_MATCH_REL * abs(z):
            return f"root {z:.6g} not recovered (nearest {got[j]:.6g})"
        got.pop(j)
    return None


def _check_query(kind: str, expected) -> Callable[[int, str], str | None]:
    def check(code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(stdout)
        if not payload["ok"]:
            return "ok is false"
        bad = roots_mismatch(payload["roots"], expected)
        if bad:
            return bad
        if kind == "orbit" and len(payload["values"]) != 12:
            return f"{len(payload['values'])} orbit values"
        if kind == "brioschi" and payload["s5_value_count"] != 10:
            return f"s5_value_count {payload['s5_value_count']}"
        return None

    return check


def query_op(kind: str, path: Path, expected) -> Op:
    argv = [kind, "--coeffs", str(path), "--format", "json"]
    return Op(argv, 1, _check_query(kind, expected))


def coeffs_queries(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(COEFFS_POOL + 1):
        roots = sample_roots(rng)
        path = work / f"coeffs-{i}.json"
        write_coeffs_file(path, roots)
        pool.append((path, roots))
    warm_path, warm_roots = pool.pop()
    warmup = query_op("resolve", warm_path, warm_roots)
    prime = [query_op(kind, warm_path, warm_roots) for kind in QUERY_KINDS[1:]]

    def stream() -> Iterator[Op]:
        j = 0
        while True:
            path, roots = pool[(j // len(QUERY_KINDS)) % len(pool)]
            yield query_op(QUERY_KINDS[j % len(QUERY_KINDS)], path, roots)
            j += 1

    roots_record = [[[float(z.real), float(z.imag)] for z in r] for _, r in pool]
    return Workload("coeffs_queries", warmup, prime, stream, trace_ops=900,
                    inputs={"kinds": list(QUERY_KINDS), "pool_roots": roots_record})


WORKLOADS = {
    "verify_batch": verify_batch,
    "orbit_batches": orbit_batches,
    "coeffs_queries": coeffs_queries,
}
