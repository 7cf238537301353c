"""Batch verification: every structural property over a seeded instance set,
collected into a machine-readable report with a stable schema.

Per instance: orbit count and sign pairing, fit residuals of the resolvent
form, two-valuedness spreads, principal-form suppressed coefficients, and
power sums, all read from one sweep of the family over the 120 relabelings.
Per batch: the rank test on stacked family rows and the square-sum control
fraction.  The record schema does not vary with pass/fail; checks
that could not run carry null values plus an entry in ``failures``.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from .clustering import DEDUP_TOL
from .ffamily import A5_IN_S5, RANK_TOL, FFamily, family_sweep, orbit_check, relation_rank
from .instances import complex_to_pair, random_instance
from .polynomials import is_degenerate
from .principal import newton_gap_rows, power_sum_rows, product_values, quintic_rows
from .resolvent import resolvent_form_residual, square_gap, two_valuedness_rows

__all__ = ["run_verify", "verify_instance", "verify_sweep", "RESIDUAL_TOL", "SPREAD_TOL"]

RESIDUAL_TOL = 1e-6  # fit residuals and form-membership residuals
SPREAD_TOL = 1e-7  # two-valuedness spreads, suppressed coefficients, power sums
NEWTON_BRIDGE_TOL = 1e-10
P2_CONTROL_FLOOR = 1e-3
P2_CONTROL_FRACTION = 0.95
SQUARE_GAP_FLOOR = 1e-6
CHUNK = 1000  # instances sampled, swept and checked together

_SECTIONS = {  # the record's sections and fields, null until a check fills them
    "orbit": ("count", "pairing_ok", "family_match_ok"),
    "fit": ("r4", "r2", "r0", "form_residual_max", "square_gap", "clustered_squares"),
    "two_valuedness": ("even_spread", "odd_spread", "pair_symmetric_spread"),
    "principal": ("s5_value_count", "c4_mag", "c2_mag", "p1", "p3", "p2_magnitude",
                  "newton_gap4", "newton_gap2"),
}


def _empty_record(roots, skipped: bool = False) -> dict:
    return {
        "roots": [complex_to_pair(z) for z in roots],
        "skipped_degenerate": skipped,
        **{section: dict.fromkeys(fields) for section, fields in _SECTIONS.items()},
        "failures": [],
        "passed": False,
    }


def verify_sweep(
    roots, sweeps: np.ndarray, tol_residual: float = RESIDUAL_TOL, tol_dedup: float = DEDUP_TOL
) -> list[dict]:
    """All per-instance checks on N non-degenerate root tuples; returns the records.

    Every check reads ``sweeps = family_sweep(roots)``, shape (N, 120, 6): the
    orbit, the family (row 0, the identity) and one fit of all N * 120
    relabelings, whose identity rows are the instances' fits.  Each check is
    an array operation over the N instances; a gate that rejects an instance
    fails it alone, with the same message whatever N is.
    """
    with np.errstate(all="ignore"):  # a non-finite value fails its own instance's gates
        family = sweeps[:, 0]
        orbit_values, orbit_errors = orbit_check(sweeps[:, A5_IN_S5, 0], family, tol_dedup)
        fit, spreads, fit_errors = two_valuedness_rows(sweeps)
        a, b, c, r4, r2, r0 = (v[:, 0, None] for v in fit)
        form = resolvent_form_residual(orbit_values * orbit_values, a, b, c).max(axis=1)
        phis, phi_errors = product_values(sweeps, tol_dedup)
        coeffs, suppressed, quintic_errors = quintic_rows(phis)
        columns = (r4[:, 0], r2[:, 0], r0[:, 0], square_gap(family), form, *spreads, *suppressed,
                   *power_sum_rows(phis), *newton_gap_rows(phis, coeffs))

    records = []
    for i, values in enumerate(zip(*(col.tolist() for col in columns))):
        r4, r2, r0, gap, form, even, odd, sym, c4, c2, p1, p3, p2, gap4, gap2 = values
        record = _empty_record(roots[i])
        failures = record["failures"]
        if orbit_errors[i]:
            failures.append(f"orbit: {orbit_errors[i]}")
        else:
            record["orbit"].update(count=12, pairing_ok=True, family_match_ok=True)
        # The fit is row 0 of two-valuedness's 120-row fit, so a failure of that
        # fit fails both checks.
        if fit_errors[i]:
            failures += [f"fit: {fit_errors[i]}", f"two-valuedness: {fit_errors[i]}"]
        else:
            record["fit"].update(r4=r4, r2=r2, r0=r0, square_gap=gap,
                                 clustered_squares=gap < SQUARE_GAP_FLOOR)
            if max(r4, r2, r0) > tol_residual:
                failures.append("fit: over-determination residuals above tolerance")
            if not orbit_errors[i]:
                record["fit"]["form_residual_max"] = form
                if form > tol_residual:
                    failures.append("fit: orbit values do not satisfy the form")
            record["two_valuedness"].update(zip(_SECTIONS["two_valuedness"], (even, odd, sym)))
            if max(even, odd, sym) > SPREAD_TOL:
                failures.append("two-valuedness: spreads above tolerance")
        error = phi_errors[i] or quintic_errors[i]
        if not phi_errors[i]:
            record["principal"]["s5_value_count"] = 10
        if error:
            failures.append(f"principal: {error}")
        else:
            record["principal"].update(c4_mag=c4, c2_mag=c2, p1=p1, p3=p3, p2_magnitude=p2,
                                       newton_gap4=gap4, newton_gap2=gap2)
            if max(c4, c2) > SPREAD_TOL:
                failures.append("principal: suppressed coefficients above tolerance")
            if max(p1, p3) > SPREAD_TOL:
                failures.append("principal: power sums above tolerance")
            if max(gap4, gap2) > NEWTON_BRIDGE_TOL:
                failures.append("principal: coefficient and power-sum routes disagree")

        record["passed"] = not failures
        records.append(record)
    return records


def verify_instance(roots, tol_residual: float = RESIDUAL_TOL, tol_dedup: float = DEDUP_TOL) -> dict:
    """All per-instance checks on one root tuple; returns the record dict."""
    if is_degenerate(roots):
        return _empty_record(roots, skipped=True)
    return verify_sweep([roots], family_sweep(roots)[None], tol_residual, tol_dedup)[0]


def sample_chunks(seed: int, n: int):
    """Instances (seed, 0..n-1) in chunks of ``CHUNK``: each chunk's first
    index, its root tuples and their ``is_degenerate`` verdicts."""
    for lo in range(0, n, CHUNK):
        chunk = [random_instance(seed, index) for index in range(lo, min(n, lo + CHUNK))]
        yield lo, chunk, [is_degenerate(roots) for roots in chunk]


def run_verify(
    seed: int,
    n: int,
    tol_residual: float = RESIDUAL_TOL,
    tol_dedup: float = DEDUP_TOL,
    rank_tol: float = RANK_TOL,
) -> dict:
    """Full property suite over instances (seed, 0..n-1); returns the report.

    Each chunk of ``CHUNK`` instances is one kernel call and one pass of array
    checks; the report does not depend on the chunk size.
    """
    start = time.perf_counter()
    instances, families, batch_failures = [], [], []

    for lo, chunk, degenerate in sample_chunks(seed, n):
        live = [roots for roots, skip in zip(chunk, degenerate) if not skip]
        if live:
            sweeps = family_sweep(live)
            checked = iter(verify_sweep(live, sweeps, tol_residual, tol_dedup))
            families += map(FFamily.from_row, sweeps[:, 0])
        for index, (roots, skip) in enumerate(zip(chunk, degenerate), start=lo):
            record = _empty_record(roots, skipped=True) if skip else next(checked)
            instances.append({"index": index, **record})

    rank_section = dict.fromkeys(("rank", "singular_values", "ratio_s4_s1", "skipped_reason"))
    if len(families) >= 10:
        rel = relation_rank(families, rank_tol)
        rank_section.update(
            rank=rel.rank,
            singular_values=list(rel.singular_values),
            ratio_s4_s1=rel.ratio_s4_s1,
        )
        if rel.rank != 3:
            batch_failures.append(f"rank test: numerical rank {rel.rank} != 3")
        elif rel.ratio_s4_s1 >= rank_tol:
            batch_failures.append("rank test: sigma4/sigma1 above threshold")
    else:
        # The rank claim needs at least 10 usable rows; with fewer the test
        # cannot run and is reported as skipped rather than failed.
        rank_section["skipped_reason"] = "fewer than 10 usable instances"

    active = [r for r in instances if not r["skipped_degenerate"]]
    p2_values = [r["principal"]["p2_magnitude"] for r in active]
    p2_values = [v for v in p2_values if v is not None]
    p2_fraction = sum(v > P2_CONTROL_FLOOR for v in p2_values) / max(1, len(p2_values))
    if p2_values and p2_fraction < P2_CONTROL_FRACTION:
        batch_failures.append("square-sum control is small on too many instances")

    failed = [r["index"] for r in active if not r["passed"]]
    skipped = [r["index"] for r in instances if r["skipped_degenerate"]]
    skip_rate = len(skipped) / n if n else 0.0
    ok = not failed and not batch_failures and skip_rate < 0.01

    report = {
        "meta": {
            "seed": seed,
            "n": n,
            "tolerances": {
                "dedup": tol_dedup,
                "residual": tol_residual,
                "rank": rank_tol,
                "spread": SPREAD_TOL,
                "newton_bridge": NEWTON_BRIDGE_TOL,
            },
            "version": __version__,
            "wall_time_s": time.perf_counter() - start,
        },
        "rank_test": rank_section,
        "summary": {
            "passed": len(active) - len(failed),
            "failed": failed,
            "skipped": skipped,
            "skip_rate": skip_rate,
            "p2_control_fraction": p2_fraction,
            "batch_failures": batch_failures,
            "ok": ok,
        },
        "instances": instances,
    }
    return report
