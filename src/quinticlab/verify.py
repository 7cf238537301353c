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
from .errors import QuinticLabError
from .ffamily import (
    RANK_TOL,
    FFamily,
    family_sweep,
    orbit_from_sweep,
    relation_rank,
)
from .instances import complex_to_pair, random_instance
from .polynomials import is_degenerate
from .principal import newton_bridge_gaps, phi_quintic, phi_values_from_sweep, power_sum_check
from .resolvent import (
    fit_abc,
    resolvent_form_residual,
    sextic_from_family,
    square_gap,
    two_valuedness_from_sweep,
)

__all__ = ["run_verify", "verify_instance", "verify_sweep", "RESIDUAL_TOL", "SPREAD_TOL"]

RESIDUAL_TOL = 1e-6  # fit residuals and form-membership residuals
SPREAD_TOL = 1e-7  # two-valuedness spreads, suppressed coefficients, power sums
NEWTON_BRIDGE_TOL = 1e-10
P2_CONTROL_FLOOR = 1e-3
P2_CONTROL_FRACTION = 0.95
SQUARE_GAP_FLOOR = 1e-6


def _empty_record(roots) -> dict:
    return {
        "roots": [complex_to_pair(z) for z in roots],
        "skipped_degenerate": False,
        "orbit": {"count": None, "pairing_ok": None, "family_match_ok": None},
        "fit": {
            "r4": None,
            "r2": None,
            "r0": None,
            "form_residual_max": None,
            "square_gap": None,
            "clustered_squares": None,
        },
        "two_valuedness": {
            "even_spread": None,
            "odd_spread": None,
            "pair_symmetric_spread": None,
        },
        "principal": {
            "s5_value_count": None,
            "c4_mag": None,
            "c2_mag": None,
            "p1": None,
            "p3": None,
            "p2_magnitude": None,
            "newton_gap4": None,
            "newton_gap2": None,
        },
        "failures": [],
        "passed": False,
    }


def verify_sweep(
    roots, sweep: np.ndarray, tol_residual: float = RESIDUAL_TOL, tol_dedup: float = DEDUP_TOL
) -> dict:
    """All per-instance checks on a non-degenerate root tuple; returns the record.

    Every check reads ``sweep = family_sweep(roots)``: the orbit and the
    family (row 0, the identity) as well as the two-valuedness and
    product-value sweeps.  The orbit and product-value counts are 12 and 10
    unless their gates raise, which fails the instance.
    """
    record = _empty_record(roots)
    failures = record["failures"]

    try:
        orbit = orbit_from_sweep(sweep, tol_dedup)
        record["orbit"]["count"] = len(orbit.values)
        record["orbit"]["pairing_ok"] = len(orbit.pair_map) == 6
        record["orbit"]["family_match_ok"] = len(orbit.family_match) == 12
    except QuinticLabError as exc:
        orbit = None
        failures.append(f"orbit: {exc}")

    fam = FFamily.from_row(sweep[0])
    try:
        fit = fit_abc(sextic_from_family(fam))
        gap = square_gap(fam)
        record["fit"]["r4"] = fit.residuals.r4
        record["fit"]["r2"] = fit.residuals.r2
        record["fit"]["r0"] = fit.residuals.r0
        record["fit"]["square_gap"] = gap
        record["fit"]["clustered_squares"] = gap < SQUARE_GAP_FLOOR
        if fit.residuals.worst() > tol_residual:
            failures.append("fit: over-determination residuals above tolerance")
        if orbit is not None:
            form_resid = max(
                resolvent_form_residual(v * v, fit.a, fit.b, fit.c)
                for v in orbit.values
            )
            record["fit"]["form_residual_max"] = form_resid
            if form_resid > tol_residual:
                failures.append("fit: orbit values do not satisfy the form")
    except QuinticLabError as exc:
        failures.append(f"fit: {exc}")

    try:
        tv = two_valuedness_from_sweep(sweep)
        record["two_valuedness"]["even_spread"] = tv.even_spread
        record["two_valuedness"]["odd_spread"] = tv.odd_spread
        record["two_valuedness"]["pair_symmetric_spread"] = tv.pair_symmetric_spread
        if max(tv.even_spread, tv.odd_spread, tv.pair_symmetric_spread) > SPREAD_TOL:
            failures.append("two-valuedness: spreads above tolerance")
    except QuinticLabError as exc:
        failures.append(f"two-valuedness: {exc}")

    try:
        pf = phi_values_from_sweep(sweep, tol_dedup)
        record["principal"]["s5_value_count"] = pf.s5_value_count
        quintic = phi_quintic(pf)
        record["principal"]["c4_mag"] = quintic.suppressed.c4_mag
        record["principal"]["c2_mag"] = quintic.suppressed.c2_mag
        if max(quintic.suppressed.c4_mag, quintic.suppressed.c2_mag) > SPREAD_TOL:
            failures.append("principal: suppressed coefficients above tolerance")
        ps = power_sum_check(pf)
        record["principal"]["p1"] = ps.p1
        record["principal"]["p3"] = ps.p3
        record["principal"]["p2_magnitude"] = ps.p2_magnitude
        if max(ps.p1, ps.p3) > SPREAD_TOL:
            failures.append("principal: power sums above tolerance")
        gap4, gap2 = newton_bridge_gaps(pf, quintic)
        record["principal"]["newton_gap4"] = gap4
        record["principal"]["newton_gap2"] = gap2
        if max(gap4, gap2) > NEWTON_BRIDGE_TOL:
            failures.append("principal: coefficient and power-sum routes disagree")
    except QuinticLabError as exc:
        failures.append(f"principal: {exc}")

    record["passed"] = not failures
    return record


def _verify_roots(roots, tol_residual: float, tol_dedup: float) -> tuple[dict, np.ndarray | None]:
    """The record of one root tuple, and its sweep (None when skipped)."""
    if is_degenerate(roots):
        record = _empty_record(roots)
        record["skipped_degenerate"] = True
        return record, None
    sweep = family_sweep(roots)
    return verify_sweep(roots, sweep, tol_residual, tol_dedup), sweep


def verify_instance(roots, tol_residual: float = RESIDUAL_TOL, tol_dedup: float = DEDUP_TOL) -> dict:
    """All per-instance checks on one root tuple; returns the record dict."""
    return _verify_roots(roots, tol_residual, tol_dedup)[0]


def run_verify(
    seed: int,
    n: int,
    tol_residual: float = RESIDUAL_TOL,
    tol_dedup: float = DEDUP_TOL,
    rank_tol: float = RANK_TOL,
) -> dict:
    """Full property suite over instances (seed, 0..n-1); returns the report."""
    start = time.perf_counter()
    instances = []
    families = []
    batch_failures = []

    for index in range(n):
        roots = random_instance(seed, index)
        record = {"index": index}
        checked, sweep = _verify_roots(roots, tol_residual, tol_dedup)
        record.update(checked)
        instances.append(record)
        if sweep is not None:
            families.append(FFamily.from_row(sweep[0]))

    rank_section = {
        "rank": None,
        "singular_values": None,
        "ratio_s4_s1": None,
        "skipped_reason": None,
    }
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
    p2_values = [
        r["principal"]["p2_magnitude"]
        for r in active
        if r["principal"]["p2_magnitude"] is not None
    ]
    p2_fraction = (
        sum(1 for v in p2_values if v > P2_CONTROL_FLOOR) / len(p2_values)
        if p2_values
        else 0.0
    )
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
