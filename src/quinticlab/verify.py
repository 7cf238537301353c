"""Batch verification: every structural property over a seeded instance set,
collected into a machine-readable report with a stable schema.

Per instance: orbit count and sign pairing, fit residuals of the resolvent
form, two-valuedness spreads and parity gap, principal-form suppressed
coefficients and power sums, all read from one sweep over the 120 relabelings.
Per batch: the rank test on stacked family rows and the square-sum control
fraction.  The record schema does not vary with pass/fail; checks
that could not run carry null values plus an entry in ``failures``.

``CRITERIA`` is the one definition of each per-instance acceptance rule and
:func:`rank_test` the one definition of the batch rank verdict; ``verify``,
``resolve``, ``orbit --n`` and ``brioschi`` all read them.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from .clustering import DEDUP_TOL
from .errors import InvalidInputError
from .ffamily import A5_IN_S5, RANK_TOL, family_sweep, orbit_check, relation_rank
from .instances import complex_to_pair, random_instances
from .polynomials import is_degenerate
from .principal import newton_gap_rows, power_sum_rows, product_values, quintic_rows
from .resolvent import resolvent_form_residual, square_gap, two_valuedness_rows

__all__ = ["run_verify", "verify_instance", "verify_sweep", "failing_criteria", "rank_test",
           "CRITERIA", "TOLERANCES", "RESIDUAL_TOL", "SPREAD_TOL"]

RESIDUAL_TOL = 1e-6  # fit residuals and form-membership residuals
SPREAD_TOL = 1e-7  # two-valuedness spreads, suppressed coefficients, power sums
# Every named tolerance at its default, in the order of the report's meta.tolerances.
TOLERANCES = {"dedup": DEDUP_TOL, "residual": RESIDUAL_TOL, "rank": RANK_TOL,
              "spread": SPREAD_TOL, "newton_bridge": 1e-10, "parity": 1e-10}
P2_CONTROL_FLOOR = 1e-3
P2_CONTROL_FRACTION = 0.95
SQUARE_GAP_FLOOR = 1e-6
CHUNK = 1000  # instances sampled, swept and checked together

_SECTIONS = {  # the record's sections and fields, null until a check fills them
    "orbit": ("count", "pairing_ok", "family_match_ok"),
    "fit": ("r4", "r2", "r0", "form_residual_max", "square_gap", "clustered_squares"),
    "two_valuedness": ("even_spread", "odd_spread", "parity_gap"),
    "principal": ("s5_value_count", "c4_mag", "c2_mag", "p1", "p3", "p2_magnitude",
                  "newton_gap4", "newton_gap2"),
}

# The per-instance acceptance rules: a record section, the fields of it that
# one tolerance of TOLERANCES bounds, and the failure when one exceeds it.
CRITERIA = (
    ("fit", ("r4", "r2", "r0"), "residual",
     "fit: over-determination residuals above tolerance"),
    ("fit", ("form_residual_max",), "residual",
     "fit: orbit values do not satisfy the form"),
    ("two_valuedness", ("even_spread", "odd_spread"), "spread",
     "two-valuedness: spreads above tolerance"),
    ("two_valuedness", ("parity_gap",), "parity",
     "two-valuedness: parity gap above tolerance"),
    ("principal", ("c4_mag", "c2_mag"), "spread",
     "principal: suppressed coefficients above tolerance"),
    ("principal", ("p1", "p3"), "spread",
     "principal: power sums above tolerance"),
    ("principal", ("newton_gap4", "newton_gap2"), "newton_bridge",
     "principal: coefficient and power-sum routes disagree"),
)


def failing_criteria(measured: dict, tolerances: dict) -> dict:
    """Where each ``CRITERIA`` row whose fields ``measured`` holds fails.

    ``measured`` maps record sections to fields, each a number or an array
    over instances; ``tolerances`` needs the keys of those rows.  A row fails
    unless every field is <= its tolerance, so a NaN fails.  Returns
    {failure: a bool, or a bool array}.
    """
    return {
        failure: ~np.logical_and.reduce([np.asarray(measured[section][f]) <= tolerances[key]
                                         for f in fields])
        for section, fields, key, failure in CRITERIA
        if set(fields) <= measured.get(section, {}).keys()
    }


def rank_test(rows: np.ndarray, rank_tol: float = RANK_TOL) -> tuple[dict, list[str]]:
    """The report's ``rank_test`` section for stacked family rows (N, 6), and
    the batch failures it gives.

    The rank counts singular values above ``rank_tol * sigma_1``; it must be
    3, and sigma_4/sigma_1 below ``rank_tol``.  When :func:`relation_rank`
    rejects the rows as too few, the test does not run and the section says why.
    """
    section = dict.fromkeys(("rank", "singular_values", "ratio_s4_s1", "skipped_reason"))
    try:
        rel = relation_rank(rows, rank_tol)
    except InvalidInputError:
        section["skipped_reason"] = "fewer than 10 usable instances"
        return section, []
    section.update(rank=rel.rank, singular_values=list(rel.singular_values),
                   ratio_s4_s1=rel.ratio_s4_s1)
    if rel.rank != 3:
        return section, [f"rank test: numerical rank {rel.rank} != 3"]
    if not rel.ratio_s4_s1 < rank_tol:
        return section, ["rank test: sigma4/sigma1 above threshold"]
    return section, []


def _empty_record(pairs: list, skipped: bool = False) -> dict:
    return {
        "roots": pairs,
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
    orbit, the family (row 0, the identity) and one fit of two relabelings per
    instance, whose identity rows are the instances' fits.  Each measurement
    is an array operation over the N instances.  A record's
    failures are, section by section, the error that stopped the section's
    checks or else its failed ``CRITERIA`` rows, the same whatever N is.
    """
    tolerances = {**TOLERANCES, "residual": tol_residual}
    with np.errstate(all="ignore"):  # a non-finite value fails its own instance's gates
        family = sweeps[:, 0]
        orbit_values, orbit_errors = orbit_check(sweeps[:, A5_IN_S5, 0], family, tol_dedup)
        fit, spreads, fit_errors = two_valuedness_rows(roots, sweeps)
        a, b, c, r4, r2, r0 = (v[:, 0, None] for v in fit)
        form = resolvent_form_residual(orbit_values * orbit_values, a, b, c).max(axis=1)
        phis, phi_errors = product_values(sweeps, tol_dedup)
        coeffs, suppressed, quintic_errors = quintic_rows(phis)
        columns = (r4[:, 0], r2[:, 0], r0[:, 0], square_gap(family), form, *spreads, *suppressed,
                   *power_sum_rows(phis), *newton_gap_rows(phis, coeffs))
        names = ("r4", "r2", "r0", "square_gap", "form_residual_max", *_SECTIONS["two_valuedness"],
                 "c4_mag", "c2_mag", "p1", "p3", "p2_magnitude", "newton_gap4", "newton_gap2")
        by_name = dict(zip(names, columns))  # no field name occurs in two sections
        failing = failing_criteria({section: by_name for section in _SECTIONS}, tolerances)
    # Per CRITERIA row: its section, a field, its failure and where it fails.
    rows = [(section, fields[0], failure, failing[failure].tolist())
            for section, fields, _, failure in CRITERIA]

    z = np.asarray(roots, dtype=complex)
    records, pairs = [], np.stack([z.real, z.imag], axis=-1).tolist()  # [re, im] per root
    for i, values in enumerate(zip(*(col.tolist() for col in columns))):
        r4, r2, r0, gap, form, even, odd, parity, c4, c2, p1, p3, p2, gap4, gap2 = values
        record = _empty_record(pairs[i])
        if not orbit_errors[i]:
            record["orbit"].update(count=12, pairing_ok=True, family_match_ok=True)
        # The fit is row 0 of two-valuedness's two-row fit, so a failure of that
        # fit stops both checks.
        if not fit_errors[i]:
            record["fit"].update(r4=r4, r2=r2, r0=r0, square_gap=gap,
                                 clustered_squares=gap < SQUARE_GAP_FLOOR)
            if not orbit_errors[i]:
                record["fit"]["form_residual_max"] = form
            record["two_valuedness"].update(even_spread=even, odd_spread=odd, parity_gap=parity)
        if not phi_errors[i]:
            record["principal"]["s5_value_count"] = 10
        principal_error = phi_errors[i] or quintic_errors[i]
        if not principal_error:
            record["principal"].update(c4_mag=c4, c2_mag=c2, p1=p1, p3=p3, p2_magnitude=p2,
                                       newton_gap4=gap4, newton_gap2=gap2)

        # Section by section: the error that stopped its checks, or the rows
        # that ran (their fields are filled) and fail.
        failures = record["failures"]
        errors = (orbit_errors[i], fit_errors[i], fit_errors[i], principal_error)
        for section, error in zip(_SECTIONS, errors):
            if error:
                failures.append(f"{section.replace('_', '-')}: {error}")
            failures += [failure for s, field, failure, fails in rows
                         if s == section and fails[i] and record[s][field] is not None]
        record["passed"] = not failures
        records.append(record)
    return records


def verify_instance(roots, tol_residual: float = RESIDUAL_TOL, tol_dedup: float = DEDUP_TOL) -> dict:
    """All per-instance checks on one root tuple; returns the record dict."""
    if is_degenerate(roots):
        return _empty_record([complex_to_pair(z) for z in roots], skipped=True)
    return verify_sweep([roots], family_sweep(roots)[None], tol_residual, tol_dedup)[0]


def sample_chunks(seed: int, n: int):
    """Instances (seed, 0..n-1) in chunks of ``CHUNK``: each chunk's first
    index and its (N, 5) array of root tuples.  :func:`random_instances` rejects
    every tuple that ``is_degenerate`` flags, so no sampled instance is skipped."""
    for lo in range(0, n, CHUNK):
        yield lo, random_instances(seed, lo, min(n, lo + CHUNK))


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
    tolerances = {**TOLERANCES, "dedup": tol_dedup, "residual": tol_residual, "rank": rank_tol}
    instances, families = [], []
    for lo, chunk in sample_chunks(seed, n):
        sweeps = family_sweep(chunk)
        families.append(sweeps[:, 0].copy())  # a view would keep the chunk's sweeps alive
        records = verify_sweep(chunk, sweeps, tol_residual, tol_dedup)
        instances += ({"index": index, **record} for index, record in enumerate(records, lo))

    rank_section, batch_failures = rank_test(np.concatenate(families), rank_tol)
    p2_values = [r["principal"]["p2_magnitude"] for r in instances]
    p2_values = [v for v in p2_values if v is not None]
    p2_fraction = sum(v > P2_CONTROL_FLOOR for v in p2_values) / max(1, len(p2_values))
    if p2_values and p2_fraction < P2_CONTROL_FRACTION:
        batch_failures.append("square-sum control is small on too many instances")
    failed = [r["index"] for r in instances if not r["passed"]]

    return {
        "meta": {
            "seed": seed,
            "n": n,
            "tolerances": tolerances,
            "version": __version__,
            "wall_time_s": time.perf_counter() - start,
        },
        "rank_test": rank_section,
        "summary": {
            "passed": n - len(failed),
            "failed": failed,
            "skipped": [],
            "skip_rate": 0.0,
            "p2_control_fraction": p2_fraction,
            "batch_failures": batch_failures,
            "ok": not failed and not batch_failures,
        },
        "instances": instances,
    }
