import json
import re
from pathlib import Path

import numpy as np
import pytest

from quinticlab import verify
from quinticlab.cli import main
from quinticlab.ffamily import S5_PARITY, family_sweep
from quinticlab.instances import random_instance
from quinticlab.verify import SPREAD_TOL, run_verify, verify_instance, verify_sweep

from oracles import verify_reference


def test_instance_record_passes_on_generic_input():
    record = verify_instance(random_instance(17, 0))
    assert record["passed"] is True
    assert record["failures"] == []
    assert record["orbit"]["count"] == 12
    assert record["orbit"]["pairing_ok"] is True
    assert record["fit"]["form_residual_max"] < 1e-6
    assert record["principal"]["s5_value_count"] == 10


def test_degenerate_instance_is_skipped_not_failed():
    record = verify_instance([1.0 + 0j] * 5)
    assert record["skipped_degenerate"] is True
    assert record["failures"] == []
    assert record["orbit"]["count"] is None


def test_tight_tolerance_attributes_failures():
    record = verify_instance(random_instance(17, 1), tol_residual=1e-30)
    assert record["passed"] is False
    assert any("tolerance" in f for f in record["failures"])


def test_batch_report_contents():
    report = run_verify(seed=23, n=10)
    assert report["meta"]["n"] == 10
    assert len(report["instances"]) == 10
    assert report["summary"]["ok"] is True
    assert report["summary"]["skipped"] == []
    assert report["rank_test"]["rank"] == 3
    assert 0.95 <= report["summary"]["p2_control_fraction"] <= 1.0


@pytest.mark.parametrize("seed", [2557245980999375963, 7297217133110036595])
def test_generated_batches_skip_nothing(seed):
    # At each seed one index has a well-separated first draw that the
    # degeneracy floor flags; one skip in 100 would fail the skip-rate gate.
    report = run_verify(seed, 100)
    assert report["summary"]["skipped"] == []
    assert report["summary"]["ok"] is True
    assert report["rank_test"]["rank"] == 3


def test_small_batch_skips_rank_test():
    report = run_verify(seed=23, n=3)
    assert report["rank_test"]["rank"] is None
    assert report["rank_test"]["skipped_reason"] is not None
    assert report["summary"]["ok"] is True


def _doctored_stack(k: int = 3, n: int = 8):
    """Roots and sweeps of n instances, and the odd row to doctor in instance k."""
    roots = [random_instance(17, i) for i in range(n)]
    odd_row = int((S5_PARITY == -1).nonzero()[0][3])
    return roots, family_sweep(np.array(roots)), k, odd_row


def test_perturbed_odd_row_fails_two_valuedness():
    # Negative control for the array core: one odd relabeling's family of
    # instance k scaled by (1 + 1e-6) must break that instance's odd-coset
    # agreement and leave its neighbours' records as they were.
    roots, sweeps, k, odd_row = _doctored_stack()
    clean = verify_sweep(roots, sweeps)
    assert all(record["passed"] for record in clean)

    sweeps[k, odd_row] *= 1.0 + 1e-6
    records = verify_sweep(roots, sweeps)
    assert records[k]["two_valuedness"]["odd_spread"] > SPREAD_TOL
    assert records[k]["passed"] is False
    assert "two-valuedness: spreads above tolerance" in records[k]["failures"]
    assert records[:k] + records[k + 1 :] == clean[:k] + clean[k + 1 :]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the sweep
def test_failed_shared_fit_fails_fit_and_two_valuedness():
    # The instance's fit is row 0 of the 120-row fit, so a non-finite triple
    # on any row fails both checks, in the report's check order, for that
    # instance alone.
    roots, sweeps, k, odd_row = _doctored_stack()
    clean = verify_sweep(roots, sweeps)
    sweeps[k, odd_row] = float("inf")
    records = verify_sweep(roots, sweeps)
    assert records[k]["fit"]["r4"] is None
    assert records[k]["two_valuedness"]["odd_spread"] is None
    assert records[k]["failures"][:2] == [
        "fit: fitted (a, b, c) are not finite",
        "two-valuedness: fitted (a, b, c) are not finite",
    ]
    assert records[:k] + records[k + 1 :] == clean[:k] + clean[k + 1 :]


def test_single_instance_record_is_the_batched_record():
    roots = [random_instance(19, i) for i in range(6)]
    records = verify_sweep(roots, family_sweep(np.array(roots)))
    assert [verify_instance(rt) for rt in roots] == records


# Both verifiers compute these with the same array operations, so they agree
# bitwise.  The reference computes the other floats with Python arithmetic or
# np.convolve, so they may differ in the last bits.
_BITWISE = {"r4", "r2", "r0", "even_spread", "odd_spread", "pair_symmetric_spread"}


def _assert_matches_reference(got, want, key=""):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), key
        for name in want:
            _assert_matches_reference(got[name], want[name], name)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            _assert_matches_reference(g, w, key)
    elif isinstance(want, float) and key not in _BITWISE:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (key, got, want)
    else:
        assert got == want, (key, got, want)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_records_match_the_scalar_reference(seed):
    # 4 x 500 instances: verdicts, failure lists, counts, the summary and the
    # rank test are identical to the one-at-a-time verifier; r4, r2, r0 and
    # the spreads are bitwise equal, and every other float within 1e-13.
    got = run_verify(seed, 500)
    want = verify_reference(seed, 500)
    assert got["summary"] == want["summary"]
    assert got["rank_test"] == want["rank_test"]
    _assert_matches_reference(got["instances"], want["instances"])


def _without_wall_time(report: dict) -> dict:
    report["meta"].pop("wall_time_s")
    return report


def test_report_does_not_depend_on_the_chunk_size(monkeypatch):
    monkeypatch.setattr(verify, "CHUNK", 7)
    small = _without_wall_time(run_verify(29, 60))
    monkeypatch.setattr(verify, "CHUNK", 1000)
    assert small == _without_wall_time(run_verify(29, 60))


def test_degenerate_samples_fail_unscreened(monkeypatch):
    # random_instance rejects every tuple that is_degenerate flags, so
    # run_verify does not screen sampled tuples again.  A sampler that
    # returned two degenerate tuples, one on each side of a chunk boundary,
    # fails both instances; every other record is the one an unpatched run
    # gives.
    clean = run_verify(31, 100)
    monkeypatch.setattr(verify, "CHUNK", 50)
    sample = verify.random_instance
    monkeypatch.setattr(
        verify, "random_instance",
        lambda seed, index: (1 + 0j,) * 5 if index in (49, 50) else sample(seed, index),
    )
    report = run_verify(31, 100)
    summary = report["summary"]
    assert summary["failed"] == [49, 50]
    assert (summary["skipped"], summary["skip_rate"]) == ([], 0.0)
    assert summary["ok"] is False
    assert [r["passed"] for r in report["instances"][49:51]] == [False, False]
    assert [r["skipped_degenerate"] for r in report["instances"][49:51]] == [False, False]
    kept = [r for r in report["instances"] if r["index"] not in (49, 50)]
    assert kept == [r for r in clean["instances"] if r["index"] not in (49, 50)]


def test_tolerances_are_the_table_the_readme_states():
    # Each CRITERIA row and each default tolerance appears in the README's
    # table of acceptance criteria, and the report states the same values in
    # the same key order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Acceptance criteria", 1)[1].split("\n## ", 1)[0]
    stated, defaults = [], {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        match = re.fullmatch(r"`(\w+)` \(([-+.\de]+)\)", cells[2]) if len(cells) == 4 else None
        if match:
            key, value = match[1], float(match[2])
            assert defaults.setdefault(key, value) == value, key
            section = cells[0].strip("`")
            if section not in ("rank_test", "counts"):
                stated.append((section, tuple(re.findall(r"`(\w+)`", cells[1])), key, cells[3]))
    assert tuple(stated) == verify.CRITERIA
    assert defaults == verify.TOLERANCES
    assert list(run_verify(23, 3)["meta"]["tolerances"].items()) == [
        ("dedup", 1e-7), ("residual", 1e-6), ("rank", 1e-6), ("spread", 1e-7),
        ("newton_bridge", 1e-10),
    ]


@pytest.mark.parametrize("row", range(len(verify.CRITERIA)))
def test_each_criterion_fails_alone_below_its_worst(row, monkeypatch):
    # Give one row a tolerance of its own, half the batch's worst measured
    # value: the batch fails with that row's message and no other.  A row
    # that no input can fail would pass here.
    section, fields, _, failure = verify.CRITERIA[row]
    clean = run_verify(5, 50)
    worst = max(r[section][f] for r in clean["instances"] for f in fields)
    assert worst > 0.0
    table = list(verify.CRITERIA)
    table[row] = (section, fields, "probe", failure)
    monkeypatch.setattr(verify, "CRITERIA", tuple(table))
    monkeypatch.setitem(verify.TOLERANCES, "probe", worst / 2)
    report = run_verify(5, 50)
    assert report["summary"]["ok"] is False
    assert report["summary"]["failed"]
    assert report["summary"]["batch_failures"] == []
    assert {f for r in report["instances"] for f in r["failures"]} == {failure}


def _nan_form_residual(k):
    real = verify.resolvent_form_residual

    def doctored(F, a, b, c):
        out = real(F, a, b, c)
        out[k] = np.nan
        return out

    return doctored


def _nan_even_spread(k):
    real = verify.two_valuedness_rows

    def doctored(sweeps):
        fit, (even, odd, sym), errors = real(sweeps)
        even = even.copy()
        even[k] = np.nan
        return fit, (even, odd, sym), errors

    return doctored


@pytest.mark.parametrize("name, doctor, failure", [
    ("resolvent_form_residual", _nan_form_residual, "fit: orbit values do not satisfy the form"),
    ("two_valuedness_rows", _nan_even_spread, "two-valuedness: spreads above tolerance"),
])
def test_nan_measurement_fails_its_instance(name, doctor, failure, monkeypatch):
    # A measurement that is NaN is not below its tolerance: the instance
    # fails on that criterion alone, and its neighbours do not change.
    roots, sweeps, k, _ = _doctored_stack()
    clean = verify_sweep(roots, sweeps)
    monkeypatch.setattr(verify, name, doctor(k))
    records = verify_sweep(roots, sweeps)
    assert records[k]["passed"] is False
    assert records[k]["failures"] == [failure]
    assert records[:k] + records[k + 1 :] == clean[:k] + clean[k + 1 :]


def test_suppressed_coefficients_above_1e_5_fill_the_record(monkeypatch):
    # One product value moved by 1e-4 of max|Phi| moves c4 and p1 by as
    # much: the record keeps every principal field and fails on both rows.
    # No tighter gate may raise first and leave the fields null.
    roots, sweeps, k, _ = _doctored_stack()
    real = verify.product_values

    def moved(sweeps, tol):
        values, errors = real(sweeps, tol)
        values[k, 0] += 1e-4 * max(1.0, np.abs(values[k]).max())
        return values, errors

    monkeypatch.setattr(verify, "product_values", moved)
    record = verify_sweep(roots, sweeps)[k]
    assert None not in record["principal"].values()
    assert record["principal"]["c4_mag"] > 1e-5
    assert record["failures"] == ["principal: suppressed coefficients above tolerance",
                                  "principal: power sums above tolerance"]


def _json_main(capsys, *argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("index", range(3))
def test_subcommands_agree_with_the_record_at_any_tolerance(index, monkeypatch, capsys):
    # resolve --tol t and brioschi --tol t decide the criteria they share
    # with verify as the verify record does at the same tolerance, just
    # below and just above each measured value.
    roots = random_instance(37, index)
    record = verify_instance(roots)
    rows = {fields: (section, failure) for section, fields, _, failure in verify.CRITERIA}
    shared = {  # subcommand: the tolerance its --tol sets, and the rows it decides
        "resolve": ("residual", [("r4", "r2", "r0")]),
        "brioschi": ("spread", [("c4_mag", "c2_mag"), ("p1", "p3")]),
    }
    verdicts = set()
    for command, (tolerance, decided) in shared.items():
        failures = {rows[fields][1] for fields in decided}
        for section, field in ((rows[fields][0], f) for fields in decided for f in fields):
            value = record[section][field]
            for t in (np.nextafter(value, 0.0), np.nextafter(value, np.inf)):
                code, payload = _json_main(
                    capsys, command, "--seed", "37", "--index", str(index), "--tol", repr(float(t)))
                reported = {**payload.get("residuals", {}), **payload.get("suppressed", {}),
                            **payload.get("power_sums", {})}
                assert reported[field] == value
                monkeypatch.setitem(verify.TOLERANCES, tolerance, t)
                judged = verify_instance(roots, tol_residual=verify.TOLERANCES["residual"])
                monkeypatch.undo()
                passed = not failures & set(judged["failures"])
                assert (payload["ok"], code) == (passed, 0 if passed else 4), (command, field, t)
                verdicts.add(passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed, index", [
    (2641972118475640975, 69),  # pair product of c moved 2.4e-7 by rounding
    (4083610734272381841, 77),  # odd c (12.8 against S^5 = 2.3e11) moved 2.7e-6
    (2456365871523751145, 94),  # product values near 1e-5, two of them 2.2e-7 apart
    (8827832592407865662, 28),  # product values near 1e-4, two of them 9.4e-7 apart
])
def test_sampled_instances_near_the_loci_pass(seed, index):
    # Absolute 1e-7 gates rejected these sampled instances (one in about
    # 450,000): two on two-valuedness, where c is small against S^5 and the
    # fit's rounding of order eps * S^5 read as a spread; two on the
    # product-value count, whose values lie below 1.
    record = verify_instance(random_instance(seed, index))
    assert record["passed"], record["failures"]
    assert record["principal"]["s5_value_count"] == 10
