import pytest

from quinticlab.ffamily import family_sweep
from quinticlab.instances import random_instance
from quinticlab.permutations import S5_PARITY
from quinticlab.verify import SPREAD_TOL, run_verify, verify_instance, verify_sweep


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


def test_perturbed_odd_row_fails_two_valuedness():
    # Negative control for the array core: one odd relabeling's family scaled
    # by (1 + 1e-6) must break the odd-coset agreement; the sweep as computed
    # must pass.
    roots = random_instance(17, 2)
    sweep = family_sweep(roots)
    assert verify_sweep(roots, sweep)["passed"] is True

    perturbed = sweep.copy()
    odd_row = int((S5_PARITY == -1).nonzero()[0][3])
    perturbed[odd_row] *= 1.0 + 1e-6
    record = verify_sweep(roots, perturbed)
    assert record["two_valuedness"]["odd_spread"] > SPREAD_TOL
    assert record["passed"] is False
    assert "two-valuedness: spreads above tolerance" in record["failures"]
