"""Negative controls on the form itself: wrong kernel weights must fail verify.

Each test swaps the kernel's sine weights for wrong ones by monkeypatching
``kernels._SIN``, which ``eval_f_rows`` reads at every call.
"""

import math

import pytest

from quinticlab import kernels
from quinticlab.verify import run_verify

_PARITY_FAILURE = "two-valuedness: parity gap above tolerance"


def test_galois_conjugate_weights_fail_the_parity_gap(monkeypatch):
    # sin(4 pi n / 5) gives -f at an odd relabeling: every class, count, fit
    # and spread holds, but a_even - a_odd is +(sqrt 5 / 4) sqrt(disc), the
    # wrong sign, so every instance fails on the parity gap and nothing else.
    monkeypatch.setattr(kernels, "_SIN", tuple(math.sin(4.0 * math.pi * n / 5.0)
                                               for n in range(1, 5)))
    report = run_verify(1, 60)
    assert report["summary"]["failed"] == list(range(60))
    assert all(r["failures"] == [_PARITY_FAILURE] for r in report["instances"])
    assert min(r["two_valuedness"]["parity_gap"] for r in report["instances"]) > 1e-4


@pytest.mark.parametrize("delta, least", [(0.0, 0), (1e-10, 2), (1e-9, 22)])
def test_a_scaled_weight_fails_at_least_as_often(delta, least, monkeypatch):
    # sin(2 pi / 5) times 1 + delta.  The fixed gates of the 120 fits failed 2
    # of these 200 instances at 1e-10 and 22 at 1e-9; the parity gap, at
    # 1e-10, may only fail more.  An exact form fails none.
    weights = list(kernels._SIN)
    weights[0] *= 1.0 + delta
    monkeypatch.setattr(kernels, "_SIN", tuple(weights))
    report = run_verify(1, 200)
    failed = len(report["summary"]["failed"])
    assert failed >= least
    assert report["summary"]["ok"] is (delta == 0.0)
