import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quinticlab
from quinticlab.clustering import cluster_values
from quinticlab.errors import NumericFailureError


def test_well_separated_values_stay_distinct():
    result = cluster_values([0.0, 1.0, 2.0 + 1j], tol=1e-7)
    assert result.count == 3
    assert result.centers == (0.0, 1.0, 2.0 + 1j)


def test_near_duplicates_merge_and_average():
    result = cluster_values([1.0, 1.0 + 1e-9, 5.0], tol=1e-7)
    assert result.count == 2
    assert abs(result.centers[0] - (1.0 + 5e-10)) < 1e-12
    assert result.sizes == (2, 1)


def test_order_is_first_occurrence():
    result = cluster_values([3.0, 1.0, 3.0 + 1e-10], tol=1e-7)
    assert result.count == 2
    assert result.centers[0].real == pytest.approx(3.0)


def test_single_linkage_chains_merge():
    # Consecutive gaps below threshold chain into one cluster.
    vals = [0.0, 0.6e-7, 1.2e-7]
    result = cluster_values(vals, tol=1e-7)
    assert result.count == 1


def test_long_shuffled_chain_merges():
    # 40 points 0.6x the threshold apart, in shuffled order: the labels need
    # many propagation rounds to reach one cluster.
    tol = 1e-7
    threshold = tol * 1.0  # scale is max(1, max|v|) = 1
    chain = 0.5 + 0.6 * threshold * np.arange(40)
    vals = np.random.default_rng(5).permutation(chain)
    result = cluster_values(vals, tol=tol)
    assert result.count == 1
    assert result.sizes == (40,)
    assert abs(result.centers[0] - chain.mean()) < 1e-12


def test_import_needs_no_scipy():
    code = (
        "import sys; import quinticlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(quinticlab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_ambiguous_gap_rejected():
    # Two clusters separated by less than 10x the linking threshold.
    with pytest.raises(NumericFailureError):
        cluster_values([0.0, 5e-7, 1.0], tol=1e-7)


def test_relative_scaling():
    # Same geometry at 1000x scale clusters identically.
    vals = np.array([0.0, 1e-9, 1.0]) * 1000.0
    result = cluster_values(vals, tol=1e-7)
    assert result.count == 2


def test_tolerance_floor():
    # Even with an absurdly small tol the floor keeps exact duplicates merged.
    result = cluster_values([1.0, 1.0, 2.0], tol=1e-30)
    assert result.count == 2
