"""Work budgets: memory bounds derived from arithmetic, not from timers.

A budget fails when a change adds work that the result does not need, on any
machine, without a noisy wall-time measurement.
"""

import tracemalloc

import numpy as np

from quinticlab import f_family, random_instance, relation_rank


def test_relation_rank_memory_is_linear_in_rows():
    # The N x 6 complex128 sample matrix, a thin U of the same size and the
    # SVD workspace fit in 8 matrices.  A full N x N unitary (256 MB at
    # N = 4,000) or a scan of a coefficient grid cannot.
    n = 4000
    samples = [f_family(random_instance(61, i)) for i in range(n)]
    budget = 8 * n * 6 * np.dtype(np.complex128).itemsize

    tracemalloc.start()
    try:
        report = relation_rank(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert report.rank == 3
    assert peak <= budget
