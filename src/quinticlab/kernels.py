"""The batched evaluation kernel for the sine-weighted root form.

For each row ``(i0..i4)`` of an index matrix, :func:`eval_f_rows` evaluates
the 20-term form

    sum over n in 1..4, m in 0..4 of
        sin(2*pi*n/5) * y[m] * y[(m+n) % 5]**2 * y[(m+2n) % 5]**2

on the reindexed tuple ``y = (x[i0], ..., x[i4])``, in numpy.  Batching over
index rows is what makes whole permutation-orbit sweeps single kernel calls.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eval_f_rows"]


# sin(2*pi*n/5) for n = 1..4.
_SIN = tuple(math.sin(2.0 * math.pi * n / 5.0) for n in range(1, 5))


def eval_f_rows(x, idx) -> np.ndarray:
    """Evaluate the form on ``x`` reindexed by each row of ``idx``.

    ``x`` is a length-5 complex sequence; ``idx`` an integer array of shape
    (K, 5) with entries in 0..4.  Returns a complex array of length K.  Each
    row's value is bitwise independent of K and of the other rows.
    """
    xa = np.ascontiguousarray(x, dtype=np.complex128)
    ia = np.ascontiguousarray(idx, dtype=np.int64)
    if xa.shape != (5,):
        raise ValueError(f"expected 5 roots, got shape {xa.shape}")
    if ia.ndim != 2 or ia.shape[1] != 5:
        raise ValueError(f"expected index rows of length 5, got shape {ia.shape}")
    if ia.size and (ia.min() < 0 or ia.max() > 4):
        raise ValueError("index entries must lie in 0..4")
    vals = xa[np.ascontiguousarray(ia.T)]  # (5, K): row m holds y[m] of each row
    sq = np.square(np.concatenate([vals, vals]))  # (10, K): row j holds y[j % 5]**2
    # Add the 20 terms in a fixed order, n outer and m inner, starting from 0,
    # so each row's value is independent of K.  (sum(axis=1) adds in this
    # order for K >= 2 rows but pairwise for a single row.)  Working in (5, K)
    # blocks keeps every temporary of a 720-row sweep under 128 KB; larger
    # ones are mmapped and page-faulted afresh on every call.
    out = np.zeros(len(ia), dtype=np.complex128)
    for n, w in enumerate(_SIN, start=1):
        m2n = 2 * n % 5
        for term in vals * sq[n : n + 5] * sq[m2n : m2n + 5] * w:  # row m: term (n, m)
            out += term
    return out
