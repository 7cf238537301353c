"""The batched evaluation kernel for the sine-weighted root form.

For each row ``(i0..i4)`` of an index matrix, :func:`eval_f_rows` evaluates
the 20-term form

    sum over n in 1..4, m in 0..4 of
        sin(2*pi*n/5) * y[m] * y[(m+n) % 5]**2 * y[(m+2n) % 5]**2

on the reindexed tuple ``y = (x[i0], ..., x[i4])``, in numpy.  Batching over
index rows and over tuples is what makes the permutation-orbit sweeps of a
whole chunk of instances one kernel call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["eval_f_rows"]


# sin(2*pi*n/5) for n = 1..4.
_SIN = tuple(math.sin(2.0 * math.pi * n / 5.0) for n in range(1, 5))
_SLAB = 16  # tuples per block: the temporaries of a 120-row block stay near 150 KB


def eval_f_rows(x, idx) -> np.ndarray:
    """Evaluate the form on each tuple of ``x`` reindexed by each row of ``idx``.

    ``x`` holds the five complex roots of one tuple, shape (5,), or of N
    tuples, (N, 5); ``idx`` is an integer array (K, 5) with entries in 0..4.
    Returns complex values, shape (K,) or (N, K), each bitwise independent of
    K, N and the other rows and tuples.
    """
    xa = np.asarray(x, dtype=np.complex128)
    ia = np.ascontiguousarray(idx, dtype=np.int64)
    if xa.ndim not in (1, 2) or xa.shape[-1] != 5:
        raise ValueError(f"expected 5 roots per tuple, got shape {xa.shape}")
    if ia.ndim != 2 or ia.shape[1] != 5:
        raise ValueError(f"expected index rows of length 5, got shape {ia.shape}")
    if ia.size and (ia.min() < 0 or ia.max() > 4):
        raise ValueError("index entries must lie in 0..4")
    xt = xa.reshape(-1, 5).T  # (5, N): column t holds the roots of tuple t
    out = np.empty((len(ia), xt.shape[1]), dtype=np.complex128)
    for lo in range(0, xt.shape[1], _SLAB):
        block = out[:, lo : lo + _SLAB]
        vals = np.ascontiguousarray(xt[:, lo : lo + _SLAB][ia.T]).reshape(5, -1)  # y[m] in row m
        sq = np.square(np.concatenate([vals, vals]))  # sq[j]: y[j % 5]**2
        # Add the 20 terms in a fixed order, n outer and m inner, from 0, so no
        # value depends on K or N, as a pairwise sum over an axis would.
        acc = np.zeros(vals.shape[1], dtype=np.complex128)
        for n, w in enumerate(_SIN, start=1):
            m2n = 2 * n % 5
            for term in vals * sq[n : n + 5] * sq[m2n : m2n + 5] * w:  # term[m]: term (n, m)
                acc += term
        block[...] = acc.reshape(block.shape)
    return out.T.reshape(xa.shape[:-1] + (len(ia),))
