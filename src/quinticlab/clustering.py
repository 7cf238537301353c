"""Single-linkage deduplication of complex value lists.

Orbit sweeps produce many floating-point copies of each mathematically
distinct value; counting claims ("twelve values", "five values") need an
explicit, auditable clustering rule.  Values within ``tol * scale`` of each
other (single linkage, ``scale = max(1, max|v|)``) belong to one cluster.  An
instance is rejected as ambiguous when some inter-cluster gap comes within a
factor 10 of the linking threshold, since the count would then depend on the
tolerance choice.

Inputs are orbit sweeps of at most 120 values, so the clusters are found on
the dense pairwise-distance matrix.

Where the permutation action fixes which sweep rows are copies of one value,
:func:`class_gate` gates that class map by the 10x rule, at a threshold
relative to the values themselves, for many rows of values at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError

__all__ = ["ClusterResult", "cluster_values", "class_gate", "first_occurrence",
           "DEDUP_TOL", "DEDUP_TOL_FLOOR"]

DEDUP_TOL = 1e-7
DEDUP_TOL_FLOOR = 1e-10

# Inter-cluster gaps closer than AMBIGUITY_FACTOR * threshold reject as ambiguous.
AMBIGUITY_FACTOR = 10.0


@dataclass(frozen=True)
class ClusterResult:
    """Deduplicated values, ordered by first occurrence in the input."""

    centers: tuple[complex, ...]
    sizes: tuple[int, ...]
    threshold: float
    min_gap: float  # smallest distance between members of different clusters

    @property
    def count(self) -> int:
        return len(self.centers)


def _component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Smallest member index of each point's connected component.

    Min-label propagation on the dense adjacency: every round replaces each
    label by the smallest label among the point and its neighbours, until no
    label changes.  Labels only decrease, so this ends; the number of rounds
    is bounded by the longest chain of links within a component.
    """
    labels = np.arange(adjacency.shape[0])
    while True:
        nxt = np.where(adjacency, labels, labels[:, None]).min(axis=1)
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def cluster_values(values, tol: float = DEDUP_TOL) -> ClusterResult:
    """Cluster ``values`` with relative tolerance ``tol`` (floor 1e-10)."""
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or vals.size == 0:
        raise NumericFailureError("clustering needs a nonempty 1-d value list")
    threshold = max(float(tol), DEDUP_TOL_FLOOR) * max(1.0, float(np.max(np.abs(vals))))

    dist = np.abs(vals[:, None] - vals[None, :])
    labels = _component_labels(dist <= threshold)
    # Labels are first-occurrence indices, so sorted unique labels give the
    # clusters in order of first occurrence.
    firsts, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    n_clusters = firsts.size
    sums = np.bincount(inverse, weights=vals.real) + 1j * np.bincount(
        inverse, weights=vals.imag
    )
    centers = [complex(z) for z in sums / counts]
    sizes = [int(k) for k in counts]

    if n_clusters > 1:
        different = labels[:, None] != labels[None, :]
        min_gap = float(dist[different].min())
    else:
        min_gap = float("inf")

    if min_gap < AMBIGUITY_FACTOR * threshold:
        raise NumericFailureError(
            f"ambiguous clustering: inter-cluster gap {min_gap:.3e} is within "
            f"10x of the linking threshold {threshold:.3e}; use a smaller "
            "tolerance or treat the instance as near-degenerate"
        )

    return ClusterResult(
        centers=tuple(centers),
        sizes=tuple(sizes),
        threshold=threshold,
        min_gap=min_gap,
    )


def first_occurrence(keys) -> np.ndarray:
    """Class of each key, the classes numbered in order of first occurrence."""
    seen: dict = {}
    return np.array([seen.setdefault(key, len(seen)) for key in keys])


def class_gate(values, classes, tol: float = DEDUP_TOL) -> tuple:
    """Count gates for each row of values (N, m) whose classes are known.

    ``classes`` numbers the class of each column as :func:`first_occurrence`
    does; the class means are summed in input order, as :func:`cluster_values`
    sums them, by one ``bincount`` over classes offset by row.  A row fails
    unless each value lies within ``tol * max|v|`` of its class mean and the
    means lie more than 10x that apart.  Returns the means (N, k), the
    thresholds (N,), and per row None or its error.
    """
    vals = np.asarray(values, dtype=complex)
    rows = vals.shape[0]
    counts = np.bincount(classes)
    labels = (classes + counts.size * np.arange(rows)[:, None]).ravel()
    sums = np.bincount(labels, vals.real.ravel()) + 1j * np.bincount(labels, vals.imag.ravel())
    centers = sums.reshape(rows, counts.size) / counts
    threshold = max(float(tol), DEDUP_TOL_FLOOR) * np.abs(vals).max(axis=1)
    spread = np.abs(vals - centers[:, classes]).max(axis=1)
    gaps = np.abs(centers[:, :, None] - centers[:, None]) + np.diag(np.full(counts.size, np.inf))
    min_gap = gaps.min(axis=(1, 2))
    ok = (spread <= threshold) & (min_gap > AMBIGUITY_FACTOR * threshold)  # NaN fails
    errors = [None if good else NumericFailureError(
        f"ambiguous count: copies of one value lie up to {spread[i]:.3e} apart and "
        f"distinct values {min_gap[i]:.3e} apart, against the threshold {threshold[i]:.3e}"
    ) for i, good in enumerate(ok)]
    return centers, threshold, errors
