"""The sine-weighted root function f, its labeled six-member family, orbit
analysis under even relabelings, and the rank of the family's linear relations.

``f`` is a degree-5 form in an ordered tuple of five roots.  Relabeling the
roots by the 60 even permutations produces exactly 12 distinct values for
generic input; they close under negation into 6 sign pairs and coincide with
the labeled family ``(+-f, +-f_0, ..., +-f_4)``.  Stacked family rows from
independent instances span a 3-dimensional subspace: the six values
satisfy three linear relations with golden-ratio coefficients, known in
closed form, which :func:`relation_rank` confirms by a numerical rank test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DEDUP_TOL, cluster_values
from .errors import InvalidInputError, NumericFailureError
from .kernels import eval_f_rows
from .permutations import A5_IN_S5, S5_IMAGES, Perm5
from .polynomials import as_root_tuple, is_degenerate

__all__ = [
    "FFamily",
    "OrbitReport",
    "RelationReport",
    "eval_f",
    "f_family",
    "family_values_for_perms",
    "a5_orbit",
    "orbit_from_sweep",
    "family_labels",
    "relation_rank",
    "RANK_TOL",
]

RANK_TOL = 1e-6

# Family argument patterns: row 0 is f itself, row 1+k reorders the tuple to
# (x_k, x_{k+3}, x_{k+4}, x_{k+1}, x_{k+2}), indices mod 5.
FAMILY_PATTERNS = np.array(
    [[0, 1, 2, 3, 4]] + [[(k + d) % 5 for d in (0, 3, 4, 1, 2)] for k in range(5)],
    dtype=np.int64,
)

_LABELS = ("f", "f0", "f1", "f2", "f3", "f4")
# Labels of the signed targets (+family, -family) that orbit values match.
_SIGNED_LABELS = tuple("+" + label for label in _LABELS) + tuple("-" + label for label in _LABELS)

# f on the 60 even relabelings, then the family rows: one kernel call per orbit.
_ORBIT_ROWS = np.concatenate([S5_IMAGES[A5_IN_S5], FAMILY_PATTERNS])


@dataclass(frozen=True)
class FFamily:
    """The six labeled values computed from one ordered root tuple."""

    f: complex
    fk: tuple[complex, complex, complex, complex, complex]

    def values(self) -> tuple[complex, ...]:
        """(f, f_0, ..., f_4) in label order."""
        return (self.f, *self.fk)

    @classmethod
    def from_row(cls, row) -> "FFamily":
        """The family stored as one row (f, f_0, ..., f_4) of a sweep."""
        return cls(f=complex(row[0]), fk=tuple(complex(v) for v in row[1:6]))


@dataclass(frozen=True)
class OrbitReport:
    """Deduplicated even-relabeling orbit of f with sign pairing and labels.

    When ``degenerate`` is False: ``values`` has exactly 12 entries,
    ``pair_map`` holds 6 disjoint index pairs (i, j) with values[j] = -values[i],
    and ``family_match[i]`` is the signed label (e.g. '+f', '-f3') matching
    values[i].  ``family`` is the labeled family of the input tuple, the one
    the labels refer to.
    """

    values: tuple[complex, ...]
    pair_map: tuple[tuple[int, int], ...]
    family_match: tuple[str, ...]
    degenerate: bool
    family: FFamily


@dataclass(frozen=True)
class RelationReport:
    """Numerical rank analysis of stacked (f, f_0..f_4) sample rows.

    ``null_basis`` is set only at rank 3; :func:`relation_rank` gives its
    closed form.  ``integer_relations`` is always None: the relations'
    coefficients are 1 and the irrational golden ratio, so no small-integer
    relation exists.  The field stays so the report keeps its shape.
    """

    rank: int
    singular_values: tuple[float, ...]
    null_basis: tuple[tuple[complex, ...], ...] | None
    integer_relations: tuple[tuple[int, ...], ...] | None

    @property
    def ratio_s4_s1(self) -> float:
        """sigma_4 / sigma_1, or 0 when sigma_1 is 0."""
        top = self.singular_values[0]
        return self.singular_values[3] / top if top > 0.0 else 0.0


def eval_f(roots: Sequence[complex]) -> complex:
    """The 20-term sine-weighted form on an ordered 5-tuple of roots.

    sum over m in 0..4, n in 1..4 of
        sin(2*pi*n/5) * x_m * x_{m+n}^2 * x_{m+2n}^2   (indices mod 5)

    Homogeneous of total degree 5 in the roots.
    """
    rt = as_root_tuple(roots)
    return complex(eval_f_rows(rt, FAMILY_PATTERNS[:1])[0])


def f_family(roots: Sequence[complex]) -> FFamily:
    """f together with f_k = f(x_k, x_{k+3}, x_{k+4}, x_{k+1}, x_{k+2})."""
    rt = as_root_tuple(roots)
    return FFamily.from_row(eval_f_rows(rt, FAMILY_PATTERNS))


def family_values_for_perms(roots, perms: Sequence[Perm5]) -> np.ndarray:
    """Family values of every relabeled tuple, shape (len(perms), 6).

    Row p equals ``f_family(apply(perms[p], roots)).values()``; the whole
    sweep is a single batched kernel call.
    """
    rt = as_root_tuple(roots)
    images = np.array([p.image for p in perms], dtype=np.int64)
    rows = images[:, FAMILY_PATTERNS]  # (P, 6, 5)
    flat = eval_f_rows(rt, rows.reshape(-1, 5))
    return flat.reshape(len(perms), 6)


def family_labels(values, fam: FFamily, threshold: float) -> tuple[str, ...]:
    """Signed family label (e.g. '+f', '-f3') of each of 12 orbit values.

    Each value takes the label of its nearest signed family member.  Raises
    :class:`NumericFailureError` when a value is farther than ``threshold``
    from its nearest member, or when two values share one nearest member, so
    that accepted labels are a bijection onto the 12 signed members.  The
    orbit values are pairwise more than 10x ``threshold`` apart (the
    clustering's ambiguity rule), so an accepted labeling is also the optimal
    assignment of values to members.
    """
    vals = np.asarray(values, dtype=complex)
    family = np.asarray(fam.values(), dtype=complex)
    targets = np.concatenate([family, -family])
    cost = np.abs(vals[:, None] - targets[None, :])
    nearest = cost.argmin(axis=1)
    if float(cost[np.arange(vals.size), nearest].max()) > threshold:
        raise NumericFailureError(
            "orbit values do not match the signed family within tolerance"
        )
    if np.unique(nearest).size != targets.size:
        raise NumericFailureError(
            "orbit values and signed family members do not match one to one"
        )
    return tuple(_SIGNED_LABELS[k] for k in nearest)


def _orbit_report(evals: np.ndarray, fam: FFamily, tol: float) -> OrbitReport:
    """Cluster the 60 even-relabeling values of f, pair signs, label them."""
    clusters = cluster_values(evals, tol)
    values = clusters.centers
    if len(values) != 12:
        raise NumericFailureError(
            f"expected 12 orbit values, found {len(values)}; "
            "instance is likely near-degenerate"
        )
    vals = np.asarray(values)
    scale = max(1.0, float(np.abs(vals).max()))
    index = np.arange(12)

    # Sign pairing: each value must match the negation of exactly one other.
    sums = np.abs(vals[:, None] + vals[None, :])
    partner = sums.argmin(axis=1)
    unpaired = np.flatnonzero((sums[index, partner] > clusters.threshold) | (partner == index))
    if unpaired.size:
        raise NumericFailureError(
            f"orbit value {values[unpaired[0]]:.6g} has no negation partner within tolerance"
        )
    if np.any(partner[partner] != index):
        raise NumericFailureError("sign pairing is not an involution")
    pair_map = tuple((i, int(partner[i])) for i in range(12) if i < partner[i])

    family_match = family_labels(values, fam, max(tol, 1e-10) * scale)
    return OrbitReport(
        values=values,
        pair_map=pair_map,
        family_match=family_match,
        degenerate=False,
        family=fam,
    )


def a5_orbit(roots, tol: float = DEDUP_TOL) -> OrbitReport:
    """Orbit of f under all 60 even relabelings, deduplicated.

    Generic input yields exactly 12 values closing under negation into 6
    pairs, each matching one signed family member.  Near-degenerate input
    (by the |sqrt disc| floor) is reported with ``degenerate=True`` and no
    pairing analysis.
    """
    rt = as_root_tuple(roots)
    rows = eval_f_rows(rt, _ORBIT_ROWS)
    evals, family = rows[:60], FFamily.from_row(rows[60:])
    if is_degenerate(rt):
        clusters = cluster_values(evals, tol)
        return OrbitReport(
            values=clusters.centers,
            pair_map=(),
            family_match=(),
            degenerate=True,
            family=family,
        )
    return _orbit_report(evals, family, tol)


def orbit_from_sweep(sweep: np.ndarray, tol: float = DEDUP_TOL) -> OrbitReport:
    """:func:`a5_orbit` of a non-degenerate instance, read from its sweep.

    ``sweep`` is ``family_values_for_perms(roots, all_s5())``: column 0 at
    the even rows is the orbit of f, and row 0 (the identity) is the family.
    """
    return _orbit_report(sweep[A5_IN_S5, 0], FFamily.from_row(sweep[0]), tol)


def _rref(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    m = mat.copy()
    nrows, ncols = m.shape
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = row + int(np.argmax(np.abs(m[row:, col])))
        if abs(m[pivot, col]) <= tol:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        m[row] = m[row] / m[row, col]
        for r in range(nrows):
            if r != row:
                m[r] = m[r] - m[r, col] * m[row]
        row += 1
    return m


def relation_rank(samples: Sequence[FFamily], rank_tol: float = RANK_TOL) -> RelationReport:
    """Numerical rank of the N x 6 matrix of (f, f_0..f_4) sample rows.

    Needs at least 10 samples.  Rank counts singular values above
    ``rank_tol * sigma_1``.  One thin SVD gives both the singular values and
    the 6 x 6 ``vh``, so memory stays linear in N.  When the rank is 3,
    ``null_basis`` is the reduced row echelon form of the null space, with
    pivots on f, f_0 and f_1.  For exact family rows it is, with
    phi = (1 + sqrt 5) / 2,

        f  + phi f_2 -     f_3 + phi f_4 = 0
        f_0 -    f_2 + phi f_3 - phi f_4 = 0
        f_1 - phi f_2 + phi f_3 -     f_4 = 0

    The basis is reported as computed, with no rounding to integers: its
    coefficients involve the irrational phi.
    """
    if len(samples) < 10:
        raise InvalidInputError(f"need at least 10 samples, got {len(samples)}")
    matrix = np.array([s.values() for s in samples], dtype=complex)
    _, singular, vh = np.linalg.svd(matrix, full_matrices=False)
    top = float(singular[0])
    rank = int(np.sum(singular > rank_tol * top)) if top > 0.0 else 0

    null_basis = None
    if rank == 3:
        basis = np.conj(vh[3:])  # rows span the null space of the sample matrix
        null_basis = tuple(
            tuple(complex(x) for x in row) for row in _rref(basis)
        )

    return RelationReport(
        rank=rank,
        singular_values=tuple(float(s) for s in singular),
        null_basis=null_basis,
        integer_relations=None,
    )
