"""The sine-weighted root function f, its labeled six-member family, orbit
analysis under even relabelings, and the rank of the family's linear relations.

``f`` is a degree-5 form in an ordered tuple of five roots.  Relabeling the
roots by the 60 even permutations produces exactly 12 distinct values for
generic input; they close under negation into 6 sign pairs and coincide with
the labeled family ``(+-f, +-f_0, ..., +-f_4)``.  Stacked family rows from
independent instances span a 3-dimensional subspace: the six values
satisfy three linear relations with golden-ratio coefficients, known in
closed form, which :func:`relation_rank` confirms by a numerical rank test.

Which relabelings give equal or opposite values is a fact about the group, so
the orbit's classes, sign pairs and labels are constant tables derived here
from the permutation images; per instance only the gates are measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DEDUP_TOL, class_values, first_occurrence
from .errors import InvalidInputError, NumericFailureError
from .kernels import eval_f_rows
from .permutations import A5_IN_S5, S5_IMAGES, s5_index
from .polynomials import as_root_tuple, is_degenerate

__all__ = [
    "FFamily",
    "OrbitReport",
    "RelationReport",
    "eval_f",
    "f_family",
    "family_sweep",
    "a5_orbit",
    "orbit_from_sweep",
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


# f is unchanged when the tuple's positions are rotated (it sums over m) and
# changes sign when they are reflected, i -> -i mod 5 (which maps each sine
# weight n to 5 - n).  So at each S5 row r, f is _F_SIGN[r] times f at row
# _F_CLASS[r], the dihedral image of r with label 0 first and the smaller of
# its neighbours second.
_zero_at = np.argmin(S5_IMAGES, axis=1)[:, None]
_rotated = S5_IMAGES[np.arange(120)[:, None], (_zero_at + np.arange(5)) % 5]
_reflect = _rotated[:, 1] > _rotated[:, 4]
_F_CLASS = s5_index(np.where(_reflect[:, None], _rotated[:, [0, 4, 3, 2, 1]], _rotated))
_F_SIGN = 1 - 2 * _reflect

# Column j of sweep row p is f at S5 row _SWEEP_ROWS[p, j]: the tuple relabeled
# by permutation p, read in family pattern j.
_SWEEP_ROWS = s5_index(S5_IMAGES[:, FAMILY_PATTERNS])

# The signed family member (+-f_j, numbered j or 6 + j) that f equals at each
# even row; the family patterns are even rows themselves.  The orbit's classes
# are the members in order of first occurrence, paired with their negations.
_FAMILY_ROWS = _SWEEP_ROWS[0]
_j = (_F_CLASS[A5_IN_S5][:, None] == _F_CLASS[_FAMILY_ROWS]).argmax(axis=1)
_even_members = (_j + 6 * (_F_SIGN[A5_IN_S5] != _F_SIGN[_FAMILY_ROWS][_j])).tolist()
_ORBIT_CLASS = first_occurrence(_even_members)
_ORBIT_MEMBER = list(dict.fromkeys(_even_members))
_FAMILY_MATCH = tuple("+-"[k // 6] + _LABELS[k % 6] for k in _ORBIT_MEMBER)
_partner = [_ORBIT_MEMBER.index((k + 6) % 12) for k in _ORBIT_MEMBER]
_PAIR_MAP = tuple((i, j) for i, j in enumerate(_partner) if i < j)
_FAMILY_IN_A5 = np.searchsorted(A5_IN_S5, _FAMILY_ROWS)


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
    the labels refer to.  A degenerate orbit has no values, pairs or labels.
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


def family_sweep(roots) -> np.ndarray:
    """Family values of the tuple under every relabeling, shape (120, 6).

    Row p equals ``f_family(apply(all_s5()[p], roots)).values()``.  The 720
    entries are f at the 120 rows of one kernel call, gathered; kernel rows
    do not depend on the batch, so they equal a 720-row call bitwise.
    """
    return eval_f_rows(as_root_tuple(roots), S5_IMAGES)[_SWEEP_ROWS]


def _orbit_report(evals: np.ndarray, family: np.ndarray, tol: float) -> OrbitReport:
    """The 12 orbit values of the 60 even-relabeling values of f.

    Classes, sign pairs and labels are the constant tables.  Gated are the
    classes (:func:`~quinticlab.clustering.class_values`) and, at the same
    threshold, each orbit value against its signed family member.
    """
    clusters = class_values(evals, _ORBIT_CLASS, tol)
    targets = np.concatenate([family, -family])[_ORBIT_MEMBER]
    if not np.abs(np.asarray(clusters.centers) - targets).max() <= clusters.threshold:
        raise NumericFailureError(
            "orbit values do not match the signed family within tolerance"
        )
    return OrbitReport(values=clusters.centers, pair_map=_PAIR_MAP, family_match=_FAMILY_MATCH,
                       degenerate=False, family=FFamily.from_row(family))


def a5_orbit(roots, tol: float = DEDUP_TOL) -> OrbitReport:
    """Orbit of f under all 60 even relabelings, deduplicated.

    Generic input yields exactly 12 values closing under negation into 6
    pairs, each matching one signed family member.  Near-degenerate input
    (by the |sqrt disc| floor) is reported with ``degenerate=True`` and no
    values.  The family patterns are even rows, so one kernel call of the 60
    even rows gives both the orbit and the family.
    """
    rt = as_root_tuple(roots)
    evals = eval_f_rows(rt, S5_IMAGES[A5_IN_S5])
    family = evals[_FAMILY_IN_A5]
    if is_degenerate(rt):
        return OrbitReport(values=(), pair_map=(), family_match=(), degenerate=True,
                           family=FFamily.from_row(family))
    return _orbit_report(evals, family, tol)


def orbit_from_sweep(sweep: np.ndarray, tol: float = DEDUP_TOL) -> OrbitReport:
    """:func:`a5_orbit` of a non-degenerate instance, read from its sweep.

    ``sweep`` is ``family_sweep(roots)``: column 0 at the even rows is the
    orbit of f, and row 0 (the identity) is the family.
    """
    return _orbit_report(sweep[A5_IN_S5, 0], sweep[0], tol)


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
