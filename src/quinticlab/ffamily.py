"""The sine-weighted root function f, its labeled six-member family, orbit
analysis under even relabelings, and the rank of the family's linear relations.

``f`` is a degree-5 form in an ordered tuple of five roots, the 20-term sum
that :func:`~quinticlab.kernels.eval_f_rows` evaluates.  Relabeling the
roots by the 60 even permutations produces exactly 12 distinct values for
generic input; they close under negation into 6 sign pairs and coincide with
the labeled family ``(+-f, +-f_0, ..., +-f_4)``.  Stacked family rows from
independent instances span a 3-dimensional subspace: the six values
satisfy three linear relations with golden-ratio coefficients, known in
closed form, which :func:`relation_rank` confirms by a numerical rank test.

Relabelings are the 120 permutations of the labels 0..4, held only as index
tables: row p of ``S5_IMAGES`` relabels a tuple ``rt`` to
``(rt[S5_IMAGES[p, 0]], ..., rt[S5_IMAGES[p, 4]])`` ("pull" convention).  Which
relabelings give equal or opposite values is a fact about the group, so the
orbit's classes, sign pairs and labels are constant tables derived here from
those images; per instance only the gates are measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DEDUP_TOL, class_gate, first_occurrence
from .errors import InvalidInputError, NumericFailureError
from .kernels import eval_f_rows
from .polynomials import as_root_tuple, is_degenerate

__all__ = [
    "FFamily",
    "OrbitReport",
    "RelationReport",
    "f_family",
    "family_sweep",
    "a5_orbit",
    "a5_orbits",
    "orbit_check",
    "relation_rank",
    "RANK_TOL",
    "S5_IMAGES",
    "S5_PARITY",
    "A5_IN_S5",
    "s5_index",
]

RANK_TOL = 1e-6

# Family argument patterns: row 0 is f itself, row 1+k reorders the tuple to
# (x_k, x_{k+3}, x_{k+4}, x_{k+1}, x_{k+2}), indices mod 5.
FAMILY_PATTERNS = np.array(
    [[0, 1, 2, 3, 4]] + [[(k + d) % 5 for d in (0, 3, 4, 1, 2)] for k in range(5)],
    dtype=np.int64,
)

_LABELS = ("f", "f0", "f1", "f2", "f3", "f4")

# The permutations of 0..4 as image arrays, lexicographic (identity first),
# each row's parity by inversion count, and the even rows.
S5_IMAGES = np.array(list(itertools.permutations(range(5))), dtype=np.int64)
_INVERSIONS = sum(S5_IMAGES[:, i] > S5_IMAGES[:, j] for i in range(5) for j in range(i + 1, 5))
S5_PARITY = 1 - 2 * (_INVERSIONS % 2)
A5_IN_S5 = np.flatnonzero(S5_PARITY == 1)
for _table in (S5_IMAGES, S5_PARITY, A5_IN_S5):
    _table.setflags(write=False)
# Image arrays read as base-5 numbers increase in S5_IMAGES order.
_PLACES = 5 ** np.arange(4, -1, -1)
_S5_CODES = S5_IMAGES @ _PLACES


def s5_index(images) -> np.ndarray:
    """Row of ``S5_IMAGES`` that holds each image array (the last axis)."""
    return np.searchsorted(_S5_CODES, np.asarray(images) @ _PLACES)


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

    ``integer_relations`` is always None: the relations' coefficients are 1
    and the irrational golden ratio, so no small-integer relation exists.
    The field stays so the report keeps its shape.
    """

    rank: int
    singular_values: tuple[float, ...]
    integer_relations: tuple[tuple[int, ...], ...] | None

    @property
    def ratio_s4_s1(self) -> float:
        """sigma_4 / sigma_1, or 0 when sigma_1 is 0."""
        top = self.singular_values[0]
        return self.singular_values[3] / top if top > 0.0 else 0.0


def f_family(roots: Sequence[complex]) -> FFamily:
    """f together with f_k = f(x_k, x_{k+3}, x_{k+4}, x_{k+1}, x_{k+2})."""
    rt = as_root_tuple(roots)
    return FFamily.from_row(eval_f_rows(rt, FAMILY_PATTERNS))


def family_sweep(roots) -> np.ndarray:
    """Family values of the tuple under every relabeling, shape (120, 6).

    Row p is the family of the tuple relabeled by row p of ``S5_IMAGES``.
    The 720 entries are f at the 120 rows of one kernel call, gathered;
    kernel rows do not depend on the batch, so they equal a 720-row call
    bitwise.  An (N, 5) stack of tuples gives the (N, 120, 6) stack of their
    sweeps from one kernel call, each bitwise the sweep of its tuple alone.
    """
    return eval_f_rows(roots, S5_IMAGES)[..., _SWEEP_ROWS]


def orbit_check(evals: np.ndarray, family: np.ndarray, tol: float = DEDUP_TOL) -> tuple:
    """The 12 orbit values of each row of 60 even-relabeling values of f, (N, 60).

    Classes, sign pairs and labels are the constant tables.  Gated are the
    classes (:func:`~quinticlab.clustering.class_gate`) and, at the same
    threshold, each orbit value against its signed member of ``family``
    (N, 6).  Returns the values (N, 12) and per row None or its error.
    """
    centers, threshold, errors = class_gate(evals, _ORBIT_CLASS, tol)
    targets = np.concatenate([family, -family], axis=1)[:, _ORBIT_MEMBER]
    matched = np.abs(centers - targets).max(axis=1) <= threshold
    message = "orbit values do not match the signed family within tolerance"
    for i in np.flatnonzero(~matched):
        errors[i] = errors[i] or NumericFailureError(message)
    return centers, errors


def a5_orbits(roots, tol: float = DEDUP_TOL) -> tuple:
    """:func:`a5_orbit` of each tuple of an (N, 5) stack, as arrays.

    One kernel call of the 60 even rows gives every orbit and, the family
    patterns being even, every family.  Returns the families (N, 6), the
    orbit values (N, 12), and per tuple None or its error.
    """
    evals = eval_f_rows(roots, S5_IMAGES[A5_IN_S5])
    family = evals[:, _FAMILY_IN_A5]
    return family, *orbit_check(evals, family, tol)


def a5_orbit(roots, tol: float = DEDUP_TOL) -> OrbitReport:
    """Orbit of f under all 60 even relabelings, deduplicated.

    Generic input yields exactly 12 values closing under negation into 6
    pairs, each matching one signed family member.  Near-degenerate input
    (by the |sqrt disc| floor) is reported with ``degenerate=True`` and no
    values, before any gate.  Otherwise this is :func:`a5_orbits` of one tuple.
    """
    rt = as_root_tuple(roots)
    family, centers, (error,) = a5_orbits([rt], tol)
    if is_degenerate(rt):
        return OrbitReport((), (), (), True, FFamily.from_row(family[0]))
    if error:
        raise error
    values = tuple(complex(z) for z in centers[0])
    return OrbitReport(values, _PAIR_MAP, _FAMILY_MATCH, False, FFamily.from_row(family[0]))


def relation_rank(samples, rank_tol: float = RANK_TOL) -> RelationReport:
    """Numerical rank of the (N, 6) array of (f, f_0..f_4) sample rows.

    Needs at least 10 rows.  Rank counts singular values above
    ``rank_tol * sigma_1``; one thin SVD gives them in memory linear in N.
    For exact family rows the rank is 3: with phi = (1 + sqrt 5) / 2 the rows
    satisfy

        f  + phi f_2 -     f_3 + phi f_4 = 0
        f_0 -    f_2 + phi f_3 - phi f_4 = 0
        f_1 - phi f_2 + phi f_3 -     f_4 = 0
    """
    if len(samples) < 10:
        raise InvalidInputError(f"need at least 10 samples, got {len(samples)}")
    _, singular, _ = np.linalg.svd(np.asarray(samples, dtype=complex), full_matrices=False)
    top = float(singular[0])
    rank = int(np.sum(singular > rank_tol * top)) if top > 0.0 else 0
    return RelationReport(
        rank=rank,
        singular_values=tuple(float(s) for s in singular),
        integer_relations=None,
    )
