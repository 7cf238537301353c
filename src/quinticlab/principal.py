"""The triple product of family differences and its principal-form quintic.

The product

    Phi = (f - f_0) * (f_1 - f_4) * (f_2 + f_3)

is homogeneous of degree 15 in the roots, takes exactly 5 values under even
relabelings and 10 under all relabelings, and its five even-orbit values are
the roots of a quintic whose z^4 and z^2 coefficients vanish, i.e. a
principal-form quintic z^5 + p z^3 + q z + r.  Equivalently the value sum and
the sum of third powers vanish identically.

Sign normalization: the family members are only determined up to sign by the
twelve-value orbit structure, and the product's value count depends on the
choice.  With the sign convention produced by the family formulas, the variant
using (f_2 - f_3) in the third factor is sixty-valued; flipping the sign of
f_3 in that factor (as above) is the normalization that yields the 10/5-valued
structure and the vanishing coefficients.  The tests pin both facts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import DEDUP_TOL, class_gate, first_occurrence
from .errors import DegenerateInstanceError, InvalidInputError
from .ffamily import A5_IN_S5, S5_IMAGES, S5_PARITY, family_sweep
from .polynomials import as_root_tuple, expand_roots, is_degenerate, power_sums

__all__ = [
    "PhiFamily",
    "PrincipalQuintic",
    "SuppressedCoeffs",
    "PowerSumCheck",
    "phi_values",
    "product_values",
    "phi_quintic",
    "quintic_rows",
    "power_sum_check",
    "power_sum_rows",
    "newton_gap_rows",
]


@dataclass(frozen=True)
class PhiFamily:
    """The five product values under even relabelings, plus the count seen
    under all 120 relabelings (10 for generic input)."""

    values: tuple[complex, complex, complex, complex, complex]
    s5_value_count: int


@dataclass(frozen=True)
class SuppressedCoeffs:
    """Relative magnitudes of the z^4 and z^2 coefficients that must vanish.

    c4 is scaled by max(1, max|Phi|), c2 by max(1, max|Phi|^3): each
    coefficient is an elementary symmetric function of that degree in the
    five values, so that is its natural magnitude.
    """

    c4_mag: float
    c2_mag: float


@dataclass(frozen=True)
class PrincipalQuintic:
    """Coefficients of z^5 + p z^3 + q z + r through the five product values.

    ``c4`` and ``c2`` are the expanded z^4 and z^2 coefficients, zero up to
    rounding; ``suppressed`` holds their relative magnitudes.
    """

    p: complex
    q: complex
    r: complex
    suppressed: SuppressedCoeffs
    c4: complex
    c2: complex


@dataclass(frozen=True)
class PowerSumCheck:
    """Relative magnitudes of the value sum, cube sum, and (control) square sum."""

    p1: float
    p3: float
    p2_magnitude: float


def _phi_rows(fam_rows: np.ndarray) -> np.ndarray:
    """(f - f_0)(f_1 - f_4)(f_2 + f_3) of each family row (f, f_0, ..., f_4)."""
    return (
        (fam_rows[..., 0] - fam_rows[..., 1])
        * (fam_rows[..., 2] - fam_rows[..., 5])
        * (fam_rows[..., 3] + fam_rows[..., 4])
    )


# Phi is fixed by the even relabelings that keep the root at position 0, so its
# value at a sweep row depends only on that root and the row's parity: 5
# classes on the even rows and 10 on all rows.
_PHI_CLASS_A5 = first_occurrence(S5_IMAGES[A5_IN_S5, 0].tolist())
_PHI_CLASS_S5 = first_occurrence(zip(S5_IMAGES[:, 0].tolist(), S5_PARITY.tolist()))


def product_values(sweeps: np.ndarray, tol: float = DEDUP_TOL) -> tuple:
    """The five product values of each sweep of an (N, 120, 6) stack.

    Which sweep rows share a value is a constant table; the class gates of
    :func:`~quinticlab.clustering.class_gate` decide whether the instance shows
    5 values on the even rows and 10 on all rows.  Returns the values (N, 5)
    and per sweep None or the error of the first gate that rejects it.
    """
    phis = _phi_rows(sweeps)
    five, _, errors = class_gate(phis[:, A5_IN_S5], _PHI_CLASS_A5, tol)
    *_, ten = class_gate(phis, _PHI_CLASS_S5, tol)
    return five, [e or f for e, f in zip(errors, ten)]


def phi_values(roots, tol: float = DEDUP_TOL) -> PhiFamily:
    """The product over all even relabelings, deduplicated to its 5 values.

    Also counts the distinct values over all 120 relabelings (generically 10).
    Raises :class:`DegenerateInstanceError` for (near-)repeated roots.  This
    is :func:`product_values` of the tuple's sweep.
    """
    rt = as_root_tuple(roots)
    if is_degenerate(rt):
        raise DegenerateInstanceError("product values need distinct roots")
    values, (error,) = product_values(family_sweep(rt)[None], tol)
    if error:
        raise error
    return PhiFamily(values=tuple(complex(v) for v in values[0]), s5_value_count=10)


def _coeff_scales(values: np.ndarray) -> np.ndarray:
    """max(1, max|Phi|)^k for k = 1, 2, 3, one row per row of values."""
    return np.maximum(1.0, np.abs(values).max(axis=-1))[..., None] ** np.arange(1, 4)


def quintic_rows(values: np.ndarray) -> tuple:
    """:func:`phi_quintic` of each row of five product values, shape (N, 5).

    Returns the coefficients c4..c0 (N, 5), the relative magnitudes of c4 and
    c2, and per row None or the error of non-finite coefficients.  How small
    the magnitudes must be is ``verify.CRITERIA``'s to say.
    """
    coeffs = np.stack(expand_roots(values.T), axis=1)
    scales = _coeff_scales(values)
    c4_mag = np.abs(coeffs[:, 0]) / scales[:, 0]
    c2_mag = np.abs(coeffs[:, 2]) / scales[:, 2]
    errors = [None] * len(values)
    for i in np.flatnonzero(~np.isfinite(coeffs).all(axis=1)):
        errors[i] = InvalidInputError("polynomial coefficients must be finite")
    return coeffs, (c4_mag, c2_mag), errors


def phi_quintic(pf: PhiFamily) -> PrincipalQuintic:
    """Monic quintic through the five values, read as principal form.

    Returns p, q, r of z^5 + p z^3 + q z + r with the z^4 and z^2
    coefficients and their relative magnitudes, which vanish for product
    values; the caller judges them.  This is :func:`quintic_rows` of one row.
    """
    coeffs, (c4_mag, c2_mag), (error,) = quintic_rows(np.array([pf.values], dtype=complex))
    if error:
        raise error
    c4, c3, c2, c1, c0 = (complex(c) for c in coeffs[0])
    suppressed = SuppressedCoeffs(c4_mag=float(c4_mag[0]), c2_mag=float(c2_mag[0]))
    return PrincipalQuintic(p=c3, q=c1, r=c0, suppressed=suppressed, c4=c4, c2=c2)


def power_sum_rows(values: np.ndarray) -> tuple:
    """(p1, p3, p2_magnitude) of :func:`power_sum_check` for each row of values."""
    p1, p2, p3 = power_sums(values, 3)
    s = _coeff_scales(values)
    return np.abs(p1) / s[..., 0], np.abs(p3) / s[..., 2], np.abs(p2) / s[..., 1]


def power_sum_check(pf: PhiFamily) -> PowerSumCheck:
    """Relative magnitudes of sum, cube sum, and square sum of the values.

    The first two vanish identically; the square sum is a control that is
    generically far from zero, confirming the test has teeth.
    """
    return PowerSumCheck(*(float(v) for v in power_sum_rows(np.asarray(pf.values, dtype=complex))))


def newton_gap_rows(values: np.ndarray, coeffs: np.ndarray) -> tuple:
    """Agreement between the coefficient route and the power-sum route.

    ``coeffs`` are c4..c0 of :func:`quintic_rows` of ``values``.  c4 equals
    -e1 = -p1 and, once e1 vanishes, c2 equals -e3 = -p3/3.  Returns the two
    relative gaps to the power-sum reconstructions, one entry per row.
    """
    p1, p2, p3 = power_sums(values, 3)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    scales = _coeff_scales(values)
    gap4 = np.abs(coeffs[..., 0] - (-e1)) / scales[..., 0]
    gap2 = np.abs(coeffs[..., 2] - (-e3)) / scales[..., 2]
    return gap4, gap2
