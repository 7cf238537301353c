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

from .clustering import DEDUP_TOL, class_values, first_occurrence
from .errors import DegenerateInstanceError, VerificationFailureError
from .ffamily import FFamily, family_sweep
from .permutations import A5_IN_S5, S5_IMAGES, S5_PARITY
from .polynomials import as_root_tuple, is_degenerate, poly_from_roots, power_sums

__all__ = [
    "PhiFamily",
    "PrincipalQuintic",
    "SuppressedCoeffs",
    "PowerSumCheck",
    "phi",
    "phi_values",
    "phi_values_from_sweep",
    "phi_quintic",
    "power_sum_check",
    "newton_bridge_gaps",
    "SUPPRESSED_TOL",
]

# Relative magnitude above which the structurally-zero quintic coefficients
# are treated as a failed verification rather than rounding noise.
SUPPRESSED_TOL = 1e-5


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


def phi(fam: FFamily) -> complex:
    """(f - f_0)(f_1 - f_4)(f_2 + f_3) for one family."""
    f, f0, f1, f2, f3, f4 = fam.values()
    return (f - f0) * (f1 - f4) * (f2 + f3)


def _phi_rows(fam_rows: np.ndarray) -> np.ndarray:
    return (
        (fam_rows[:, 0] - fam_rows[:, 1])
        * (fam_rows[:, 2] - fam_rows[:, 5])
        * (fam_rows[:, 3] + fam_rows[:, 4])
    )


# Phi is fixed by the even relabelings that keep the root at position 0, so its
# value at a sweep row depends only on that root and the row's parity: 5
# classes on the even rows and 10 on all rows.
_PHI_CLASS_A5 = first_occurrence(S5_IMAGES[A5_IN_S5, 0].tolist())
_PHI_CLASS_S5 = first_occurrence(zip(S5_IMAGES[:, 0].tolist(), S5_PARITY.tolist()))


def phi_values_from_sweep(sweep: np.ndarray, tol: float = DEDUP_TOL) -> PhiFamily:
    """:func:`phi_values` of a non-degenerate instance, read from its sweep.

    ``sweep`` is ``family_sweep(roots)``; its even rows give the five values
    and all 120 rows the count.  Which rows share a value is a constant table;
    the class gates of :func:`~quinticlab.clustering.class_values` decide
    whether the instance shows those 5 and 10 distinct values.
    """
    phis = _phi_rows(sweep)
    return PhiFamily(
        values=class_values(phis[A5_IN_S5], _PHI_CLASS_A5, tol).centers,
        s5_value_count=class_values(phis, _PHI_CLASS_S5, tol).count,
    )


def phi_values(roots, tol: float = DEDUP_TOL) -> PhiFamily:
    """The product over all even relabelings, deduplicated to its 5 values.

    Also counts the distinct values over all 120 relabelings (generically 10).
    Raises :class:`DegenerateInstanceError` for (near-)repeated roots.
    """
    rt = as_root_tuple(roots)
    if is_degenerate(rt):
        raise DegenerateInstanceError("product values need distinct roots")
    return phi_values_from_sweep(family_sweep(rt), tol)


def _coeff_scales(values) -> list[float]:
    s = max(1.0, max(abs(v) for v in values))
    return [max(1.0, s ** (k + 1)) for k in range(5)]


def phi_quintic(pf: PhiFamily) -> PrincipalQuintic:
    """Monic quintic through the five values, checked for principal form.

    Records the relative magnitudes of the z^4 and z^2 coefficients and fails
    (raises :class:`VerificationFailureError`) when either exceeds
    ``SUPPRESSED_TOL``; otherwise returns p, q, r of z^5 + p z^3 + q z + r.
    """
    quintic = poly_from_roots(pf.values)
    c4, c3, c2, c1, c0 = quintic.coeffs
    scales = _coeff_scales(pf.values)
    c4_mag = abs(c4) / scales[0]
    c2_mag = abs(c2) / scales[2]
    suppressed = SuppressedCoeffs(c4_mag=c4_mag, c2_mag=c2_mag)
    if c4_mag > SUPPRESSED_TOL or c2_mag > SUPPRESSED_TOL:
        raise VerificationFailureError(
            f"z^4 and z^2 coefficients failed to vanish: "
            f"|c4| = {c4_mag:.3e}, |c2| = {c2_mag:.3e} relative"
        )
    return PrincipalQuintic(p=c3, q=c1, r=c0, suppressed=suppressed, c4=c4, c2=c2)


def power_sum_check(pf: PhiFamily) -> PowerSumCheck:
    """Relative magnitudes of sum, cube sum, and square sum of the values.

    The first two vanish identically; the square sum is a control that is
    generically far from zero, confirming the test has teeth.
    """
    p1, p2, p3 = power_sums(pf.values, 3)
    s = max(1.0, max(abs(v) for v in pf.values))
    return PowerSumCheck(
        p1=abs(p1) / s,
        p3=abs(p3) / s**3,
        p2_magnitude=abs(p2) / s**2,
    )


def newton_bridge_gaps(pf: PhiFamily, quintic: PrincipalQuintic) -> tuple[float, float]:
    """Agreement between the coefficient route and the power-sum route.

    ``quintic`` is ``phi_quintic(pf)``.  Its z^4 coefficient equals
    -e1 = -p1, and (once e1 vanishes) its z^2 coefficient equals
    -e3 = -p3/3.  Returns the two relative gaps between the
    polynomial-expansion coefficients and the power-sum reconstructions.
    """
    p1, p2, p3 = power_sums(pf.values, 3)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    scales = _coeff_scales(pf.values)
    gap4 = abs(quintic.c4 - (-e1)) / scales[0]
    gap2 = abs(quintic.c2 - (-e3)) / scales[2]
    return (gap4, gap2)
