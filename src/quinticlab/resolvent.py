"""The sextic satisfied by the squared family values, the three-parameter
resolvent form that over-determines it, and the two-valuedness of the fitted
coefficients.

Writing the monic sextic in F as F^6 + s5 F^5 + ... + s0, the resolvent form
with parameters (a, b, c), expanded in G = F + a as

    G^6 + 4a G^5 + 10b G^3 + 4c G - 4ac + 5b^2,

has F-coefficients

    s5 = 10 a                    s4 = 35 a^2
    s3 = 60 a^3 + 10 b           s2 = 55 a^4 + 30 a b
    s1 = 26 a^5 + 30 a^2 b + 4c  s0 = 5 a^6 + 10 a^3 b + 5 b^2

(derived by binomial expansion; note s0 is independent of c).  The expansion
is triangular in (a, b, c): fitting uses s5, s3, s1 and the remaining three
coefficients become genuine verification residuals.

Sextic expansion and fit are array operations over rows, so one call covers a
single family or all 120 relabelings of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError, NumericFailureError
from .ffamily import A5_IN_S5, S5_IMAGES, S5_PARITY, FFamily, family_sweep, s5_index
from .polynomials import MonicPoly, as_root_tuple, is_degenerate

__all__ = [
    "FitResiduals",
    "ResolventCoeffs",
    "TwoValuednessReport",
    "sextic_from_family",
    "square_gap",
    "fit_abc",
    "resolvent_form_residual",
    "degree12_poly",
    "two_valuedness_check",
    "two_valuedness_from_sweep",
]

# Rows of a sweep in S5_IMAGES order: the odd permutations, and for each row
# sigma the row of tau o sigma, where tau is the first odd permutation.
# tau o sigma has image sigma.image[tau.image].
_ODD = np.flatnonzero(S5_PARITY == -1)
_TAU_PARTNER = s5_index(S5_IMAGES[:, S5_IMAGES[_ODD[0]]])


@dataclass(frozen=True)
class FitResiduals:
    """Relative mismatches of the three coefficients the fit does not use."""

    r4: float
    r2: float
    r0: float

    def worst(self) -> float:
        return max(self.r4, self.r2, self.r0)


@dataclass(frozen=True)
class ResolventCoeffs:
    a: complex
    b: complex
    c: complex
    residuals: FitResiduals


@dataclass(frozen=True)
class TwoValuednessReport:
    """(a, b, c) swept over all 120 relabelings, grouped by parity.

    ``even_triple`` is the reference from the identity labeling; all even
    relabelings must reproduce it (spread = max relative deviation), all odd
    ones must agree on ``odd_triple``.  ``pair_symmetric_spread`` checks that
    the symmetric combinations (a + a', a*a', ...) of the unordered triple
    pair are invariant under every relabeling of either parity.  ``fit`` is
    the identity labeling's fit with its residuals, equal to
    ``fit_abc(sextic_from_family(...))`` of that family.
    """

    even_triple: tuple[complex, complex, complex]
    odd_triple: tuple[complex, complex, complex]
    even_spread: float
    odd_spread: float
    pair_symmetric_spread: float
    fit: ResolventCoeffs


def _sextic_rows(squares: np.ndarray) -> np.ndarray:
    """Coefficients s5..s0 of prod_j (F - squares[:, j]), one row per row.

    Expands column by column: each step multiplies every row's polynomial by
    one more linear factor.
    """
    coeffs = np.zeros((squares.shape[0], 7), dtype=complex)
    coeffs[:, 0] = 1.0
    for root in squares.T:
        coeffs[:, 1:] = coeffs[:, 1:] - root[:, None] * coeffs[:, :-1]
    return coeffs[:, 1:]


def _fit_rows(coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """(a, b, c, r4, r2, r0) for every row of sextic coefficients s5..s0.

    Fits (a, b, c) from s5, s3, s1; r4, r2, r0 are the mismatches of s4, s2,
    s0, each relative to max(1, |s_j|).
    """
    s5, s4, s3, s2, s1, s0 = coeffs.T
    a = s5 / 10.0
    b = (s3 - 60.0 * a**3) / 10.0
    c = (s1 - 26.0 * a**5 - 30.0 * a**2 * b) / 4.0
    r4 = np.abs(s4 - 35.0 * a**2) / np.maximum(1.0, np.abs(s4))
    r2 = np.abs(s2 - 55.0 * a**4 - 30.0 * a * b) / np.maximum(1.0, np.abs(s2))
    r0 = np.abs(s0 - 5.0 * a**6 - 10.0 * a**3 * b - 5.0 * b**2) / np.maximum(1.0, np.abs(s0))
    return a, b, c, r4, r2, r0


def _coeffs_at(rows: tuple[np.ndarray, ...], i: int) -> ResolventCoeffs:
    """Row ``i`` of the :func:`_fit_rows` arrays."""
    a, b, c, r4, r2, r0 = (v[i] for v in rows)
    return ResolventCoeffs(
        a=complex(a),
        b=complex(b),
        c=complex(c),
        residuals=FitResiduals(r4=float(r4), r2=float(r2), r0=float(r0)),
    )


def sextic_from_family(fam: FFamily) -> MonicPoly:
    """Monic degree-6 polynomial with the six squared family values as roots."""
    values = np.asarray(fam.values(), dtype=complex)
    return MonicPoly(tuple(_sextic_rows((values * values)[None, :])[0]))


def square_gap(fam: FFamily) -> float:
    """Smallest relative gap between the six squared family values.

    Near-equal squares cluster the sextic's roots and inflate the fit's
    residual sensitivity; callers flag instances with a small gap instead of
    accepting them silently.
    """
    squares = [v * v for v in fam.values()]
    scale = max(1.0, max(abs(s) for s in squares))
    gaps = [
        abs(squares[i] - squares[j])
        for i in range(6)
        for j in range(i + 1, 6)
    ]
    return min(gaps) / scale


def fit_abc(sextic: MonicPoly) -> ResolventCoeffs:
    """Fit (a, b, c) from s5, s3, s1; report the s4, s2, s0 mismatches.

    Residuals are relative to max(1, |s_j|) per coefficient.  The form
    constrains six coefficients by three parameters, so small residuals are
    genuine verification, not a consequence of the fit.
    """
    if sextic.degree != 6:
        raise InvalidInputError(f"expected a sextic, got degree {sextic.degree}")
    return _coeffs_at(_fit_rows(np.asarray(sextic.coeffs, dtype=complex)[None, :]), 0)


def resolvent_form_residual(F: complex, a: complex, b: complex, c: complex) -> float:
    """|form value| relative to the largest term magnitude in the sum.

    This measures how completely the six terms cancel, which is the honest
    notion of "F satisfies the form" in floating point.
    """
    G = F + a
    terms = (
        G**6,
        4.0 * a * G**5,
        10.0 * b * G**3,
        4.0 * c * G,
        -4.0 * a * c,
        5.0 * b**2,
    )
    scale = max(1.0, max(abs(t) for t in terms))
    return abs(sum(terms)) / scale


def degree12_poly(coeffs: ResolventCoeffs) -> MonicPoly:
    """The monic degree-12 polynomial in f obtained by substituting F = f^2.

    Built from the expansion identities at the fitted (a, b, c), so all
    odd-degree coefficients are exactly zero.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    t = [
        1.0 + 0j,  # F^6
        10.0 * a,
        35.0 * a**2,
        60.0 * a**3 + 10.0 * b,
        55.0 * a**4 + 30.0 * a * b,
        26.0 * a**5 + 30.0 * a**2 * b + 4.0 * c,
        5.0 * a**6 + 10.0 * a**3 * b + 5.0 * b**2,
    ]
    out = [0j] * 12  # coefficients of f^11 .. f^0
    for power_f in range(0, 12, 2):
        out[11 - power_f] = t[6 - power_f // 2]
    return MonicPoly(tuple(out))


def _rel_dev(rows: np.ndarray, ref: np.ndarray) -> float:
    """Largest |rows - ref| relative to max(1, |ref|), over all entries."""
    return float((np.abs(rows - ref) / np.maximum(1.0, np.abs(ref))).max())


def two_valuedness_from_sweep(sweep: np.ndarray) -> TwoValuednessReport:
    """Two-valuedness of (a, b, c), read from a sweep over all relabelings.

    ``sweep`` is ``family_sweep(roots)``, shape (120, 6):
    row p is the family of the tuple relabeled by row p of ``S5_IMAGES``.
    """
    rows = _fit_rows(_sextic_rows(sweep * sweep))
    triples = np.stack(rows[:3], axis=1)
    if not np.isfinite(triples).all():
        raise NumericFailureError("fitted (a, b, c) are not finite")
    even_ref = triples[0]  # the identity comes first in S5_IMAGES order
    odd_ref = triples[_ODD[0]]

    # Symmetric functions of the unordered pair {triple(sigma), triple(tau o sigma)}
    # for a fixed odd tau must not depend on sigma at all.
    partners = triples[_TAU_PARTNER]
    sym = np.concatenate([triples + partners, triples * partners], axis=1)

    return TwoValuednessReport(
        even_triple=tuple(complex(v) for v in even_ref),
        odd_triple=tuple(complex(v) for v in odd_ref),
        even_spread=_rel_dev(triples[A5_IN_S5], even_ref),
        odd_spread=_rel_dev(triples[_ODD], odd_ref),
        pair_symmetric_spread=_rel_dev(sym, sym[0]),
        fit=_coeffs_at(rows, 0),
    )


def two_valuedness_check(roots) -> TwoValuednessReport:
    """Sweep (a, b, c) over all 120 relabelings and verify two-valuedness."""
    rt = as_root_tuple(roots)
    if is_degenerate(rt):
        raise DegenerateInstanceError("two-valuedness needs distinct roots")
    return two_valuedness_from_sweep(family_sweep(rt))
