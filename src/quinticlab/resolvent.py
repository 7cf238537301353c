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
single family or the 120 relabelings of every sweep in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError, NumericFailureError
from .ffamily import A5_IN_S5, S5_IMAGES, S5_PARITY, FFamily, family_sweep, s5_index
from .polynomials import MonicPoly, as_root_tuple, expand_roots, is_degenerate, poly_from_roots

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
    "two_valuedness_rows",
]

# Rows of a sweep in S5_IMAGES order: the odd permutations, and for each row
# sigma the row of tau o sigma, where tau is the first odd permutation.
# tau o sigma has image sigma.image[tau.image].
_ODD = np.flatnonzero(S5_PARITY == -1)
_TAU_PARTNER = s5_index(S5_IMAGES[:, S5_IMAGES[_ODD[0]]])
_PAIRS = np.triu_indices(6, 1)


@dataclass(frozen=True)
class FitResiduals:
    """Relative mismatches of the three coefficients the fit does not use."""

    r4: float
    r2: float
    r0: float


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


def _fit_rows(coeffs) -> tuple[np.ndarray, ...]:
    """(a, b, c, r4, r2, r0) of sextic coefficients s5..s0, each an array.

    Fits (a, b, c) from s5, s3, s1; r4, r2, r0 are the mismatches of s4, s2,
    s0, each relative to max(1, |s_j|).
    """
    s5, s4, s3, s2, s1, s0 = coeffs
    a = s5 / 10.0
    b = (s3 - 60.0 * a**3) / 10.0
    c = (s1 - 26.0 * a**5 - 30.0 * a**2 * b) / 4.0
    r4 = np.abs(s4 - 35.0 * a**2) / np.maximum(1.0, np.abs(s4))
    r2 = np.abs(s2 - 55.0 * a**4 - 30.0 * a * b) / np.maximum(1.0, np.abs(s2))
    r0 = np.abs(s0 - 5.0 * a**6 - 10.0 * a**3 * b - 5.0 * b**2) / np.maximum(1.0, np.abs(s0))
    return a, b, c, r4, r2, r0


def _coeffs_at(rows: tuple[np.ndarray, ...], i) -> ResolventCoeffs:
    """Entry ``i`` of the :func:`_fit_rows` arrays."""
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
    return poly_from_roots(values * values)


def square_gap(values) -> np.ndarray:
    """Smallest relative gap between the six squared family values.

    Near-equal squares cluster the sextic's roots and inflate the fit's
    residual sensitivity; callers flag instances with a small gap instead of
    accepting them silently.  ``values`` is one family (f, f_0, ..., f_4) or
    a stack of them, shape (N, 6), with one gap per family.
    """
    squares = np.square(np.asarray(values, dtype=complex))
    gaps = np.abs(squares[..., _PAIRS[0]] - squares[..., _PAIRS[1]]).min(axis=-1)
    return gaps / np.maximum(1.0, np.abs(squares).max(axis=-1))


def fit_abc(sextic: MonicPoly) -> ResolventCoeffs:
    """Fit (a, b, c) from s5, s3, s1; report the s4, s2, s0 mismatches.

    Residuals are relative to max(1, |s_j|) per coefficient.  The form
    constrains six coefficients by three parameters, so small residuals are
    genuine verification, not a consequence of the fit.
    """
    if sextic.degree != 6:
        raise InvalidInputError(f"expected a sextic, got degree {sextic.degree}")
    return _coeffs_at(_fit_rows(np.asarray(sextic.coeffs, dtype=complex)[:, None]), 0)


def resolvent_form_residual(F, a, b, c):
    """|form value| relative to the largest term magnitude in the sum.

    This measures how completely the six terms cancel, which is the honest
    notion of "F satisfies the form" in floating point.  Arrays broadcast.
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
    total, scale = 0.0, 1.0
    for t in terms:
        total, scale = total + t, np.maximum(scale, np.abs(t))
    return np.abs(total) / scale


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


def _rel_dev(rows: np.ndarray, ref: np.ndarray, one, floor) -> np.ndarray:
    """Largest |rows - ref| relative to max(one, |ref|, floor), over each instance's rows."""
    return (np.abs(rows - ref) / np.maximum(np.maximum(one, np.abs(ref)), floor)).max(axis=1)


def two_valuedness_rows(sweeps: np.ndarray) -> tuple:
    """Two-valuedness of (a, b, c) for each sweep of an (N, 120, 6) stack.

    Row p of a sweep is the family of the tuple relabeled by row p of
    ``S5_IMAGES``; one fit covers all N * 120 rows.  Returns the fit arrays
    (a, b, c, r4, r2, r0) of shape (N, 120), column 0 the identity; the even,
    odd and pair-symmetric spreads (N,); and per sweep None or its error.
    A deviation counts relative to max(1, |reference|) but to no less than
    1e-6 S^k, S = max(1, max|f|^2): the fit computes a, b, c (degrees k = 1,
    3, 5 in the squares) from terms of size S^k, so they round by ~eps S^k.
    """
    fit = _fit_rows(expand_roots(f * f for f in np.moveaxis(sweeps, 2, 0)))
    scale = np.maximum(1.0, np.abs(sweeps).max(axis=(1, 2)) ** 2)[:, None]
    even = odd = sym = 0.0
    for k, v in zip((1, 3, 5), fit):  # spreads: maxima over a, b, c, in units of S^k (1 is S^-k)
        p, one = v / scale**k, scale**-k
        even = np.maximum(even, _rel_dev(p[:, A5_IN_S5], p[:, :1], one, 1e-6))  # identity first
        odd = np.maximum(odd, _rel_dev(p[:, _ODD], p[:, _ODD[:1]], one, 1e-6))
        # Symmetric functions of the unordered pair {p(sigma), p(tau o sigma)}
        # for a fixed odd tau must not depend on sigma; a product's floor is
        # the coefficient's times twice its largest magnitude.
        partner, size = p[:, _TAU_PARTNER], np.abs(p).max(axis=1, keepdims=True)
        for pair, unit, floor in ((p + partner, one, 1e-6), (p * partner, one**2, 2e-6 * size)):
            sym = np.maximum(sym, _rel_dev(pair, pair[:, :1], unit, floor))
    finite = np.logical_and.reduce([np.isfinite(p).all(axis=1) for p in fit[:3]])
    message = "fitted (a, b, c) are not finite"
    errors = [None if ok else NumericFailureError(message) for ok in finite]
    return fit, (even, odd, sym), errors


def two_valuedness_check(roots) -> TwoValuednessReport:
    """Two-valuedness of (a, b, c) for one tuple: :func:`two_valuedness_rows` of its sweep."""
    rt = as_root_tuple(roots)
    if is_degenerate(rt):
        raise DegenerateInstanceError("two-valuedness needs distinct roots")
    fit, spreads, (error,) = two_valuedness_rows(family_sweep(rt)[None])
    if error:
        raise error
    even_triple = tuple(complex(v[0, 0]) for v in fit[:3])
    odd_triple = tuple(complex(v[0, _ODD[0]]) for v in fit[:3])
    return TwoValuednessReport(even_triple, odd_triple, *(float(s[0]) for s in spreads),
                               fit=_coeffs_at(fit, (0, 0)))
