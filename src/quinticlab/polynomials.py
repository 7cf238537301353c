"""Complex monic polynomials: construction, root finding, power sums, and the
signed discriminant root.

All comparisons in this package are relative to ``max(1, magnitude)`` so the
same tolerances are meaningful across coefficient scales.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "MonicPoly",
    "as_root_tuple",
    "expand_roots",
    "poly_from_roots",
    "find_roots",
    "power_sums",
    "sqrt_discriminant",
    "is_degenerate",
    "DEGENERACY_FLOOR",
]

MAX_DEGREE = 12

# |sqrt(disc)| below DEGENERACY_FLOOR * scale**10 flags a root tuple as
# (near-)degenerate; scale**10 because the product has total degree 10.
DEGENERACY_FLOOR = 1e-8

_ROOT_FINDER_RESIDUAL = 1e-12


def _is_finite(z: complex) -> bool:
    return cmath.isfinite(complex(z))


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial; ``coeffs`` are the coefficients of z^(degree-1)..z^0.

    The leading coefficient is implicitly 1 and not stored.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise InvalidInputError("a monic polynomial needs degree >= 1")
        if len(coeffs) > MAX_DEGREE:
            raise InvalidInputError(f"degree {len(coeffs)} exceeds {MAX_DEGREE}")
        if not all(_is_finite(c) for c in coeffs):
            raise InvalidInputError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self) -> np.ndarray:
        """Coefficients including the leading 1, highest power first."""
        return np.concatenate([[1.0 + 0j], np.asarray(self.coeffs, dtype=complex)])


def as_root_tuple(roots: Sequence[complex]) -> tuple[complex, ...]:
    """Validate and normalize an ordered labeling of five roots.

    The ordering is semantically meaningful: every labeled value downstream is
    defined relative to it.  Repeated roots are allowed here; degeneracy is a
    separate check (:func:`is_degenerate`).
    """
    rt = tuple(complex(r) for r in roots)
    if len(rt) != 5:
        raise InvalidInputError(f"expected exactly 5 roots, got {len(rt)}")
    if not all(_is_finite(r) for r in rt):
        raise InvalidInputError("roots must be finite")
    return rt


def expand_roots(roots) -> list:
    """Coefficients z^(d-1)..z^0 of the monic prod_j (z - r_j), as a list.

    ``roots`` yields r_1..r_d in turn.  Each step multiplies by one more
    linear factor elementwise, so arrays of roots give arrays of coefficients.
    """
    coeffs = [1.0]
    for root in roots:
        coeffs.append(0.0)
        for k in range(len(coeffs) - 1, 0, -1):
            coeffs[k] -= root * coeffs[k - 1]
    return coeffs[1:]


def poly_from_roots(roots: Sequence[complex]) -> MonicPoly:
    """Expand prod(z - r_i): :func:`expand_roots` of one polynomial."""
    roots = [complex(r) for r in roots]
    if not roots:
        raise InvalidInputError("need at least one root")
    if len(roots) > MAX_DEGREE:
        raise InvalidInputError(f"more than {MAX_DEGREE} roots")
    return MonicPoly(tuple(complex(c[0]) for c in expand_roots(np.array(roots)[:, None])))


def find_roots(p: MonicPoly) -> list[complex]:
    """All roots, as the eigenvalues of the balanced companion matrix.

    ``numpy.roots`` computes them; they are backward stable in the
    coefficients.  One Newton step follows, kept for each root only where it
    lowers ``|p(z)|``.  Accepted when every residual satisfies
    ``|p(z)| <= 1e-12 * max(1, max|coeff|)``.  When a root's magnitude makes
    that bound tighter than evaluation roundoff (|p(z)| cannot beat
    ``eps * sum |c_j| |z|^j`` in doubles), the roundoff floor applies for that
    root instead.  Raises :class:`NumericFailureError` carrying the worst
    residual when a root fails that test or is not finite, and without one
    when the eigenvalue solver fails.
    """
    full = p.full_coeffs()
    try:
        z = np.roots(full)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"root finding: companion eigenvalues failed: {exc}") from exc
    with np.errstate(all="ignore"):
        pz = np.polyval(full, z)
        stepped = z - pz / np.polyval(np.polyder(full), z)
        resid, stepped_resid = np.abs(pz), np.abs(np.polyval(full, stepped))
        better = stepped_resid < resid  # False where the step is not finite
        z = np.where(better, stepped, z)
        resid = np.where(better, stepped_resid, resid)
        floor = 4.0 * np.finfo(float).eps * np.polyval(np.abs(full), np.abs(z))
    resid_tol = _ROOT_FINDER_RESIDUAL * max(1.0, float(np.max(np.abs(full))))
    worst = float(np.max(resid))
    if not np.all(np.isfinite(z)):
        raise NumericFailureError("root finding: non-finite roots", worst_residual=worst)
    if not np.all(resid <= np.maximum(resid_tol, floor)):
        raise NumericFailureError(
            f"root finding: residuals above tolerance "
            f"(worst residual {worst:.3e}, tolerance {resid_tol:.3e})",
            worst_residual=worst,
        )
    return [complex(v) for v in z]


def power_sums(values, k_max: int) -> list:
    """p_1..p_k_max with p_k = sum(v_i ** k), summed along the last axis."""
    if k_max < 1:
        raise InvalidInputError("k_max must be >= 1")
    vals = np.asarray(values, dtype=complex)
    out = []
    acc = np.ones_like(vals)
    for _ in range(k_max):
        acc = acc * vals
        out.append(np.sum(acc, axis=-1))
    return out


def _root_stack(roots) -> tuple[np.ndarray, bool]:
    one = not (isinstance(roots, np.ndarray) and roots.ndim == 2)
    stack = np.array([as_root_tuple(roots)]) if one else np.asarray(roots, dtype=complex)
    if stack.shape[1] != 5 or not np.isfinite(stack).all():
        raise InvalidInputError("expected rows of exactly 5 finite roots")
    return stack, one


def sqrt_discriminant(roots) -> complex | np.ndarray:
    """Signed square root of the discriminant: prod over i<j of (x_i - x_j).

    The sign is fixed by the labeling as given (no re-sorting); an odd
    relabeling negates the value, an even one preserves it.  Each row of an
    (N, 5) array gets its tuple's value, in Python's complex-product arithmetic.
    """
    stack, one = _root_stack(roots)
    re, im, out_re, out_im = stack.real.T, stack.imag.T, 1.0, 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            d_re, d_im = re[i] - re[j], im[i] - im[j]
            out_re, out_im = out_re * d_re - out_im * d_im, out_re * d_im + out_im * d_re
    return complex(out_re[0], out_im[0]) if one else np.stack([out_re, out_im], 1).view(complex)[:, 0]


def is_degenerate(roots) -> bool | np.ndarray:
    """True when the tuple has (near-)repeated roots by the |sqrt disc| floor.
    An (N, 5) array gives each row its own verdict: ``numpy.hypot`` is the libm
    hypot behind Python's complex ``abs``, and the tenth powers are Python's."""
    stack, one = _root_stack(roots)
    disc = sqrt_discriminant(stack)
    scale = np.maximum(1.0, np.hypot(stack.real, stack.imag).max(axis=1)).tolist()
    verdicts = np.hypot(disc.real, disc.imag) < DEGENERACY_FLOOR * np.array([s**10 for s in scale])
    return bool(verdicts[0]) if one else verdicts
