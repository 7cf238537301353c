"""Seeded instance generation and input-source handling.

Instances are sampled as root tuples (not coefficient vectors): permutation
claims act on root labels directly, and sampling roots keeps conditioning
uniform.  Roots are drawn uniformly (by area) from the annulus
0.5 <= |z| <= 1.5, rejecting tuples with any pairwise distance below 1e-2
and rejecting degenerate tuples (:func:`~quinticlab.polynomials.is_degenerate`),
so every generated instance is one that the checks do not skip.
The per-instance stream is derived from (seed, index) alone, so identical
arguments give bitwise-identical tuples regardless of scheduling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .polynomials import MonicPoly, as_root_tuple, find_roots, is_degenerate

__all__ = [
    "random_instance",
    "InstanceSpec",
    "load_instance_file",
    "complex_to_pair",
    "SEPARATION_MIN",
]

SEPARATION_MIN = 1e-2
_MAX_DRAWS = 10000

_R2_LO = 0.25  # 0.5**2
_R2_HI = 2.25  # 1.5**2


def random_instance(seed: int, index: int) -> tuple[complex, ...]:
    """Five annulus roots with pairwise separation >= 1e-2, from (seed, index).

    Draws that :func:`is_degenerate` flags are rejected like close pairs.
    """
    if seed < 0 or seed >= 2**64:
        raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
    if index < 0:
        raise InvalidInputError("index must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    for _ in range(_MAX_DRAWS):
        radius = np.sqrt(rng.uniform(_R2_LO, _R2_HI, size=5))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=5)
        roots = radius * np.exp(1j * theta)
        gaps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gaps, np.inf)
        if float(gaps.min()) >= SEPARATION_MIN:
            rt = tuple(complex(z) for z in roots)
            if not is_degenerate(rt):
                return rt
    raise RuntimeError("annulus rejection sampling failed to terminate")


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_to_complex(pair) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    ):
        raise InvalidInputError(f"expected a [re, im] number pair, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


@dataclass(frozen=True)
class InstanceSpec:
    """Exactly one source of a quintic instance.

    Either five explicit roots, five explicit monic-quintic coefficients
    (z^4..z^0), or a (seed, index) pair for the generator.
    """

    roots: tuple[complex, ...] | None = None
    coefficients: tuple[complex, ...] | None = None
    seed: int | None = None
    index: int = 0

    def __post_init__(self):
        sources = sum(
            x is not None for x in (self.roots, self.coefficients, self.seed)
        )
        if sources != 1:
            raise InvalidInputError(
                "exactly one of roots, coefficients, or seed must be given"
            )

    def root_tuple(self) -> tuple[complex, ...]:
        """Resolve the spec to an ordered root tuple.

        Coefficient input is solved by :func:`find_roots` (companion-matrix
        eigenvalues); the recovered roots are sorted by (real, imag) so the
        labeling is reproducible.
        """
        if self.roots is not None:
            return as_root_tuple(self.roots)
        if self.coefficients is not None:
            coeffs = tuple(complex(c) for c in self.coefficients)
            if len(coeffs) != 5:
                raise InvalidInputError("a monic quintic needs 5 coefficients")
            roots = find_roots(MonicPoly(coeffs))
            return as_root_tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
        return random_instance(self.seed, self.index)


def load_instance_file(path) -> InstanceSpec:
    """Parse a JSON instance file: {"roots": [[re,im] x5]} or
    {"coefficients": [[re,im] x5]} (monic quintic, z^4..z^0)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError("instance file must hold a JSON object")
    has_roots = "roots" in payload
    has_coeffs = "coefficients" in payload
    if has_roots == has_coeffs:
        raise InvalidInputError(
            'instance file needs exactly one of "roots" or "coefficients"'
        )
    key = "roots" if has_roots else "coefficients"
    entries = payload[key]
    if not isinstance(entries, list) or len(entries) != 5:
        raise InvalidInputError(f'"{key}" must list exactly 5 [re, im] pairs')
    values = tuple(_pair_to_complex(e) for e in entries)
    if has_roots:
        return InstanceSpec(roots=values)
    return InstanceSpec(coefficients=values)
