"""The symmetric group on five labels: enumeration, parity, root relabeling.

Action convention, fixed project-wide ("pull"):

    apply(p, rt)[i] = rt[p.image[i]]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Perm5",
    "identity",
    "all_s5",
    "all_a5",
    "apply",
    "S5_IMAGES",
    "S5_PARITY",
    "A5_IN_S5",
    "s5_index",
]


@dataclass(frozen=True)
class Perm5:
    """A permutation of {0..4}; ``image[i]`` is where position i reads from."""

    image: tuple[int, int, int, int, int]

    def __post_init__(self):
        image = tuple(int(i) for i in self.image)
        if sorted(image) != [0, 1, 2, 3, 4]:
            raise InvalidInputError(f"not a permutation of 0..4: {image}")
        object.__setattr__(self, "image", image)

    @property
    def parity(self) -> int:
        """+1 for even, -1 for odd, by inversion count."""
        inv = sum(
            1
            for i in range(5)
            for j in range(i + 1, 5)
            if self.image[i] > self.image[j]
        )
        return -1 if inv % 2 else 1


_IDENTITY = Perm5((0, 1, 2, 3, 4))
_S5 = tuple(Perm5(img) for img in itertools.permutations(range(5)))
_A5 = tuple(p for p in _S5 if p.parity == 1)

# Tables over the all_s5 order, for sweeps stored as arrays with one row per
# permutation: the image arrays, each row's parity (by inversion count), and
# the rows that form all_a5.
S5_IMAGES = np.array([p.image for p in _S5], dtype=np.int64)
_INVERSIONS = sum(S5_IMAGES[:, i] > S5_IMAGES[:, j] for i in range(5) for j in range(i + 1, 5))
S5_PARITY = 1 - 2 * (_INVERSIONS % 2)
A5_IN_S5 = np.flatnonzero(S5_PARITY == 1)
S5_IMAGES.setflags(write=False)
S5_PARITY.setflags(write=False)
A5_IN_S5.setflags(write=False)
# Image arrays read as base-5 numbers increase in the all_s5 order.
_PLACES = 5 ** np.arange(4, -1, -1)
_S5_CODES = S5_IMAGES @ _PLACES


def s5_index(images) -> np.ndarray:
    """Row of ``S5_IMAGES`` that holds each image array (the last axis)."""
    return np.searchsorted(_S5_CODES, np.asarray(images) @ _PLACES)


def identity() -> Perm5:
    return _IDENTITY


def all_s5() -> list[Perm5]:
    """All 120 permutations, lexicographic by image array."""
    return list(_S5)


def all_a5() -> list[Perm5]:
    """The 60 even permutations, in the all_s5 order."""
    return list(_A5)


def apply(p: Perm5, rt: Sequence):
    """Relabel a 5-tuple: position i of the result reads rt[p.image[i]]."""
    if len(rt) != 5:
        raise InvalidInputError("apply expects a 5-tuple")
    return tuple(rt[p.image[i]] for i in range(5))
