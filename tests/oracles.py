"""Independent high-precision oracles, and loop references for array code.

The oracles reimplement the checked quantities directly from their defining
sums at 50 significant digits with mpmath, sharing no code or index tables
with the package.  Tests compare library output against these, or against
values frozen from them.

The loop references compute in double precision, one permutation at a time,
what the package computes as array reductions; they take the package's family
sweep as input.
"""

import itertools

import mpmath as mp
import numpy as np

DPS = 50


def f_oracle(roots) -> complex:
    """Direct 20-term summation of the sine-weighted form."""
    with mp.workdps(DPS):
        xs = [mp.mpc(z) for z in roots]
        total = mp.mpc(0)
        for m in range(5):
            for n in range(1, 5):
                w = mp.sin(2 * mp.pi * n / 5)
                total += w * xs[m] * xs[(m + n) % 5] ** 2 * xs[(m + 2 * n) % 5] ** 2
        return complex(total)


def _family_mp(xs):
    def f_mp(ys):
        total = mp.mpc(0)
        for m in range(5):
            for n in range(1, 5):
                total += (
                    mp.sin(2 * mp.pi * n / 5)
                    * ys[m]
                    * ys[(m + n) % 5] ** 2
                    * ys[(m + 2 * n) % 5] ** 2
                )
        return total

    out = [f_mp(xs)]
    for k in range(5):
        pattern = [k % 5, (k + 3) % 5, (k + 4) % 5, (k + 1) % 5, (k + 2) % 5]
        out.append(f_mp([xs[i] for i in pattern]))
    return out


def family_oracle(roots) -> list[complex]:
    """(f, f_0..f_4) by direct summation at high precision."""
    with mp.workdps(DPS):
        xs = [mp.mpc(z) for z in roots]
        return [complex(v) for v in _family_mp(xs)]


def phi_oracle(roots) -> complex:
    """(f - f_0)(f_1 - f_4)(f_2 + f_3) computed entirely at high precision."""
    with mp.workdps(DPS):
        xs = [mp.mpc(z) for z in roots]
        f, f0, f1, f2, f3, f4 = _family_mp(xs)
        return complex((f - f0) * (f1 - f4) * (f2 + f3))


GOLDEN_RATIO = (1 + np.sqrt(5)) / 2


def golden_relations(phi: float = GOLDEN_RATIO) -> np.ndarray:
    """Coefficient rows of the three relations among (f, f_0..f_4):

        f  + phi f_2 -     f_3 + phi f_4 = 0
        f_0 -    f_2 + phi f_3 - phi f_4 = 0
        f_1 - phi f_2 + phi f_3 -     f_4 = 0

    The rows are in reduced row echelon form.  ``phi`` is a parameter so that
    a negative control can substitute a wrong value.
    """
    return np.array(
        [
            [1.0, 0.0, 0.0, phi, -1.0, phi],
            [0.0, 1.0, 0.0, -1.0, phi, -phi],
            [0.0, 0.0, 1.0, -phi, phi, -1.0],
        ]
    )


def newton_elementary_from_power_sums(psums) -> list[complex]:
    """e_1..e_n reconstructed from p_1..p_n via the Newton recurrence

        k * e_k = sum_{i=1..k} (-1)^(i-1) * e_{k-i} * p_i .
    """
    e = [1.0 + 0j]
    for k in range(1, len(psums) + 1):
        acc = 0j
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * psums[i - 1]
        e.append(acc / k)
    return e[1:]


def _parity(image) -> int:
    inversions = sum(
        1 for i in range(5) for j in range(i + 1, 5) if image[i] > image[j]
    )
    return -1 if inversions % 2 else 1


def _triple_from_family_row(row) -> tuple[complex, complex, complex]:
    coeffs = np.array([1.0 + 0j])
    for v in row:
        coeffs = np.convolve(coeffs, np.array([1.0 + 0j, -complex(v) ** 2]))
    s5, _, s3, _, s1, _ = (complex(c) for c in coeffs[1:])
    a = s5 / 10.0
    b = (s3 - 60.0 * a**3) / 10.0
    c = (s1 - 26.0 * a**5 - 30.0 * a**2 * b) / 4.0
    return (a, b, c)


def _rel_dev(t, ref) -> float:
    return max(abs(x - r) / max(1.0, abs(r)) for x, r in zip(t, ref))


def two_valuedness_reference(sweep) -> dict:
    """Two-valuedness of (a, b, c) by a loop over the 120 relabelings.

    ``sweep`` holds one family row per permutation of 0..4 in lexicographic
    order, identity first.  Returns the reference triples and the three
    spreads, as the package's report names them.
    """
    images = list(itertools.permutations(range(5)))
    triples = [_triple_from_family_row(row) for row in sweep]

    even_idx = [i for i, img in enumerate(images) if _parity(img) == 1]
    odd_idx = [i for i, img in enumerate(images) if _parity(img) == -1]
    even_ref = triples[0]
    odd_ref = triples[odd_idx[0]]

    # Pair each relabeling sigma with tau o sigma for the first odd tau; the
    # composite reads position i from sigma.image[tau.image[i]].
    index_of = {img: i for i, img in enumerate(images)}
    tau = images[odd_idx[0]]

    def sym_vector(i: int) -> tuple[complex, ...]:
        j = index_of[tuple(images[i][tau[k]] for k in range(5))]
        out = []
        for x, y in zip(triples[i], triples[j]):
            out.append(x + y)
            out.append(x * y)
        return tuple(out)

    sym_ref = sym_vector(0)
    return {
        "even_triple": even_ref,
        "odd_triple": odd_ref,
        "even_spread": max(_rel_dev(triples[i], even_ref) for i in even_idx),
        "odd_spread": max(_rel_dev(triples[i], odd_ref) for i in odd_idx),
        "pair_symmetric_spread": max(
            _rel_dev(sym_vector(i), sym_ref) for i in range(len(images))
        ),
    }
