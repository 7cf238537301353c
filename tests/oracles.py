"""Independent high-precision oracles, and loop references for array code.

The oracles reimplement the checked quantities directly from their defining
sums at 50 significant digits with mpmath, sharing no code or index tables
with the package.  Tests compare library output against these, or against
values frozen from them.

The loop references compute in double precision, one permutation at a time,
what the package computes as array reductions; they take the package's family
sweep as input.

The helpers at the end (permutation algebra, polynomial evaluation, the
resolvent form, and the invariance of the product values' quintic) are
double-precision checks that only the tests use, built on package types.

The clustering references count the orbit and product values by searching for
the clusters with ``cluster_values``, as the package did before it read the
classes off constant tables; the tests require both paths to agree.
"""

import itertools

import mpmath as mp
import numpy as np

from quinticlab import (
    DegenerateInstanceError,
    InvalidInputError,
    MonicPoly,
    NumericFailureError,
    Perm5,
    phi_values,
)
from quinticlab.clustering import DEDUP_TOL, DEDUP_TOL_FLOOR, cluster_values
from quinticlab.ffamily import FFamily, OrbitReport
from quinticlab.kernels import eval_f_rows
from quinticlab.permutations import A5_IN_S5, all_a5, all_s5, apply
from quinticlab.polynomials import as_root_tuple, is_degenerate, poly_from_roots
from quinticlab.principal import PhiFamily, _coeff_scales, _phi_rows

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


def cycle_lengths(p: Perm5) -> tuple[int, ...]:
    seen = [False] * 5
    lengths = []
    for start in range(5):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p.image[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def three_cycles() -> list[Perm5]:
    """The 20 permutations cycling exactly 3 labels and fixing 2."""
    return [p for p in all_s5() if cycle_lengths(p) == (1, 1, 3)]


def compose(p: Perm5, q: Perm5) -> Perm5:
    """Composition matching apply: apply(compose(p, q), rt) = apply(p, apply(q, rt))."""
    return Perm5(tuple(q.image[p.image[i]] for i in range(5)))


def inverse(p: Perm5) -> Perm5:
    img = [0] * 5
    for i, j in enumerate(p.image):
        img[j] = i
    return Perm5(tuple(img))


def eval_poly(p: MonicPoly, z: complex) -> complex:
    """Horner evaluation of the monic polynomial at z."""
    acc = 1.0 + 0j
    for c in p.coeffs:
        acc = acc * z + c
    return acc


def elementary_symmetric(values) -> list[complex]:
    """e_1..e_n of the given values, by incremental expansion of prod(1 + v t)."""
    vals = [complex(v) for v in values]
    if not vals:
        raise InvalidInputError("need at least one value")
    e = [1.0 + 0j] + [0j] * len(vals)
    for i, v in enumerate(vals, start=1):
        for j in range(i, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[1:]


def eval_resolvent_form(F: complex, a: complex, b: complex, c: complex) -> complex:
    """Direct evaluation of the resolvent form at F, via G = F + a."""
    G = F + a
    return G**6 + 4.0 * a * G**5 + 10.0 * b * G**3 + 4.0 * c * G - 4.0 * a * c + 5.0 * b**2


def _phi_a5_values(roots, tol: float) -> tuple[complex, ...]:
    return phi_values(roots, tol).values


def phi_coeff_vector(roots, tol: float = DEDUP_TOL) -> tuple[complex, ...]:
    """Monic-quintic coefficient vector (z^4..z^0) of the five product values.

    Values are canonically ordered before expansion, so the vector is a
    label-free function of the value set.
    """
    values = sorted(_phi_a5_values(as_root_tuple(roots), tol), key=lambda z: (z.real, z.imag))
    return poly_from_roots(values).coeffs


def invariance_check(roots, tol: float = DEDUP_TOL) -> float:
    """Max relative deviation of the coefficient vector over even relabelings.

    Even relabelings permute the five product values, so the vector must be
    unchanged; each coefficient is compared at its own degree scale.
    """
    rt = as_root_tuple(roots)
    if is_degenerate(rt):
        raise DegenerateInstanceError("invariance check needs distinct roots")
    base = phi_coeff_vector(rt, tol)
    values = _phi_a5_values(rt, tol)
    scales = _coeff_scales(values)
    worst = 0.0
    for perm in all_a5():
        other = phi_coeff_vector(apply(perm, rt), tol)
        dev = max(
            abs(x - y) / s for x, y, s in zip(other, base, scales)
        )
        worst = max(worst, dev)
    return worst


FAMILY_PATTERNS = [[0, 1, 2, 3, 4]] + [[(k + d) % 5 for d in (0, 3, 4, 1, 2)] for k in range(5)]
_SIGNED_LABELS = tuple(
    sign + label for sign in "+-" for label in ("f", "f0", "f1", "f2", "f3", "f4")
)


def family_values_for_perms(roots, perms) -> np.ndarray:
    """Family values of every relabeled tuple, shape (len(perms), 6).

    Row p equals ``f_family(apply(perms[p], roots)).values()``: one kernel
    row for each of the 6 family patterns of each relabeled tuple.
    """
    rt = as_root_tuple(roots)
    rows = [[p.image[i] for i in pattern] for p in perms for pattern in FAMILY_PATTERNS]
    return eval_f_rows(rt, np.array(rows, dtype=np.int64)).reshape(len(perms), 6)


def family_labels(values, fam: FFamily, threshold: float) -> tuple[str, ...]:
    """Signed family label (e.g. '+f', '-f3') of each of 12 orbit values.

    Each value takes the label of its nearest signed family member.  Raises
    :class:`NumericFailureError` when a value is farther than ``threshold``
    from its nearest member, or when two values share one nearest member, so
    that accepted labels are a bijection onto the 12 signed members.
    """
    vals = np.asarray(values, dtype=complex)
    family = np.asarray(fam.values(), dtype=complex)
    targets = np.concatenate([family, -family])
    cost = np.abs(vals[:, None] - targets[None, :])
    nearest = cost.argmin(axis=1)
    if float(cost[np.arange(vals.size), nearest].max()) > threshold:
        raise NumericFailureError(
            "orbit values do not match the signed family within tolerance"
        )
    if len(set(nearest.tolist())) != targets.size:
        raise NumericFailureError(
            "orbit values and signed family members do not match one to one"
        )
    return tuple(_SIGNED_LABELS[k] for k in nearest)


def clustering_orbit(sweep, tol: float = DEDUP_TOL) -> OrbitReport:
    """The orbit report of a sweep, with its values found by clustering.

    Clusters the 60 even-relabeling values of f, pairs each value with the
    one nearest its negation, and labels each by its nearest signed member
    of the family (sweep row 0).
    """
    fam = FFamily.from_row(sweep[0])
    clusters = cluster_values(sweep[A5_IN_S5, 0], tol)
    values = clusters.centers
    if len(values) != 12:
        raise NumericFailureError(f"expected 12 orbit values, found {len(values)}")
    vals = np.asarray(values)
    index = np.arange(12)
    sums = np.abs(vals[:, None] + vals[None, :])
    partner = sums.argmin(axis=1)
    if np.any((sums[index, partner] > clusters.threshold) | (partner == index)):
        raise NumericFailureError("an orbit value has no negation partner within tolerance")
    if np.any(partner[partner] != index):
        raise NumericFailureError("sign pairing is not an involution")
    scale = max(1.0, float(np.abs(vals).max()))
    return OrbitReport(
        values=values,
        pair_map=tuple((i, int(partner[i])) for i in range(12) if i < partner[i]),
        family_match=family_labels(values, fam, max(tol, DEDUP_TOL_FLOOR) * scale),
        degenerate=False,
        family=fam,
    )


def clustering_phi_values(sweep, tol: float = DEDUP_TOL) -> PhiFamily:
    """The product values of a sweep, with their counts found by clustering."""
    phis = _phi_rows(sweep)
    five = cluster_values(phis[A5_IN_S5], tol)
    if five.count != 5:
        raise NumericFailureError(f"expected 5 product values, found {five.count}")
    return PhiFamily(values=five.centers, s5_value_count=cluster_values(phis, tol).count)
