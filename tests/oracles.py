"""Independent high-precision oracles, and loop references for array code.

The oracles reimplement the checked quantities directly from their defining
sums at 50 significant digits with mpmath, sharing no code or index tables
with the package.  Tests compare library output against these, or against
values frozen from them.

The loop references compute in double precision, one permutation at a time,
what the package computes as array reductions; they take the package's family
sweep as input.

The helpers at the end (permutations as objects and their algebra, the form
f and the product Phi of one tuple, the row-reduced null basis of the rank
test, polynomial evaluation, the resolvent form, and the invariance of the
product values' quintic) are double-precision checks that only the tests use,
built on package types.  The permutation objects are the reference that the
package's index tables (``ffamily.S5_IMAGES`` and the rest) are checked
against.

The clustering references count the orbit and product values by searching for
the clusters with ``cluster_values``, as the package did before it read the
classes off constant tables; the tests require both paths to agree.

``class_values``, ``orbit_from_sweep``, ``phi_values_from_sweep``,
``two_valuedness_from_sweep`` and ``newton_bridge_gaps`` are the package's
batched checks viewed at one instance, in the scalar form the tests read.

``verify_reference`` is the scalar verifier that the batched one replaced:
it checks one instance at a time, in Python scalars where it did, and builds
the same report.  It applies the current rules: count thresholds relative to
the values, and two-valuedness deviations measured against no less than
1e-6 of S, S^3 and S^5.
"""

import itertools

import mpmath as mp
import numpy as np

from dataclasses import dataclass
from typing import Sequence

from quinticlab import (
    DegenerateInstanceError,
    InvalidInputError,
    MonicPoly,
    NumericFailureError,
    phi_values,
)
from quinticlab import QuinticLabError, random_instance, relation_rank
from quinticlab.clustering import (
    DEDUP_TOL,
    DEDUP_TOL_FLOOR,
    ClusterResult,
    class_gate,
    cluster_values,
)
from quinticlab.ffamily import (
    _FAMILY_MATCH,
    _ORBIT_CLASS,
    _ORBIT_MEMBER,
    _PAIR_MAP,
    A5_IN_S5,
    RANK_TOL,
    FFamily,
    OrbitReport,
    family_sweep,
    orbit_check,
)
from quinticlab.kernels import eval_f_rows
from quinticlab.polynomials import as_root_tuple, is_degenerate, poly_from_roots
from quinticlab.principal import (
    _PHI_CLASS_A5,
    _PHI_CLASS_S5,
    PhiFamily,
    _phi_rows,
    newton_gap_rows,
    product_values,
)
from quinticlab.resolvent import (
    _ODD,
    _TAU_PARTNER,
    TwoValuednessReport,
    _coeffs_at,
    two_valuedness_rows,
)

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
        return _parity(self.image)


_S5 = tuple(Perm5(img) for img in itertools.permutations(range(5)))


def identity() -> Perm5:
    return _S5[0]


def all_s5() -> list[Perm5]:
    """All 120 permutations, lexicographic by image array."""
    return list(_S5)


def all_a5() -> list[Perm5]:
    """The 60 even permutations, in the all_s5 order."""
    return [p for p in _S5 if p.parity == 1]


def apply(p: Perm5, rt: Sequence):
    """Relabel a 5-tuple ("pull"): position i of the result reads rt[p.image[i]]."""
    if len(rt) != 5:
        raise InvalidInputError("apply expects a 5-tuple")
    return tuple(rt[p.image[i]] for i in range(5))


def eval_f(roots) -> complex:
    """f of one tuple, as a one-row kernel call."""
    return complex(eval_f_rows(as_root_tuple(roots), np.arange(5)[None, :])[0])


def phi(fam: FFamily) -> complex:
    """(f - f_0)(f_1 - f_4)(f_2 + f_3) for one family."""
    f, f0, f1, f2, f3, f4 = fam.values()
    return (f - f0) * (f1 - f4) * (f2 + f3)


def _rref(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    m = mat.copy()
    nrows, ncols = m.shape
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = row + int(np.argmax(np.abs(m[row:, col])))
        if abs(m[pivot, col]) <= tol:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        m[row] = m[row] / m[row, col]
        for r in range(nrows):
            if r != row:
                m[r] = m[r] - m[r, col] * m[row]
        row += 1
    return m


def null_basis(samples, rank_tol: float = RANK_TOL):
    """Reduced row echelon form of the null space of stacked family rows (N, 6).

    None unless the rows have numerical rank 3, counted as
    :func:`~quinticlab.relation_rank` counts it.  The null space is then
    spanned by the conjugated last three rows of the thin SVD's ``vh``; the
    pivots fall on f, f_0 and f_1.  For exact family rows it equals
    :func:`golden_relations`.
    """
    _, singular, vh = np.linalg.svd(np.asarray(samples, dtype=complex), full_matrices=False)
    if np.sum(singular > rank_tol * singular[0]) != 3:
        return None
    return tuple(tuple(complex(x) for x in row) for row in _rref(np.conj(vh[3:])))


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
    s = max(1.0, max(abs(v) for v in _phi_a5_values(rt, tol)))
    scales = [s ** (k + 1) for k in range(5)]
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


def class_values(values, classes, tol: float = DEDUP_TOL) -> ClusterResult:
    """The package's ``class_gate`` of one row of values; raises its error."""
    centers, threshold, (error,) = class_gate(np.asarray(values)[None], classes, tol)
    if error:
        raise error
    means = centers[0]
    gaps = np.abs(means[:, None] - means[None, :]) + np.diag(np.full(means.size, np.inf))
    sizes = tuple(int(k) for k in np.bincount(classes))
    return ClusterResult(tuple(complex(z) for z in means), sizes, float(threshold[0]),
                         float(gaps.min()))


def orbit_from_sweep(sweep, tol: float = DEDUP_TOL) -> OrbitReport:
    """The package's ``orbit_check`` of one sweep, as a report; raises its error."""
    centers, (error,) = orbit_check(sweep[None, A5_IN_S5, 0], sweep[None, 0], tol)
    if error:
        raise error
    return OrbitReport(values=tuple(complex(z) for z in centers[0]), pair_map=_PAIR_MAP,
                       family_match=_FAMILY_MATCH, degenerate=False,
                       family=FFamily.from_row(sweep[0]))


def phi_values_from_sweep(sweep, tol: float = DEDUP_TOL) -> PhiFamily:
    """The package's ``product_values`` of one sweep; raises its error."""
    values, (error,) = product_values(sweep[None], tol)
    if error:
        raise error
    return PhiFamily(values=tuple(complex(v) for v in values[0]), s5_value_count=10)


def two_valuedness_from_sweep(sweep) -> TwoValuednessReport:
    """The package's ``two_valuedness_rows`` of one sweep; raises its error."""
    fit, spreads, (error,) = two_valuedness_rows(sweep[None])
    if error:
        raise error
    even, odd, sym = (float(s[0]) for s in spreads)
    return TwoValuednessReport(
        even_triple=tuple(complex(v[0, 0]) for v in fit[:3]),
        odd_triple=tuple(complex(v[0, _ODD[0]]) for v in fit[:3]),
        even_spread=even,
        odd_spread=odd,
        pair_symmetric_spread=sym,
        fit=_coeffs_at(fit, (0, 0)),
    )


def newton_bridge_gaps(pf: PhiFamily, quintic) -> tuple[float, float]:
    """The package's ``newton_gap_rows`` of one product family and its quintic."""
    coeffs = np.array([[quintic.c4, quintic.p, quintic.c2, quintic.q, quintic.r]])
    gap4, gap2 = newton_gap_rows(np.array([pf.values], dtype=complex), coeffs)
    return float(gap4[0]), float(gap2[0])


# The scalar verifier: one instance at a time, each check on its own.

_SPREAD_TOL, _NEWTON_TOL = 1e-7, 1e-10


def _scalar_class_values(values, classes, tol):
    vals = np.asarray(values, dtype=complex)
    threshold = max(float(tol), DEDUP_TOL_FLOOR) * float(np.max(np.abs(vals)))
    counts = np.bincount(classes)
    centers = (np.bincount(classes, vals.real) + 1j * np.bincount(classes, vals.imag)) / counts
    spread = float(np.max(np.abs(vals - centers[classes])))
    gaps = np.abs(centers[:, None] - centers[None, :]) + np.diag(np.full(counts.size, np.inf))
    min_gap = float(gaps.min())
    if not (spread <= threshold and min_gap > 10.0 * threshold):
        raise NumericFailureError(
            f"ambiguous count: copies of one value lie up to {spread:.3e} apart and "
            f"distinct values {min_gap:.3e} apart, against the threshold {threshold:.3e}"
        )
    return [complex(z) for z in centers], threshold


def _scalar_orbit(sweep, tol):
    values, threshold = _scalar_class_values(sweep[A5_IN_S5, 0], _ORBIT_CLASS, tol)
    targets = np.concatenate([sweep[0], -sweep[0]])[_ORBIT_MEMBER]
    if not np.abs(np.asarray(values) - targets).max() <= threshold:
        raise NumericFailureError("orbit values do not match the signed family within tolerance")
    return values


def _scalar_two_valuedness(sweep):
    """(a, b, c, r4, r2, r0) of the identity row and the three spreads."""
    squares = sweep * sweep
    coeffs = np.zeros((120, 7), dtype=complex)
    coeffs[:, 0] = 1.0
    for root in squares.T:
        coeffs[:, 1:] = coeffs[:, 1:] - root[:, None] * coeffs[:, :-1]
    s5, s4, s3, s2, s1, s0 = coeffs[:, 1:].T
    a = s5 / 10.0
    b = (s3 - 60.0 * a**3) / 10.0
    c = (s1 - 26.0 * a**5 - 30.0 * a**2 * b) / 4.0
    r4 = np.abs(s4 - 35.0 * a**2) / np.maximum(1.0, np.abs(s4))
    r2 = np.abs(s2 - 55.0 * a**4 - 30.0 * a * b) / np.maximum(1.0, np.abs(s2))
    r0 = np.abs(s0 - 5.0 * a**6 - 10.0 * a**3 * b - 5.0 * b**2) / np.maximum(1.0, np.abs(s0))
    rows = (a, b, c, r4, r2, r0)
    triples = np.stack(rows[:3], axis=1)
    if not np.isfinite(triples).all():
        raise NumericFailureError("fitted (a, b, c) are not finite")
    # a, b, c in units of S, S^3, S^5, S = max(1, max|f|^2) of the sweep; a
    # deviation is relative to max(1, |ref|) in the coefficient's own units, but
    # to no less than 1e-6 of its unit (pair products: 2e-6 of its largest
    # magnitude, in those units).
    scale = np.maximum(1.0, np.abs(sweep).max(keepdims=True) ** 2)
    triples = np.stack([v / scale[0] ** k for k, v in zip((1, 3, 5), rows)], axis=1)
    ones = np.concatenate([scale[0] ** -k for k in (1, 3, 5)])
    floors = np.full(3, 1e-6)

    def rel_dev(rows, ref, one, floor):
        return float((np.abs(rows - ref) / np.maximum(np.maximum(one, np.abs(ref)), floor)).max())

    partners = triples[_TAU_PARTNER]
    sym = np.concatenate([triples + partners, triples * partners], axis=1)
    sym_floors = np.concatenate([floors, 2 * floors * np.abs(triples).max(axis=0)])
    spreads = (rel_dev(triples[A5_IN_S5], triples[0], ones, floors),
               rel_dev(triples[_ODD], triples[_ODD[0]], ones, floors),
               rel_dev(sym, sym[0], np.concatenate([ones, ones**2]), sym_floors))
    return [complex(v[0]) for v in rows[:3]] + [float(v[0]) for v in rows[3:]], spreads


def _scalar_square_gap(family):
    squares = [complex(v) * complex(v) for v in family]
    scale = max(1.0, max(abs(s) for s in squares))
    return min(abs(squares[i] - squares[j]) for i in range(6) for j in range(i + 1, 6)) / scale


def _scalar_form_residual(F, a, b, c):
    G = F + a
    terms = (G**6, 4.0 * a * G**5, 10.0 * b * G**3, 4.0 * c * G, -4.0 * a * c, 5.0 * b**2)
    return abs(sum(terms)) / max(1.0, max(abs(t) for t in terms))


def _scalar_phi_values(sweep, tol):
    phis = _phi_rows(sweep)
    values, _ = _scalar_class_values(phis[A5_IN_S5], _PHI_CLASS_A5, tol)
    _scalar_class_values(phis, _PHI_CLASS_S5, tol)
    return values


def _scalar_principal(values):
    """(c4_mag, c2_mag, p1, p3, p2_magnitude, gap4, gap2) of the five product values."""
    c = np.array([1.0 + 0j])
    for r in values:
        c = np.convolve(c, np.array([1.0 + 0j, -r]))
    c4, _, c2, _, _ = MonicPoly(tuple(c[1:])).coeffs
    s = max(1.0, max(abs(v) for v in values))
    scales = [max(1.0, s ** (k + 1)) for k in range(5)]
    c4_mag, c2_mag = abs(c4) / scales[0], abs(c2) / scales[2]
    acc, sums = np.ones(5, dtype=complex), []
    for _ in range(3):
        acc = acc * np.asarray(values)
        sums.append(complex(np.sum(acc)))
    p1, p2, p3 = sums
    e2 = (p1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - p1 * p2 + p3) / 3.0
    return (c4_mag, c2_mag, abs(p1) / s, abs(p3) / s**3, abs(p2) / s**2,
            abs(c4 - (-p1)) / scales[0], abs(c2 - (-e3)) / scales[2])


def _reference_record(roots, skipped: bool) -> dict:
    return {
        "roots": [[float(z.real), float(z.imag)] for z in roots],
        "skipped_degenerate": skipped,
        "orbit": dict.fromkeys(("count", "pairing_ok", "family_match_ok")),
        "fit": dict.fromkeys(("r4", "r2", "r0", "form_residual_max", "square_gap",
                              "clustered_squares")),
        "two_valuedness": dict.fromkeys(("even_spread", "odd_spread", "pair_symmetric_spread")),
        "principal": dict.fromkeys(("s5_value_count", "c4_mag", "c2_mag", "p1", "p3",
                                    "p2_magnitude", "newton_gap4", "newton_gap2")),
        "failures": [],
        "passed": False,
    }


def verify_sweep_reference(roots, sweep, tol_residual=1e-6, tol_dedup=DEDUP_TOL) -> dict:
    """The record of one non-degenerate instance, one check at a time."""
    record = _reference_record(roots, skipped=False)
    failures = record["failures"]
    try:
        orbit = _scalar_orbit(sweep, tol_dedup)
        record["orbit"].update(count=12, pairing_ok=True, family_match_ok=True)
    except QuinticLabError as exc:
        orbit = None
        failures.append(f"orbit: {exc}")
    try:
        (a, b, c, r4, r2, r0), spreads = _scalar_two_valuedness(sweep)
    except QuinticLabError as exc:
        spreads = None
        failures += [f"fit: {exc}", f"two-valuedness: {exc}"]
    if spreads is not None:
        gap = _scalar_square_gap(sweep[0])
        record["fit"].update(r4=r4, r2=r2, r0=r0, square_gap=gap, clustered_squares=gap < 1e-6)
        if max(r4, r2, r0) > tol_residual:
            failures.append("fit: over-determination residuals above tolerance")
        if orbit is not None:
            form = max(_scalar_form_residual(v * v, a, b, c) for v in orbit)
            record["fit"]["form_residual_max"] = form
            if form > tol_residual:
                failures.append("fit: orbit values do not satisfy the form")
        record["two_valuedness"].update(zip(record["two_valuedness"], spreads))
        if max(spreads) > _SPREAD_TOL:
            failures.append("two-valuedness: spreads above tolerance")
    try:
        values = _scalar_phi_values(sweep, tol_dedup)
        record["principal"]["s5_value_count"] = 10
        principal = _scalar_principal(values)
        record["principal"].update(zip(record["principal"], (10, *principal)))
        c4, c2, p1, p3, _, gap4, gap2 = principal
        if max(c4, c2) > _SPREAD_TOL:
            failures.append("principal: suppressed coefficients above tolerance")
        if max(p1, p3) > _SPREAD_TOL:
            failures.append("principal: power sums above tolerance")
        if max(gap4, gap2) > _NEWTON_TOL:
            failures.append("principal: coefficient and power-sum routes disagree")
    except QuinticLabError as exc:
        failures.append(f"principal: {exc}")
    record["passed"] = not failures
    return record


def verify_reference(seed: int, n: int) -> dict:
    """``run_verify(seed, n)`` at default tolerances, one instance at a time,
    without ``meta``."""
    instances, families = [], []
    for index in range(n):
        roots = random_instance(seed, index)  # never a tuple that is_degenerate flags
        sweep = family_sweep(roots)
        instances.append({"index": index, **verify_sweep_reference(roots, sweep)})
        families.append(sweep[0])
    rank = {"rank": None, "singular_values": None, "ratio_s4_s1": None, "skipped_reason": None}
    batch_failures = []
    if len(families) >= 10:
        rel = relation_rank(families)
        rank.update(rank=rel.rank, singular_values=list(rel.singular_values),
                    ratio_s4_s1=rel.ratio_s4_s1)
        if rel.rank != 3:
            batch_failures.append(f"rank test: numerical rank {rel.rank} != 3")
        elif rel.ratio_s4_s1 >= RANK_TOL:
            batch_failures.append("rank test: sigma4/sigma1 above threshold")
    else:
        rank["skipped_reason"] = "fewer than 10 usable instances"
    p2 = [r["principal"]["p2_magnitude"] for r in instances
          if r["principal"]["p2_magnitude"] is not None]
    fraction = sum(1 for v in p2 if v > 1e-3) / len(p2) if p2 else 0.0
    if p2 and fraction < 0.95:
        batch_failures.append("square-sum control is small on too many instances")
    failed = [r["index"] for r in instances if not r["passed"]]
    summary = {
        "passed": n - len(failed),
        "failed": failed,
        "skipped": [],
        "skip_rate": 0.0,
        "p2_control_fraction": fraction,
        "batch_failures": batch_failures,
        "ok": not failed and not batch_failures,
    }
    return {"rank_test": rank, "summary": summary, "instances": instances}
