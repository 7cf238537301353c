"""The constant class tables that count the orbit and product values.

Which relabelings give equal values is fixed by the permutation action, so the
package reads the classes off tables derived from the permutation images and
only measures the gates.  These tests derive the same tables by clustering
sweeps of seeded instances, require the table path to reproduce the
clustering path exactly, and check that the gates fail on sweeps that are
wrong in one entry.
"""

import numpy as np
import pytest

from quinticlab import NumericFailureError, a5_orbit, phi_values, random_instance
from quinticlab import ffamily
from quinticlab.clustering import cluster_values, first_occurrence
from quinticlab.ffamily import (
    _FAMILY_MATCH,
    _ORBIT_CLASS,
    _PAIR_MAP,
    A5_IN_S5,
    S5_PARITY,
    family_sweep,
)
from quinticlab.principal import _PHI_CLASS_A5, _PHI_CLASS_S5, _phi_rows

from oracles import (
    all_s5,
    class_values,
    clustering_orbit,
    clustering_phi_values,
    family_values_for_perms,
    orbit_from_sweep,
    phi_values_from_sweep,
)


def _clustered_classes(values) -> np.ndarray:
    """The cluster of each value, as cluster_values numbers them."""
    centers = np.array(cluster_values(values).centers)
    return np.abs(values[:, None] - centers[None, :]).argmin(axis=1)


@pytest.fixture(scope="module")
def sweeps():
    return [family_sweep(random_instance(404, i)) for i in range(50)]


def test_sweep_is_the_720_row_sweep_bitwise():
    for i in range(5):
        roots = random_instance(404, i)
        assert np.array_equal(family_sweep(roots), family_values_for_perms(roots, all_s5()))


def test_orbit_tables_equal_the_clustered_classes(sweeps):
    for sweep in sweeps:
        assert np.array_equal(_clustered_classes(sweep[A5_IN_S5, 0]), _ORBIT_CLASS)
        reference = clustering_orbit(sweep)
        assert reference.pair_map == _PAIR_MAP
        assert reference.family_match == _FAMILY_MATCH


def test_product_tables_equal_the_clustered_classes(sweeps):
    for sweep in sweeps:
        phis = _phi_rows(sweep)
        assert np.array_equal(_clustered_classes(phis[A5_IN_S5]), _PHI_CLASS_A5)
        assert np.array_equal(_clustered_classes(phis), _PHI_CLASS_S5)


def test_product_tables_follow_from_the_formula():
    # Each sweep entry is +-f at a canonical row (the orbit's dihedral
    # classes).  Write Phi = (f - f0)(f1 - f4)(f2 + f3) at each row as a
    # product of such signed terms, each factor with its smaller class first
    # and that term's sign moved in front: rows with equal products have
    # equal Phi, so the classes hold exactly, not only to rounding.
    def product(p):
        rows = ffamily._SWEEP_ROWS[p]
        classes, signs = ffamily._F_CLASS[rows].tolist(), ffamily._F_SIGN[rows].tolist()
        sign, factors = 1, []
        for a, b, sb in ((0, 1, -1), (2, 5, -1), (3, 4, 1)):
            (ca, ea), (cb, eb) = sorted([(classes[a], signs[a]), (classes[b], sb * signs[b])])
            sign *= ea
            factors.append((ca, cb, ea * eb))
        return sign, tuple(sorted(factors))

    products = [product(p) for p in range(120)]
    assert np.array_equal(first_occurrence(products), _PHI_CLASS_S5)
    assert np.array_equal(first_occurrence([products[p] for p in A5_IN_S5]), _PHI_CLASS_A5)


def test_table_path_equals_clustering_path_on_1000_instances():
    for i in range(1000):
        sweep = family_sweep(random_instance(909, i))
        assert orbit_from_sweep(sweep) == clustering_orbit(sweep)
        assert phi_values_from_sweep(sweep) == clustering_phi_values(sweep)


def test_single_instance_paths_equal_clustering_path():
    for i in range(20):
        roots = random_instance(910, i)
        sweep = family_sweep(roots)
        assert a5_orbit(roots) == clustering_orbit(sweep)
        assert phi_values(roots) == clustering_phi_values(sweep)


def test_class_values_equal_cluster_values_bitwise(sweeps):
    # The two thresholds, tol * max|v| and tol * max(1, max|v|), agree only
    # where max|v| >= 1; below 1 they differ by design (see the next test).
    values = sweeps[0][A5_IN_S5, 0]
    assert np.abs(values).max() >= 1.0
    got, want = class_values(values, _ORBIT_CLASS), cluster_values(values)
    assert (got.centers, got.sizes, got.threshold) == (want.centers, want.sizes, want.threshold)


def test_class_values_reject_nan():
    values = np.array([1.0, 1.0, np.nan, 5.0])
    with pytest.raises(NumericFailureError):
        class_values(values, np.array([0, 0, 1, 1]))


class TestOrbitNegativeControls:
    """One wrong entry in the even rows of a correct sweep fails the orbit."""

    @pytest.fixture
    def sweep(self):
        return family_sweep(random_instance(17, 2))

    def test_clean_sweep_passes(self, sweep):
        assert len(orbit_from_sweep(sweep).values) == 12

    def test_two_even_rows_swapped(self, sweep):
        r, s = A5_IN_S5[1], A5_IN_S5[2]  # orbit classes 1 and 2
        sweep[[r, s]] = sweep[[s, r]]
        with pytest.raises(NumericFailureError):
            orbit_from_sweep(sweep)

    def test_one_sign_flipped(self, sweep):
        sweep[A5_IN_S5[5], 0] *= -1.0
        with pytest.raises(NumericFailureError):
            orbit_from_sweep(sweep)

    def test_one_even_row_scaled_in_the_sixth_digit(self, sweep):
        row = A5_IN_S5[np.abs(sweep[A5_IN_S5, 0]).argmax()]
        sweep[row, 0] *= 1.0 + 1e-6
        with pytest.raises(NumericFailureError):
            orbit_from_sweep(sweep)


@pytest.mark.parametrize("parity", [1, -1])
def test_one_perturbed_product_row_fails_the_count(parity):
    sweep = family_sweep(random_instance(17, 2))
    assert phi_values_from_sweep(sweep).s5_value_count == 10
    phis = np.abs(_phi_rows(sweep))
    rows = np.flatnonzero(S5_PARITY == parity)
    sweep[rows[phis[rows].argmax()]] *= 1.0 + 1e-6
    with pytest.raises(NumericFailureError):
        phi_values_from_sweep(sweep)


def _scaled_sweep(scale: float) -> np.ndarray:
    return family_sweep([scale * z for z in random_instance(17, 2)])


def test_below_1_the_class_gate_and_clustering_differ():
    # At root scale 0.2 the product values (degree 15) lie near 1e-9.
    # cluster_values links values within an absolute 1e-7 there and merges all
    # ten into one cluster; the class gate, relative to the values, finds ten.
    phis = _phi_rows(_scaled_sweep(0.2))
    assert np.abs(phis).max() < 1e-8
    assert cluster_values(phis).count == 1
    assert class_values(phis, _PHI_CLASS_S5).count == 10


@pytest.mark.parametrize("parity", [1, -1])
def test_at_root_scale_0_2_a_perturbed_product_row_still_fails(parity):
    sweep = _scaled_sweep(0.2)
    assert phi_values_from_sweep(sweep).s5_value_count == 10
    phis = np.abs(_phi_rows(sweep))
    rows = np.flatnonzero(S5_PARITY == parity)
    sweep[rows[phis[rows].argmax()]] *= 1.0 + 1e-6
    with pytest.raises(NumericFailureError):
        phi_values_from_sweep(sweep)


def test_copies_agree_to_1e_7_of_the_values_below_1():
    # Below max|v| = 1 the copy test is stricter than an absolute 1e-7: a row
    # of product values moved by 1e-6 of their size (about 1e-15) fails it.
    sweep = _scaled_sweep(0.2)
    phis = _phi_rows(sweep)
    phis[1] *= 1.0 + 1e-6
    with pytest.raises(NumericFailureError, match="ambiguous count"):
        class_values(phis, _PHI_CLASS_S5)
