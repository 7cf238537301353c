import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinticlab import (
    InvalidInputError,
    NumericFailureError,
    a5_orbit,
    f_family,
    relation_rank,
)
from quinticlab.clustering import cluster_values
from quinticlab.ffamily import FFamily, FAMILY_PATTERNS
from quinticlab.instances import random_instance

from oracles import (
    all_a5,
    all_s5,
    apply,
    eval_f,
    f_oracle,
    family_labels,
    family_oracle,
    golden_relations,
    null_basis,
)


class TestEvalF:
    def test_equal_roots_vanish(self):
        # The n and 5-n sine weights cancel termwise when all roots agree.
        assert abs(eval_f([2.5 + 1j] * 5)) < 1e-12

    def test_zero_roots(self):
        assert eval_f([0, 0, 0, 0, 0]) == 0

    def test_fifth_roots_of_unity_frozen_value(self):
        # Independent high-precision summation gives exactly 12.5i.
        roots = [np.exp(2j * np.pi * k / 5) for k in range(5)]
        assert abs(f_oracle(roots) - 12.5j) < 1e-12
        assert abs(eval_f(roots) - 12.5j) < 1e-12

    def test_matches_oracle_on_seeded_tuple(self, seeded_roots):
        want = f_oracle(seeded_roots)
        got = eval_f(seeded_roots)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_scaling_degree_five(self, seeded_roots):
        base = eval_f(seeded_roots)
        scaled = eval_f([2.0 * z for z in seeded_roots])
        assert abs(scaled - 32.0 * base) <= 1e-10 * abs(32.0 * base)

    @given(
        st.builds(
            complex,
            st.floats(0.2, 2.0),
            st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_scaling_complex_factor(self, lam):
        roots = random_instance(21, 2)
        base = eval_f(roots)
        scaled = eval_f([lam * z for z in roots])
        assert abs(scaled - lam**5 * base) <= 1e-9 * max(1.0, abs(lam**5 * base))

    def test_wrong_arity(self):
        with pytest.raises(InvalidInputError):
            eval_f([1, 2, 3])


class TestFamily:
    def test_f0_argument_order(self, seeded_roots):
        x = seeded_roots
        fam = f_family(x)
        direct = eval_f((x[0], x[3], x[4], x[1], x[2]))
        # Same 20 products either way; only last-ulp summation noise differs.
        assert abs(fam.fk[0] - direct) <= 1e-13 * max(1.0, abs(direct))

    def test_pattern_table(self):
        assert FAMILY_PATTERNS[0].tolist() == [0, 1, 2, 3, 4]
        assert FAMILY_PATTERNS[1].tolist() == [0, 3, 4, 1, 2]
        assert FAMILY_PATTERNS[2].tolist() == [1, 4, 0, 2, 3]

    def test_equal_roots_all_zero(self):
        fam = f_family([1.5] * 5)
        assert all(abs(v) < 1e-12 for v in fam.values())

    def test_matches_oracle(self, seeded_roots):
        want = family_oracle(seeded_roots)
        got = f_family(seeded_roots).values()
        scale = max(1.0, max(abs(w) for w in want))
        assert all(abs(a - b) <= 1e-11 * scale for a, b in zip(got, want))


class TestOrbit:
    def test_twelve_values_six_pairs(self, seeded_roots):
        report = a5_orbit(seeded_roots)
        assert not report.degenerate
        assert len(report.values) == 12
        assert len(report.pair_map) == 6
        covered = sorted(i for pair in report.pair_map for i in pair)
        assert covered == list(range(12))

    def test_closed_under_negation(self, seeded_roots):
        report = a5_orbit(seeded_roots)
        scale = max(abs(v) for v in report.values)
        for v in report.values:
            assert min(abs(v + w) for w in report.values) <= 1e-10 * scale

    def test_family_match_is_a_bijection(self, seeded_roots):
        report = a5_orbit(seeded_roots)
        assert len(report.family_match) == 12
        assert len(set(report.family_match)) == 12
        labels = {m[1:] for m in report.family_match}
        assert labels == {"f", "f0", "f1", "f2", "f3", "f4"}

    def test_every_even_relabeling_lands_in_signed_family(self, seeded_roots):
        fam = f_family(seeded_roots).values()
        targets = [s * v for s in (1, -1) for v in fam]
        scale = max(1.0, max(abs(t) for t in targets))
        for perm in all_a5():
            value = eval_f(apply(perm, seeded_roots))
            assert min(abs(value - t) for t in targets) <= 1e-7 * scale

    def test_degenerate_flag(self):
        # A degenerate orbit is reported without counting its values.
        report = a5_orbit([1.0] * 5)
        assert report.degenerate
        assert report.pair_map == ()
        assert report.values == ()
        assert abs(report.family.f) < 1e-12

    def test_odd_coset_is_a_disjoint_twelve_value_set(self, seeded_roots):
        even = a5_orbit(seeded_roots).values
        odd_perms = [p for p in all_s5() if p.parity == -1]
        odd_vals = cluster_values(
            [eval_f(apply(p, seeded_roots)) for p in odd_perms], 1e-7
        ).centers
        assert len(odd_vals) == 12
        scale = max(abs(v) for v in even)
        for v in odd_vals:
            assert min(abs(v - w) for w in even) > 1e-3 * scale

    def test_full_s5_orbit_is_union_of_both_cosets(self, seeded_roots):
        even = a5_orbit(seeded_roots).values
        odd_perms = [p for p in all_s5() if p.parity == -1]
        odd_vals = cluster_values(
            [eval_f(apply(p, seeded_roots)) for p in odd_perms], 1e-7
        ).centers
        union = list(even) + list(odd_vals)
        scale = max(abs(v) for v in union)
        for perm in all_s5():
            value = eval_f(apply(perm, seeded_roots))
            assert min(abs(value - w) for w in union) <= 1e-7 * scale


@pytest.fixture(scope="module")
def samples():
    return [f_family(random_instance(31, i)) for i in range(50)]


class TestFamilyLabels:
    @pytest.mark.parametrize("index", range(50))
    def test_nearest_match_equals_optimal_assignment(self, index):
        from scipy.optimize import linear_sum_assignment

        roots = random_instance(808, index)
        orbit = a5_orbit(roots)
        fam = f_family(roots)
        signs = ((1.0, "+"), (-1.0, "-"))
        targets = [sign * v for sign, _ in signs for v in fam.values()]
        labels = [tag + name for _, tag in signs for name in ("f", "f0", "f1", "f2", "f3", "f4")]
        cost = np.abs(np.subtract.outer(np.array(orbit.values), np.array(targets)))
        rows, cols = linear_sum_assignment(cost)
        assert orbit.family_match == tuple(labels[c] for c in cols[np.argsort(rows)])

    def test_shared_nearest_member_rejected(self, seeded_roots):
        fam = f_family(seeded_roots)
        values = [sign * v for sign in (1.0, -1.0) for v in fam.values()]
        values[1] = values[0] * (1.0 + 1e-12)  # both now nearest to +f
        with pytest.raises(NumericFailureError, match="one to one"):
            family_labels(values, fam, threshold=1e-6)

    def test_value_far_from_every_member_rejected(self, seeded_roots):
        fam = f_family(seeded_roots)
        values = [sign * v for sign in (1.0, -1.0) for v in fam.values()]
        values[3] += 1e-3
        with pytest.raises(NumericFailureError, match="within tolerance"):
            family_labels(values, fam, threshold=1e-6)


class TestRelationRank:
    def test_rank_three_with_natural_signs(self, samples):
        report = relation_rank(samples)
        assert report.rank == 3
        ratio = report.singular_values[3] / report.singular_values[0]
        assert ratio < 1e-6

    def test_null_basis_annihilates_rows(self, samples):
        matrix = np.array([s.values() for s in samples])
        for vec in null_basis(samples):
            v = np.array(vec)
            errs = np.abs(matrix @ v) / (
                np.linalg.norm(matrix, axis=1) * np.linalg.norm(v)
            )
            assert float(errs.max()) < 1e-9

    def test_relations_involve_golden_ratio_not_small_integers(self, samples):
        # The null space has golden-ratio coefficients, so no small-integer
        # relation exists and none may be invented.
        report = relation_rank(samples)
        assert report.integer_relations is None
        golden = (1 + np.sqrt(5)) / 2
        flat = np.abs(np.array(null_basis(samples))).ravel()
        near_golden = np.abs(flat - golden) < 1e-9
        assert near_golden.any()

    def test_duplicated_sample_gives_rank_one(self, samples):
        report = relation_rank([samples[0]] * 10)
        assert report.rank == 1
        assert null_basis([samples[0]] * 10) is None

    def test_all_zero_samples_give_rank_zero(self):
        zero = FFamily(f=0j, fk=(0j, 0j, 0j, 0j, 0j))
        report = relation_rank([zero] * 10)
        assert report.rank == 0

    def test_too_few_samples(self, samples):
        with pytest.raises(InvalidInputError):
            relation_rank(samples[:9])


class TestClosedFormRelations:
    # Each relation must cancel to roundoff: |sum c_j v_j| against the sum of
    # the term magnitudes |c_j v_j|.  The worst clean value seen is 3.4e-15.
    BOUND = 1e-13

    @pytest.fixture(scope="class")
    def rows(self):
        return np.array([f_family(random_instance(7, i)).values() for i in range(2000)])

    @staticmethod
    def relative_residuals(rows, relations):
        terms = np.abs(rows[:, None, :] * relations[None, :, :]).sum(axis=2)
        return np.abs(rows @ relations.T) / terms

    def test_null_basis_is_the_closed_form(self, samples):
        report = relation_rank(samples)
        assert report.rank == 3
        assert np.abs(np.array(null_basis(samples)) - golden_relations()).max() < 1e-9

    def test_relations_annihilate_seeded_rows(self, rows):
        residuals = self.relative_residuals(rows, golden_relations())
        assert residuals.max() <= self.BOUND

    def test_rounded_golden_ratio_fails(self, rows):
        residuals = self.relative_residuals(rows, golden_relations(phi=1.618))
        assert (residuals.max(axis=0) > self.BOUND).all()


class TestDedupAmbiguity:
    def test_tolerance_near_the_value_gaps_is_rejected(self, seeded_roots):
        # A linking tolerance within 10x of the smallest inter-value gap
        # cannot certify a count; the orbit must refuse rather than return
        # a tolerance-dependent number.
        report = a5_orbit(seeded_roots)
        scale = max(1.0, max(abs(v) for v in report.values))
        min_gap = min(
            abs(a - b)
            for i, a in enumerate(report.values)
            for b in report.values[i + 1 :]
        )
        with pytest.raises(NumericFailureError):
            a5_orbit(seeded_roots, tol=min_gap / scale / 5.0)
