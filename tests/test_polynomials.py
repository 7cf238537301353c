import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from quinticlab import (
    InvalidInputError,
    MonicPoly,
    NumericFailureError,
    find_roots,
    is_degenerate,
    poly_from_roots,
    power_sums,
    sqrt_discriminant,
)
from quinticlab.instances import random_instance

from oracles import (
    degenerate_reference,
    elementary_symmetric,
    eval_poly,
    newton_elementary_from_power_sums,
)

finite_complex = st.builds(
    complex,
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


class TestPolyFromRoots:
    def test_all_zero_roots_give_pure_power(self):
        p = poly_from_roots([0, 0, 0, 0, 0])
        assert p.degree == 5
        assert all(c == 0 for c in p.coeffs)

    def test_fifth_roots_of_unity(self):
        roots = [np.exp(2j * np.pi * k / 5) for k in range(5)]
        p = poly_from_roots(roots)
        # z^5 - 1: all middle coefficients vanish
        assert all(abs(c) < 1e-14 for c in p.coeffs[:-1])
        assert abs(p.coeffs[-1] + 1.0) < 1e-14

    def test_hand_expansion(self):
        p = poly_from_roots([1, 2])
        assert p.coeffs == pytest.approx((-3 + 0j, 2 + 0j))

    def test_empty_is_invalid(self):
        with pytest.raises(InvalidInputError):
            poly_from_roots([])

    def test_degree_cap(self):
        with pytest.raises(InvalidInputError):
            poly_from_roots([0.1] * 13)


class TestEvalPoly:
    def test_unity_quintic_at_one(self):
        p = MonicPoly((0, 0, 0, 0, -1))
        assert eval_poly(p, 1.0) == 0

    def test_pure_power(self):
        p = MonicPoly((0, 0, 0, 0, 0))
        assert eval_poly(p, 2.0) == 32

    @given(st.lists(finite_complex, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_constructed_roots_evaluate_to_zero(self, roots):
        p = poly_from_roots(roots)
        scale = max(1.0, float(np.max(np.abs(p.full_coeffs()))))
        for r in roots:
            assert abs(eval_poly(p, r)) <= 1e-12 * scale


class TestFindRoots:
    def test_roots_of_unity(self):
        p = MonicPoly((0, 0, 0, 0, -1))
        roots = find_roots(p)
        assert len(roots) == 5
        assert sorted(round(abs(z), 9) for z in roots) == [1.0] * 5
        angles = sorted((np.angle(z)) % (2 * np.pi) for z in roots)
        expected = sorted(2 * np.pi * k / 5 for k in range(5))
        assert np.allclose(angles, expected, atol=1e-9)

    def test_hand_factorization(self):
        p = MonicPoly((-3, 2))
        roots = sorted(find_roots(p), key=lambda z: z.real)
        assert abs(roots[0] - 1) < 1e-10
        assert abs(roots[1] - 2) < 1e-10

    def test_round_trip_on_seeded_quintic(self):
        roots = random_instance(99, 3)
        found = find_roots(poly_from_roots(roots))
        cost = np.array([[abs(a - b) for b in roots] for a in found])
        ri, ci = linear_sum_assignment(cost)
        assert float(cost[ri, ci].max()) < 1e-9

    def test_repeated_root_converges_by_residual(self):
        p = poly_from_roots([0.5, 0.5, 0.5])
        roots = find_roots(p)
        assert all(abs(z - 0.5) < 1e-3 for z in roots)

    def test_degree_twelve(self):
        gen = np.random.default_rng(5)
        roots = gen.normal(size=12) + 1j * gen.normal(size=12)
        found = find_roots(poly_from_roots(roots))
        cost = np.array([[abs(a - b) for b in roots] for a in found])
        ri, ci = linear_sum_assignment(cost)
        assert float(cost[ri, ci].max()) < 1e-7

    def test_residual_failure_reports_worst_residual(self, monkeypatch):
        # Eigenvalues 1e-3 off are still ~1e-6 off after one Newton step,
        # far above the 1e-12 residual tolerance.
        p = poly_from_roots(random_instance(2, 0))
        exact = np.roots(p.full_coeffs())
        monkeypatch.setattr(np, "roots", lambda c: exact + 1e-3)
        with pytest.raises(NumericFailureError) as excinfo:
            find_roots(p)
        assert excinfo.value.worst_residual is not None
        assert excinfo.value.worst_residual > 0

    @pytest.mark.parametrize("outcome", ["linalg_error", "nan"])
    def test_eigenvalue_solver_failure_is_numeric_failure(self, monkeypatch, outcome):
        def broken_roots(c):
            if outcome == "linalg_error":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.full(len(c) - 1, np.nan + 0j)

        monkeypatch.setattr(np, "roots", broken_roots)
        with pytest.raises(NumericFailureError, match="root finding"):
            find_roots(poly_from_roots(random_instance(2, 0)))


class TestSymmetricFunctions:
    def test_power_sum_cancellation(self):
        assert power_sums([1, -1], 3) == [0, 2, 0]

    def test_all_zero(self):
        assert power_sums([0, 0, 0], 4) == [0, 0, 0, 0]

    def test_roots_of_unity_sums(self):
        w = [np.exp(2j * np.pi * k / 5) for k in range(5)]
        p = power_sums(w, 5)
        assert all(abs(v) < 1e-13 for v in p[:4])
        assert abs(p[4] - 5) < 1e-13

    def test_k_max_positive(self):
        with pytest.raises(InvalidInputError):
            power_sums([1.0], 0)

    def test_elementary_hand_values(self):
        assert elementary_symmetric([1, 2]) == [3, 2]
        assert elementary_symmetric([0, 0, 0]) == [0, 0, 0]

    def test_nonempty_required(self):
        with pytest.raises(InvalidInputError):
            elementary_symmetric([])

    @given(st.lists(finite_complex, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_newton_identity_consistency(self, values):
        e_direct = elementary_symmetric(values)
        e_newton = newton_elementary_from_power_sums(power_sums(values, len(values)))
        scale = max(1.0, max(abs(e) for e in e_direct))
        assert all(
            abs(a - b) <= 1e-11 * scale for a, b in zip(e_direct, e_newton)
        )

    def test_newton_identity_on_seeded_tuple(self):
        values = random_instance(7, 0)
        e_direct = elementary_symmetric(values)
        e_newton = newton_elementary_from_power_sums(power_sums(values, 5))
        scale = max(1.0, max(abs(e) for e in e_direct))
        assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(e_direct, e_newton))


class TestSqrtDiscriminant:
    def test_integer_ladder(self):
        assert sqrt_discriminant([0, 1, 2, 3, 4]) == 288

    def test_repeated_root_gives_zero(self):
        assert sqrt_discriminant([1, 1, 2, 3, 4]) == 0

    def test_swap_negates(self, seeded_roots):
        base = sqrt_discriminant(seeded_roots)
        swapped = list(seeded_roots)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert abs(sqrt_discriminant(swapped) + base) <= 1e-12 * abs(base)

    @given(st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_any_transposition_negates(self, i, j):
        roots = random_instance(11, 1)
        base = sqrt_discriminant(roots)
        swapped = list(roots)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        expected = -base if i != j else base
        assert abs(sqrt_discriminant(swapped) - expected) <= 1e-12 * abs(base)

    def test_stack_rows_are_the_python_complex_product(self):
        # Each row of a stack, and each single tuple, is bitwise the product
        # taken one Python complex factor at a time.
        tuples = [random_instance(3, index) for index in range(200)]
        expected = []
        for rt in tuples:
            disc = 1.0 + 0j
            for i in range(5):
                for j in range(i + 1, 5):
                    disc *= rt[i] - rt[j]
            expected.append(disc)
        assert sqrt_discriminant(np.array(tuples)).tolist() == expected
        assert [sqrt_discriminant(rt) for rt in tuples] == expected


def _flip(verdict, near: float, far: float) -> tuple[float, float]:
    """Adjacent floats between ``near`` and ``far`` where ``verdict`` turns
    from true (at ``near``) to false."""
    while math.nextafter(near, far) != far:
        mid = (near + far) / 2
        near, far = (mid, far) if verdict(mid) else (near, mid)
    return near, far


class TestDegeneracy:
    def test_equal_roots_are_degenerate(self):
        assert is_degenerate([1, 1, 1, 1, 1])

    def test_near_equal_roots_are_degenerate(self):
        assert is_degenerate([1, 1 + 1e-9, 2, 3j, -1])

    def test_generic_instance_is_not(self, seeded_roots):
        assert not is_degenerate(seeded_roots)

    def test_stack_verdicts_are_the_tuple_verdicts_at_the_floor(self):
        # Tuples on either side of the floor, one last bit of one root apart:
        # close x1 onto x0 until the verdict flips, then move x4 by single
        # last bits.  |sqrt disc| then sits a few roundings from the floor,
        # where the rounding of the product, the scale and its tenth power
        # decides.  An (N, 5) stack must give each tuple's own verdict.
        rng = np.random.default_rng(5)
        tuples = []
        for _ in range(150):
            x = [complex(z) for z in np.sqrt(rng.uniform(0.25, 2.25, 5))
                 * np.exp(2j * np.pi * rng.uniform(size=5))]
            step = complex(np.exp(2j * np.pi * rng.uniform()))

            def moved(eps, delta):
                return (x[0], x[0] + eps * step, x[2], x[3], x[4] + delta * x[4])

            eps, _ = _flip(lambda e: degenerate_reference(moved(e, 0.0)), 0.0, 1.0)
            side = 1e-6 if not degenerate_reference(moved(eps, 1e-6)) else -1e-6
            near, far = _flip(lambda d: degenerate_reference(moved(eps, d)), 0.0, side)
            tuples += [moved(eps, near), moved(eps, far)]
        stack = is_degenerate(np.array(tuples))
        assert stack.tolist() == [True, False] * 150
        assert stack.tolist() == [is_degenerate(t) for t in tuples]


class TestValidation:
    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(InvalidInputError):
            MonicPoly((float("nan"), 0))

    def test_root_tuple_length(self):
        with pytest.raises(InvalidInputError):
            sqrt_discriminant([1, 2, 3])

    @pytest.mark.parametrize("width", [4, 6])
    def test_stack_of_other_than_five_roots_rejected(self, width):
        with pytest.raises(InvalidInputError):
            is_degenerate(np.arange(3 * width, dtype=complex).reshape(3, width))

    def test_nonfinite_stack_rejected(self):
        stack = np.arange(10, dtype=complex).reshape(2, 5)
        stack[1, 2] = complex("nan")
        with pytest.raises(InvalidInputError):
            is_degenerate(stack)
