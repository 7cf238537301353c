import numpy as np
import pytest
import sympy as sp
from scipy.optimize import linear_sum_assignment

from quinticlab import (
    DegenerateInstanceError,
    InvalidInputError,
    MonicPoly,
    a5_orbit,
    degree12_poly,
    f_family,
    find_roots,
    fit_abc,
    resolvent_form_residual,
    sextic_from_family,
    two_valuedness_check,
)
from quinticlab.ffamily import FFamily, family_sweep
from quinticlab.instances import random_instance
from quinticlab.ffamily import S5_PARITY
from quinticlab.resolvent import _TAU_PARTNER, square_gap, two_valuedness_from_sweep

from oracles import all_s5, compose, eval_poly, eval_resolvent_form, two_valuedness_reference


def _symbolic_sextic_coeffs():
    F, a, b, c = sp.symbols("F a b c")
    G = F + a
    expanded = sp.expand(
        G**6 + 4 * a * G**5 + 10 * b * G**3 + 4 * c * G - 4 * a * c + 5 * b**2
    )
    return sp.Poly(expanded, F).all_coeffs(), (a, b, c)


class TestExpansionIdentities:
    def test_rederived_coefficients(self):
        # The triangular structure the fit relies on, checked symbolically.
        coeffs, (a, b, c) = _symbolic_sextic_coeffs()
        s6, s5, s4, s3, s2, s1, s0 = coeffs
        assert s6 == 1
        assert sp.simplify(s5 - 10 * a) == 0
        assert sp.simplify(s4 - 35 * a**2) == 0
        assert sp.simplify(s3 - (60 * a**3 + 10 * b)) == 0
        assert sp.simplify(s2 - (55 * a**4 + 30 * a * b)) == 0
        assert sp.simplify(s1 - (26 * a**5 + 30 * a**2 * b + 4 * c)) == 0
        # The constant coefficient is independent of c: the two c-terms cancel.
        assert sp.simplify(s0 - (5 * a**6 + 10 * a**3 * b + 5 * b**2)) == 0


class TestSexticFromFamily:
    def test_zero_family(self):
        fam = FFamily(f=0j, fk=(0j,) * 5)
        sextic = sextic_from_family(fam)
        assert sextic.degree == 6
        assert all(c == 0 for c in sextic.coeffs)

    def test_unit_family(self):
        fam = FFamily(f=1 + 0j, fk=(-1 + 0j, 1 + 0j, -1 + 0j, 1 + 0j, -1 + 0j))
        sextic = sextic_from_family(fam)
        # squares all 1 -> (F - 1)^6
        binom = [-6, 15, -20, 15, -6, 1]
        assert np.allclose(sextic.coeffs, binom, atol=1e-12)

    def test_squares_are_roots(self, seeded_roots):
        fam = f_family(seeded_roots)
        sextic = sextic_from_family(fam)
        scale = max(1.0, float(np.max(np.abs(sextic.full_coeffs()))))
        for v in fam.values():
            assert abs(eval_poly(sextic, v * v)) <= 1e-10 * scale


class TestFitAbc:
    def test_pure_power_gives_zero_parameters(self):
        fit = fit_abc(MonicPoly((0, 0, 0, 0, 0, 0)))
        assert (fit.a, fit.b, fit.c) == (0, 0, 0)
        assert fit.residuals.worst() == 0

    @pytest.mark.parametrize("abc", [(1, 2, 3), (-3 + 2j, 7 - 1j, -10j)])
    def test_synthetic_round_trip(self, abc):
        # Expand the form symbolically at chosen parameters, then refit.
        coeffs, syms = _symbolic_sextic_coeffs()
        subs = dict(zip(syms, abc))
        numeric = [complex(sp.N(c.subs(subs), 30)) for c in coeffs[1:]]
        fit = fit_abc(MonicPoly(tuple(numeric)))
        for got, want in zip((fit.a, fit.b, fit.c), abc):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert fit.residuals.worst() <= 1e-9

    def test_seeded_instance_residuals(self, seeded_roots):
        fit = fit_abc(sextic_from_family(f_family(seeded_roots)))
        assert fit.residuals.worst() < 1e-6

    def test_wrong_degree(self):
        with pytest.raises(InvalidInputError):
            fit_abc(MonicPoly((1, 2, 3)))


class TestResolventForm:
    def test_shift_origin(self):
        # At F = -a every power of G vanishes, leaving 5b^2 - 4ac.
        a, b, c = 2 + 1j, -3 + 0.5j, 4 - 2j
        value = eval_resolvent_form(-a, a, b, c)
        assert abs(value - (5 * b**2 - 4 * a * c)) < 1e-12 * abs(5 * b**2)

    def test_zero_parameters(self):
        assert eval_resolvent_form(3 + 1j, 0, 0, 0) == (3 + 1j) ** 6

    def test_orbit_values_satisfy_the_form(self, seeded_roots):
        fit = fit_abc(sextic_from_family(f_family(seeded_roots)))
        orbit = a5_orbit(seeded_roots)
        for v in orbit.values:
            assert resolvent_form_residual(v * v, fit.a, fit.b, fit.c) <= 1e-6


class TestDegree12:
    def test_zero_parameters_give_pure_power(self):
        fit = fit_abc(MonicPoly((0, 0, 0, 0, 0, 0)))
        p12 = degree12_poly(fit)
        assert p12.degree == 12
        assert all(c == 0 for c in p12.coeffs)

    def test_odd_coefficients_vanish_exactly(self, seeded_roots):
        fit = fit_abc(sextic_from_family(f_family(seeded_roots)))
        p12 = degree12_poly(fit)
        # positions 0, 2, 4, ... of coeffs are f^11, f^9, ...: all odd powers
        assert all(p12.coeffs[i] == 0 for i in range(0, 12, 2))

    def test_roots_match_orbit(self, seeded_roots):
        fit = fit_abc(sextic_from_family(f_family(seeded_roots)))
        found = find_roots(degree12_poly(fit))
        orbit = a5_orbit(seeded_roots)
        cost = np.array([[abs(a - b) for b in orbit.values] for a in found])
        ri, ci = linear_sum_assignment(cost)
        assert float(cost[ri, ci].max()) <= 1e-6


@pytest.fixture(scope="module")
def report():
    from quinticlab.instances import random_instance

    roots = random_instance(1234, 0)
    return roots, two_valuedness_check(roots)


class TestTwoValuedness:
    def test_identity_reproduces_reference(self, report):
        roots, tv = report
        fit = fit_abc(sextic_from_family(f_family(roots)))
        for got, ref in zip((fit.a, fit.b, fit.c), tv.even_triple):
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_spreads_within_tolerance(self, report):
        _, tv = report
        assert tv.even_spread < 1e-7
        assert tv.odd_spread < 1e-7
        assert tv.pair_symmetric_spread < 1e-7

    def test_even_and_odd_triples_differ(self, report):
        _, tv = report
        gap = max(
            abs(x - y) / max(1.0, abs(x))
            for x, y in zip(tv.even_triple, tv.odd_triple)
        )
        assert gap > 1e-3

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            two_valuedness_check([1.0] * 5)


class TestArrayCore:
    """The array reductions against the loop reference in tests/oracles.py.

    Bounds are fixed from complex128: the array and loop forms differ only in
    operation order, by ~1e-13 on these instances.
    """

    TRIPLE_REL = 1e-10
    SPREAD_ABS = 1e-10

    @pytest.mark.parametrize("index", range(50))
    def test_matches_loop_reference(self, index):
        sweep = family_sweep(random_instance(2024, index))
        got = two_valuedness_from_sweep(sweep)
        want = two_valuedness_reference(sweep)
        for name in ("even_triple", "odd_triple"):
            for x, r in zip(getattr(got, name), want[name]):
                assert abs(x - r) <= self.TRIPLE_REL * abs(r)
        for name in ("even_spread", "odd_spread", "pair_symmetric_spread"):
            assert abs(getattr(got, name) - want[name]) <= self.SPREAD_ABS

    def test_identity_row_fit_is_the_single_fit(self):
        # Row operations do not depend on the batch, so row 0 of the 120-row
        # fit equals the fit of the identity family alone, bitwise.
        for index in range(200):
            roots = random_instance(7, index)
            got = two_valuedness_from_sweep(family_sweep(roots)).fit
            assert got == fit_abc(sextic_from_family(f_family(roots))), index

    def test_parity_and_partner_tables(self):
        perms = all_s5()
        assert list(S5_PARITY) == [p.parity for p in perms]
        index_of = {p.image: i for i, p in enumerate(perms)}
        tau = next(p for p in perms if p.parity == -1)
        assert list(_TAU_PARTNER) == [index_of[compose(tau, p).image] for p in perms]

    def test_sextic_rows_match_poly_from_roots(self, seeded_roots):
        from quinticlab import poly_from_roots

        fam = f_family(seeded_roots)
        want = poly_from_roots([v * v for v in fam.values()]).coeffs
        got = sextic_from_family(fam).coeffs
        scale = max(1.0, max(abs(c) for c in want))
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale


def test_square_gap_is_generically_large(seeded_roots):
    assert square_gap(f_family(seeded_roots)) > 1e-6
