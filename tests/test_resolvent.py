from dataclasses import astuple

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
from quinticlab import resolvent
from quinticlab.ffamily import S5_PARITY
from quinticlab.resolvent import square_gap

from oracles import (
    all_s5,
    copy_spreads_reference,
    eval_poly,
    eval_resolvent_form,
    parity_gap_reference,
    two_valuedness_from_sweep,
    two_valuedness_reference,
)


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
        assert max(astuple(fit.residuals)) == 0

    @pytest.mark.parametrize("abc", [(1, 2, 3), (-3 + 2j, 7 - 1j, -10j)])
    def test_synthetic_round_trip(self, abc):
        # Expand the form symbolically at chosen parameters, then refit.
        coeffs, syms = _symbolic_sextic_coeffs()
        subs = dict(zip(syms, abc))
        numeric = [complex(sp.N(c.subs(subs), 30)) for c in coeffs[1:]]
        fit = fit_abc(MonicPoly(tuple(numeric)))
        for got, want in zip((fit.a, fit.b, fit.c), abc):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        assert max(astuple(fit.residuals)) <= 1e-9

    def test_seeded_instance_residuals(self, seeded_roots):
        fit = fit_abc(sextic_from_family(f_family(seeded_roots)))
        assert max(astuple(fit.residuals)) < 1e-6

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
        assert tv.parity_gap < 1e-10

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
    """The array reductions against the loop references in tests/oracles.py.

    Bounds are fixed from complex128: the array and loop forms differ only in
    operation order, by ~1e-13 on these instances.
    """

    TRIPLE_REL = 1e-10
    SPREAD_ABS = 1e-13

    @pytest.mark.parametrize("index", range(50))
    def test_matches_loop_reference(self, index):
        # The two fitted triples are those of the 120 fits of the reference,
        # whose spreads stay under the gate; the copy spreads and the parity
        # gap equal the references that find each copy by value.
        roots = random_instance(2024, index)
        sweep = family_sweep(roots)
        got = two_valuedness_from_sweep(roots, sweep)
        want = two_valuedness_reference(sweep)
        for name in ("even_triple", "odd_triple"):
            for x, r in zip(getattr(got, name), want[name]):
                assert abs(x - r) <= self.TRIPLE_REL * abs(r)
        assert max(want["even_spread"], want["odd_spread"], want["pair_symmetric_spread"]) < 1e-7
        spreads = copy_spreads_reference(sweep)
        assert abs(got.even_spread - spreads[0]) <= self.SPREAD_ABS
        assert abs(got.odd_spread - spreads[1]) <= self.SPREAD_ABS
        scale = float(np.abs(sweep[[0, np.flatnonzero(S5_PARITY == -1)[0]]]).max())
        gap = parity_gap_reference(roots, got.even_triple[0], got.odd_triple[0], scale)
        assert abs(got.parity_gap - gap) <= self.SPREAD_ABS

    def test_identity_row_fit_is_the_single_fit(self):
        # Row operations do not depend on the batch, so row 0 of the two-row
        # fit equals the fit of the identity family alone, bitwise.
        for index in range(200):
            roots = random_instance(7, index)
            got = two_valuedness_from_sweep(roots, family_sweep(roots)).fit
            assert got == fit_abc(sextic_from_family(f_family(roots))), index

    def test_parity_table(self):
        assert list(S5_PARITY) == [p.parity for p in all_s5()]

    def test_sextic_rows_match_poly_from_roots(self, seeded_roots):
        from quinticlab import poly_from_roots

        fam = f_family(seeded_roots)
        want = poly_from_roots([v * v for v in fam.values()]).coeffs
        got = sextic_from_family(fam).coeffs
        scale = max(1.0, max(abs(c) for c in want))
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * scale


def test_square_gap_is_generically_large(seeded_roots):
    assert square_gap(f_family(seeded_roots).values()) > 1e-6


class TestCopySpread:
    """A spread counts an entry's deviation from its signed copy among the
    fitted rows' 12 values against the largest |f| of those 12, so it is free
    of the roots' scale.

    On this sampled instance c = 7.8e-5 against S^5 = 8.8e6, and the fit's
    rounding moved the pair product (c, c') of the 120 fits by 2.4e-7, which
    an absolute 1e-7 read as a two-valuedness failure.  The copy spreads do
    not see c at all.
    """

    ROOTS = random_instance(2641972118475640975, 69)

    def spreads(self, row: int, delta: float) -> tuple[float, float, float]:
        """Both spreads and the parity gap with entry (row, 3) moved by ``delta`` max|f|."""
        sweep = family_sweep(self.ROOTS)
        scale = np.abs(sweep[[0, np.flatnonzero(S5_PARITY == -1)[0]]]).max()
        sweep[row, 3] += delta * scale
        _, spreads, _ = resolvent.two_valuedness_rows([self.ROOTS], sweep[None])
        return tuple(float(s[0]) for s in spreads)

    def test_rounding_passes(self):
        even, odd, gap = self.spreads(0, 0.0)
        assert max(even, odd) < 1e-7
        assert gap < 1e-10

    @pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_an_entry_may_move_by_1e_7_of_max_f(self, factor, fails, parity):
        row = int(np.flatnonzero(S5_PARITY == parity)[5])
        even, odd, _ = self.spreads(row, factor * 1e-7)
        assert ((even if parity == 1 else odd) > 1e-7) == fails
        assert (odd if parity == 1 else even) < 1e-13
