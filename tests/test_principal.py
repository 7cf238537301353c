import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from quinticlab import (
    DegenerateInstanceError,
    VerificationFailureError,
    f_family,
    find_roots,
    newton_bridge_gaps,
    phi_quintic,
    phi_values,
    power_sum_check,
)
from quinticlab.clustering import cluster_values
from quinticlab.ffamily import FFamily, family_sweep
from quinticlab.principal import PhiFamily

from oracles import all_s5, apply, invariance_check, phi, phi_coeff_vector, phi_oracle


class TestPhi:
    def test_equal_family_values_vanish(self):
        fam = FFamily(f=3 + 1j, fk=(3 + 1j,) * 5)
        assert phi(fam) == 0

    def test_matches_oracle(self, seeded_roots):
        want = phi_oracle(seeded_roots)
        got = phi(f_family(seeded_roots))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_homogeneity_degree_fifteen(self, seeded_roots):
        base = phi(f_family(seeded_roots))
        scaled = phi(f_family([2.0 * z for z in seeded_roots]))
        assert abs(scaled - 2.0**15 * base) <= 1e-9 * abs(2.0**15 * base)

    def test_literal_difference_variant_is_not_ten_valued(self, seeded_roots):
        # Control pinning the documented sign normalization: with the family's
        # natural signs, using (f2 - f3) in the third factor explodes the
        # value count instead of collapsing to 10.
        rows = family_sweep(seeded_roots)
        literal = (rows[:, 0] - rows[:, 1]) * (rows[:, 2] - rows[:, 5]) * (
            rows[:, 3] - rows[:, 4]
        )
        assert cluster_values(literal, 1e-7).count > 10


class TestPhiValues:
    def test_five_values_under_even_relabelings(self, seeded_roots):
        pf = phi_values(seeded_roots)
        assert len(pf.values) == 5
        assert len(set(np.round(pf.values, 6))) == 5

    def test_ten_values_under_all_relabelings(self, seeded_roots):
        pf = phi_values(seeded_roots)
        assert pf.s5_value_count == 10

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            phi_values([2.0] * 5)


class TestPhiQuintic:
    def test_suppressed_coefficients_small(self, seeded_roots):
        quintic = phi_quintic(phi_values(seeded_roots))
        assert quintic.suppressed.c4_mag < 1e-7
        assert quintic.suppressed.c2_mag < 1e-7

    def test_round_trip_through_roots(self, seeded_roots):
        pf = phi_values(seeded_roots)
        quintic = phi_quintic(pf)
        from quinticlab import MonicPoly

        poly = MonicPoly((0, quintic.p, 0, quintic.q, quintic.r))
        found = find_roots(poly)
        cost = np.array([[abs(a - b) for b in pf.values] for a in found])
        ri, ci = linear_sum_assignment(cost)
        scale = max(1.0, max(abs(v) for v in pf.values))
        assert float(cost[ri, ci].max()) <= 1e-6 * scale

    def test_zero_sum_values_give_exactly_zero_c4(self):
        # (z^2 - 1)(z^2 + 4) z = z^5 + 3 z^3 - 4 z: e1 and e3 vanish exactly,
        # so both suppressed magnitudes are exactly zero in floats.
        values = (1 + 0j, -1 + 0j, 2j, -2j, 0j)
        quintic = phi_quintic(PhiFamily(values=values, s5_value_count=10))
        assert quintic.suppressed.c4_mag == 0.0
        assert quintic.suppressed.c2_mag == 0.0
        assert (quintic.p, quintic.q, quintic.r) == (3, -4, 0)

    def test_arbitrary_values_fail_verification(self):
        pf = PhiFamily(values=(1, 2, 3, 4, 5), s5_value_count=10)
        with pytest.raises(VerificationFailureError):
            phi_quintic(pf)


class TestPowerSums:
    def test_generic_instance(self, seeded_roots):
        sums = power_sum_check(phi_values(seeded_roots))
        assert sums.p1 < 1e-7
        assert sums.p3 < 1e-7
        assert sums.p2_magnitude > 1e-3

    def test_all_zero_family(self):
        pf = PhiFamily(values=(0j,) * 5, s5_value_count=1)
        sums = power_sum_check(pf)
        assert sums.p1 == 0
        assert sums.p3 == 0
        assert sums.p2_magnitude == 0

    def test_newton_bridge_routes_agree(self, seeded_roots):
        pf = phi_values(seeded_roots)
        gap4, gap2 = newton_bridge_gaps(pf, phi_quintic(pf))
        assert gap4 <= 1e-10
        assert gap2 <= 1e-10


class TestInvariance:
    def test_even_relabelings_fix_coefficients(self, seeded_roots):
        assert invariance_check(seeded_roots) < 1e-7

    def test_odd_relabeling_changes_coefficients(self, seeded_roots):
        base = phi_coeff_vector(seeded_roots)
        odd = next(p for p in all_s5() if p.parity == -1)
        other = phi_coeff_vector(apply(odd, seeded_roots))
        rel = max(
            abs(x - y) / max(1.0, abs(x)) for x, y in zip(base, other)
        )
        assert rel > 1e-3

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            invariance_check([1j] * 5)
