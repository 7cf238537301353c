"""Acceptance suite: every exit criterion at its stated tolerance.

Run ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Shared batch data (seed 1, 200 instances) is computed once.
"""

import time
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import linear_sum_assignment

from quinticlab import (
    a5_orbit,
    f_family,
    find_roots,
    fit_abc,
    degree12_poly,
    phi_quintic,
    phi_values,
    power_sum_check,
    power_sums,
    relation_rank,
    resolvent_form_residual,
    sextic_from_family,
    sqrt_discriminant,
    two_valuedness_check,
)
from quinticlab.ffamily import family_sweep
from quinticlab.instances import random_instance

from oracles import (
    all_s5,
    apply,
    elementary_symmetric,
    eval_f,
    newton_elementary_from_power_sums,
    phi,
    two_valuedness_reference,
)

SEED = 1
N_INSTANCES = 200
N_TWO_VALUED = 20
N_CROSS = 20


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} {status}: {detail}")


@pytest.fixture(scope="module")
def batch():
    roots = [random_instance(SEED, i) for i in range(N_INSTANCES)]
    start = time.perf_counter()
    orbits = [a5_orbit(rt) for rt in roots]
    orbit_seconds = time.perf_counter() - start
    families = [f_family(rt) for rt in roots]
    fits = [fit_abc(sextic_from_family(fam)) for fam in families]
    return SimpleNamespace(
        roots=roots,
        orbits=orbits,
        orbit_seconds=orbit_seconds,
        families=families,
        fits=fits,
    )


def test_criterion_1_twelve_values_and_pairing(batch):
    counts_ok = all(len(r.values) == 12 for r in batch.orbits)
    pairs_ok = all(len(r.pair_map) == 6 for r in batch.orbits)
    match_ok = all(
        len(r.family_match) == 12 and len(set(r.family_match)) == 12
        for r in batch.orbits
    )
    time_ok = batch.orbit_seconds < 10.0
    ok = counts_ok and pairs_ok and match_ok and time_ok
    _report(
        1,
        ok,
        f"{N_INSTANCES} instances, 12 values / 6 sign pairs / signed-family "
        f"match each, in {batch.orbit_seconds:.2f}s",
    )
    assert ok


def test_criterion_2_degree12_membership(batch):
    worst = 0.0
    for fit, orbit in zip(batch.fits, batch.orbits):
        worst = max(
            worst,
            max(
                resolvent_form_residual(v * v, fit.a, fit.b, fit.c)
                for v in orbit.values
            ),
        )
    ok = worst < 1e-6
    _report(2, ok, f"form residual over all 12x{N_INSTANCES} orbit values, worst {worst:.3e}")
    assert ok


def test_criterion_3_overdetermined_fit(batch):
    worst = max(max(astuple(fit.residuals)) for fit in batch.fits)
    fit_ok = worst < 1e-6

    F, a, b, c = sp.symbols("F a b c")
    G = F + a
    expanded = sp.expand(
        G**6 + 4 * a * G**5 + 10 * b * G**3 + 4 * c * G - 4 * a * c + 5 * b**2
    )
    coeffs = sp.Poly(expanded, F).all_coeffs()
    numeric = [
        complex(sp.N(co.subs({a: 1, b: 2, c: 3}), 30)) for co in coeffs[1:]
    ]
    from quinticlab import MonicPoly

    refit = fit_abc(MonicPoly(tuple(numeric)))
    round_trip_err = max(
        abs(got - want)
        for got, want in zip((refit.a, refit.b, refit.c), (1, 2, 3))
    )
    round_ok = round_trip_err <= 1e-9 and max(astuple(refit.residuals)) <= 1e-9

    ok = fit_ok and round_ok
    _report(
        3,
        ok,
        f"residuals worst {worst:.3e}; synthetic (1,2,3) round trip err {round_trip_err:.3e}",
    )
    assert ok


def test_criterion_4_three_linear_relations(batch):
    report = relation_rank([fam.values() for fam in batch.families])
    ratio = report.singular_values[3] / report.singular_values[0]
    ok = report.rank == 3 and ratio < 1e-6
    _report(4, ok, f"rank {report.rank}, sigma4/sigma1 = {ratio:.3e}")
    assert ok


def test_criterion_5_two_valuedness(batch):
    # The 120 fits of oracles.two_valuedness_reference give one triple on the
    # even relabelings and one on the odd ones; the package's two fits, copy
    # spreads and parity gap state the same claim.
    start = time.perf_counter()
    worst_even = worst_odd = worst_sym = 0.0
    worst_copy = worst_gap = 0.0
    for rt in batch.roots[:N_TWO_VALUED]:
        ref = two_valuedness_reference(family_sweep(rt))
        worst_even = max(worst_even, ref["even_spread"])
        worst_odd = max(worst_odd, ref["odd_spread"])
        worst_sym = max(worst_sym, ref["pair_symmetric_spread"])
        tv = two_valuedness_check(rt)
        for name in ("even_triple", "odd_triple"):
            assert np.allclose(getattr(tv, name), ref[name], rtol=1e-10, atol=0.0)
        worst_copy = max(worst_copy, tv.even_spread, tv.odd_spread)
        worst_gap = max(worst_gap, tv.parity_gap)
    seconds = time.perf_counter() - start
    ok = (
        worst_even < 1e-7
        and worst_odd < 1e-7
        and worst_sym < 1e-7
        and worst_copy < 1e-7
        and worst_gap < 1e-10
        and seconds < 60.0
    )
    _report(
        5,
        ok,
        f"{N_TWO_VALUED} instances x 120 relabelings in {seconds:.2f}s; spreads "
        f"even {worst_even:.3e}, odd {worst_odd:.3e}, pair-symmetric {worst_sym:.3e}; "
        f"copy spread {worst_copy:.3e}, parity gap {worst_gap:.3e}",
    )
    assert ok


def test_criterion_6_principal_form(batch):
    worst_c4 = worst_c2 = worst_p1 = worst_p3 = 0.0
    counts_ok = True
    p2_hits = 0
    for rt in batch.roots:
        pf = phi_values(rt)
        counts_ok = counts_ok and len(pf.values) == 5 and pf.s5_value_count == 10
        quintic = phi_quintic(pf)
        worst_c4 = max(worst_c4, quintic.suppressed.c4_mag)
        worst_c2 = max(worst_c2, quintic.suppressed.c2_mag)
        sums = power_sum_check(pf)
        worst_p1 = max(worst_p1, sums.p1)
        worst_p3 = max(worst_p3, sums.p3)
        if sums.p2_magnitude > 1e-3:
            p2_hits += 1
    p2_fraction = p2_hits / N_INSTANCES
    ok = (
        counts_ok
        and worst_c4 < 1e-7
        and worst_c2 < 1e-7
        and worst_p1 < 1e-7
        and worst_p3 < 1e-7
        and p2_fraction >= 0.95
    )
    _report(
        6,
        ok,
        f"5/10 value counts all instances; |c4| {worst_c4:.3e}, |c2| {worst_c2:.3e}, "
        f"p1 {worst_p1:.3e}, p3 {worst_p3:.3e}; p2 control fraction {p2_fraction:.3f}",
    )
    assert ok


def test_criterion_7_structural_invariants(batch):
    worst_f_hom = worst_phi_hom = 0.0
    for rt in batch.roots[:20]:
        base_f = eval_f(rt)
        scaled_f = eval_f([2.0 * z for z in rt])
        worst_f_hom = max(
            worst_f_hom, abs(scaled_f - 32.0 * base_f) / abs(32.0 * base_f)
        )
        base_phi = phi(f_family(rt))
        scaled_phi = phi(f_family([2.0 * z for z in rt]))
        worst_phi_hom = max(
            worst_phi_hom,
            abs(scaled_phi - 2.0**15 * base_phi) / abs(2.0**15 * base_phi),
        )
    hom_ok = worst_f_hom < 1e-9 and worst_phi_hom < 1e-9

    parity_ok = True
    worst_parity = 0.0
    for rt in batch.roots[:5]:
        base = sqrt_discriminant(rt)
        for perm in all_s5():
            dev = abs(
                sqrt_discriminant(apply(perm, rt)) - perm.parity * base
            ) / abs(base)
            worst_parity = max(worst_parity, dev)
    parity_ok = worst_parity <= 1e-12

    worst_newton = 0.0
    for rt in batch.roots[:50]:
        e_direct = elementary_symmetric(rt)
        e_newton = newton_elementary_from_power_sums(power_sums(rt, 5))
        scale = max(1.0, max(abs(e) for e in e_direct))
        worst_newton = max(
            worst_newton,
            max(abs(x - y) for x, y in zip(e_direct, e_newton)) / scale,
        )
    newton_ok = worst_newton < 1e-11

    ok = hom_ok and parity_ok and newton_ok
    _report(
        7,
        ok,
        f"homogeneity f {worst_f_hom:.3e} / product {worst_phi_hom:.3e}; "
        f"sqrt-disc parity dev {worst_parity:.3e} over 120 perms x 5 instances; "
        f"Newton consistency {worst_newton:.3e}",
    )
    assert ok


def test_criterion_8_cross_module_roots(batch):
    worst = 0.0
    for fit, orbit in zip(batch.fits[:N_CROSS], batch.orbits[:N_CROSS]):
        found = find_roots(degree12_poly(fit))
        cost = np.array([[abs(x - y) for y in orbit.values] for x in found])
        ri, ci = linear_sum_assignment(cost)
        worst = max(worst, float(cost[ri, ci].max()))
    ok = worst <= 1e-6
    _report(
        8,
        ok,
        f"degree-12 roots vs orbit values over {N_CROSS} instances, worst {worst:.3e}",
    )
    assert ok
