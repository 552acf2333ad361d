"""Acceptance gate: the eight headline checks at their pinned tolerances.

Each test prints one summary line (visible with pytest -s or in the
captured output on failure) and asserts the corresponding criterion:

 1. exact defining + su(1,1) algebra for n = 1..6, zero residuals, < 5 s
 2. exact ladder spectra for n = 1..3 up to level 8, < 5 s
 3. independent numerics: Galerkin (128-bit, size 10) to 1e-6 relative;
    finite differences for n=1 within 1e-5 and n=2 within 5%, < 60 s
 4. exact 8x8 orthogonality for the n=2 towers
 5. exact half-lowering norm factors for n <= 3, m <= 6
 6. coherent states at n=2, z=0.5: unit norm to 1e-12, half-lowering
    intertwining residual < 1e-10, not fixed by the full lowering word
 7. uncertainty minimisers and bounds to 1e-12, strict excess on excited
    states up to level 4
 8. every single generator-rule coefficient is mutation-sensitive
"""

import math
import time
from fractions import Fraction

from coupledsusy.calculus import Generator, apply_word
from coupledsusy.coherent import (
    coherent_state,
    full_lowering_misfit,
    verify_half_lowering,
)
from coupledsusy.spectral import fd_spectrum, galerkin_spectrum
from coupledsusy.systems import (
    all_reports_pass,
    make_xn_system,
    mutation_slots,
    verify_coupled_susy,
    verify_su11,
)
from coupledsusy.towers import (
    SectorLabel,
    eigenstate,
    gram_matrix,
    ground_states,
    half_lowering_factor_squared,
    merged_spectrum,
    verify_lemma_half_lowering,
)
from coupledsusy.uncertainty import (
    direct_sum,
    uncertainty_product_LA,
    uncertainty_product_tilde,
    uncertainty_product_XP,
)

PSI, PHI = SectorLabel.PSI, SectorLabel.PHI
PSI_T, PHI_T = SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {number} [{name}] {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    return passed


def test_criterion_1_exact_algebra():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        system = make_xn_system(n)
        ok = ok and all_reports_pass(verify_coupled_susy(system))
        ok = ok and all_reports_pass(verify_su11(system))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _report(1, "exact algebra n=1..6", ok, f"{elapsed:.2f}s")


def test_criterion_2_ladder_spectrum():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        system = make_xn_system(n)
        for sector in (PSI, PHI, PSI_T, PHI_T):
            for m in range(1 if sector is PSI_T else 0, 9):
                rec = eigenstate(system, sector, m)
                word = (
                    (Generator.A, Generator.ADAG)
                    if sector.is_tilde
                    else (Generator.ADAG, Generator.A)
                )
                ok = ok and apply_word(system, word, rec.state) == rec.state.scale(
                    rec.eigenvalue
                )
        merged = merged_spectrum(system, 18)
        want = sorted(
            [2 * k * n for k in range(18)] + [2 * k * n + 2 * n - 1 for k in range(18)]
        )[:18]
        ok = ok and [int(v) for v in merged] == want
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert _report(2, "ladder spectrum n=1..3, m<=8", ok, f"{elapsed:.2f}s")


def test_criterion_3_independent_numerics():
    start = time.perf_counter()
    sys2 = make_xn_system(2)
    ok = True
    for residue, expected in ((0, (0, 4, 8, 12)), (3, (3, 7, 11, 15))):
        report = galerkin_spectrum(sys2, residue, 10, count=4)
        ok = ok and tuple(float(t) for t in report.theory) == tuple(map(float, expected))
        ok = ok and max(report.rel_errors) <= 1e-6 and report.passed
    fd1 = fd_spectrum(1, 12.0, 2000, count=6)
    ok = ok and max(abs(c - float(t)) for c, t in zip(fd1.computed, fd1.theory)) <= 1e-5
    fd2 = fd_spectrum(2, 6.0, 4000, count=4)
    ok = ok and all(
        abs(c - float(t)) <= 0.05 * max(1.0, float(t))
        for c, t in zip(fd2.computed, fd2.theory)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _report(3, "exact Galerkin + FD", ok, f"{elapsed:.2f}s")


def test_criterion_4_orthogonality():
    sys2 = make_xn_system(2)
    records = [eigenstate(sys2, PSI, m) for m in range(4)]
    records += [eigenstate(sys2, PHI, m) for m in range(4)]
    exact = gram_matrix(records)
    ok = all(
        exact[i][j].is_zero == (i != j) for i in range(8) for j in range(8)
    )
    assert _report(4, "8x8 exact Gram orthogonality", ok)


def test_criterion_5_half_lowering_factors():
    ok = True
    for n in (1, 2, 3):
        system = make_xn_system(n)
        ok = ok and verify_lemma_half_lowering(system, 6).passed
        dg = system.spacing
        for m in range(0, 7):
            ok = ok and half_lowering_factor_squared(system, PSI, m) == m * dg
            ok = ok and half_lowering_factor_squared(system, PHI, m) == m * dg + system.delta
            ok = ok and half_lowering_factor_squared(system, PHI_T, m) == m * dg
            if m >= 1:
                ok = ok and half_lowering_factor_squared(system, PSI_T, m) == m * dg - system.delta
    assert _report(5, "exact ladder coefficients n<=3, m<=6", ok)


def test_criterion_6_coherent_states():
    sys2 = make_xn_system(2)
    z, tol = 0.5, 1e-12
    ok = True
    for sector in (PSI, PHI, PSI_T, PHI_T):
        state = coherent_state(sys2, sector, z, tol)
        ok = ok and abs(state.norm_sq() - 1.0) <= 1e-12
    check_a = verify_half_lowering(sys2, PSI, z, tol)
    ok = ok and check_a.residual < 1e-10
    ok = ok and abs(check_a.scalar - math.sqrt(1.0) * z / math.sqrt(1 - z * z)) < 1e-14
    check_b = verify_half_lowering(sys2, PHI_T, z, tol)
    ok = ok and check_b.residual < 1e-10
    # the b+ intertwining scalar is sqrt(delta) z / sqrt(1-|z|^2); the
    # sqrt(delta) z sqrt(1-|z|^2) variant differs by a factor (1-|z|^2)
    # and is incompatible with the ladder coefficients (see test_coherent)
    ok = ok and abs(check_b.scalar - math.sqrt(3.0) * z / math.sqrt(1 - z * z)) < 1e-14
    ok = ok and abs(check_b.best_fit_scalar - check_b.scalar) < 1e-10
    _, misfit = full_lowering_misfit(sys2, z, tol)
    ok = ok and misfit > 0.01
    assert _report(
        6,
        "coherent states n=2 z=0.5",
        ok,
        f"residuals {check_a.residual:.1e}/{check_b.residual:.1e}, "
        f"b+ scalar {check_b.scalar.real:.6f}, lowering misfit {misfit:.3f}",
    )


def test_criterion_7_uncertainty():
    ok = True
    for n, floor in ((1, 0.5), (2, 1.0)):
        system = make_xn_system(n)
        psi0, _ = ground_states(system)
        la = uncertainty_product_LA(system, psi0)
        want = float(system.spacing) / 4 * abs(float(system.gamma))
        ok = ok and abs(la.product - want) <= 1e-12 and abs(want - floor) < 1e-15
        phi_t0 = eigenstate(system, PHI_T, 0)
        tilde = uncertainty_product_tilde(system, phi_t0)
        want_tilde = float(system.spacing) / 4 * float(system.delta)
        ok = ok and abs(tilde.product - want_tilde) <= 1e-11
        xp = uncertainty_product_XP(system, direct_sum(psi0, 1, None, 0))
        ok = ok and abs(xp.product - 0.5) <= 1e-12
        ok = ok and abs(xp.details["second_x"] - 0.5) <= 1e-12
        ok = ok and abs(xp.details["second_p"] - 0.5) <= 1e-12
    # strict excess on every excited state up to level 4
    sys2 = make_xn_system(2)
    for sector in (PSI, PHI):
        for m in range(0, 5):
            if sector is PSI and m == 0:
                continue
            res = uncertainty_product_LA(sys2, eigenstate(sys2, sector, m))
            ok = ok and res.product > 1.0 + 1e-9
    for sector in (PSI_T, PHI_T):
        for m in range(1, 5):
            res = uncertainty_product_tilde(sys2, eigenstate(sys2, sector, m))
            ok = ok and res.product > 3.0 + 1e-9
    assert _report(7, "uncertainty minimisers and bounds", ok)


def test_criterion_8_mutation_sensitivity():
    base = make_xn_system(2)
    slots = mutation_slots(base)
    ok = len(slots) == 12
    for gen, idx, which in slots:
        mutated = make_xn_system(2, mutate=(gen, idx, which, Fraction(1)))
        reports = verify_coupled_susy(mutated) + verify_su11(mutated)
        ok = ok and not all_reports_pass(reports)
    assert _report(8, "mutation sensitivity of all 12 rule coefficients", ok)
