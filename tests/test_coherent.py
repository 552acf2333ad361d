"""Displacement coherent states: normalisation, recurrences, intertwining."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from coupledsusy import towers
from coupledsusy.coherent import (
    CoherentState,
    HalfLoweringCheck,
    bargmann_index,
    bargmann_indices,
    coherent_state,
    full_lowering_misfit,
    verify_half_lowering,
)
from coupledsusy.calculus import Generator, apply_word, proportionality_ratio
from coupledsusy.systems import k_operators, make_xn_system
from coupledsusy.towers import SectorLabel, eigenstate

PSI, PHI = SectorLabel.PSI, SectorLabel.PHI
PSI_T, PHI_T = SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE


def coefficient_from_gamma(k: Fraction, z: complex, series_index: int, dps: int = 40) -> complex:
    """Direct Gamma-formula coefficient, the oracle for the ratio recurrence."""
    with mp.workdps(dps):
        two_k = mp.mpf(2 * k.numerator) / k.denominator
        amp = mp.sqrt(
            mp.gamma(series_index + two_k)
            / (mp.factorial(series_index) * mp.gamma(two_k))
        )
        pref = mp.power(1 - abs(z) ** 2, mp.mpf(k.numerator) / k.denominator)
        value = pref * amp * mp.mpc(z) ** series_index
        return complex(value)


def test_bargmann_indices_n1():
    got = bargmann_indices(make_xn_system(1))
    assert got == {
        PSI: Fraction(1, 4),
        PHI: Fraction(3, 4),
        PSI_T: Fraction(3, 4),
        PHI_T: Fraction(1, 4),
    }


def test_bargmann_indices_n2():
    got = bargmann_indices(make_xn_system(2))
    assert got == {
        PSI: Fraction(1, 8),
        PHI: Fraction(7, 8),
        PSI_T: Fraction(5, 8),
        PHI_T: Fraction(3, 8),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_psi_index_positive(n):
    assert bargmann_index(make_xn_system(n), PSI) > 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "sector", [PSI, PHI, PSI_T, PHI_T]
)
def test_bargmann_index_matches_k0_action(n, sector):
    # K0 (or its tilde partner) on the lowest tower state must read off k
    sysn = make_xn_system(n)
    kops = k_operators(sysn)
    m0 = 1 if sector is PSI_T else 0
    state = eigenstate(sysn, sector, m0).state
    which = "k0~" if sector.is_tilde else "k0"
    image = kops[which].apply(state)
    ratio = proportionality_ratio(image, state)
    assert ratio is not None
    q, j = ratio
    assert j == 0
    # the lowest state of each tower representation sits at K0 eigenvalue k
    assert q == bargmann_index(sysn, sector)


@pytest.mark.parametrize("n", range(1, 9))
def test_bargmann_index_is_half_laguerre_beta_plus_one(n):
    # ties the Bargmann table to the towers' closed-form (p, a, j) table: 2k = beta + 1
    system = make_xn_system(n)
    for sector in SectorLabel:
        record = eigenstate(system, sector, 1 if sector is PSI_T else 0)
        _, a, _ = towers._laguerre_parameters(record)
        assert 2 * bargmann_index(system, sector) == Fraction(a, 2 * n) + 1


def test_z_zero_is_ground_state():
    state = coherent_state(make_xn_system(2), PSI, 0.0)
    assert state.coefficients == (1.0 + 0.0j,)
    assert state.norm_sq() == 1.0
    assert state.tail_bound == 0.0


def test_tolerance_must_be_positive():
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            coherent_state(make_xn_system(2), PSI, 0.5, tol)


def test_coefficients_outside_the_series_are_zero():
    state = coherent_state(make_xn_system(2), PSI_T, 0.5)
    assert state.m_start == 1 and state.coefficient_at_level(1) == state.coefficients[0]
    for m in (0, state.truncation_level + 1):
        assert state.coefficient_at_level(m) == 0.0


def test_z_on_unit_circle_rejected():
    with pytest.raises(ValueError):
        coherent_state(make_xn_system(2), PSI, 1.0)
    with pytest.raises(ValueError):
        coherent_state(make_xn_system(2), PSI, 0.8 + 0.7j)


@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_normalisation_within_tolerance(sector):
    state = coherent_state(make_xn_system(2), sector, 0.5, tol=1e-12)
    assert 1 - 1e-12 <= state.norm_sq() <= 1 + 1e-15


def test_normalisation_binomial_series_oracle():
    # sum_m Gamma(m+2k)/(m! Gamma(2k)) |z|^(2m) = (1-|z|^2)^(-2k)
    state = coherent_state(make_xn_system(2), PSI, 0.5, tol=1e-14)
    with mp.workdps(30):
        z2 = mp.mpf("0.25")
        two_k = mp.mpf(1) / 4
        series = sum(
            mp.gamma(m + two_k) / (mp.factorial(m) * mp.gamma(two_k)) * z2 ** m
            for m in range(len(state.coefficients))
        )
        direct = float((1 - z2) ** (two_k / 2 * 2) * series)
    assert state.norm_sq() == pytest.approx(direct, abs=1e-13)


def test_first_ratio_n2_psi():
    # c1/c0 = z sqrt(2k/1) = z/2 for 2k = 1/4
    state = coherent_state(make_xn_system(2), PSI, 0.5, tol=1e-12)
    assert state.coefficients[1] / state.coefficients[0] == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_recurrence_matches_gamma_formula(sector):
    sys2 = make_xn_system(2)
    state = coherent_state(sys2, sector, 0.37 + 0.21j, tol=1e-13)
    k = state.k
    for i in range(min(len(state.coefficients), 51)):
        direct = coefficient_from_gamma(k, state.z, i)
        assert state.coefficients[i] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_tail_bound_is_honest():
    # extending the series must stay within the reported tail bound
    sys2 = make_xn_system(2)
    loose = coherent_state(sys2, PHI, 0.6, tol=1e-6)
    tight = coherent_state(sys2, PHI, 0.6, tol=1e-18)
    dropped = sum(
        abs(c) ** 2
        for i, c in enumerate(tight.coefficients)
        if i > loose.truncation_level - tight.m_start
    )
    assert dropped <= loose.tail_bound * (1 + 1e-9)


# ---------------------------------------------------------------------------
# half-lowering intertwining
# ---------------------------------------------------------------------------


def test_half_lowering_psi_n2():
    check = verify_half_lowering(make_xn_system(2), PSI, 0.5, tol=1e-12)
    assert check.operator == "a"
    assert check.target_sector is PSI_T
    assert check.scalar == pytest.approx(0.5 / math.sqrt(0.75), rel=1e-14)
    assert check.scalar == pytest.approx(0.57735026918962584, rel=1e-12)
    assert check.residual < 1e-10
    assert check.best_fit_scalar == pytest.approx(check.scalar, rel=1e-12)


def test_half_lowering_phi_tilde_n2():
    check = verify_half_lowering(make_xn_system(2), PHI_T, 0.5, tol=1e-12)
    assert check.operator == "b+"
    assert check.target_sector is PHI
    # sqrt(delta) z / sqrt(1-|z|^2) = sqrt(3)/2 / sqrt(3)/2 = 1
    assert check.scalar == pytest.approx(1.0, rel=1e-14)
    assert check.residual < 1e-10
    assert check.best_fit_scalar == pytest.approx(1.0, rel=1e-12)


def test_half_lowering_scalar_shape_not_sqrt_one_minus_z2():
    # the intertwining scalar carries 1/sqrt(1-|z|^2); multiplying by
    # (1-|z|^2) instead (i.e. sqrt(delta) z sqrt(1-|z|^2)) fails by exactly
    # that factor
    sys2 = make_xn_system(2)
    z = 0.5
    check = verify_half_lowering(sys2, PHI_T, z, tol=1e-12)
    wrong = math.sqrt(3.0) * z * math.sqrt(1 - z * z)
    assert wrong == pytest.approx(0.75, rel=1e-14)
    assert abs(check.best_fit_scalar - wrong) > 0.2
    assert check.best_fit_scalar == pytest.approx(wrong / (1 - z * z), rel=1e-12)


def test_half_lowering_zero_displacement():
    check = verify_half_lowering(make_xn_system(2), PSI, 0.0, tol=1e-12)
    assert check.scalar == 0
    assert check.residual == 0


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_half_lowering_total_mismatch_scales_with_tol(tol):
    check = verify_half_lowering(make_xn_system(2), PSI, 0.5, tol=tol)
    assert check.residual < 1e-10
    tails = check.tail_bound_source + abs(check.scalar) ** 2 * check.tail_bound_target
    assert check.residual + math.sqrt(max(tails, 0.0)) < 3 * math.sqrt(tol)


def test_half_lowering_rejects_other_sectors():
    with pytest.raises(ValueError):
        verify_half_lowering(make_xn_system(2), PHI, 0.5)


def test_half_lowering_complex_displacement():
    z = 0.3 + 0.35j
    check = verify_half_lowering(make_xn_system(2), PSI, z, tol=1e-12)
    assert check.scalar == pytest.approx(z / math.sqrt(1 - abs(z) ** 2), rel=1e-13)
    assert check.residual < 1e-10


def test_half_lowering_n1_scalars():
    sys1 = make_xn_system(1)
    z = 0.3
    a_check = verify_half_lowering(sys1, PSI, z, tol=1e-12)
    b_check = verify_half_lowering(sys1, PHI_T, z, tol=1e-12)
    expect = z / math.sqrt(1 - z * z)
    assert a_check.scalar == pytest.approx(expect, rel=1e-14)
    assert b_check.scalar == pytest.approx(expect, rel=1e-14)  # delta = -gamma = 1
    assert a_check.residual < 1e-12 and b_check.residual < 1e-12


def test_full_lowering_word_does_not_fix_state():
    best, rel_residual = full_lowering_misfit(make_xn_system(2), 0.5, tol=1e-12)
    assert rel_residual > 0.01


def test_full_lowering_misfit_at_zero_displacement():
    # z = 0 keeps only psi_0, which b+a annihilates: no image to fit
    assert full_lowering_misfit(make_xn_system(2), 0.0) == (0j, 0.0)


def test_full_lowering_word_oracle_consistency():
    # sanity for the composed factors: b+a on the exact level-m state is
    # sqrt(m(d-g)) sqrt(m(d-g)-delta) times level m-1
    sys2 = make_xn_system(2)
    for m in (1, 2, 3):
        rec_m = eigenstate(sys2, PSI, m)
        rec_prev = eigenstate(sys2, PSI, m - 1)
        lowered = apply_word(sys2, (Generator.BDAG, Generator.A), rec_m.state)
        ratio = proportionality_ratio(lowered, rec_prev.state)
        assert ratio is not None
        q, j = ratio
        lamsq_product = Fraction(4 * m) * Fraction(4 * m - 3)
        # lowered = q 2^(j/2) psi_{m-1}, so on normalised states the squared
        # scalar is q^2 2^j <psi_{m-1}, psi_{m-1}> / <psi_m, psi_m>, which
        # must equal m(d-g) * (m(d-g) - delta) exactly
        assert rec_prev.norm_sq.scale(q * q * Fraction(2) ** j) == rec_m.norm_sq.scale(
            lamsq_product
        )


def test_coherent_state_record_semantics():
    state = coherent_state(make_xn_system(2), PSI, 0.3 + 0.2j, 1e-8)
    fields = (state.sector, state.k, state.z, state.m_start, state.coefficients, state.tail_bound)
    assert state == CoherentState(*fields) == coherent_state(make_xn_system(2), PSI, 0.3 + 0.2j, 1e-8)
    assert hash(state) == hash(CoherentState(*fields))
    assert state != CoherentState(*fields[:5], 0.0)
    assert state != coherent_state(make_xn_system(2), PSI, 0.3 + 0.2j, 1e-10)
    with pytest.raises(AttributeError):
        state.z = 0j
    zero = CoherentState(
        sector=PHI, k=Fraction(3, 4), z=0j, m_start=0, coefficients=(1 + 0j,), tail_bound=0.0
    )
    assert zero == coherent_state(make_xn_system(1), PHI, 0)
    assert repr(zero) == (
        f"CoherentState(sector={PHI!r}, k=Fraction(3, 4), z=0j, m_start=0, "
        "coefficients=((1+0j),), tail_bound=0.0)"
    )


def test_half_lowering_check_record_semantics():
    check = verify_half_lowering(make_xn_system(2), PSI, 0.4, 1e-10)
    assert check == verify_half_lowering(make_xn_system(2), PSI, 0.4, 1e-10)
    assert check != verify_half_lowering(make_xn_system(2), PSI, 0.5, 1e-10)
    fields = [getattr(check, f) for f in (
        "sector", "operator", "target_sector", "target_k", "scalar", "best_fit_scalar",
        "residual", "compared_levels", "tail_bound_source", "tail_bound_target",
    )]
    assert HalfLoweringCheck(*fields) == check
    assert hash(HalfLoweringCheck(*fields)) == hash(check)
    assert HalfLoweringCheck(*fields[:7], check.compared_levels + 1, *fields[8:]) != check
    with pytest.raises(AttributeError):
        check.residual = 0.0
    assert repr(check).startswith(f"HalfLoweringCheck(sector={PSI!r}, operator='a', target_sector=")
    assert f", compared_levels={check.compared_levels}, tail_bound_source=" in repr(check)
