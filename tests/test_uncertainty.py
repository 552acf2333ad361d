"""Uncertainty products, Robertson bounds, and their minimisers."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from coupledsusy.calculus import (
    FamilyMismatchError,
    GammaVector,
    Generator,
    Operator,
    apply_word,
    evaluate_gamma_vector_mp,
    inner_product,
    monomial_state,
)
from coupledsusy.systems import CoupledSusySystem, make_xn_system, mutation_slots
from coupledsusy import _oracle, towers, uncertainty
from coupledsusy._oracle import (
    OperatorExpression,
    _ladder_observables,
    expectation,
    expectation_exact,
    matrix_element,
    p_block,
    variance,
    x_block,
)
from coupledsusy.towers import EigenstateRecord, SectorLabel, eigenstate, ground_states
from coupledsusy.uncertainty import (
    DirectSumState,
    UncertaintyResult,
    SectorDomainError,
    direct_sum,
    uncertainty_product_LA,
    uncertainty_product_tilde,
    uncertainty_product_XP,
)

PSI, PHI = SectorLabel.PSI, SectorLabel.PHI
PSI_T, PHI_T = SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE


# ---------------------------------------------------------------------------
# quadrature oracle for expectations
# ---------------------------------------------------------------------------


def mp_state_value(state, t):
    total = mp.mpf(0)
    for k, c in state.terms.items():
        total += mp.mpf(c.numerator) / c.denominator * mp.power(t, k)
    return (
        total
        * mp.exp(-mp.power(t, 2 * state.n) / (2 * state.n))
        * mp.power(2, mp.mpf(-state.half_power) / 2)
    )


def quad_expectation(expr, state, dps=25):
    """Numeric <expr> by quadrature of the operator's image against the state."""
    with mp.workdps(dps):
        image = expr.op.apply(state)
        total = mp.quad(
            lambda t: mp_state_value(state, t) * mp_state_value(image, t),
            [-mp.inf, 0, mp.inf],
        )
        norm = mp.quad(lambda t: mp_state_value(state, t) ** 2, [-mp.inf, 0, mp.inf])
        return complex(total / norm) * (1j if expr.imaginary else 1)


# ---------------------------------------------------------------------------
# expectations on ground states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mean_L_and_A_vanish_on_psi0(n):
    sysn = make_xn_system(n)
    psi0, _ = ground_states(sysn)
    for expr in _ladder_observables(sysn, 1):
        exact = expectation_exact(sysn, expr, psi0)
        assert exact.is_zero
    # the A computation must actually traverse nonzero word images
    raised = apply_word(sysn, (Generator.ADAG, Generator.B), psi0.state)
    assert not raised.is_zero


def test_second_moment_L_on_psi0_n2():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    L = _ladder_observables(sys2, 1)[0]
    value = expectation(sys2, L.compose(L), psi0)
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real == pytest.approx(1.0, rel=1e-12)  # (d-g)|g|/4 = 4/4


def test_second_moments_match_between_L_and_A_on_psi0():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    L, A = _ladder_observables(sys2, 1)
    vL = expectation(sys2, L.compose(L), psi0).real
    vA = expectation(sys2, A.compose(A), psi0).real
    assert vL == pytest.approx(vA, rel=1e-13)


def test_expectations_match_quadrature_oracle():
    sys2 = make_xn_system(2)
    psi1 = eigenstate(sys2, PSI, 1)
    L = _ladder_observables(sys2, 1)[0]
    got = expectation(sys2, L.compose(L), psi1)
    want = quad_expectation(L.compose(L), psi1.state)
    assert got.real == pytest.approx(want.real, rel=1e-10)
    assert abs(got.imag) < 1e-12


def test_commutator_LA_is_scaled_number_operator():
    # [L, A] x^k == i (gamma - delta)(a+a - gamma/2) x^k exactly
    for n in (1, 2, 3):
        sysn = make_xn_system(n)
        L, A = _ladder_observables(sysn, 1)
        comm = L.commutator_with(A)
        for k in (0, 2 * n - 1, 2 * n, 4 * n):
            mono = monomial_state(n, k)
            exact = matrix_element(sysn, comm, mono, mono)
            assert comm.imaginary
            expected = inner_product(
                apply_word(sysn, (Generator.ADAG, Generator.A), mono)
                - mono.scale(sysn.gamma / 2),
                mono,
            ).scale(-sysn.spacing)
            assert exact == expected


def test_commutator_matches_the_difference_of_the_two_compositions():
    # i op and i op' give the real -[op, op']; one imaginary factor gives i [op, op']
    for n in (1, 2):
        sysn = make_xn_system(n, mutate="b-coeff") if n == 2 else make_xn_system(n)
        exprs = [*_ladder_observables(sysn, 1), _ladder_observables(sysn, 2)[1],
                 x_block(sysn, "12"), p_block(sysn, "21")]
        for x in exprs:
            for y in exprs:
                got, want = x.commutator_with(y), x.compose(y).minus(y.compose(x))
                assert (got.name, got.sector) == (f"[{x.name},{y.name}]", x.sector)
                assert got.op == want.op and got.imaginary == want.imaginary == (x.imaginary != y.imaginary)


# ---------------------------------------------------------------------------
# first-sector product
# ---------------------------------------------------------------------------


def test_LA_product_minimised_on_psi0_n2():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    result = uncertainty_product_LA(sys2, psi0)
    assert result.product == pytest.approx(1.0, rel=1e-12)
    assert result.bound == pytest.approx(1.0, rel=1e-12)
    assert abs(result.equality_gap) < 1e-12
    assert result.passed


def test_LA_product_half_for_qmho():
    sys1 = make_xn_system(1)
    psi0, _ = ground_states(sys1)
    result = uncertainty_product_LA(sys1, psi0)
    assert result.product == pytest.approx(0.5, rel=1e-12)
    assert result.bound == pytest.approx(0.5, rel=1e-12)


def test_LA_product_strictly_above_floor_on_excited_states():
    sys2 = make_xn_system(2)
    floor = 1.0  # (d-g)|g|/4
    for sector in (PSI, PHI):
        for m in (0, 1, 2, 3, 4):
            result = uncertainty_product_LA(sys2, eigenstate(sys2, sector, m))
            number = result.details["mean_number"]
            if number > 0:
                assert result.product > floor + 1e-6
            assert result.passed
            assert result.bound == pytest.approx(result.details["bound_closed_form"], rel=1e-10)


def test_LA_product_value_on_psi1_n2():
    # frozen from the exact computation, cross-checked by quadrature above:
    # on an eigenstate <L> = <A> = 0 and <L^2> = <A^2>, so the product is
    # <L^2> itself, which comes out exactly 11
    sys2 = make_xn_system(2)
    result = uncertainty_product_LA(sys2, eigenstate(sys2, PSI, 1))
    assert result.bound == pytest.approx(9.0, rel=1e-12)  # (d-g)/4 |2*4 - (-1)|
    assert result.product == pytest.approx(11.0, rel=1e-10)
    assert result.sigma1 == pytest.approx(result.sigma2, rel=1e-12)


def test_sector_guard_rejects_tilde_states():
    sys2 = make_xn_system(2)
    tilde = eigenstate(sys2, PSI_T, 1)
    with pytest.raises(SectorDomainError):
        uncertainty_product_LA(sys2, tilde)


def test_matrix_element_refuses_other_families():
    sys2 = make_xn_system(2)
    obs = _ladder_observables(sys2, 1)[0]
    for f, g in ((monomial_state(1, 0), monomial_state(2, 0)), (monomial_state(2, 0), monomial_state(3, 0))):
        with pytest.raises(FamilyMismatchError):
            matrix_element(sys2, obs, f, g)


def test_variance_nonnegative_and_imag_parts_cancel():
    sys3 = make_xn_system(3)
    rec = eigenstate(sys3, PHI, 2)
    for expr in _ladder_observables(sys3, 1):
        assert variance(sys3, expr, rec) >= 0
        exact = expectation_exact(sys3, expr, rec)
        assert not expr.imaginary or exact.is_zero


# ---------------------------------------------------------------------------
# second-sector product
# ---------------------------------------------------------------------------


def test_tilde_product_minimised_on_phi_tilde0_n2():
    sys2 = make_xn_system(2)
    phi_t0 = eigenstate(sys2, PHI_T, 0)
    result = uncertainty_product_tilde(sys2, phi_t0)
    assert result.product == pytest.approx(3.0, rel=1e-12)  # (d-g) delta / 4
    assert result.bound == pytest.approx(3.0, rel=1e-12)
    assert abs(result.equality_gap) < 1e-11


def test_tilde_product_qmho():
    sys1 = make_xn_system(1)
    result = uncertainty_product_tilde(sys1, eigenstate(sys1, PHI_T, 0))
    assert result.product == pytest.approx(0.5, rel=1e-12)


def test_tilde_product_above_floor_on_excited():
    sys2 = make_xn_system(2)
    floor = 3.0
    result = uncertainty_product_tilde(sys2, eigenstate(sys2, PHI_T, 1))
    assert result.product > floor + 1e-6
    result2 = uncertainty_product_tilde(sys2, eigenstate(sys2, PSI_T, 2))
    assert result2.passed


def test_tilde_guard_rejects_first_sector_states():
    sys2 = make_xn_system(2)
    with pytest.raises(SectorDomainError):
        uncertainty_product_tilde(sys2, eigenstate(sys2, PSI, 1))


# ---------------------------------------------------------------------------
# direct-sum X, P
# ---------------------------------------------------------------------------


def test_xp_on_pure_psi0():
    for n in (1, 2, 3):
        sysn = make_xn_system(n)
        psi0, _ = ground_states(sysn)
        dstate = direct_sum(psi0, 1, None, 0)
        result = uncertainty_product_XP(sysn, dstate)
        assert result.details["second_x"] == pytest.approx(0.5, rel=1e-12)  # -gamma/2
        assert result.details["second_p"] == pytest.approx(0.5, rel=1e-12)
        assert result.product == pytest.approx(0.5, rel=1e-12)
        assert result.bound == pytest.approx(0.5, rel=1e-12)
        assert result.passed


def test_xp_on_pure_phi_tilde0_n2():
    sys2 = make_xn_system(2)
    dstate = direct_sum(None, 0, eigenstate(sys2, PHI_T, 0), 1)
    result = uncertainty_product_XP(sys2, dstate)
    assert result.bound == pytest.approx(1.5, rel=1e-12)  # delta/2
    assert result.product >= 1.5 - 1e-10
    assert result.details["global_bound"] == 0.5


def test_xp_equal_mixture_n2():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    dstate = direct_sum(psi0, Fraction(1, 2), eigenstate(sys2, PHI_T, 0), Fraction(1, 2))
    result = uncertainty_product_XP(sys2, dstate)
    assert result.bound == pytest.approx(1.0, rel=1e-12)  # (1/2)(1/2*1 + 1/2*3)
    assert result.bound == pytest.approx(result.details["bound_convex_combination"], rel=1e-12)
    assert result.product >= result.bound - 1e-10


def test_xp_convexity_matches_exact_combination():
    sys3 = make_xn_system(3)
    psi0, _ = ground_states(sys3)
    for w1 in (Fraction(1, 4), Fraction(2, 3)):
        dstate = direct_sum(psi0, w1, eigenstate(sys3, PHI_T, 0), 1 - w1)
        result = uncertainty_product_XP(sys3, dstate)
        convex = 0.5 * float(abs(sys3.gamma) * w1 + sys3.delta * (1 - w1))
        assert result.bound == pytest.approx(convex, rel=1e-12)


def test_xp_commutator_blocks_act_as_scalars():
    # (X12 P21 - P12 X21) psi == i gamma psi exactly, per monomial
    sys2 = make_xn_system(2)
    x12, x21 = x_block(sys2, "12"), x_block(sys2, "21")
    p12, p21 = p_block(sys2, "12"), p_block(sys2, "21")
    comm11 = x12.compose(p21).minus(p12.compose(x21))
    for k in (0, 3, 4, 8):
        mono = monomial_state(2, k)
        assert comm11.imaginary
        assert matrix_element(sys2, comm11, mono, mono) == inner_product(mono, mono).scale(sys2.gamma)
    # the second diagonal block acts as -i delta (signs cancel in the bound)
    comm22 = x21.compose(p12).minus(p21.compose(x12))
    for k in (1, 2, 5):
        mono = monomial_state(2, k)
        assert comm22.imaginary
        assert matrix_element(sys2, comm22, mono, mono) == inner_product(mono, mono).scale(-sys2.delta)


def test_xp_heisenberg_reduction_n1():
    # the QMHO case must reproduce the traditional 1/2 bound with equality
    sys1 = make_xn_system(1)
    psi0, _ = ground_states(sys1)
    result = uncertainty_product_XP(sys1, direct_sum(psi0, 1, None, 0))
    assert result.bound == pytest.approx(0.5, rel=1e-13)
    assert result.product == pytest.approx(0.5, rel=1e-13)
    assert result.details["global_bound"] == 0.5


def test_direct_sum_validation():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    with pytest.raises(ValueError):
        direct_sum(psi0, Fraction(1, 2), None, Fraction(1, 3))
    with pytest.raises(ValueError):
        direct_sum(psi0, Fraction(1, 2), None, Fraction(1, 2))
    with pytest.raises(ValueError):
        DirectSumState(None, None, Fraction(1), Fraction(0))


_WEIGHTS_MESSAGE = "squared weights must be nonnegative and sum to 1 exactly"


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, None, Fraction(1, 2), Fraction(1, 3)), _WEIGHTS_MESSAGE),
        ((0, 0, Fraction(3, 2), Fraction(-1, 2)), _WEIGHTS_MESSAGE),
        ((None, None, Fraction(1), Fraction(0)), "component 1 must be present iff weight1 > 0"),
        ((0, 0, Fraction(1), Fraction(0)), "component 2 must be present iff weight2 > 0"),
        (("zero", None, Fraction(1), Fraction(0)), "component 1 is the zero state"),
        ((0, "zero", Fraction(1, 2), Fraction(1, 2)), "component 2 is the zero state"),
    ],
)
def test_direct_sum_validation_errors(args, message):
    psi0, _ = ground_states(make_xn_system(2))
    parts = {0: psi0, "zero": psi0.state.scale(0), None: None}
    component1, component2, weight1, weight2 = parts[args[0]], parts[args[1]], *args[2:]
    with pytest.raises(ValueError, match=f"^{message}$"):
        DirectSumState(component1, component2, weight1, weight2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DirectSumState(component1=component1, component2=component2, weight1=weight1, weight2=weight2)


def test_direct_sum_state_record_semantics():
    sys2 = make_xn_system(2)
    psi0, phi0 = ground_states(sys2)
    state = direct_sum(psi0, Fraction(1, 4), phi0, Fraction(3, 4))
    assert state == DirectSumState(psi0, phi0, Fraction(1, 4), Fraction(3, 4))
    assert hash(state) == hash(DirectSumState(psi0, phi0, Fraction(1, 4), Fraction(3, 4)))
    assert state != direct_sum(psi0, Fraction(1, 2), phi0, Fraction(1, 2))
    assert state != direct_sum(psi0.state, Fraction(1, 4), phi0, Fraction(3, 4))
    assert type(DirectSumState(psi0, None, 1, 0).weight1) is int  # weights are stored as given
    with pytest.raises(AttributeError):
        state.weight1 = Fraction(1)
    assert repr(state) == (
        f"DirectSumState(component1={psi0!r}, component2={phi0!r}, "
        "weight1=Fraction(1, 4), weight2=Fraction(3, 4))"
    )


def test_operator_expression_and_matrix_element_records():
    sys2 = make_xn_system(2)
    obs, again = _ladder_observables(sys2, 1)[0], _ladder_observables(sys2, 1)[0]
    assert obs == again and hash(obs) == hash(again)
    assert obs == OperatorExpression(obs.name, obs.op, obs.imaginary, obs.sector)
    assert obs == OperatorExpression(name="L", op=obs.op, sector=1)
    assert obs != OperatorExpression("L", obs.op)
    assert obs != OperatorExpression("L", obs.op, True, 1)
    assert obs != _ladder_observables(sys2, 2)[0]
    with pytest.raises(AttributeError):
        obs.name = "L2"
    assert repr(obs) == f"OperatorExpression(name='L', op={obs.op!r}, imaginary=False, sector=1)"
    psi0, _ = ground_states(sys2)
    element = matrix_element(sys2, obs.compose(obs), psi0.state, psi0.state)
    assert isinstance(element, GammaVector) and not element.is_zero
    assert element == matrix_element(sys2, obs.compose(again), psi0.state, psi0.state)
    assert element == inner_product(psi0.state, obs.op.apply(obs.op.apply(psi0.state)))


def test_compose_multiplies_phases():
    # (iK)(iK) = -K K is real; i K M and K i M are imaginary
    sys2 = make_xn_system(2)
    obs_l, obs_a = _ladder_observables(sys2, 1)
    square = obs_a.compose(obs_a)
    assert obs_a.imaginary and not square.imaginary
    assert square.op == -(obs_a.op @ obs_a.op)
    assert not obs_l.compose(obs_l).imaginary
    for product in (obs_l.compose(obs_a), obs_a.compose(obs_l)):
        assert product.imaginary
    assert obs_l.compose(obs_a).op == obs_l.op @ obs_a.op
    assert obs_l.commutator_with(obs_a).name == "[L,A]"


def test_minus_rejects_mixed_phases():
    # L - A would be neither real nor imaginary: no single Operator holds it
    sys2 = make_xn_system(2)
    obs_l, obs_a = _ladder_observables(sys2, 1)
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        obs_l.minus(obs_a)
    with pytest.raises(ValueError, match="neither real nor imaginary"):
        obs_a.minus(obs_l)
    assert obs_a.minus(obs_a).op.is_zero and obs_a.minus(obs_a).imaginary


def test_uncertainty_result_record_semantics():
    result = UncertaintyResult("L,A", 1.0, 2.0, 2.0, 1.5, True)
    assert result.details == {}
    other = UncertaintyResult(pair="L,A", sigma1=1.0, sigma2=2.0, product=2.0, bound=1.5, passed=True)
    assert other == result and other.details is not result.details
    assert result != UncertaintyResult("L,A", 1.0, 2.0, 2.0, 1.5, False)
    assert result != UncertaintyResult("L,A", 1.0, 2.0, 2.0, 1.5, True, {"mean_number": 0.5})
    with pytest.raises(AttributeError):
        result.passed = False
    assert repr(result) == (
        "UncertaintyResult(pair='L,A', sigma1=1.0, sigma2=2.0, product=2.0, bound=1.5, "
        "passed=True, details={})"
    )
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    assert uncertainty_product_LA(sys2, psi0) == uncertainty_product_LA(make_xn_system(2), psi0)


def test_xp_guard_rejects_swapped_sectors():
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    tilde = eigenstate(sys2, PHI_T, 0)
    with pytest.raises(SectorDomainError):
        uncertainty_product_XP(sys2, direct_sum(tilde, 1, None, 0))
    with pytest.raises(SectorDomainError):
        uncertainty_product_XP(sys2, direct_sum(None, 0, psi0, 1))


def test_xp_cross_terms_computed_not_assumed():
    # a mixture of psi0 with psi~_1 has nonvanishing <X> cross terms
    sys2 = make_xn_system(2)
    psi0, _ = ground_states(sys2)
    dstate = direct_sum(psi0, Fraction(1, 2), eigenstate(sys2, PSI_T, 1), Fraction(1, 2))
    result = uncertainty_product_XP(sys2, dstate)
    assert abs(result.details["mean_x"][0]) > 0.1
    assert result.passed


@pytest.mark.parametrize("n", range(1, 7))
def test_xp_cross_term_is_correctly_rounded(n):
    # <X> = sqrt(1/2) on psi0 + psi~_1 at equal weights; the tilde component
    # is brought to half power 0 first, and <X> is the root of the exact
    # s^2 mean^2 = 1/2, so it is rounded once
    system = make_xn_system(n)
    psi0, _ = ground_states(system)
    psi_t1 = eigenstate(system, PSI_T, 1)
    for weight in (Fraction(1, 2), 0.5):  # DirectSumState keeps weights as given
        result = uncertainty_product_XP(system, DirectSumState(psi0, psi_t1, weight, weight))
        assert result.details["mean_x"] == (math.sqrt(0.5), 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xp_mean_keeps_its_sign_and_zero_is_positive(n):
    system = make_xn_system(n)
    psi0, _ = ground_states(system)
    flipped = eigenstate(system, PSI_T, 1).state.scale(-1)
    result = uncertainty_product_XP(system, DirectSumState(psi0, flipped, Fraction(1, 2), Fraction(1, 2)))
    assert result.details["mean_x"] == (-math.sqrt(0.5), 0.0)
    phi_t0 = eigenstate(system, PHI_T, 0)
    for state2 in (flipped, phi_t0):  # <P> = 0, and <X> = 0 on psi0 + phi~0
        result = uncertainty_product_XP(system, DirectSumState(psi0, state2, Fraction(1, 2), Fraction(1, 2)))
        means = result.details["mean_p"] + (result.details["mean_x"] if state2 is phi_t0 else ())
        assert all(v == 0 and math.copysign(1.0, v) == 1.0 for v in means)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odd_half_power_observable_is_rejected(n):
    # sqrt(2) a and sqrt(2) a+ make L an odd sqrt(2) power: its matrix
    # elements are irrational, and the product raises instead of misreading them
    family = make_xn_system(n)
    a, adag, b, bdag = family.generators
    system = CoupledSusySystem(
        n=n, gamma=2 * family.gamma, delta=2 * family.delta,
        generators=(a.scale_sqrt2(1), adag.scale_sqrt2(1), b, bdag),
    )
    for m in range(3):
        with pytest.raises(ValueError, match="odd combined sqrt"):
            uncertainty_product_LA(system, eigenstate(system, PSI, m))


# ---------------------------------------------------------------------------
# norms and non-finite results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_record_and_bare_state_give_identical_floats(n, sector):
    # a record of a proved system reads the shift table; its bare state takes the composed
    # observables, the oracle, at every level to 40 and for n = 1 past float range
    system = make_xn_system(n)
    product = uncertainty_product_tilde if sector.is_tilde else uncertainty_product_LA
    for m in [*range(sector.first_level, 41), *[85, 90, 100][:3 * (n == 1)]]:
        rec = eigenstate(system, sector, m)
        assert product(system, rec).to_json_dict() == product(system, rec.state).to_json_dict(), m
    rec = eigenstate(system, sector, 4)
    if not sector.is_tilde:
        obs = _ladder_observables(system, 1)[0]
        assert expectation(system, obs, rec) == expectation(system, obs, rec.state)
        assert variance(system, obs, rec) == variance(system, obs, rec.state)
    # direct sums keep records, so X,P takes their norm_sq as well
    partner = eigenstate(system, PSI if sector.is_tilde else PHI_T, 1)
    first, second = (partner, rec) if sector.is_tilde else (rec, partner)
    alone = (None, 0, rec, 1) if sector.is_tilde else (rec, 1, None, 0)
    for records in ((first, Fraction(1, 3), second, Fraction(2, 3)), alone):
        bare = [s.state if isinstance(s, EigenstateRecord) else s for s in records]
        with_records = uncertainty_product_XP(system, direct_sum(*records))
        with_states = uncertainty_product_XP(system, direct_sum(*bare))
        assert with_records.to_json_dict() == with_states.to_json_dict()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_xp_records_and_bare_states_give_identical_floats(n):
    # every first-sector and tilde tower to level 8, one component alone or both at three weights:
    # the table's cross terms, from the two records' norm_sq ratio, against the composed blocks
    system = make_xn_system(n)
    for first, second in [(PSI, PSI_T), (PSI, PHI_T), (PHI, PSI_T), (PHI, PHI_T)]:
        for i in range(9):
            for j in range(second.first_level, 9):
                for w1 in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                    one = eigenstate(system, first, i) if w1 else None
                    two = eigenstate(system, second, j) if w1 < 1 else None
                    records = uncertainty_product_XP(system, direct_sum(one, w1, two, 1 - w1))
                    bare = direct_sum(one and one.state, w1, two and two.state, 1 - w1)
                    assert records.to_json_dict() == uncertainty_product_XP(system, bare).to_json_dict()


def test_records_of_a_proved_system_compose_and_apply_nothing(monkeypatch):
    # the records and the proof are memoised, so the table route reads E, delta and norm_sq only
    systems = [make_xn_system(n) for n in (1, 2, 3)]
    records = {(system.n, sector, m): eigenstate(system, sector, m)
               for system in systems for sector in SectorLabel for m in range(sector.first_level, 6)}

    def refuse(*_):
        raise AssertionError("an operator was composed or applied, or an inner product taken")

    for name in ("apply", "__matmul__", "_commutator"):
        monkeypatch.setattr(Operator, name, refuse)
    monkeypatch.setattr(_oracle, "inner_product", refuse)
    for system in systems:
        for (n, sector, m), rec in records.items():
            if n == system.n:
                product = uncertainty_product_tilde if sector.is_tilde else uncertainty_product_LA
                assert product(system, rec).passed
        for i, j in [(0, 0), (2, 2), (2, 3), (4, 1)]:
            for first, second in [(PSI, PSI_T), (PHI, PHI_T), (PSI, PHI_T)]:
                one, two = records[system.n, first, i], records[system.n, second, max(j, second.first_level)]
                assert uncertainty_product_XP(system, direct_sum(one, Fraction(1, 3), two, Fraction(2, 3))).passed
                assert uncertainty_product_XP(system, direct_sum(one, 1, None, 0)).passed


def test_the_table_builds_one_fraction_per_value_at_any_level(monkeypatch):
    # the table route computes in ints over the towers' one den: it does no Fraction arithmetic and
    # builds at most one Fraction per distinct value it returns, at level 1 as at n = 1 level 100
    arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                  "__rtruediv__", "__floordiv__", "__pow__", "__neg__", "__abs__", "__lt__", "__le__",
                  "__gt__", "__ge__", "__bool__")
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in the table route")

    for n, m in [(1, 1), (1, 9), (1, 100), (3, 1), (3, 30)]:
        system = make_xn_system(n)
        records = {sector: eigenstate(system, sector, m) for sector in SectorLabel}
        states = [direct_sum(records[first], w1, records[second] if w1 < 1 else None, 1 - w1)
                  for first, second in [(PSI, PSI_T), (PHI, PHI_T), (PSI, PHI_T)]
                  for w1 in (Fraction(1, 3), Fraction(1))]
        states += [direct_sum(records[PSI], Fraction(2, 5), eigenstate(system, PSI_T, m + 1), Fraction(3, 5)),
                   direct_sum(None, 0, records[PHI_T], 1)]
        want = ([uncertainty._table_sector(system, rec) for rec in records.values()],
                [uncertainty._table_xp(system, state) for state in states])
        with monkeypatch.context() as patch:
            patch.setattr(uncertainty, "Fraction", counting)
            for name in arithmetic:
                patch.setattr(Fraction, name, refuse)
            got, counts = ([], []), ([], [])
            for k, (table, args) in enumerate([(uncertainty._table_sector, records.values()),
                                               (uncertainty._table_xp, states)]):
                for arg in args:
                    built.clear()
                    got[k].append(table(system, arg))
                    counts[k].append(len(built))
        assert got == want
        assert max(counts[0]) <= 3 and max(counts[1]) <= 7, (n, m, counts)


def _scaled(n: int, c: Fraction) -> CoupledSusySystem:
    """The family's generators times c, gamma and delta times c^2: proved, with gamma and delta not ints."""
    family = make_xn_system(n)
    return CoupledSusySystem(n=n, gamma=family.gamma * c * c, delta=family.delta * c * c,
                             generators=tuple(g.scale(c) for g in family.generators))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
def test_the_table_over_a_denominator_matches_the_composition(n, c):
    # the towers' one den is not 1 here: the table's ints give the composed Fractions, and every
    # report equals the bare states', at levels to 8 and weights 0, 1/3, 1/2 and 1
    system = _scaled(n, c)
    assert towers._proved(system) and towers._eigenvalue_ints(system, PSI, 0)[1] > 1
    for sector in SectorLabel:
        product = uncertainty_product_tilde if sector.is_tilde else uncertainty_product_LA
        for m in range(sector.first_level, 9):
            rec = eigenstate(system, sector, m)
            composed = _oracle._composed_sector(system, rec, 1 + sector.is_tilde)
            assert uncertainty._table_sector(system, rec) == composed
            assert product(system, rec).to_json_dict() == product(system, rec.state).to_json_dict()
    for first, second in [(PSI, PSI_T), (PSI, PHI_T), (PHI, PSI_T), (PHI, PHI_T)]:
        for i in range(9):
            for j in range(second.first_level, 9):
                for w1 in (Fraction(0), Fraction(1, 3), HALF, Fraction(1)):
                    one = eigenstate(system, first, i) if w1 else None
                    two = eigenstate(system, second, j) if w1 < 1 else None
                    state = direct_sum(one, w1, two, 1 - w1)
                    assert uncertainty._table_xp(system, state) == _oracle._composed_xp(system, state)
                    bare = direct_sum(one and one.state, w1, two and two.state, 1 - w1)
                    assert (uncertainty_product_XP(system, state).to_json_dict()
                            == uncertainty_product_XP(system, bare).to_json_dict())


def test_records_not_the_systems_own_take_the_composition_route(monkeypatch):
    # a record of the family handed over with mutated generators or with the halved system's, and
    # hand-built records at a float level or below the tower: the composed observables decide
    # each, as they do its bare state
    family = make_xn_system(2)
    halved = CoupledSusySystem(n=2, gamma=Fraction(-1, 4), delta=Fraction(3, 4),
                               generators=tuple(g.scale(Fraction(1, 2)) for g in family.generators))
    records = {sector: eigenstate(family, sector, 3) for sector in SectorLabel}
    psi_t = eigenstate(family, PSI_T, 1)
    hand_built = [EigenstateRecord(PHI, 3.0, *[getattr(records[PHI], f) for f in ("state", "norm_sq", "eigenvalue")]),
                  EigenstateRecord(PSI_T, 0, psi_t.state, psi_t.norm_sq, psi_t.eigenvalue)]

    def refuse(*_):
        raise AssertionError("the shift table was read")

    monkeypatch.setattr(uncertainty, "_table_sector", refuse)
    monkeypatch.setattr(uncertainty, "_table_xp", refuse)
    for system in (make_xn_system(2, mutate="a-coeff"), halved):
        for rec in [*records.values(), *hand_built * (system is halved)]:
            product = uncertainty_product_tilde if rec.sector.is_tilde else uncertainty_product_LA
            assert product(system, rec).to_json_dict() == product(system, rec.state).to_json_dict()
        one, two = records[PHI], records[PHI_T]
        assert (uncertainty_product_XP(system, direct_sum(one, HALF, two, HALF)).to_json_dict()
                == uncertainty_product_XP(system, direct_sum(one.state, HALF, two.state, HALF)).to_json_dict())
    for rec in hand_built:
        product = uncertainty_product_tilde if rec.sector.is_tilde else uncertainty_product_LA
        assert product(family, rec).to_json_dict() == product(family, rec.state).to_json_dict()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odd_sqrt2_cross_terms_take_the_composition_route(n):
    # sqrt(2) times every generator, gamma and delta doubled: proved, with first-sector and tilde
    # states of one sqrt(2) parity, so a cross term of one family is irrational and raises by
    # either route, while the sector products and cross terms of two families read the table
    family = make_xn_system(n)
    system = CoupledSusySystem(n=n, gamma=2 * family.gamma, delta=2 * family.delta,
                               generators=tuple(g.scale_sqrt2(1) for g in family.generators))
    assert towers._proved(system)
    for sector in SectorLabel:
        rec = eigenstate(system, sector, 2)
        product = uncertainty_product_tilde if sector.is_tilde else uncertainty_product_LA
        assert product(system, rec).to_json_dict() == product(system, rec.state).to_json_dict()
    psi, psi_t, phi_t = (eigenstate(system, sector, 1) for sector in (PSI, PSI_T, PHI_T))
    for one, two in [(psi, psi_t), (psi.state, psi_t.state)]:
        with pytest.raises(ValueError, match="odd combined sqrt"):
            uncertainty_product_XP(system, direct_sum(one, HALF, two, HALF))
    assert (uncertainty_product_XP(system, direct_sum(psi, HALF, phi_t, HALF)).to_json_dict()
            == uncertainty_product_XP(system, direct_sum(psi.state, HALF, phi_t.state, HALF)).to_json_dict())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_table_assumes_no_adjoint(n):
    # 2a and a+/2 pass verify, but the a images have four times the norm the lemma needs, so the
    # system is not proved and its records take the composed observables.  They are weighted
    # shifts with the same weights all the same (a+ 2a s_m = E_m s_m, b+ 2a s_m = rho_m s_(m-1)
    # with s_m halved per level), so the table's Fractions equal the composed ones
    a, adag, b, bdag = make_xn_system(n).generators
    system = CoupledSusySystem(n=n, gamma=Fraction(-1), delta=Fraction(2 * n - 1),
                               generators=(a.scale(2), adag.scale(HALF), b, bdag))
    assert not towers._proved(system)
    for sector in SectorLabel:
        for m in range(sector.first_level, 7):
            rec = eigenstate(system, sector, m)
            composed = _oracle._composed_sector(system, rec, 1 + sector.is_tilde)
            assert uncertainty._table_sector(system, rec) == composed
    for i in range(5):
        for first, second in [(PSI, PSI_T), (PHI, PHI_T), (PSI, PHI_T)]:
            for j in range(second.first_level, 5):
                state = direct_sum(eigenstate(system, first, i), Fraction(1, 3), eigenstate(system, second, j),
                                   Fraction(2, 3))
                assert uncertainty._table_xp(system, state) == _oracle._composed_xp(system, state)
    if n == 2:  # the bare psi_0 + psi_1 still misses its bound: a+ is not the adjoint of 2a
        bare = eigenstate(system, PSI, 0).state + eigenstate(system, PSI, 1).state
        result = uncertainty_product_LA(system, bare)
        assert not result.passed
        assert result.product == pytest.approx(4.912118305782, rel=1e-12) and result.bound == 5.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_table_needs_the_b_dagger_row(n):
    # 2b leaves every check of the tower proof but the b+ row (b+ s~_m = 2 rho_m s_(m-1) there):
    # the system is not proved, and the table's weights would misread its records
    a, adag, b, bdag = make_xn_system(n).generators
    system = CoupledSusySystem(n=n, gamma=Fraction(-1), delta=Fraction(2 * n - 1),
                               generators=(a, adag, b.scale(2), bdag))
    assert not towers._proved(system)
    rec = eigenstate(system, PHI, 2)
    assert uncertainty._table_sector(system, rec) != _oracle._composed_sector(system, rec, 1)
    composed = uncertainty_product_LA(system, rec.state).to_json_dict()
    assert uncertainty_product_LA(system, rec).to_json_dict() == composed


@pytest.mark.parametrize("as_records", [True, False])
def test_xp_norms_come_from_records(monkeypatch, as_records):
    system = make_xn_system(2)
    psi, phi_t = eigenstate(system, PSI, 3), eigenstate(system, PHI_T, 2)
    if not as_records:
        psi, phi_t = psi.state, phi_t.state
    norm_products = []
    real = _oracle.inner_product

    def counting(f, g):
        norm_products.append(f is g)
        return real(f, g)

    monkeypatch.setattr(_oracle, "inner_product", counting)
    uncertainty_product_XP(system, direct_sum(psi, Fraction(1, 2), phi_t, Fraction(1, 2)))
    assert sum(norm_products) == (0 if as_records else 2)


@pytest.mark.parametrize(
    "product, sector, m",
    [
        (uncertainty_product_LA, PSI, 85),
        (uncertainty_product_tilde, PSI_T, 84),
        (uncertainty_product_tilde, PHI_T, 84),
        (uncertainty_product_LA, PSI, 90),
        (uncertainty_product_LA, PSI, 100),
    ],
)
def test_products_past_float_range_pass(product, sector, m):
    # deep n = 1 norms overflow floats; the quotients are then taken exactly
    system = make_xn_system(1)
    result = product(system, eigenstate(system, sector, m))
    assert math.isfinite(result.product) and result.product >= result.bound
    assert result.bound == result.details["bound_closed_form"]
    assert result.passed


def test_xp_product_past_float_range_passes():
    system = make_xn_system(1)
    result = uncertainty_product_XP(system, direct_sum(eigenstate(system, PSI, 85), 1, None, 0))
    assert math.isfinite(result.product) and result.product >= result.bound
    assert result.bound == result.details["bound_convex_combination"] == 0.5
    assert result.passed


@pytest.mark.parametrize("m", [5, 40, 85, 100])
def test_xp_cross_term_of_deep_partners(m):
    # n = 1: X = [[0, x], [x, 0]] and psi~_m is Hermite function 2m - 1, so
    # |<X>| = 2 sqrt(w1 w2) <2m|x|2m-1> = 2 sqrt(w1 w2 m); from m = 85 the
    # norms overflow floats and the cross term takes the exact ratios
    system = make_xn_system(1)
    state = direct_sum(eigenstate(system, PSI, m), Fraction(1, 3), eigenstate(system, PSI_T, m), Fraction(2, 3))
    result = uncertainty_product_XP(system, state)
    mean_x, mean_p = result.details["mean_x"], result.details["mean_p"]
    assert abs(mean_x[0]) == pytest.approx(2 * math.sqrt(2 * m / 9), rel=1e-12)
    assert mean_x[1] == mean_p[0] == mean_p[1] == 0
    assert math.isfinite(result.product) and result.passed


@pytest.mark.parametrize("n, sector, m", [(1, PSI, 20), (1, PHI_T, 30), (2, PHI, 12)])
def test_exact_ratios_match_evaluated_quotients(n, sector, m):
    # each normalised expectation, taken from exact ratios to the norm, is
    # the quotient of the two GammaVectors evaluated in floats
    system = make_xn_system(n)
    rec = eigenstate(system, sector, m)
    obs_l, obs_a = _ladder_observables(system, 1 + sector.is_tilde)
    outer, inner = ("21", "12") if sector.is_tilde else ("12", "21")
    exprs = [obs_l, obs_a, obs_l.compose(obs_l), obs_a.compose(obs_a), obs_l.commutator_with(obs_a)]
    exprs += [block(system, outer).compose(block(system, inner)) for block in (x_block, p_block)]

    def value(v):
        return float(evaluate_gamma_vector_mp(v)[0])

    norm = value(rec.norm_sq)
    for expr in exprs:
        element = expectation_exact(system, expr, rec)
        want = value(element) * (1j if expr.imaginary else 1) / norm
        assert abs(expectation(system, expr, rec) - want) <= 1e-12 * max(1.0, abs(want))


def test_uncertain_sign_never_passes(monkeypatch):
    # v / w - v / w is exactly 0, but over intervals it never excludes 0: a
    # verdict the certified route cannot settle by 4096 bits does not pass.
    # Every evaluation is done at 64 bits (a first 4096-bit Gamma value
    # takes seconds), which keeps each interval wide at every step.
    v, w = GammaVector(2, {1: 1, 3: 1}), GammaVector(2, {1: 2, 3: 1})
    assert v.rational_ratio(w) is None
    bits, real = [], _oracle.evaluate_gamma_vector_mp

    def at_64_bits(vector, prec_bits):
        bits.append(prec_bits)
        return real(vector, 64)

    monkeypatch.setattr(_oracle, "evaluate_gamma_vector_mp", at_64_bits)
    passed, (gap,) = _oracle._decide(lambda ratio: (ratio(v, w) - ratio(v, w),) * 2)
    assert passed is False and gap.a < 0 < gap.b
    assert sorted(set(bits)) == [64, 128, 256, 512, 1024, 2048, 4096]
    # the same formula over Fractions is exactly 0 and passes
    assert _oracle._decide(lambda ratio: (ratio(w, w) - 1,) * 2) == (True, [Fraction(0)])


# ---------------------------------------------------------------------------
# exact verdicts
# ---------------------------------------------------------------------------

LOWEST = [(PSI, 0), (PHI, 0), (PSI_T, 1), (PHI_T, 0)]


def exact_gap(system, state):
    """sigma_L^2 sigma_A^2 - bound^2 of a bare first-sector state on one Gamma symbol."""
    norm = inner_product(state, state)

    def ratio(expr):  # <expr> over its phase, 1 or i
        return expectation_exact(system, expr, state).rational_ratio(norm)

    def var(obs):
        return ratio(obs.compose(obs)) - ratio(obs) ** 2

    obs_l, obs_a = _ladder_observables(system, 1)
    return var(obs_l) * var(obs_a) - ratio(obs_l.commutator_with(obs_a)) ** 2 / 4


def sector_product(system, sector, m):
    product = uncertainty_product_tilde if sector.is_tilde else uncertainty_product_LA
    return product(system, eigenstate(system, sector, m))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sector, m", LOWEST)
def test_lowest_levels_saturate_exactly(n, sector, m):
    system = make_xn_system(n)
    result = sector_product(system, sector, m)
    assert result.equality_gap == 0.0 and result.product == result.bound
    assert result.passed
    if not sector.is_tilde:
        assert exact_gap(system, eigenstate(system, sector, m).state) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sector, lowest", LOWEST)
def test_levels_above_lowest_exceed_bound(n, sector, lowest):
    system = make_xn_system(n)
    for m in range(lowest + 1, lowest + 8):
        result = sector_product(system, sector, m)
        assert result.product > result.bound and result.passed


@pytest.mark.parametrize("tag, gaps", [
    ("adag-coeff", [Fraction(-3, 32), Fraction(-3, 16), Fraction(-9, 32)]),
    ("a-coeff", [0, 0, 0]),
    ("b-coeff", [0, 0, 0]),
])
def test_mutated_generators_decide_exactly(tag, gaps):
    # the unmutated bare psi_0 under mutated generators: a miss fails and
    # a saturation passes with no tolerance either way
    for n, gap in zip((1, 2, 3), gaps):
        psi0 = eigenstate(make_xn_system(n), PSI, 0).state
        mutated = make_xn_system(n, mutate=tag)
        assert exact_gap(mutated, psi0) == gap
        result = uncertainty_product_LA(mutated, psi0)
        assert result.passed == (gap == 0)
        assert (result.equality_gap == 0.0) == (gap == 0)


def test_records_evaluate_no_gamma_value(monkeypatch):
    def refuse(*_):
        raise AssertionError("a Gamma value was evaluated")

    monkeypatch.setattr(_oracle, "evaluate_gamma_vector_mp", refuse)
    for n in (1, 2, 3):
        system = make_xn_system(n)
        psi0, phi_t0 = eigenstate(system, PSI, 0), eigenstate(system, PHI_T, 0)
        assert uncertainty_product_LA(system, eigenstate(system, PHI, 2).state).passed
        assert uncertainty_product_tilde(system, eigenstate(system, PSI_T, 3)).passed
        # the CLI's mixed state: norms on two Gamma symbols, exactly zero cross terms
        mixed = direct_sum(psi0, Fraction(1, 2), phi_t0, Fraction(1, 2))
        assert uncertainty_product_XP(system, mixed).passed


@pytest.mark.parametrize("n, want", [(2, 10.391998515659457), (3, 21.603093321105437)])
def test_two_symbol_state_takes_certified_route(monkeypatch, n, want):
    system = make_xn_system(n)
    bare = eigenstate(system, PSI, 1).state + eigenstate(system, PHI, 0).state
    bits = []
    real = _oracle.evaluate_gamma_vector_mp

    def counting(v, prec_bits):
        bits.append(prec_bits)
        return real(v, prec_bits)

    monkeypatch.setattr(_oracle, "evaluate_gamma_vector_mp", counting)
    result = uncertainty_product_LA(system, bare)
    assert bits and set(bits) == {64}
    assert result.passed and result.product > result.bound
    assert result.product == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# observables from the pair table against their hand-written words
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


def ref_observable_L(system):
    a, ad, b, bd = system.generators
    return OperatorExpression("L", (ad @ b + bd @ a).scale(-HALF), sector=1)


def ref_observable_A(system):
    a, ad, b, bd = system.generators
    return OperatorExpression("A", (ad @ b - bd @ a).scale(HALF), True, sector=1)


def ref_observable_L_tilde(system):
    a, ad, b, bd = system.generators
    return OperatorExpression("L~", (b @ ad + a @ bd).scale(-HALF), sector=2)


def ref_observable_A_tilde(system):
    a, ad, b, bd = system.generators
    return OperatorExpression("A~", (b @ ad - a @ bd).scale(HALF), True, sector=2)


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_table_observables_match_hand_written_words(n):
    base = make_xn_system(n)
    systems = [base] + [
        make_xn_system(n, mutate=(*slot, delta))
        for slot in mutation_slots(base)
        for delta in (Fraction(1), Fraction(-1), HALF)
    ]
    refs = (ref_observable_L, ref_observable_A, ref_observable_L_tilde, ref_observable_A_tilde)
    for system in systems:
        assert [*_ladder_observables(system, 1), *_ladder_observables(system, 2)] == [ref(system) for ref in refs]
