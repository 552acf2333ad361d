"""Eigenstate towers: eigenvalues, orthogonality, closed forms, ladder factors.

The direct top-down solve of the untilded levels is checked against the
ladder it replaced, (a+b)^m applied to the ground state, kept at the end of
this file as a test-local oracle (ladder_state, ladder_record).  Record
norms, a single top pairing where the symmetry of H proves it, are checked
against the full product inner_product(state, state).
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from coupledsusy import coherent, towers, uncertainty
from coupledsusy.calculus import (
    DivergenceError,
    GammaVector,
    GaussPolyState,
    Generator,
    LOWERING_WORD,
    Operator,
    RAISING_WORD,
    apply_generator,
    apply_word,
    evaluate_gamma_vector_mp,
    inner_product,
    monomial_state,
    proportionality_ratio,
)
from coupledsusy.systems import CoupledSusySystem, make_xn_system, mutation_slots
from coupledsusy.towers import (
    EigenstateRecord,
    SectorLabel,
    _norm_sq,
    _symmetric_diagonal,
    _tower_state,
    eigenstate,
    gram_matrix,
    ground_states,
    half_lowering_factor_squared,
    merged_spectrum,
    normalized_samples,
    tower_eigenvalue,
    verify_lemma_half_lowering,
)

PSI, PHI = SectorLabel.PSI, SectorLabel.PHI
PSI_T, PHI_T = SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE


def test_ground_states_n1_are_hermite_seeds():
    psi0, phi0 = ground_states(make_xn_system(1))
    assert psi0.state == monomial_state(1, 0)
    assert phi0.state == monomial_state(1, 1)
    assert psi0.eigenvalue == 0 and phi0.eigenvalue == 1


def test_ground_states_n2():
    psi0, phi0 = ground_states(make_xn_system(2))
    assert phi0.state == monomial_state(2, 3)  # x^3 e^{-x^4/4}
    assert phi0.eigenvalue == 3


def test_ground_state_n3_trivial_kernel():
    psi0, _ = ground_states(make_xn_system(3))
    assert psi0.state == monomial_state(3, 0)
    assert psi0.eigenvalue == 0


def test_psi_level1_n2():
    rec = eigenstate(make_xn_system(2), PSI, 1)
    assert rec.state == GaussPolyState(2, {0: -1, 4: 2})
    assert rec.eigenvalue == 4


def test_phi_level1_n2():
    rec = eigenstate(make_xn_system(2), PHI, 1)
    assert rec.state == GaussPolyState(2, {3: -7, 7: 2})
    assert rec.eigenvalue == 7


def test_qmho_spectrum_interleaves():
    sys1 = make_xn_system(1)
    psis = [eigenstate(sys1, PSI, m).eigenvalue for m in range(6)]
    phis = [eigenstate(sys1, PHI, m).eigenvalue for m in range(5)]
    assert psis == [0, 2, 4, 6, 8, 10]
    assert phis == [1, 3, 5, 7, 9]


def test_merged_spectrum_values():
    assert merged_spectrum(make_xn_system(2), 6) == [0, 3, 4, 7, 8, 11]
    assert merged_spectrum(make_xn_system(1), 5) == [0, 1, 2, 3, 4]
    assert merged_spectrum(make_xn_system(3), 4) == [0, 5, 6, 11]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectrum_is_2kn_and_2kn_plus_2n_minus_1(n):
    got = merged_spectrum(make_xn_system(n), 12)
    want = sorted(
        [2 * k * n for k in range(12)] + [2 * k * n + 2 * n - 1 for k in range(12)]
    )[:12]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_eigen_equation_exact(n, sector):
    sysn = make_xn_system(n)
    word = (
        (Generator.A, Generator.ADAG) if sector.is_tilde else (Generator.ADAG, Generator.A)
    )
    for m in range(1 if sector is PSI_T else 0, 6):
        rec = eigenstate(sysn, sector, m)
        assert apply_word(sysn, word, rec.state) == rec.state.scale(rec.eigenvalue)
        assert rec.eigenvalue == tower_eigenvalue(sysn, sector, m)


def test_psi_tilde_level_zero_rejected():
    with pytest.raises(ValueError):
        eigenstate(make_xn_system(2), PSI_T, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_residue_class_confinement_and_positivity(n):
    sysn = make_xn_system(n)
    for sector in (PSI, PHI, PSI_T, PHI_T):
        for m in range(1 if sector is PSI_T else 0, 7):
            state = eigenstate(sysn, sector, m).state
            assert state.residues() == {sector.residue(n)}
            assert state.min_exponent() >= 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowering_word_steps_down(n):
    sysn = make_xn_system(n)
    psi0, phi0 = ground_states(sysn)
    assert apply_word(sysn, LOWERING_WORD, psi0.state).is_zero
    assert apply_word(sysn, LOWERING_WORD, phi0.state).is_zero
    for sector in (PSI, PHI):
        for m in range(1, 5):
            lowered = apply_word(sysn, LOWERING_WORD, eigenstate(sysn, sector, m).state)
            ratio = proportionality_ratio(lowered, eigenstate(sysn, sector, m - 1).state)
            assert ratio is not None and ratio[0] != 0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_hermite_n1():
    # PSI level 1 must be proportional to (2x^2 - 1) e^{-x^2/2}
    sys1 = make_xn_system(1)
    got = eigenstate(sys1, PSI, 1).state
    assert proportionality_ratio(got, GaussPolyState(1, {0: -1, 2: 2})) is not None
    # PHI level 1 ~ (2x^3 - 3x) e^{-x^2/2}, the third Hermite function
    got3 = eigenstate(sys1, PHI, 1).state
    assert proportionality_ratio(got3, GaussPolyState(1, {1: -3, 3: 2})) is not None


def laguerre_state(n, sector, m):
    """x^p L_j^beta(t) with t = x^(2n)/n, in Fractions from the explicit sum.

    L_j^beta(t) = sum_i (-1)^i binom(j + beta, j - i) t^i / i!, where
    binom(j + beta, j - i) = prod_{l=i+1..j} (beta + l) / (j - i)!.  The
    (p, beta, j) table is the one in the towers docstring.
    """
    p, j = {PSI: (0, m), PHI: (2 * n - 1, m), PSI_T: (n, m - 1), PHI_T: (n - 1, m)}[sector]
    beta = laguerre_beta(sector, n)
    terms = {}
    for i in range(j + 1):
        binom = math.prod([beta + l for l in range(i + 1, j + 1)], start=Fraction(1))
        terms[p + 2 * n * i] = (-1) ** i * binom / (math.factorial(j - i) * math.factorial(i) * n ** i)
    return GaussPolyState(n, terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", range(7))
def test_closed_form_matches_ladder_both_branches(n, m):
    # the Laguerre closed form against the a+a branch (PSI, PHI) and the aa+ branch (the tildes)
    system = make_xn_system(n)
    for sector in SectorLabel:
        if sector is PSI_T and m == 0:
            continue
        ratio = proportionality_ratio(laguerre_state(n, sector, m), eigenstate(system, sector, m).state)
        assert ratio is not None and ratio[0] != 0


# ---------------------------------------------------------------------------
# ladder coefficients
# ---------------------------------------------------------------------------


def test_half_lowering_factors_n2():
    sys2 = make_xn_system(2)
    assert half_lowering_factor_squared(sys2, PSI, 1) == 4
    assert half_lowering_factor_squared(sys2, PHI, 0) == 3
    assert half_lowering_factor_squared(sys2, PSI_T, 1) == 1
    assert half_lowering_factor_squared(sys2, PHI_T, 2) == 8


def test_half_lowering_factor_n1():
    assert half_lowering_factor_squared(make_xn_system(1), PSI, 1) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_factors_exact(n):
    report = verify_lemma_half_lowering(make_xn_system(n), 6)
    assert report.passed
    assert report.checked == 6 * 3 + 7  # three m>=1 relations plus PHI at m=0..6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_pairs_each_state_once(monkeypatch, n):
    # one full product per tower state: psi_0, then psi_m, psi~_m, phi~_m, phi_m (phi~_0, phi_0 at
    # m = 0); a psi_m is psi~_m, and b+ psi~_m is an exact multiple of psi_(m-1): 4 m_max + 3 products
    system = make_xn_system(n)
    want = verify_lemma_half_lowering(system, 6)
    calls = []
    real = towers.inner_product

    def counting(f, g):
        calls.append(f is g)
        return real(f, g)

    monkeypatch.setattr(towers, "inner_product", counting)
    report = verify_lemma_half_lowering(system, 6)
    assert report == want and report.checked == want.checked
    assert len(calls) == 4 * 6 + 3 and all(calls)


def reference_lemma(system, m_max):
    """The half-lowering lemma as every image's full product, kept as the reference."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    norms = {}  # state -> <state, state>
    failures = []
    checked = 0
    for m in range(0, m_max + 1):
        cases = []
        if m >= 1:
            cases.append((PSI, Generator.A, m))
            cases.append((PSI_T, Generator.BDAG, m))
            cases.append((PHI_T, Generator.BDAG, m))
        cases.append((PHI, Generator.A, m))
        for sector, op, level in cases:
            source = _tower_state(system, sector, level)
            image = apply_generator(system, op, source)
            lamsq = half_lowering_factor_squared(system, sector, level)
            for state in (source, image):
                if state not in norms:
                    norms[state] = inner_product(state, state)
            lhs, rhs = norms[image], norms[source].scale(lamsq)
            checked += 1
            if lhs != rhs:
                failures.append({"sector": sector.value, "m": level})
    return not failures, failures[0] if failures else None, checked


def lemma_outcome(lemma, system, m_max):
    try:
        result = lemma(system, m_max)
    except Exception as exc:  # the outcome compared is the exception's type and message
        return type(exc), str(exc)
    return result if isinstance(result, tuple) else (result.passed, result.first_failure, result.checked)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lemma_matches_the_full_product_reference(n):
    assert lemma_outcome(verify_lemma_half_lowering, make_xn_system(n), 11) == (True, None, 45)
    assert lemma_outcome(reference_lemma, make_xn_system(n), 11) == (True, None, 45)
    outcomes = set()
    for slot in mutation_slots(make_xn_system(n)):
        for delta in (1, -1, 2, Fraction(1, 2), -3):
            system = make_xn_system(n, mutate=(*slot, Fraction(delta)))
            got = lemma_outcome(verify_lemma_half_lowering, system, 6)
            assert got == lemma_outcome(reference_lemma, system, 6), (slot, delta)
            outcomes.add(got[0])
    assert RuntimeError in outcomes and DivergenceError in outcomes
    assert (False in outcomes) == (n == 1)  # n = 1 has failing reports, at psi~ level 1


def test_lemma_factor_direct_ratio_n2():
    # <a psi_1, a psi_1> == 4 <psi_1, psi_1> exactly
    sys2 = make_xn_system(2)
    rec = eigenstate(sys2, PSI, 1)
    image = apply_generator(sys2, Generator.A, rec.state)
    assert inner_product(image, image) == rec.norm_sq.scale(4)
    assert inner_product(image, image).rational_ratio(rec.norm_sq) == 4


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------


def test_gram_8x8_exactly_diagonal_n2():
    sys2 = make_xn_system(2)
    records = [eigenstate(sys2, PSI, m) for m in range(4)]
    records += [eigenstate(sys2, PHI, m) for m in range(4)]
    gram = gram_matrix(records)
    for i in range(8):
        for j in range(8):
            if i == j:
                assert not gram[i][j].is_zero
            else:
                assert gram[i][j].is_zero


def test_gram_n1_hermite_norms():
    sys1 = make_xn_system(1)
    gram = gram_matrix([eigenstate(sys1, PSI, m) for m in range(3)])
    # ||(a+b)^(m+1) psi_0||^2 / ||(a+b)^m psi_0||^2 = (2m+1)(2m+2), from
    # b+ a a+ b = (a+a - gamma)^2 + delta (a+a - gamma) on eigenstates,
    # so ||psi_m||^2 = (2m)! sqrt(pi)
    for m in range(3):
        assert gram[m][m] == GammaVector(1, {1: math.factorial(2 * m)})


def test_gram_single_record():
    rec = eigenstate(make_xn_system(3), PHI, 2)
    gram = gram_matrix([rec])
    assert len(gram) == 1
    assert evaluate_gamma_vector_mp(gram[0][0])[0] > 0


def test_tilde_sectors_orthogonal_too():
    sys2 = make_xn_system(2)
    records = [eigenstate(sys2, PSI_T, m) for m in (1, 2, 3)]
    records += [eigenstate(sys2, PHI_T, m) for m in (0, 1, 2)]
    gram = gram_matrix(records)
    for i in range(6):
        for j in range(6):
            assert gram[i][j].is_zero == (i != j)


def test_odd_parity_products_that_vanish_exactly_are_zero():
    # untilded and tilde states differ in sqrt(2) half power; where every
    # term pair has an odd exponent sum the product is exactly 0, not irrational
    sys1 = make_xn_system(1)
    gram = gram_matrix([eigenstate(sys1, PSI, 1), eigenstate(sys1, PSI_T, 1)])
    assert gram[0][1] == gram[1][0] == GammaVector(1, {})
    assert not gram[0][0].is_zero and not gram[1][1].is_zero
    sys3 = make_xn_system(3)
    phi, phi_t = eigenstate(sys3, PHI, 2).state, eigenstate(sys3, PHI_T, 2).state
    assert (phi.half_power + phi_t.half_power) % 2 == 1
    assert inner_product(phi, phi_t) == inner_product(phi_t, phi) == GammaVector(3, {})


def test_odd_parity_products_that_do_not_vanish_still_raise():
    sys2 = make_xn_system(2)
    psi = eigenstate(sys2, PSI, 1).state
    with pytest.raises(ValueError, match="odd combined sqrt"):
        inner_product(psi, psi.scale_sqrt2(1))  # an even power survives
    odd = GaussPolyState(2, {-3: 1}, half_power=1)
    with pytest.raises(ValueError, match="odd combined sqrt"):
        inner_product(odd, monomial_state(2, 0))  # a negative exponent sum


# ---------------------------------------------------------------------------
# numeric export
# ---------------------------------------------------------------------------


def test_normalized_samples_unit_norm():
    rec = eigenstate(make_xn_system(2), PSI, 1)
    xs = np.linspace(-6, 6, 4001)
    vals = normalized_samples(rec, xs)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    assert trapezoid(vals ** 2, xs) == pytest.approx(1.0, rel=1e-8)


def sample_oracle(record, xs):
    """Normalised values of the exact state: its polynomial exactly at each float x, then mpmath."""
    state = record.state
    n, top = state.n, max(state.nums)
    with mp.workdps(40):
        norm, _ = evaluate_gamma_vector_mp(record.norm_sq, 300)
        factor = mp.mpf(2) ** (-mp.mpf(state.half_power) / 2) / mp.sqrt(norm)
        values = []
        for x in xs:
            a, b = float(x).as_integer_ratio()
            poly = 0  # b^top * den * polynomial(a / b), by Horner's rule in ints
            for k in range(top, -1, -1):
                poly = poly * a + state.nums.get(k, 0) * b ** (top - k)
            weight = mp.exp(-mp.mpf(float(x)) ** (2 * n) / (2 * n))
            values.append(float(mp.mpf(poly) / (state.den * b ** top) * weight * factor))
    return np.array(values)


@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3, 4) for m in (0, 1, 5, 10, 40)] + [(1, 80)])
def test_samples_match_exact_oracle(n, m):
    system = make_xn_system(n)
    for sector in SectorLabel:
        if sector is PSI_T and m == 0:
            continue
        rec = eigenstate(system, sector, m)
        edge = 1.3 * (n * (4 * m + 6)) ** (1 / (2 * n))  # past the turning point t = 4j + 2 beta + 2
        xs = np.concatenate([np.linspace(-edge, edge, 61), [0.0, 1e-3, -0.7]])
        want = sample_oracle(rec, xs)
        assert np.max(np.abs(normalized_samples(rec, xs) - want)) <= 1e-12 * np.max(np.abs(want))


def test_samples_unit_norm_at_level_2000():
    rec = eigenstate(make_xn_system(1), PSI, 2000)
    xs = np.linspace(-100, 100, 20001)  # the turning point is at |x| = 89.4
    vals = normalized_samples(rec, xs)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    assert trapezoid(vals ** 2, xs) == pytest.approx(1.0, rel=1e-8)


#: Points where the two sampling routes could part: NaN, infinities, signed
#: zeros, subnormals and values near the ends of the float range.
SPECIAL_POINTS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]


@st.composite
def sampling_cases(draw):
    """(n, sector, m, points): any family and tower to m = 160, fewer points at higher m."""
    n = draw(st.integers(1, 8))
    sector = draw(st.sampled_from(list(SectorLabel)))
    m = draw(st.integers(sector.first_level, 160))
    scale = 10.0 ** draw(st.integers(-3, 300))
    point = st.one_of(st.floats(-scale, scale), st.sampled_from(SPECIAL_POINTS), st.floats())
    return n, sector, m, draw(st.lists(point, min_size=1, max_size=max(4, 1200 // (m + 1))))


@settings(max_examples=300, deadline=None)
@given(sampling_cases())
def test_list_route_is_bit_identical_to_the_array_route(case):
    n, sector, m, points = case
    rec = eigenstate(make_xn_system(n), sector, m)
    listed = normalized_samples(rec, points)
    grid = np.array(points)
    if len(points) % 2 == 0:
        grid = grid.reshape(2, -1)  # the array route keeps any shape
    arrayed = normalized_samples(rec, grid)
    assert type(listed) is list and all(type(v) is float for v in listed)
    assert isinstance(arrayed, np.ndarray) and arrayed.shape == grid.shape
    assert np.array(listed).tobytes() == arrayed.tobytes()


def laguerre_beta(sector, n):
    return {PSI: Fraction(1, 2 * n) - 1, PHI: 1 - Fraction(1, 2 * n), PSI_T: Fraction(1, 2 * n),
            PHI_T: Fraction(-1, 2 * n)}[sector]


def kappa_sq(rec):
    """(c_top / Laguerre top coefficient)^2 with c_top's den and half power: the state over x^p L_j e^(-t/2)."""
    state, n = rec.state, rec.state.n
    j = rec.m - (rec.sector is PSI_T)
    c_top = Fraction(state.nums[max(state.nums)], state.den)
    return (c_top * math.factorial(j) * n ** j) ** 2 / 2 ** state.half_power


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_norm_ratios_match_laguerre_closed_form(n):
    # ||state||^2 = kappa^2 n^beta Gamma(j+beta+1) / j!, so one level up multiplies it
    # by (kappa'/kappa)^2 (j'+beta)/j', exactly
    system = make_xn_system(n)
    pairs = 0
    for sector in SectorLabel:
        beta = laguerre_beta(sector, n)
        for m in range(1 if sector is PSI_T else 0, 40):
            low, high = eigenstate(system, sector, m), eigenstate(system, sector, m + 1)
            j = m + 1 - (sector is PSI_T)
            want = kappa_sq(high) / kappa_sq(low) * (j + beta) / j
            assert high.norm_sq.rational_ratio(low.norm_sq) == want
            pairs += 1
    assert pairs == 159


def test_samples_refuse_records_off_the_closed_form():
    system = make_xn_system(2)
    rec = eigenstate(system, PHI, 3)
    sampler = towers._laguerre_parameters
    assert sampler(rec) == (3, 3, 3)

    def with_state(extra):
        return EigenstateRecord(rec.sector, rec.m, rec.state + extra, rec.norm_sq, rec.eigenvalue)

    wrong_top = with_state(monomial_state(2, 3 + 4 * 4))
    wrong_bottom = with_state(monomial_state(2, -1))
    wrong_ratio = with_state(monomial_state(2, 3))
    wrong_sector = EigenstateRecord(PHI_T, rec.m, rec.state, rec.norm_sq, rec.eigenvalue)
    wrong_level = EigenstateRecord(rec.sector, 2, rec.state, rec.norm_sq, rec.eigenvalue)
    for bad in (wrong_top, wrong_bottom, wrong_ratio, wrong_sector, wrong_level):
        with pytest.raises(RuntimeError, match="closed form"):
            normalized_samples(bad, [0.5])


def test_eigenstate_record_semantics():
    rec = eigenstate(make_xn_system(2), PHI, 3)
    fields = (rec.sector, rec.m, rec.state, rec.norm_sq, rec.eigenvalue)
    assert rec == EigenstateRecord(*fields) == eigenstate(make_xn_system(2), PHI, 3)
    assert hash(rec) == hash(EigenstateRecord(*fields))
    assert rec == EigenstateRecord(
        sector=rec.sector, m=rec.m, state=rec.state, norm_sq=rec.norm_sq, eigenvalue=rec.eigenvalue
    )
    for i, other in enumerate((PHI_T, 4, rec.state.scale(2), rec.norm_sq.scale(2), rec.eigenvalue + 1)):
        changed = list(fields)
        changed[i] = other
        assert EigenstateRecord(*changed) != rec
    assert rec != fields
    with pytest.raises(AttributeError):
        rec.m = 4
    assert repr(rec) == (
        f"EigenstateRecord(sector={PHI!r}, m=3, state={rec.state!r}, norm_sq={rec.norm_sq!r}, "
        "eigenvalue=Fraction(15, 1))"
    )


def test_equal_systems_share_the_tower_cache():
    eigenstate(make_xn_system(3), PSI, 4)
    hits = _tower_state.cache_info().hits
    eigenstate(make_xn_system(3), PSI, 4)
    assert _tower_state.cache_info().hits == hits + 1


def test_record_json_dict_exact_strings():
    rec = eigenstate(make_xn_system(2), PHI, 1)
    payload = rec.to_json_dict()
    assert payload["sector"] == "phi"
    assert payload["eigenvalue"] == "7/1"
    assert payload["state"] == "2; 0; 3:-7/1, 7:2/1"


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default int-to-text limit")
def test_record_json_dict_past_int_text_limit_raises():
    # n = 1: the squared norm of level 800 has an integer past 4300 digits;
    # the library reports it and leaves the interpreter-wide limit alone
    system = make_xn_system(1)
    assert eigenstate(system, PSI, 750).to_json_dict()["m"] == 750
    deep = eigenstate(system, PSI, 800)
    with pytest.raises(ValueError):
        deep.to_json_dict()
    with pytest.raises(ValueError):
        deep.norm_sq.serialize()
    assert sys.get_int_max_str_digits() == 4300


# ---------------------------------------------------------------------------
# direct solve against the ladder
# ---------------------------------------------------------------------------


def ladder_state(system, sector, m):
    """(a+b)^m on the ground state, one raising word per level; a on top for tildes."""
    if sector.is_tilde:
        return apply_generator(system, Generator.A, ladder_state(system, sector.base, m))
    state = monomial_state(system.n, 0 if sector is PSI else 2 * system.n - 1)
    for _ in range(m):
        state = apply_word(system, RAISING_WORD, state)
    return state


def ladder_record(system, sector, m):
    """(state, eigenvalue) from the ladder, with the eigenvalue check eigenstate made."""
    state = ladder_state(system, sector, m)
    value = tower_eigenvalue(system, sector, m)
    word = (Generator.A, Generator.ADAG) if sector.is_tilde else (Generator.ADAG, Generator.A)
    if apply_word(system, word, state) != state.scale(value):
        raise RuntimeError("eigenvalue equation failed")
    return state, value


def assert_same_state(got, want):
    assert got == want
    assert (got.den, got.half_power, list(got.nums.items())) == (
        want.den, want.half_power, list(want.nums.items())
    )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("sector", [PSI, PHI])
def test_solved_levels_match_ladder(n, sector):
    system = make_xn_system(n)
    state = monomial_state(n, 0 if sector is PSI else 2 * n - 1)
    for m in range(61):
        assert_same_state(_tower_state(system, sector, m), state)
        state = apply_word(system, RAISING_WORD, state)


def test_deep_level_has_no_recursion_limit():
    system = make_xn_system(1)
    state = _tower_state(system, PSI, 2000)
    assert max(state.nums) == 4000 and len(state.nums) == 2001
    hamiltonian = apply_word(system, (Generator.ADAG, Generator.A), state)
    assert hamiltonian == state.scale(tower_eigenvalue(system, PSI, 2000))


def test_zero_state_is_rejected():
    # b's +n coefficient 2 - 2 = 0: the raising word a+b cannot raise, and
    # the ladder gave the zero state, which passed the eigenvalue check.
    system = make_xn_system(2, mutate=(Generator.B, 1, "alpha", Fraction(-2)))
    assert ladder_record(system, PSI, 3)[0].is_zero
    with pytest.raises(RuntimeError, match="eigenvalue equation failed"):
        eigenstate(system, PSI, 3)


def test_zero_tilde_state_is_rejected():
    # delta = 0 puts PHI level 0 at eigenvalue 0, and this a annihilates x:
    # phi~ level 0 = a x is zero, and a a+ 0 = 0 * 0 holds vacuously.
    a = Operator({-1: (-1, 1)}, 1)
    adag, b, bdag = make_xn_system(1).generators[1:]
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(0), generators=(a, adag, b, bdag))
    assert eigenstate(system, PHI, 0).state == monomial_state(1, 1)
    assert ladder_record(system, PHI_T, 0)[0].is_zero
    with pytest.raises(RuntimeError, match="eigenvalue equation failed"):
        eigenstate(system, PHI_T, 0)


@pytest.mark.parametrize(
    "a, adag, sector, m",
    [
        # H = a+a has the diagonal d(k) = (k^2 - 4k + 8)/2 and no -2 shift:
        # d meets E = 4 at the top exponent 4 of PSI level 2 and again at 0
        (Operator({-1: (1,)}, 1), Operator({1: (5, -2, 1)}, 1), PSI, 2),
        # d(k) = 1 misses E = 0 at the PSI ground state
        (Operator({-1: (1,)}, 1), Operator({1: (2,)}, 1), PSI, 0),
        # a +3 shift in a+ gives H a +2 shift, which moves the PHI ground state x
        (Operator({-1: (0, 1)}, 1), Operator({-1: (0, -1), 1: (2,), 3: (1,)}, 1), PHI, 0),
        (Operator({-1: (0, 1)}, 1), Operator({-1: (0, -1), 1: (2,), 3: (1,)}, 1), PHI, 2),
    ],
    ids=["gap-below-top", "ground-off-eigenvalue", "plus-2-shift-ground", "plus-2-shift-level-2"],
)
def test_hamiltonian_outside_the_solve_fails_loudly(a, adag, sector, m):
    b, bdag = make_xn_system(1).generators[2:]
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(1), generators=(a, adag, b, bdag))
    with pytest.raises(RuntimeError, match="eigenvalue equation failed"):
        _tower_state(system, sector, m)


@pytest.mark.parametrize("n", [1, 2])
def test_solve_follows_generator_half_powers(n):
    # sqrt(2) a and sqrt(2) a+ give H' = 2H and R' = sqrt(2) R, an odd half power
    family = make_xn_system(n)
    a, adag, b, bdag = family.generators
    system = CoupledSusySystem(
        n=n, gamma=2 * family.gamma, delta=2 * family.delta,
        generators=(a.scale_sqrt2(1), adag.scale_sqrt2(1), b, bdag),
    )
    for sector in (PSI, PHI, PHI_T):
        for m in range(6):
            want = eigenstate(family, sector, m).state.scale_sqrt2(m + sector.is_tilde)
            assert_same_state(eigenstate(system, sector, m).state, want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta", [Fraction(1), Fraction(-2), Fraction(1, 3)])
def test_mutated_generators_fail_like_the_ladder(n, delta):
    """Every ladder failure still raises; records agree wherever both succeed.

    The solve also refuses the zero states the ladder let through.
    """
    for slot in mutation_slots(make_xn_system(n)):
        system = make_xn_system(n, mutate=(*slot, delta))
        for sector in (PSI, PHI, PSI_T, PHI_T):
            for m in range(1 if sector is PSI_T else 0, 7):
                try:
                    want = ladder_record(system, sector, m)
                except RuntimeError:
                    want = None
                try:
                    got = eigenstate(system, sector, m)
                except RuntimeError:
                    assert want is None or want[0].is_zero, (slot, sector, m)
                    continue
                assert want is not None, (slot, sector, m)
                assert_same_state(got.state, want[0])
                assert got.eigenvalue == want[1]
                assert got.norm_sq == inner_product(got.state, got.state), (slot, sector, m)


# ---------------------------------------------------------------------------
# norms from the top pairing
# ---------------------------------------------------------------------------


def top_pairing(state):
    """c_top <x^top, state>, the norm wherever the lower pairings vanish."""
    top = max(state.nums)
    return inner_product(GaussPolyState(state.n, {top: state.terms[top]}, state.half_power), state)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_norms_equal_the_full_product(n, sector):
    system = make_xn_system(n)
    assert _symmetric_diagonal(system, sector.is_tilde) is not None
    for m in range(1 if sector is PSI_T else 0, 61):
        rec = eigenstate(system, sector, m)
        assert rec.norm_sq == inner_product(rec.state, rec.state), m


@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_deep_norm_equals_the_full_product(sector):
    rec = eigenstate(make_xn_system(1), sector, 200)
    assert len(rec.state.nums) >= 200
    assert rec.norm_sq == inner_product(rec.state, rec.state)


def test_asymmetric_hamiltonian_takes_the_full_product():
    # a+ sends x^k to (1 - k) x^(k-1) + 2 x^(k+1) instead of -k x^(k-1) + ...:
    # l(k) = k (2 - k) / 2 in H = a+a is off the symmetric -k (k - 1) / 2 + const,
    # and the lower pairings of a level no longer vanish
    a, _, b, bdag = make_xn_system(1).generators
    adag = Operator({-1: (1, -1), 1: (2,)}, 1)
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(1), generators=(a, adag, b, bdag))
    assert _symmetric_diagonal(system, False) is None and _symmetric_diagonal(system, True) is None
    for sector in (PSI, PSI_T):
        for m in range(2, 7):
            rec = eigenstate(system, sector, m)
            full = inner_product(rec.state, rec.state)
            assert rec.norm_sq == full and top_pairing(rec.state) != full, (sector, m)


def test_zero_gap_takes_the_full_product():
    # a+ = 0 makes aa+ = 0, symmetric with every gap value - d(k) zero, and
    # phi~ level 0 = a x = (1 + x^2)/sqrt(2) an eigenvector that is not
    # orthogonal to x^0
    a = Operator({-1: (0, 1), 1: (1,)}, 1)
    b, bdag = make_xn_system(1).generators[2:]
    system = CoupledSusySystem(
        n=1, gamma=Fraction(-1), delta=Fraction(0), generators=(a, Operator({}), b, bdag)
    )
    assert _symmetric_diagonal(system, True) is not None
    rec = eigenstate(system, PHI_T, 0)
    assert rec.state == GaussPolyState(1, {0: 1, 2: 1}, 1)
    full = inner_product(rec.state, rec.state)
    assert rec.norm_sq == full and top_pairing(rec.state) != full


def test_negative_exponents_diverge_like_the_full_product():
    # aa+ sends x^k to (k - 1) x^k - (k + 2)(k - 3)/2 x^(k-2), which is
    # symmetric, and psi = x^2 + 1 + 3/4 x^-2 is its eigenvector for 1; the
    # top pairing converges, the norm does not
    b, bdag = make_xn_system(1).generators[2:]
    a, adag = Operator({-1: (-2, 1)}, 1), Operator({-1: (-2, -1), 1: (2,)}, 1)
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(1), generators=(a, adag, b, bdag))
    assert _symmetric_diagonal(system, True) is not None
    psi = GaussPolyState(1, {2: 1, 0: 1, -2: Fraction(3, 4)})
    assert apply_word(system, (Generator.A, Generator.ADAG), psi) == psi
    assert not top_pairing(psi).is_zero
    with pytest.raises(DivergenceError):
        _norm_sq(system, PSI_T, psi, Fraction(1))


# ---------------------------------------------------------------------------
# per-sector constants against literal tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_constants_match_the_literal_tables(n):
    # Each constant is derived from the tower eigenvalue, the residue and the
    # first level; these literal four-way tables are the oracle for it.
    system = make_xn_system(n)
    g, d = system.gamma, system.delta
    dg = d - g
    bargmann = {PSI: -g / (2 * dg), PHI: d / (2 * dg) + Fraction(1, 2),
                PSI_T: -g / (2 * dg) + Fraction(1, 2), PHI_T: d / (2 * dg)}
    lambda_sq = {PSI: lambda m: m * dg, PHI: lambda m: m * dg + d,
                 PSI_T: lambda m: m * dg - d, PHI_T: lambda m: m * dg}
    laguerre = {PSI: lambda m: (0, 1 - 2 * n, m), PHI: lambda m: (2 * n - 1, 2 * n - 1, m),
                PSI_T: lambda m: (n, 1, m - 1), PHI_T: lambda m: (n - 1, -1, m)}
    roots = {PSI: math.sqrt(float(-g)), PHI_T: math.sqrt(float(d))}
    classes = {1: {0, 2 * n - 1}, 2: {n, n - 1}}
    z = 0.3 - 0.2j
    for sector in SectorLabel:
        assert coherent.bargmann_index(system, sector) == bargmann[sector]
        for m in range(1 if sector is PSI_T else 0, 13):
            assert half_lowering_factor_squared(system, sector, m) == lambda_sq[sector](m)
            assert towers._laguerre_parameters(eigenstate(system, sector, m)) == laguerre[sector](m)
        if sector in roots:
            want = roots[sector] * z / math.sqrt(1.0 - abs(z) ** 2)
            assert coherent.half_lowering_scalar(system, sector, z) == want
        else:
            with pytest.raises(ValueError):
                coherent.half_lowering_scalar(system, sector, z)
    for sector, allowed in classes.items():
        for r in range(2 * n):
            if r in allowed:
                uncertainty._guard_sector(system, sector, monomial_state(n, r))
            else:
                with pytest.raises(uncertainty.SectorDomainError):
                    uncertainty._guard_sector(system, sector, monomial_state(n, r))
