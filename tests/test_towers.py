"""Eigenstate towers: eigenvalues, orthogonality, closed forms, ladder factors.

The tower levels, built as closed forms on a proved system and by the
top-down solve elsewhere, are checked against the ladder the solve
replaced, (a+b)^m applied to the ground state, kept at the end of this file
as a test-local oracle (ladder_state, ladder_record); the closed forms also
against the solve and the a image of the solved base.  Record
norms, the Laguerre closed form wherever the state has it, are checked
against the full product inner_product(state, state).
"""

import itertools
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from coupledsusy import coherent, towers, uncertainty
from coupledsusy.calculus import (
    DivergenceError,
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Generator,
    IDENTITY,
    LOWERING_WORD,
    Operator,
    RAISING_WORD,
    _IntForm,
    apply_generator,
    apply_word,
    evaluate_gamma_vector_mp,
    inner_product,
    monomial_state,
    proportionality_ratio,
)
from coupledsusy.systems import (
    CoupledSusySystem, all_reports_pass, make_xn_system, mutation_slots, verify_coupled_susy, verify_su11,
)
from coupledsusy.towers import (
    EigenstateRecord,
    SectorLabel,
    _laguerre_form,
    _norm_sq,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_records_satisfy_the_eigenvalue_equation(n):
    # H applied to every record, as an oracle independent of the solve that proves H s = E s
    system = make_xn_system(n)
    for sector in SectorLabel:
        for m in range(sector.first_level, 21):
            rec = eigenstate(system, sector, m)
            hamiltonian = system.pairs[sector.is_tilde].hamiltonian
            assert hamiltonian.apply(rec.state) == rec.state.scale(rec.eigenvalue), (sector, m)


def test_sector_labels_hash_by_identity():
    # the tower caches hash a label on every lookup; the members are singletons, pickled ones too
    for sector in SectorLabel:
        assert hash(sector) == object.__hash__(sector)
        assert pickle.loads(pickle.dumps(sector)) is sector


def test_psi_tilde_level_zero_rejected():
    with pytest.raises(ValueError):
        eigenstate(make_xn_system(2), PSI_T, 0)


def test_tower_levels_are_ints():
    # True == 1 and hash(True) == hash(1): a level True must not become the cached record of level 1
    system = make_xn_system(2)
    towers._tower_state.cache_clear()
    assert type(eigenstate(system, PSI, True).m) is int
    rec = eigenstate(system, PSI, 1)
    assert rec.m == 1 and json.dumps(rec.to_json_dict()["m"]) == "1"
    assert eigenstate(system, PHI, 2.0) is eigenstate(system, PHI, 2)
    assert verify_lemma_half_lowering(system, 2.0).k_range == (0, 2)
    for call, name in ((lambda: eigenstate(system, PSI, 2.5), "tower level m"),
                       (lambda: verify_lemma_half_lowering(system, 2.5), "m_max")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not 2.5$"):
            call()


def test_eigenvalues_take_integral_levels_only():
    # Fraction(m) used to raise TypeError for a float level; an integral one is taken as its int
    system = make_xn_system(2)
    assert tower_eigenvalue(system, PHI, 2.0) == tower_eigenvalue(system, PHI, 2) == 11
    assert half_lowering_factor_squared(system, PSI_T, True) == 1
    assert half_lowering_factor_squared(system, PSI_T, 1.0) == half_lowering_factor_squared(system, PSI_T, 1)
    for call in (lambda: tower_eigenvalue(system, PSI, 2.5),
                 lambda: half_lowering_factor_squared(system, PSI, 2.5)):
        with pytest.raises(ValueError, match="^tower level m must be an integer, not 2.5$"):
            call()


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


def laguerre_terms(n, p, beta, j):
    """x^p L_j^beta(t) with t = x^(2n)/n, as {exponent: Fraction} from the explicit sum.

    L_j^beta(t) = sum_i (-1)^i binom(j + beta, j - i) t^i / i!, where
    binom(j + beta, j - i) = prod_{l=i+1..j} (beta + l) / (j - i)!.
    """
    terms = {}
    for i in range(j + 1):
        binom = math.prod([beta + l for l in range(i + 1, j + 1)], start=Fraction(1))
        terms[p + 2 * n * i] = (-1) ** i * binom / (math.factorial(j - i) * math.factorial(i) * n ** i)
    return terms


def laguerre_state(n, sector, m):
    """The sector's level m from the (p, beta, j) table in the towers docstring."""
    p, j = {PSI: (0, m), PHI: (2 * n - 1, m), PSI_T: (n, m - 1), PHI_T: (n - 1, m)}[sector]
    return GaussPolyState(n, laguerre_terms(n, p, laguerre_beta(sector, n), j))


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
            source = _tower_state(system, sector, level).state
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
    # m_max 15 is the deepest lemma the exact-session benchmark runs
    assert lemma_outcome(verify_lemma_half_lowering, make_xn_system(n), 15) == (True, None, 61)
    assert lemma_outcome(reference_lemma, make_xn_system(n), 15) == (True, None, 61)
    outcomes = set()
    for slot in mutation_slots(make_xn_system(n)):
        for delta in (1, -1, 2, Fraction(1, 2), -3):
            system = make_xn_system(n, mutate=(*slot, Fraction(delta)))
            got = lemma_outcome(verify_lemma_half_lowering, system, 6)
            assert got == lemma_outcome(reference_lemma, system, 6), (slot, delta)
            outcomes.add(got[0])
    assert RuntimeError in outcomes and DivergenceError in outcomes
    assert (False in outcomes) == (n == 1)  # n = 1 has failing reports, at psi~ level 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_halved_generators_give_fractional_eigenvalues(n):
    # a/2, a+/2, b/2, b+/2 scale both Hamiltonians by 1/4: gamma = -1/4, delta = (2n-1)/4,
    # so the eigenvalues, the spacing and lambda^2 all have the denominator 4
    family = make_xn_system(n)
    system = CoupledSusySystem(
        n=n, gamma=Fraction(-1, 4), delta=Fraction(2 * n - 1, 4),
        generators=tuple(g.scale(Fraction(1, 2)) for g in family.generators),
    )
    reports = verify_coupled_susy(system) + verify_su11(system)
    assert len(reports) == 11 and all_reports_pass(reports)
    for sector in SectorLabel:
        for m in range(sector.first_level, 9):
            rec = eigenstate(system, sector, m)
            assert rec.eigenvalue == m * (system.delta - system.gamma) + system.delta * (sector.base is PHI)
            assert rec.eigenvalue == eigenstate(family, sector, m).eigenvalue / 4
            assert system.pairs[sector.is_tilde].hamiltonian.apply(rec.state) == rec.state.scale(rec.eigenvalue)
    got = lemma_outcome(verify_lemma_half_lowering, system, 8)
    assert got == lemma_outcome(reference_lemma, system, 8) == (True, None, 33)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_follows_odd_half_powers(n):
    # sqrt(2) b (or sqrt(2) b+) leaves an odd total half power on the four generators, so each
    # b+ image is (p/q) 2^(j/2) times the level below with j odd: the lemma holds for sqrt(2) b,
    # whose b+ is unchanged, and fails for sqrt(2) b+, whose images have twice the norm
    a, adag, b, bdag = make_xn_system(n).generators
    for generators, want in [((a, adag, b.scale_sqrt2(1), bdag), (True, None, 33)),
                             ((a, adag, b, bdag.scale_sqrt2(1)), (False, {"sector": "psi~", "m": 1}, 33))]:
        system = CoupledSusySystem(n=n, gamma=Fraction(-1), delta=Fraction(2 * n - 1), generators=generators)
        image = apply_generator(system, Generator.BDAG, eigenstate(system, PHI_T, 2).state)
        assert proportionality_ratio(image, eigenstate(system, PHI, 1).state)[1] in (-1, 1)
        assert lemma_outcome(verify_lemma_half_lowering, system, 8) == want
        assert lemma_outcome(reference_lemma, system, 8) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_proved_lemma_builds_no_tower_record(n):
    # the relations are proved for every level once per system, so no depth builds a record
    system = make_xn_system(n)
    assert towers._proved(system)  # else m_max 10 000 would run level by level
    misses = _tower_state.cache_info().misses
    for m_max in (15, 10_000):
        assert lemma_outcome(verify_lemma_half_lowering, system, m_max) == (True, None, 4 * m_max + 1)
    assert _tower_state.cache_info().misses == misses


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_proved_lemma_matches_the_full_product_reference(n):
    system = make_xn_system(n)
    assert towers._proved(system)
    got = lemma_outcome(verify_lemma_half_lowering, system, 6)
    assert got == lemma_outcome(reference_lemma, system, 6) == (True, None, 25)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_proof_assumes_no_adjoint(n):
    # 2a and a+/2 leave a+a and aa+ as they are, so the system passes verify, but ||2a phi_0||^2 is
    # four times lambda^2 ||phi_0||^2: the proof reads the images' own norms and does not hold
    a, adag, b, bdag = make_xn_system(n).generators
    system = CoupledSusySystem(n=n, gamma=Fraction(-1), delta=Fraction(2 * n - 1),
                               generators=(a.scale(2), adag.scale(Fraction(1, 2)), b, bdag))
    assert all_reports_pass(verify_coupled_susy(system) + verify_su11(system))
    assert not towers._proved(system)
    got = lemma_outcome(verify_lemma_half_lowering, system, 6)
    assert got == lemma_outcome(reference_lemma, system, 6) == (False, {"sector": "phi", "m": 0}, 25)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_passing_proof_implies_the_per_level_run_passes(monkeypatch, n):
    # the family itself, the 240 mutated systems of the full-product test, the halved one and those
    # with sqrt(2) b or sqrt(2) b+; the family, the halved and sqrt(2) b systems pass the lemma, and
    # the proof holds for the first two.  sqrt(2) b fails its b+ row only: b+ s~_m is sqrt(2) rho_m
    # s_(m-1) there.  The per-level run builds its records with every check, as on a system
    # without the proof
    family = make_xn_system(n)
    a, adag, b, bdag = family.generators
    systems = [family] + [make_xn_system(n, mutate=(*slot, Fraction(delta)))
                          for slot in mutation_slots(family) for delta in (1, -1, 2, Fraction(1, 2), -3)]
    halved = tuple(g.scale(Fraction(1, 2)) for g in family.generators)
    scaled = {
        "halved": (Fraction(-1, 4), Fraction(2 * n - 1, 4), halved),
        "sqrt(2) b": (Fraction(-1), Fraction(2 * n - 1), (a, adag, b.scale_sqrt2(1), bdag)),
        "sqrt(2) b+": (Fraction(-1), Fraction(2 * n - 1), (a, adag, b, bdag.scale_sqrt2(1))),
    }
    for name, (gamma, delta, generators) in scaled.items():
        systems.append(CoupledSusySystem(n=n, gamma=gamma, delta=delta, generators=generators, mutation=name))
    proved = [system for system in systems if towers._proved(system)]
    assert "halved" in {system.mutation for system in proved}
    assert not {"sqrt(2) b", "sqrt(2) b+"} & {system.mutation for system in proved}
    monkeypatch.setattr(towers, "_proved", lambda system: False)
    towers._tower_state.cache_clear()
    for system in proved:
        assert lemma_outcome(towers._lemma_by_level, system, 6) == (True, None, 25), system.mutation
    towers._tower_state.cache_clear()


def test_proved_records_equal_the_checked_solve(monkeypatch):
    # on a proved system a record is the closed form, built in one pass from the proof's table, with
    # no raising check and no closed-form check; its state must be the solve's (PSI, PHI) or a on the
    # solved base (the tilde towers), key order, den and half power included, its norm the full
    # product and its eigenvalue tower_eigenvalue's, and the record the one built on the unproved
    # route with both checks.  The scaled systems (generators times c, gamma and delta times c^2)
    # have tower dens other than 1
    systems = {(n, 1): make_xn_system(n) for n in range(1, 9)}
    for n in (1, 2, 3):
        for c in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            family = systems[n, 1]
            systems[n, c] = CoupledSusySystem(n=n, gamma=family.gamma * c * c, delta=family.delta * c * c,
                                              generators=tuple(g.scale(c) for g in family.generators))
    keys = [(key, sector, m) for key in systems for sector in SectorLabel
            for m in range(sector.first_level, 131 if key[1] == 1 else 41)]
    keys += [(key, sector, 300 if key[1] == 1 else 130) for key in systems if key[0] <= 4 for sector in SectorLabel]
    towers._tower_state.cache_clear()
    for key, sector, m in keys:
        system = systems[key]
        assert towers._proved(system), key
        solved = towers._solve_level(system, sector.base, m)
        want = apply_generator(system, Generator.A, solved) if sector.is_tilde else solved
        record = _tower_state(system, sector, m)
        assert_same_state(record.state, want)
        assert record.eigenvalue == tower_eigenvalue(system, sector, m), (key, sector, m)
        if key[0] <= 4:
            assert record.norm_sq == inner_product(want, want), (key, sector, m)
    records = {key: _tower_state(systems[key[0]], *key[1:]) for key in keys}
    monkeypatch.setattr(towers, "_proved", lambda system: None)
    towers._tower_state.cache_clear()
    for (key, sector, m), record in records.items():
        checked = _tower_state(systems[key], sector, m)
        assert checked == record, (key, sector, m)
        assert_same_state(record.state, checked.state)
        assert record.to_json_dict() == checked.to_json_dict(), (key, sector, m)
    towers._tower_state.cache_clear()


def sweep_system(n, picks, scaled):
    """A system of the generator sweep: each of a, a+, b, b+ times s and sqrt(2)^h, (s, h) its pick;
    with `scaled`, gamma and delta are multiplied by |s_a s_a+| (times 2 when both have h = 1)."""
    family = make_xn_system(n)
    generators = tuple(g.scale(s).scale_sqrt2(h) for g, (s, h) in zip(family.generators, picks))
    (sa, ha), (sd, hd) = picks[:2]
    k = abs(sa * sd) * (1 + (ha and hd)) if scaled else 1
    return CoupledSusySystem(n=n, gamma=family.gamma * k, delta=family.delta * k, generators=generators)


def record_outcomes(system, m_max):
    """Each eigenstate call's JSON dict, or its exception's class and text, per sector and level."""
    outcomes = []
    for sector in SectorLabel:
        for m in range(sector.first_level, m_max):
            try:
                outcomes.append(eigenstate(system, sector, m).to_json_dict())
            except Exception as exc:  # the outcome compared is the exception's type and message
                outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def test_generator_sweep_records_equal_the_solve_route(monkeypatch):
    # n = 1, 2, each generator times 1, -1, 2 or 1/2 and 1 or sqrt(2), gamma and delta scaled with
    # a+a or not: 16 384 systems.  Every proved one has one |s| and one h for all four generators,
    # which the uniform part holds (384 systems); a seeded sample of 512 covers the rest.  Records
    # and exceptions below level 9 are the same on the closed-form route and on the solve route
    choices = [(s, h) for s in (1, -1, 2, Fraction(1, 2)) for h in (0, 1)]
    cases = [(n, picks, scaled) for n in (1, 2) for picks in itertools.product(choices, repeat=4)
             for scaled in (False, True)]
    uniform = [case for case in cases if len({(abs(s), h) for s, h in case[1]}) == 1]
    proved = [system for system in (sweep_system(*case) for case in uniform) if towers._proved(system)]
    assert len(proved) == 32
    sample = [case for case in random.Random(3201).sample(cases, 512) if case not in uniform]
    assert not any(towers._proved(sweep_system(*case)) for case in sample)
    towers._tower_state.cache_clear()
    outcomes = [record_outcomes(system, 9) for system in proved]
    monkeypatch.setattr(towers, "_proved", lambda system: False)
    towers._tower_state.cache_clear()
    for system, want in zip(proved, outcomes):
        assert record_outcomes(system, 9) == want, system
    towers._tower_state.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_proved_records_solve_and_apply_nothing(monkeypatch, n):
    # a cold record of a proved system is its closed form: no solve, no operator applied, no
    # closed-form check; a tilde record builds no base record
    system = make_xn_system(n)
    assert towers._proved(system)

    def refuse(*args):
        raise AssertionError("a proved system's record took the solve route")

    def reduced(cls, family, data, den, half):
        # the closed form's ints arrive in lowest terms, so the store's gcd pass divides nothing
        assert math.gcd(den, *data.values()) == 1 and half in (0, 1)
        return from_ints(family, data, den, half)

    for name in ("_solve_level", "apply_generator", "_laguerre_form"):
        monkeypatch.setattr(towers, name, refuse)
    monkeypatch.setattr(Operator, "apply", refuse)
    from_ints = GaussPolyState._from_ints
    monkeypatch.setattr(GaussPolyState, "_from_ints", classmethod(reduced))
    for sector in SectorLabel:
        for m in (sector.first_level, 1, 7, 60):
            towers._tower_state.cache_clear()
            eigenstate(system, sector, m)
            assert towers._tower_state.cache_info().currsize == 1, (sector, m)
    towers._tower_state.cache_clear()


def test_unproved_systems_keep_the_solve_route(monkeypatch):
    # (2a, a+/2, b, b+) passes verify but not the proof: a record solves its level and the level below
    # for the raising check, and a tilde record is a on its base, which stays cached.  The a-coeff
    # mutation's solve refuses PSI level 3, for the tilde record through its base
    a, adag, b, bdag = make_xn_system(2).generators
    doubled_a = CoupledSusySystem(n=2, gamma=Fraction(-1), delta=Fraction(3),
                                  generators=(a.scale(2), adag.scale(Fraction(1, 2)), b, bdag))
    mutated = make_xn_system(2, mutate="a-coeff")
    solved = []
    real_solve = towers._solve_level
    monkeypatch.setattr(towers, "_solve_level", lambda *key: solved.append(key[1:]) or real_solve(*key))
    assert not towers._proved(doubled_a) and not towers._proved(mutated)
    for sector, cached in ((PSI, 1), (PSI_T, 2)):
        solved.clear()
        towers._tower_state.cache_clear()
        eigenstate(doubled_a, sector, 3)
        assert solved == [(PSI, 3), (PSI, 2)] and towers._tower_state.cache_info().currsize == cached
        solved.clear()
        with pytest.raises(RuntimeError, match="eigenvalue equation failed for SectorLabel.PSI m=3"):
            eigenstate(mutated, sector, 3)
        assert solved == [(PSI, 3)]
    towers._tower_state.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hand_built_systems_match_the_reference(n):
    # sqrt(2) a+ leaves H an odd half power and b = 0 leaves R no +2n term, so their solves raise;
    # so does (aa+ - 2(delta-gamma)) b: R becomes (H - 2(delta-gamma)) R, which keeps [H, R] =
    # (delta-gamma) R but gains a -4n term and kills psi_2; -b+ passes the lemma but is not proved,
    # its b+ row being -rho_m; 2b with b+/2 halves the b+ images' norms and fails
    a, adag, b, bdag = make_xn_system(n).generators
    cases = [((a, adag.scale_sqrt2(1), b, bdag), False), ((a, adag, Operator({}, 1), bdag), False),
             ((a, adag, (a @ adag - IDENTITY.scale(4 * n)) @ b, bdag), False),
             ((a, adag, b, -bdag), False), ((a, adag, b.scale(2), bdag.scale(Fraction(1, 2))), False)]
    for generators, proved in cases:
        system = CoupledSusySystem(n=n, gamma=Fraction(-1), delta=Fraction(2 * n - 1), generators=generators)
        assert bool(towers._proved(system)) == proved
        assert lemma_outcome(verify_lemma_half_lowering, system, 6) == lemma_outcome(reference_lemma, system, 6)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_proof_condition_fails_alone(n):
    # one hand-built system per check of the tower proof, each passing every other check: the proof
    # fails, and the lemma's per-level run gives the reference's outcome
    family = make_xn_system(n)
    a, adag, b, bdag = family.generators
    up, down = Operator({2 * n: (1,)}), Operator({-2 * n: (1,)})  # x^k -> x^(k+2n), x^(k-2n)
    cases = {
        # a+ gains x^(k-n)/sqrt(2): l gains k/2, and [H, R] = (delta-gamma) R still holds
        "H = a+a is the closed form's operator": (a, adag + Operator({-n: (1,)}, 1), b, bdag),
        # a and b move to shift -3n and a+ to +3n: H, R and a's polynomial stay as they are
        "a has one shift -n": (down @ a, adag @ up, down @ b, bdag),
        "b+ has one shift -n": (a, adag, b, down @ bdag),
        # R gains a+a, which keeps its +2n polynomial
        "[H, R] = (delta-gamma) R": (a, adag, b + a, bdag),
        # ||2a s_m||^2 = 4 E_m ||s_m||^2, and ||2b+ s~_m||^2 = 4 (E_m - delta) ||s~_m||^2
        "the a norm ratio": (a.scale(2), adag.scale(Fraction(1, 2)), b, bdag),
        "the b+ norm ratio": (a, adag, b.scale(Fraction(1, 2)), bdag.scale(2)),
        # b+ s~_m = 2 rho_m s_(m-1) with 2b, -rho_m s_(m-1) with -b+ and rho_m / sqrt(2) s_(m-1) with
        # b / sqrt(2), whose tops have an odd total sqrt(2) power
        "the b+ row": (a, adag, b.scale(2), bdag),
        "the b+ row's sign": (a, adag, b, -bdag),
        "the b+ row's sqrt(2) power": (a, adag, b.scale_sqrt2(-1), bdag),
    }
    assert towers._proved(family)
    for name, generators in cases.items():
        system = CoupledSusySystem(n=n, gamma=family.gamma, delta=family.delta, generators=generators)
        assert not towers._proved(system), name
        got = lemma_outcome(verify_lemma_half_lowering, system, 4)
        assert got == lemma_outcome(reference_lemma, system, 4), name


def test_the_evaluated_identities_read_their_degree_bound():
    # the proof checks each identity at D + 1 levels, D read from the factors' lengths: a linear
    # generator's identities have degree 2, so levels 0..2, where P(v) and P(v) + v(v-1)(v-2) agree;
    # the cubic's length raises D to 3, and the two differ at v = 3
    linear, cubic = (5, -3), (5, -1, -3, 1)  # 5 - 3v and 5 - 3v + v(v-1)(v-2)
    assert [towers._poly_at(cubic, v) - towers._poly_at(linear, v) for v in range(4)] == [0, 0, 0, 6]
    assert not towers._agree([(linear, 0, 1)], [(cubic, 0, 1)])
    assert not towers._agree([(cubic, 0, 1)], [(linear, 0, 1)])
    # the same in the shape of a norm ratio: a squared top against a constant times a quadratic
    top, square = (linear, 0, 1), (25, -30, 9)
    assert towers._agree([top, top, ((2,), 0, 0)], [(square, 0, 1), ((2,), 0, 0)])
    shifted = (25, -28, 6, 1)  # square + v(v-1)(v-2)
    assert not towers._agree([top, top, ((2,), 0, 0)], [(shifted, 0, 1), ((2,), 0, 0)])
    # a factor read at origin + step v has its degree in v: P(k) = k^3 at k = 1 + 2v
    assert towers._agree([((0, 0, 0, 1), 1, 2)], [((1, 6, 12, 8), 0, 1)])
    assert not towers._agree([((0, 0, 0, 1), 1, 2)], [((1, 6, 12, 8), 0, 1), ((1, 1), 0, 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_the_proof_and_a_proved_level_form_only_their_own_int_forms(monkeypatch, n):
    # the proof evaluates its per-family identities in ints, so it forms H's closed form and [H, R]
    # and no other int form; a proved level forms its state and its norm, and the store keeps the
    # map each build made, copying none
    family = make_xn_system(n)
    half = Fraction(1, 2)
    systems = [family, CoupledSusySystem(n=n, gamma=family.gamma * half * half, delta=family.delta * half * half,
                                         generators=tuple(g.scale(half) for g in family.generators))]
    formed, copies = [], []
    real_set = _IntForm._set

    def counting_set(form, key_family, data, den, half_power):
        real_set(form, key_family, data, den, half_power)
        formed.append(type(form))
        if form._data is not data and form._data == data:
            copies.append(type(form))

    for system in systems:
        assert towers._proved(system)
        with monkeypatch.context() as patch:
            patch.setattr(_IntForm, "_set", counting_set)
            assert towers._proved.__wrapped__(system) == towers._proved(system)
            assert formed == [Operator, Operator] and copies == []
            for sector in SectorLabel:
                for m in (sector.first_level, 1, 7, 60):
                    towers._tower_state.cache_clear()
                    formed.clear()
                    eigenstate(system, sector, m)
                    assert formed == [GaussPolyState, GammaVector] and copies == [], (sector, m)
            formed.clear()
    towers._tower_state.cache_clear()


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


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_gram_takes_the_diagonal_from_the_records(monkeypatch, k):
    # k(k-1)/2 products off the diagonal, none on it: <r, r> is r.norm_sq
    records = [eigenstate(make_xn_system(2), sector, m) for m in range(4) for sector in (PSI, PHI)][:k]
    pairs = []
    real_product = towers.inner_product

    def counting_product(f, g):
        pairs.append((f, g))
        return real_product(f, g)

    monkeypatch.setattr(towers, "inner_product", counting_product)
    gram = gram_matrix(records)
    assert len(pairs) == k * (k - 1) // 2 and all(f is not g for f, g in pairs)
    assert [gram[i][i] for i in range(k)] == [r.norm_sq for r in records]


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
    wrong_middle = with_state(monomial_state(2, 3 + 4))  # both ends as in the closed form
    wrong_sector = EigenstateRecord(PHI_T, rec.m, rec.state, rec.norm_sq, rec.eigenvalue)
    wrong_level = EigenstateRecord(rec.sector, 2, rec.state, rec.norm_sq, rec.eigenvalue)
    for bad in (wrong_top, wrong_bottom, wrong_ratio, wrong_middle, wrong_sector, wrong_level):
        with pytest.raises(RuntimeError, match="closed form"):
            normalized_samples(bad, [0.5])


@pytest.mark.parametrize("sector", list(SectorLabel))
@pytest.mark.parametrize("m", [3, 4])
def test_both_sample_routes_follow_a_negated_record(sector, m):
    # the sign rule reads the lowest coefficient: the state scaled by -1 samples exactly negated
    rec = eigenstate(make_xn_system(2), sector, m)
    flipped = EigenstateRecord(rec.sector, rec.m, rec.state.scale(-1), rec.norm_sq, rec.eigenvalue)
    points = [-2.5, -1.1, -0.3, 0.0, 0.4, 1.3, 2.2]
    assert normalized_samples(flipped, points) == [-v for v in normalized_samples(rec, points)]
    grid = np.array(points).reshape(7, 1)
    assert np.array_equal(normalized_samples(flipped, grid), -normalized_samples(rec, grid))


def test_gram_matrix_refuses_mixed_families():
    records = [eigenstate(make_xn_system(n), PSI, 0) for n in (1, 2)]
    with pytest.raises(FamilyMismatchError):
        gram_matrix(records)


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


def test_equal_systems_share_the_tower_cache(monkeypatch):
    first = eigenstate(make_xn_system(3), PSI, 4)
    hits = _tower_state.cache_info().hits
    calls = []
    real_apply, real_norm = Operator.apply, towers._norm_sq

    def counting_apply(op, state):
        calls.append("apply")
        return real_apply(op, state)

    def counting_norm(state):
        calls.append("norm")
        return real_norm(state)

    monkeypatch.setattr(Operator, "apply", counting_apply)
    monkeypatch.setattr(towers, "_norm_sq", counting_norm)
    # a hit returns the checked record itself: no operator applied, no norm built
    assert eigenstate(make_xn_system(3), PSI, 4) is first
    assert _tower_state.cache_info().hits == hits + 1
    assert calls == []


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
        assert_same_state(_tower_state(system, sector, m).state, state)
        state = apply_word(system, RAISING_WORD, state)


def test_deep_level_has_no_recursion_limit():
    system = make_xn_system(1)
    state = _tower_state(system, PSI, 2000).state
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


def test_ground_state_guards_on_hand_built_systems():
    # each system solves PSI and PHI level 0, x^0 and x^1, and breaks one kernel condition
    b, bdag = make_xn_system(1).generators[2:]
    off_ker_a = CoupledSusySystem(1, Fraction(-1), Fraction(1, 2),
                                  (Operator({-1: (1,)}, 1), Operator({1: (1, 1)}, 1), b, bdag))
    both_in_ker_a = CoupledSusySystem(1, Fraction(-1), Fraction(0),
                                      (Operator({-1: (0, -1, 1)}, 1), Operator({1: (1,)}, 1), b, bdag))
    cases = ((off_ker_a, "PSI ground state is not annihilated by a"),
             (make_xn_system(1, mutate="bdag-coeff"), "PHI ground state is not annihilated by b\\+a"),
             (both_in_ker_a, "PHI ground state must not lie in ker a"))
    for system, message in cases:
        assert eigenstate(system, PSI, 0).state == monomial_state(1, 0)
        assert eigenstate(system, PHI, 0).state == monomial_state(1, 1)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            ground_states(system)


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
        # H sends x^k to k x^k + k (2 - k)/2 x^(k-2): every gap of PHI level 0 (the state x,
        # d(1) = 1 = E) holds, and only the term below the seed, l(1) x^-1 = x^-1 / 2, is left
        (Operator({-1: (0, 1)}, 1), Operator({-1: (1, -1), 1: (2,)}, 1), PHI, 0),
    ],
    ids=[
        "gap-below-top", "ground-off-eigenvalue", "plus-2-shift-ground", "plus-2-shift-level-2",
        "term-below-the-seed",
    ],
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
# norms from the Laguerre closed form
# ---------------------------------------------------------------------------


def top_pairing(state):
    """c_top <x^top, state>, the norm wherever the lower pairings vanish."""
    top = max(state.nums)
    return inner_product(GaussPolyState(state.n, {top: state.terms[top]}, state.half_power), state)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_norms_equal_the_full_product(n, sector):
    system = make_xn_system(n)
    for m in range(1 if sector is PSI_T else 0, 61):
        rec = eigenstate(system, sector, m)
        assert rec.norm_sq == inner_product(rec.state, rec.state), m


@pytest.mark.parametrize("sector", [PSI, PHI, PSI_T, PHI_T])
def test_deep_norm_equals_the_full_product(sector):
    rec = eigenstate(make_xn_system(1), sector, 200)
    assert len(rec.state.nums) >= 200
    assert rec.norm_sq == inner_product(rec.state, rec.state)


def laguerre_shaped(n, p, j, half_power=0, scale=1):
    """scale 2^(-half_power/2) x^p L_j^beta(t) exp(-t/2) for any p >= 0, beta = (2p + 1 - 2n)/(2n)."""
    terms = laguerre_terms(n, p, Fraction(2 * p + 1 - 2 * n, 2 * n), j)
    return GaussPolyState(n, {k: scale * c for k, c in terms.items()}, half_power)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_laguerre_shaped_states_take_the_closed_form(n):
    # any p >= 0, not only the four residues, at either sqrt(2) parity and any scale
    for p in range(0, 3 * n + 2):
        for j in range(0, 9):
            for half_power, scale in ((0, 1), (1, Fraction(-7, 3))):
                state = laguerre_shaped(n, p, j, half_power, scale)
                assert _laguerre_form(state) == (p, 2 * p + 1 - 2 * n, j)
                assert _norm_sq(state) == inner_product(state, state), (p, j, half_power)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_laguerre_near_misses_take_the_full_product(n):
    for p in range(0, 2 * n + 1):
        for j in range(2, 7):
            state = laguerre_shaped(n, p, j, j % 2)
            middle = p + 2 * n * (j // 2)
            misses = (
                state + GaussPolyState(n, {middle: state.terms[middle]}, j % 2),  # one middle coefficient
                state + GaussPolyState(n, {p + n: 1}, j % 2),  # an exponent from another residue class
                state + GaussPolyState(n, {p + 2 * n * (j + 2): 1}, j % 2),  # an exponent past a gap
            )
            for miss in misses:
                assert _laguerre_form(miss) is None
                assert _norm_sq(miss) == inner_product(miss, miss), (p, j)
            # a negative exponent, on the shape or off it
            for negative in (state + GaussPolyState(n, {-2 * n: 1}, j % 2), laguerre_shaped(n, -1 - p, j)):
                with pytest.raises(DivergenceError):
                    _norm_sq(negative)


def test_asymmetric_hamiltonian_takes_the_full_product():
    # a+ sends x^k to (1 - k) x^(k-1) + 2 x^(k+1) instead of -k x^(k-1) + ...:
    # l(k) = k (2 - k) / 2 in H = a+a is off the symmetric -k (k - 1) / 2 + const,
    # and the lower pairings of a level no longer vanish
    a, _, b, bdag = make_xn_system(1).generators
    adag = Operator({-1: (1, -1), 1: (2,)}, 1)
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(1), generators=(a, adag, b, bdag))
    for sector in (PSI, PSI_T):
        for m in range(2, 7):
            rec = eigenstate(system, sector, m)
            full = inner_product(rec.state, rec.state)
            assert _laguerre_form(rec.state) is None, (sector, m)
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
    rec = eigenstate(system, PHI_T, 0)
    assert rec.state == GaussPolyState(1, {0: 1, 2: 1}, 1)
    full = inner_product(rec.state, rec.state)
    assert _laguerre_form(rec.state) is None
    assert rec.norm_sq == full and top_pairing(rec.state) != full


def test_negative_exponents_diverge_like_the_full_product():
    # aa+ sends x^k to (k - 1) x^k - (k + 2)(k - 3)/2 x^(k-2), which is
    # symmetric, and psi = x^2 + 1 + 3/4 x^-2 is its eigenvector for 1; the
    # top pairing converges, the norm does not
    b, bdag = make_xn_system(1).generators[2:]
    a, adag = Operator({-1: (-2, 1)}, 1), Operator({-1: (-2, -1), 1: (2,)}, 1)
    system = CoupledSusySystem(n=1, gamma=Fraction(-1), delta=Fraction(1), generators=(a, adag, b, bdag))
    psi = GaussPolyState(1, {2: 1, 0: 1, -2: Fraction(3, 4)})
    assert apply_word(system, (Generator.A, Generator.ADAG), psi) == psi
    assert not top_pairing(psi).is_zero
    with pytest.raises(DivergenceError):
        _norm_sq(psi)


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
