"""Coupled SUSY defining identities and the su(1,1) ladder algebra."""

import json
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from coupledsusy import reports
from coupledsusy.calculus import IDENTITY, LOWERING_WORD, RAISING_WORD, Generator, Operator, apply_word, monomial_state
from coupledsusy.systems import (
    CoupledSusySystem,
    VerificationReport,
    _PROOF_NOTE,
    all_reports_pass,
    default_window,
    k_operators,
    make_xn_system,
    mutation_slots,
    verify_coupled_susy,
    verify_su11,
)

A, ADAG, B, BDAG = Generator.A, Generator.ADAG, Generator.B, Generator.BDAG


def test_xn_parameters():
    assert (make_xn_system(1).gamma, make_xn_system(1).delta) == (-1, 1)
    assert (make_xn_system(2).gamma, make_xn_system(2).delta) == (-1, 3)
    assert (make_xn_system(5).gamma, make_xn_system(5).delta) == (-1, 9)
    assert make_xn_system(3).spacing == 6


def test_invalid_family_index_rejected():
    with pytest.raises(ValueError):
        make_xn_system(0)
    with pytest.raises(ValueError):
        make_xn_system(-2)


def test_family_index_is_an_int():
    # True == 1 and 2.0 == 2 are taken as those ints, so no report says "n": true
    for n, want in ((True, 1), (2.0, 2)):
        system = make_xn_system(n)
        assert type(system.n) is int and system == make_xn_system(want)
        assert json.dumps(verify_coupled_susy(system)[0].to_json_dict()["n"]) == str(want)
    for n in (2.5, "2", None, float("inf")):
        with pytest.raises(ValueError, match=f"^family index n must be an integer, not {n!r}$"):
            make_xn_system(n)


def test_qmho_collapse_b_equals_adag():
    # for n=1 the operators of b and a+ (and of b+ and a) coincide term by term
    sys1 = make_xn_system(1)
    assert sys1.generator(B) == sys1.generator(ADAG)
    assert sys1.generator(BDAG) == sys1.generator(A)


def test_defining_identities_pass_n2_wide_window():
    reports = verify_coupled_susy(make_xn_system(2), range(-10, 31))
    assert all_reports_pass(reports)
    assert all(r.checked == 41 for r in reports)


def test_defining_identities_pass_n1_canonical_commutation():
    assert all_reports_pass(verify_coupled_susy(make_xn_system(1), range(0, 51)))


@pytest.mark.parametrize("n", range(1, 13))
def test_defining_identities_default_window(n):
    assert all_reports_pass(verify_coupled_susy(make_xn_system(n)))


def test_mutated_b_rule_fails_everywhere_but_isolated_k():
    reports = verify_coupled_susy(make_xn_system(2, mutate="b-coeff"), range(-10, 31))
    first = reports[0]
    assert not first.passed
    assert first.first_failure is not None
    # the residual of the first identity vanishes only at k = -1
    sys_mut = make_xn_system(2, mutate="b-coeff")
    bad = 0
    for k in range(-10, 31):
        mono = monomial_state(2, k)
        res = (
            apply_word(sys_mut, (ADAG, A), mono)
            - apply_word(sys_mut, (BD := BDAG, B), mono)
            - mono.scale(sys_mut.gamma)
        )
        if not res.is_zero:
            bad += 1
    assert bad == 40


@pytest.mark.parametrize("n", [1, 2, 3])
def test_su11_commutators_pass(n):
    hi = {1: 24, 2: 24, 3: 36}[n]
    assert all_reports_pass(verify_su11(make_xn_system(n), range(0, hi + 1)))


@pytest.mark.parametrize("n", range(1, 13))
def test_su11_default_window(n):
    assert all_reports_pass(verify_su11(make_xn_system(n)))


def test_su11_qmho_realisation_n1():
    # for n=1 the raising word a+b acts like (a+)^2, the squared QMHO raiser
    sys1 = make_xn_system(1)
    for k in range(0, 12):
        mono = monomial_state(1, k)
        assert apply_word(sys1, (ADAG, B), mono) == apply_word(sys1, (ADAG, ADAG), mono)


def test_k_operator_normalisation_detects_missing_prefactor():
    # forgetting the 1/(delta-gamma) scaling on K+- breaks [K+, K-] = -2K0
    sys2 = make_xn_system(2)
    kops = k_operators(sys2)
    dg = sys2.spacing
    assert dg == 4
    for k in (0, 4, 8):
        mono = monomial_state(2, k)
        good = (
            kops["k+"].apply(kops["k-"].apply(mono))
            - kops["k-"].apply(kops["k+"].apply(mono))
            + kops["k0"].apply(mono).scale(2)
        )
        assert good.is_zero
        unscaled_plus = apply_word(sys2, (ADAG, B), mono.scale(1))
        unscaled = (
            apply_word(sys2, (ADAG, B), apply_word(sys2, (BDAG, A), mono))
            - apply_word(sys2, (BDAG, A), apply_word(sys2, (ADAG, B), mono))
            + kops["k0"].apply(mono).scale(2)
        )
        if k > 0:  # k=0 gives the kernel of K-, where both forms vanish
            assert not unscaled.is_zero
    # and the mis-scaled residual is exactly (dg^2 - 1) * (-2 K0 monomial)
    mono = monomial_state(2, 4)
    residual = (
        apply_word(sys2, (ADAG, B), apply_word(sys2, (BDAG, A), mono))
        - apply_word(sys2, (BDAG, A), apply_word(sys2, (ADAG, B), mono))
        + kops["k0"].apply(mono).scale(2)
    )
    expected = kops["k0"].apply(mono).scale(-2).scale(dg * dg - 1)
    assert residual == expected


def test_tilde_commutator_matches_two_forms():
    # 2(gamma-delta)(aa+ - delta/2) must agree with -(delta-gamma)(aa+ + bb+)
    for n in (1, 2, 3):
        sysn = make_xn_system(n)
        dg = sysn.spacing
        for k in range(-4, 13):
            mono = monomial_state(n, k)
            lhs = (
                apply_word(sysn, (A, ADAG), mono) - mono.scale(sysn.delta / 2)
            ).scale(-2 * dg)
            rhs = (
                apply_word(sysn, (A, ADAG), mono) + apply_word(sysn, (B, BDAG), mono)
            ).scale(-dg)
            assert lhs == rhs


@pytest.mark.parametrize(
    "n, delta, slot_index",
    [
        # n = 2, delta = 1/3 keeps the bare slot index as its id
        pytest.param(
            n, delta, slot,
            id=str(slot) if (n, delta) == (2, Fraction(1, 3)) else f"n{n}-{delta}-{slot}",
        )
        for n in (1, 2, 3, 7)
        for delta in (Fraction(1, 3), Fraction(1), Fraction(-2))
        for slot in range(12)
    ],
)
def test_every_rule_coefficient_is_load_bearing(n, delta, slot_index):
    base = make_xn_system(n)
    slots = mutation_slots(base)
    assert len(slots) == 12
    gen, idx, which = slots[slot_index]
    mutated = make_xn_system(n, mutate=(gen, idx, which, delta))
    reports = verify_coupled_susy(mutated) + verify_su11(mutated, range(0, 12))
    assert not all_reports_pass(reports)


def test_report_serialises_to_json():
    report = verify_coupled_susy(make_xn_system(2), range(-2, 3))[0]
    payload = json.loads(reports.dumps(report.to_json_dict()))
    assert payload["identity"] == "a+a = b+b + gamma"
    assert payload["pass"] is True
    assert payload["range"] == [-2, 2]
    assert payload["first_failure"] is None


def test_failed_report_carries_first_failure():
    report = verify_coupled_susy(make_xn_system(2, mutate="b-coeff"), range(0, 5))[0]
    assert not report.passed
    assert report.first_failure["k"] == 0
    assert "residual" in report.first_failure
    # regression: the residual -(1+k)/2 vanishes at k = -1, the only exponent
    # of this window, yet the identity fails; the search runs past the window
    report = verify_coupled_susy(make_xn_system(2, mutate="b-coeff"), range(-1, 0))[0]
    assert report.passed is False
    assert report.k_range == (-1, -1)
    assert report.first_failure["k"] == 0


@given(st.integers(1, 6), st.integers(-30, 54))
@settings(max_examples=80, deadline=None)
def test_defining_identities_property(n, k):
    sysn = make_xn_system(n)
    mono = monomial_state(n, k)
    lhs1 = apply_word(sysn, (ADAG, A), mono) - apply_word(sysn, (BDAG, B), mono)
    assert lhs1 == mono.scale(sysn.gamma)
    lhs2 = apply_word(sysn, (A, ADAG), mono) - apply_word(sysn, (B, BDAG), mono)
    assert lhs2 == mono.scale(sysn.delta)


def test_default_window_shape():
    assert default_window(2) == (-14, 38)
    assert default_window(6) == (-22, 54)


# ---------------------------------------------------------------------------
# Records: immutable, field-wise == and hash, dataclass-style repr
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_equal_systems_compare_and_hash_equal(n):
    assert make_xn_system(n) is not make_xn_system(n)
    assert make_xn_system(n) == make_xn_system(n)
    assert hash(make_xn_system(n)) == hash(make_xn_system(n))


def test_one_changed_system_field_compares_unequal():
    base = make_xn_system(2)
    fields = dict(n=base.n, gamma=base.gamma, delta=base.delta, generators=base.generators)
    assert CoupledSusySystem(**fields) == base
    assert CoupledSusySystem(base.n, base.gamma, base.delta, base.generators, None) == base
    assert CoupledSusySystem(**{**fields, "delta": Fraction(5)}) != base
    assert CoupledSusySystem(**fields, mutation="note") != base
    assert make_xn_system(2, mutate="b-coeff") != base
    assert make_xn_system(3) != base
    assert base != (base.n, base.gamma, base.delta, base.generators, None)


def test_system_is_immutable_and_repr_names_fields():
    system = make_xn_system(1)
    with pytest.raises(AttributeError):
        system.n = 2
    with pytest.raises(AttributeError):
        system.extra = 1
    with pytest.raises(AttributeError):
        del system.gamma
    assert system.n == 1
    text = repr(system)
    assert text.startswith(
        "CoupledSusySystem(n=1, gamma=Fraction(-1, 1), delta=Fraction(1, 1), generators=("
    )
    assert text.endswith(", mutation=None)")


@pytest.mark.parametrize(
    "gamma, delta, message",
    [
        (Fraction(1), Fraction(3), "positivity requires gamma <= 0 <= delta"),
        (Fraction(-3), Fraction(-1), "positivity requires gamma <= 0 <= delta"),
        (Fraction(0), Fraction(0), "a coupled SUSY system needs gamma < delta"),
    ],
)
def test_system_validation_errors(gamma, delta, message):
    generators = make_xn_system(1).generators
    with pytest.raises(ValueError, match=f"^{message}$"):
        CoupledSusySystem(1, gamma, delta, generators)
    with pytest.raises(ValueError, match=f"^{message}$"):
        CoupledSusySystem(n=1, gamma=gamma, delta=delta, generators=generators, mutation="m")


def test_verification_report_record_semantics():
    report = VerificationReport("id", 2, (0, 4), True)
    assert (report.first_failure, report.checked, report.note) == (None, 0, "")
    assert report == VerificationReport(identity="id", n=2, k_range=(0, 4), passed=True)
    assert hash(report) == hash(VerificationReport("id", 2, (0, 4), True, None, 0, ""))
    assert report != VerificationReport("id", 2, (0, 4), True, checked=1)
    assert report != VerificationReport("id", 2, (0, 4), False)
    with pytest.raises(AttributeError):
        report.passed = False
    assert repr(report) == (
        "VerificationReport(identity='id', n=2, k_range=(0, 4), passed=True, "
        "first_failure=None, checked=0, note='')"
    )
    proved = verify_coupled_susy(make_xn_system(2), range(-2, 3))
    assert proved == verify_coupled_susy(make_xn_system(2), range(-2, 3))


# ---------------------------------------------------------------------------
# The pair table against the hand-written identities it replaced
# ---------------------------------------------------------------------------


def ref_window(system, exponent_range):
    """The exponents of the window, the default one when none is given."""
    if exponent_range is None:
        lo, hi = default_window(system.n)
        exponent_range = range(lo, hi + 1)
    return list(exponent_range)


def ref_prove(system, name, residual, ks):
    """_prove with the failing k found on monomial states, the route it replaced."""
    first_failure = None
    if not residual.is_zero:
        k = min(ks)
        while (image := residual.apply(monomial_state(system.n, k))).is_zero:
            k += 1
        first_failure = {"k": k, "residual": image.serialize(), "residual_operator": residual.serialize()}
    return VerificationReport(
        name, system.n, (min(ks), max(ks)), residual.is_zero, first_failure, len(ks), _PROOF_NOTE
    )


def ref_verify_coupled_susy(system, exponent_range=None):
    ks = ref_window(system, exponent_range)
    a, ad, b, bd = system.generators
    return [
        ref_prove(system, "a+a = b+b + gamma", ad @ a - bd @ b - IDENTITY.scale(system.gamma), ks),
        ref_prove(system, "aa+ = bb+ + delta", a @ ad - b @ bd - IDENTITY.scale(system.delta), ks),
    ]


def ref_k_operators(system):
    a, ad, b, bd = system.generators
    return ref_k_from_words(system, ad @ a, ad @ b, bd @ a, a @ ad)


def ref_k_from_words(system, ada, adb, bda, aad):
    pref = 1 / system.spacing
    return {
        "k+": adb.scale(pref),
        "k-": bda.scale(pref),
        "k0": (ada - IDENTITY.scale(system.gamma / 2)).scale(pref),
        "k0~": (aad - IDENTITY.scale(system.delta / 2)).scale(pref),
    }


def ref_commutator(x, y):
    return x @ y - y @ x


def ref_verify_su11(system, exponent_range=None):
    ks = ref_window(system, exponent_range)
    a, ad, b, bd = system.generators
    dg = system.spacing
    ada, adb, bda = ad @ a, ad @ b, bd @ a  # each quadratic word composed once
    aad, bad, abd = a @ ad, b @ ad, a @ bd
    kops = ref_k_from_words(system, ada, adb, bda, aad)
    identities = [
        # First sector: ladder action of a+b and b+a on a+a.
        ("[a+a, a+b] = (delta-gamma) a+b", ref_commutator(ada, adb) - adb.scale(dg)),
        ("[a+a, b+a] = -(delta-gamma) b+a", ref_commutator(ada, bda) + bda.scale(dg)),
        (
            "[a+b, b+a] = 2(gamma-delta)(a+a - gamma/2)",
            ref_commutator(adb, bda) + (ada - IDENTITY.scale(system.gamma / 2)).scale(2 * dg),
        ),
        # Second sector: ba+ and ab+ ladder aa+.
        ("[aa+, ba+] = (delta-gamma) ba+", ref_commutator(aad, bad) - bad.scale(dg)),
        ("[aa+, ab+] = -(delta-gamma) ab+", ref_commutator(aad, abd) + abd.scale(dg)),
        (
            "[ba+, ab+] = 2(gamma-delta)(aa+ - delta/2)",
            ref_commutator(bad, abd) + (aad - IDENTITY.scale(system.delta / 2)).scale(2 * dg),
        ),
        # Normalised forms with the 1/(delta-gamma) prefactors.
        ("[K0, K+] = K+", ref_commutator(kops["k0"], kops["k+"]) - kops["k+"]),
        ("[K0, K-] = -K-", ref_commutator(kops["k0"], kops["k-"]) + kops["k-"]),
        ("[K+, K-] = -2 K0", ref_commutator(kops["k+"], kops["k-"]) + kops["k0"].scale(2)),
    ]
    return [ref_prove(system, name, residual, ks) for name, residual in identities]


def real_and_mutated_systems(n):
    """The x^n system and its 60 single-slot mutations by 1, -1, 1/2, 2 and -3."""
    base = make_xn_system(n)
    return [base] + [
        make_xn_system(n, mutate=(*slot, delta))
        for slot in mutation_slots(base)
        for delta in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-3))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_table_reports_match_hand_written_identities(n):
    # the su(1,1) rows come from the first pair's residuals; the oracle composes each K commutator
    for system in real_and_mutated_systems(n):
        for window in (None, range(-3, 6)):
            got = verify_coupled_susy(system, window) + verify_su11(system, window)
            want = ref_verify_coupled_susy(system, window) + ref_verify_su11(system, window)
            assert [r.identity for r in got] == [r.identity for r in want]
            assert [(r.passed, r.first_failure) for r in got] == [(r.passed, r.first_failure) for r in want]
            assert got == want
        assert k_operators(system) == ref_k_operators(system)


def test_verify_composes_each_pair_commutator_once(monkeypatch):
    # a system composes its eight words; where both defining residuals vanish, verify composes no
    # product, and otherwise the six pair commutators, two products each, in one pass apiece, and no
    # K commutator
    calls = []
    real = Operator._products

    def counting(self, other, sign, out):
        calls.append(sign)
        return real(self, other, sign, out)

    monkeypatch.setattr(Operator, "_products", counting)
    for n in (1, 2, 5, 8):
        for mutate in (None, "b-coeff", (ADAG, 0, "beta", Fraction(-3))):
            calls.clear()
            system = make_xn_system(n, mutate=mutate)
            assert calls == [1] * 8, (n, mutate, len(calls))
            calls.clear()
            reports = verify_coupled_susy(system) + verify_su11(system)
            assert all_reports_pass(reports) == (mutate is None)
            assert calls == ([] if mutate is None else [1, -1] * 6), (n, mutate, len(calls))


# ---------------------------------------------------------------------------
# The theorem verify_su11 rests on: every pair row is a two-sided combination
# of the defining residuals D1 = a+a - b+b - gamma and D2 = aa+ - bb+ - delta
# ---------------------------------------------------------------------------


class Alg:
    """An Operator under *, + and -, a scalar read as that multiple of the identity, so one
    expression of the free algebra reads as sympy and as Operators."""

    def __init__(self, op):
        self.op = op

    @staticmethod
    def lift(x):
        return x.op if isinstance(x, Alg) else IDENTITY.scale(x)

    def __add__(self, other):
        return Alg(self.op + Alg.lift(other))

    def __sub__(self, other):
        return Alg(self.op - Alg.lift(other))

    def __mul__(self, other):
        return Alg(self.op @ other.op) if isinstance(other, Alg) else Alg(self.op.scale(other))

    def __rmul__(self, scalar):
        return Alg(self.op.scale(scalar))


def su11_theorem(a, ad, b, bd, g, d):
    """(the su(1,1) residual, its combination of D1 and D2) for each of the six pair rows."""
    D1, D2 = ad * a - bd * b - g, a * ad - b * bd - d
    H, P, R, L = ad * a, bd * b, ad * b, bd * a
    Ht, Pt, Rt, Lt = a * ad, b * bd, b * ad, a * bd
    dg = d - g

    def comm(x, y):
        return x * y - y * x

    return [
        (comm(H, R) - dg * R, ad * D2 * b - R * D1),
        (comm(H, L) + dg * L, D1 * L - bd * D2 * a),
        (comm(R, L) + 2 * dg * (H - g / 2), P * D1 + D1 * P + D1 * D1 + d * D1 - ad * D2 * a - bd * D2 * b),
        (comm(Ht, Rt) - dg * Rt, D2 * Rt - b * D1 * ad),
        (comm(Ht, Lt) + dg * Lt, a * D1 * bd - Lt * D2),
        (comm(Rt, Lt) + 2 * dg * (Ht - d / 2), a * D1 * ad + b * D1 * bd - Pt * D2 - D2 * Pt - D2 * D2 - g * D2),
    ]


def test_su11_rows_are_combinations_of_the_defining_residuals_in_the_free_algebra():
    a, ad, b, bd = sp.symbols("a ad b bd", commutative=False)
    g, d = sp.symbols("gamma delta")
    rows = su11_theorem(a, ad, b, bd, g, d)
    assert len(rows) == 6
    for lhs, rhs in rows:
        assert sp.expand(lhs - rhs) == 0
    # the combinations are not vacuous: each residual is a nonzero word sum
    assert all(sp.expand(lhs) != 0 for lhs, _ in rows)


def operator_theorem(generators, gamma, delta):
    return [(lhs.op, rhs.op) for lhs, rhs in su11_theorem(*map(Alg, generators), gamma, delta)]


@pytest.mark.parametrize("n", range(1, 9))
def test_su11_theorem_holds_as_operators_on_real_and_mutated_systems(n):
    for system in real_and_mutated_systems(n):
        rows = operator_theorem(system.generators, system.gamma, system.delta)
        assert all(lhs == rhs for lhs, rhs in rows), system.mutation
        # the composed rows of the pair-table oracle are these residuals
        composed = [r.first_failure for r in ref_verify_su11(system, range(0, 1))[:6]]
        assert [ff and ff["residual_operator"] for ff in composed] == [
            None if lhs.is_zero else lhs.serialize() for lhs, _ in rows]


def operators(half_power):
    """Operators of up to three shifts from -3..3, each polynomial of degree <= 2."""
    poly = st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=3)
    terms = st.dictionaries(st.integers(-3, 3), poly, min_size=1, max_size=3)
    return terms.map(lambda t: Operator(t, half_power))


@given(st.integers(0, 1).flatmap(lambda w: st.tuples(*[operators(w)] * 4)),
       st.fractions(-4, 4, max_denominator=3), st.fractions(-4, 4, max_denominator=3))
@settings(max_examples=60, deadline=None)
def test_su11_theorem_holds_for_any_operator_quadruple(generators, gamma, delta):
    for lhs, rhs in operator_theorem(generators, gamma, delta):
        assert lhs == rhs


def hand_built_systems(n):
    """Systems not built by make_xn_system whose defining identities hold: a non-adjoint one and
    one with every generator at half power 0."""
    base = make_xn_system(n)
    a, ad, b, bd = base.generators
    return [
        CoupledSusySystem(n, base.gamma, base.delta, (a.scale(2), ad.scale(Fraction(1, 2)), b, bd)),
        CoupledSusySystem(n, 2 * base.gamma, 2 * base.delta, tuple(g.scale_sqrt2(1) for g in base.generators)),
    ]


@pytest.mark.parametrize("n", range(1, 5))
def test_hand_built_systems_verify_like_the_composed_oracle(n):
    for system in hand_built_systems(n):
        assert [g.half_power for g in system.generators] in ([1, 1, 1, 1], [0, 0, 0, 0])
        for window in (None, range(-3, 6)):
            assert all_reports_pass(verify_coupled_susy(system, window))
            got = verify_su11(system, window)
            assert got == ref_verify_su11(system, window)
            assert all_reports_pass(got)
    # one defining identity broken by a shifted constant: the rows are composed and fail as the oracle's
    base = make_xn_system(n)
    for gamma, delta in ((base.gamma - 1, base.delta), (base.gamma, base.delta + 1)):
        system = CoupledSusySystem(n, gamma, delta, base.generators)
        assert [r.passed for r in verify_coupled_susy(system)] == [gamma == base.gamma, delta == base.delta]
        got = verify_su11(system)
        assert got == ref_verify_su11(system)
        assert not all_reports_pass(got)
    # a system of mixed sqrt(2) parities, where H - P cannot be formed, raises as the composed rows do
    a, ad, b, bd = base.generators
    mixed = CoupledSusySystem(n, base.gamma, base.delta, (a.scale_sqrt2(1), ad, b, bd))
    with pytest.raises(ValueError) as want:
        ref_verify_su11(mixed)
    for verify in (verify_coupled_susy, verify_su11):
        with pytest.raises(ValueError) as got:
            verify(mixed)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("cannot add operators of mismatched sqrt(2) parity exactly")


#: The words of each pair, (H, partner, raising, lowering), generator by generator.
PAIR_ORACLE = (
    ((ADAG, A), (BDAG, B), RAISING_WORD, LOWERING_WORD),
    ((A, ADAG), (B, BDAG), (B, ADAG), (A, BDAG)),
)


@pytest.mark.parametrize("n", range(1, 5))
def test_pair_words_match_generator_by_generator_application(n):
    system = make_xn_system(n, mutate=(B, 1, "beta", Fraction(1, 3)))
    assert [p.names for p in system.pairs] == [
        ("a+a", "b+b", "a+b", "b+a", "gamma"), ("aa+", "bb+", "ba+", "ab+", "delta")]
    assert [p.shift for p in system.pairs] == [-1, 2 * n - 1]
    for pair, oracle in zip(system.pairs, PAIR_ORACLE):
        for word, generators in zip((pair.hamiltonian, pair.partner, pair.raising, pair.lowering), oracle):
            for k in range(-2 * n, 4 * n):
                mono = monomial_state(n, k)
                assert word.apply(mono) == apply_word(system, generators, mono)
