"""Exact state algebra and Gamma-symbol inner products.

The oracles here are independent of the implementation: generator actions
are cross-checked against sympy differentiation of x^k exp(-x^(2n)/(2n)),
and inner products against adaptive mpmath quadrature over the real line.
The integer hot loops (apply, composition, inner product) are also checked
for exact equality, key order included, against straightforward Fraction
reference implementations kept at the end of this file, and the int
numerator state, operator and GammaVector against the Fraction-map forms
they replaced (RefState, RefOperator, RefGammaVector).
"""

import math
import re
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from mpmath import mp

from coupledsusy.calculus import (
    IDENTITY,
    DivergenceError,
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Generator,
    Operator,
    Record,
    apply_generator,
    apply_word,
    evaluate_gamma_vector_mp,
    inner_product,
    monomial_state,
    proportionality_ratio,
    zero_state,
)
from coupledsusy.systems import make_xn_system, mutation_slots, verify_coupled_susy, verify_su11
from coupledsusy.towers import SectorLabel, eigenstate

A, ADAG, B, BDAG = Generator.A, Generator.ADAG, Generator.B, Generator.BDAG


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

_X = sp.symbols("x", real=True)


def sympy_state(state: GaussPolyState):
    n = state.n
    expr = sp.Integer(0)
    for k, c in state.terms.items():
        expr += sp.Rational(c.numerator, c.denominator) * _X ** k
    return (
        expr
        * sp.exp(-(_X ** (2 * n)) / (2 * n))
        / sp.sqrt(2) ** state.half_power
    )


def sympy_generator(gen, n, expr):
    """Apply one generator to a sympy expression, straight from the definitions."""
    x = _X
    if gen is A:
        out = (sp.diff(expr, x) / x ** (n - 1) + x ** n * expr) / sp.sqrt(2)
    elif gen is B:
        out = (-sp.diff(expr, x) / x ** (n - 1) + x ** n * expr) / sp.sqrt(2)
    elif gen is ADAG:
        out = (-sp.diff(expr / x ** (n - 1), x) + x ** n * expr) / sp.sqrt(2)
    else:
        out = (sp.diff(expr / x ** (n - 1), x) + x ** n * expr) / sp.sqrt(2)
    return out


def assert_matches_sympy(gen, n, k):
    state = monomial_state(n, k)
    image = apply_generator(make_xn_system(n), gen, state)
    oracle = sympy_generator(gen, n, sympy_state(state))
    diff = sp.simplify((sympy_state(image) - oracle) * sp.exp(_X ** (2 * n) / (2 * n)))
    assert sp.expand(diff) == 0, f"{gen} on x^{k} (n={n}) disagrees with sympy"


def mp_state_value(state, t):
    total = mp.mpf(0)
    for k, c in state.terms.items():
        total += mp.mpf(c.numerator) / c.denominator * mp.power(t, k)
    return (
        total
        * mp.exp(-mp.power(t, 2 * state.n) / (2 * state.n))
        * mp.power(2, mp.mpf(-state.half_power) / 2)
    )


def quad_inner_product(f, g, dps=30):
    with mp.workdps(dps):
        val = mp.quad(lambda t: mp_state_value(f, t) * mp_state_value(g, t), [-mp.inf, 0, mp.inf])
        return float(val)


# ---------------------------------------------------------------------------
# generator rules
# ---------------------------------------------------------------------------


def test_a_annihilates_ground_state():
    sys2 = make_xn_system(2)
    assert apply_generator(sys2, A, monomial_state(2, 0)).is_zero


def test_a_on_cubic_n2():
    sys2 = make_xn_system(2)
    out = apply_generator(sys2, A, monomial_state(2, 3))
    assert out == GaussPolyState(2, {1: 3}, half_power=1)  # 3/sqrt(2) x e^{-x^4/4}


def test_bdag_kernel_n2():
    sys2 = make_xn_system(2)
    assert apply_generator(sys2, BDAG, monomial_state(2, 1)).is_zero


def test_adag_on_gaussian_n1():
    sys1 = make_xn_system(1)
    out = apply_generator(sys1, ADAG, monomial_state(1, 0))
    assert out == GaussPolyState(1, {1: 2}, half_power=1)  # sqrt(2) x e^{-x^2/2}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gen", [A, ADAG, B, BDAG])
@pytest.mark.parametrize("k", [-3, 0, 1, 2, 5])
def test_generators_match_symbolic_differentiation(gen, n, k):
    assert_matches_sympy(gen, n, k)


def test_raising_word_on_ground_n2():
    sys2 = make_xn_system(2)
    out = apply_word(sys2, (ADAG, B), monomial_state(2, 0))
    assert out == GaussPolyState(2, {0: -1, 4: 2})


def test_raising_word_on_phi_ground_n2():
    sys2 = make_xn_system(2)
    out = apply_word(sys2, (ADAG, B), monomial_state(2, 3))
    assert out == GaussPolyState(2, {3: -7, 7: 2})


def test_raising_word_hermite_weight_n1():
    sys1 = make_xn_system(1)
    out = apply_word(sys1, (ADAG, B), monomial_state(1, 0))
    assert out == GaussPolyState(1, {0: -1, 2: 2})


def test_raising_word_closed_form():
    # a+b sends x^k to k(k+1-2n)/2 x^{k-2n} - (2k+1) x^k + 2 x^{k+2n}
    for n in (1, 2, 3):
        sysn = make_xn_system(n)
        for k in range(-4, 9):
            got = apply_word(sysn, (ADAG, B), monomial_state(n, k))
            expected = GaussPolyState(
                n,
                {
                    k - 2 * n: Fraction(k * (k + 1 - 2 * n), 2),
                    k: Fraction(-(2 * k + 1)),
                    k + 2 * n: Fraction(2),
                },
            )
            assert got == expected


def test_family_mismatch_rejected():
    with pytest.raises(FamilyMismatchError):
        apply_generator(make_xn_system(2), A, monomial_state(3, 0))


def test_family_mismatch_guards_of_the_int_forms():
    f, g = monomial_state(1, 0), monomial_state(2, 0)
    u, v = GammaVector(1, {1: 1}), GammaVector(2, {1: 1})
    calls = (lambda: inner_product(f, g), lambda: f + g, lambda: f - g, lambda: u + v,
             lambda: proportionality_ratio(f, g), lambda: u.rational_ratio(v))
    for call in calls:
        with pytest.raises(FamilyMismatchError):
            call()


@pytest.mark.parametrize("build, message", [
    (lambda: GaussPolyState(1, {0.5: 1}), "exponent must be an integer, not 0.5"),
    (lambda: monomial_state(1, 2.5), "exponent must be an integer, not 2.5"),
    (lambda: Operator({1.7: (1,)}), "shift must be an integer, not 1.7"),
    (lambda: GammaVector(2, {1.5: 1}), "residue must be an integer, not 1.5"),
    (lambda: GaussPolyState(2.9, {0: 1}), "family index n must be an integer, not 2.9"),
    (lambda: GammaVector(1.5, {1: 1}), "family index n must be an integer, not 1.5"),
], ids=["exponent", "monomial", "shift", "residue", "state-n", "gamma-n"])
def test_constructors_refuse_non_integral_keys(build, message):
    # int() would truncate these; an integral value of any type is taken as its int
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_constructors_take_integral_keys_as_ints():
    state = GaussPolyState(2.0, {Fraction(4): 1, True: 2, 6.0: 3})
    assert state == GaussPolyState(2, {4: 1, 1: 2, 6: 3})
    assert type(state.n) is int and all(type(k) is int for k in state.nums)
    assert Operator({2.0: (1,)}) == Operator({2: (1,)})
    assert GammaVector(2.0, {3.0: 1}) == GammaVector(2, {3: 1})


def test_half_powers_follow_the_integer_rule():
    # a float half power used to raise TypeError from >>; an integral one is taken as its int
    state, op = GaussPolyState(1, {0: 1}), Operator({0: (1,)})
    assert GaussPolyState(1, {0: 1}, 1.0) == GaussPolyState(1, {0: 1}, True) == state.scale_sqrt2(-1)
    assert Operator({0: (1,)}, 1.0) == op.scale_sqrt2(-1) and type(Operator({0: (1,)}, 3.0).half_power) is int
    assert state.scale_sqrt2(2.0) == state.scale(2) and op.scale_sqrt2(1.0) == op.scale_sqrt2(1)
    for call, name in ((lambda: GaussPolyState(1, {0: 1}, 0.5), "half power"),
                       (lambda: Operator({0: (1,)}, 0.5), "half power"),
                       (lambda: state.scale_sqrt2(0.5), "sqrt(2) power j"),
                       (lambda: op.scale_sqrt2(0.5), "sqrt(2) power j")):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, not 0\.5$"):
            call()


def test_zero_state_is_the_empty_form():
    zero = zero_state(3)
    assert zero.is_zero and zero == GaussPolyState(3, {}) and zero.n == 3
    assert zero.serialize() == "3; 0; " and GaussPolyState.parse("3; 0; ") == zero
    assert inner_product(zero, monomial_state(3, 2)) == GammaVector(3, {})


# ---------------------------------------------------------------------------
# state plumbing
# ---------------------------------------------------------------------------


def test_canonicalisation_folds_even_half_powers():
    raw = GaussPolyState(2, {0: -2, 4: 4}, half_power=2)
    assert raw == GaussPolyState(2, {0: -1, 4: 2})
    assert raw.half_power == 0


def test_zero_state_has_single_form():
    assert GaussPolyState(2, {}, half_power=1) == GaussPolyState(2, {})
    assert GaussPolyState(2, {0: 0}, half_power=3).is_zero


def test_mismatched_parity_addition_rejected():
    with pytest.raises(ValueError):
        GaussPolyState(2, {0: 1}, 1) + GaussPolyState(2, {0: 1}, 0)


def test_scale_sqrt2_roundtrip():
    s = GaussPolyState(2, {1: 3}, half_power=1)
    assert s.scale_sqrt2(1) == GaussPolyState(2, {1: 3}, half_power=0)
    assert s.scale_sqrt2(2) == GaussPolyState(2, {1: 6}, half_power=1)


def test_proportionality_ratio():
    f = GaussPolyState(2, {0: -3, 4: 6})
    g = GaussPolyState(2, {0: -1, 4: 2})
    assert proportionality_ratio(f, g) == (Fraction(3), 0)
    h = GaussPolyState(2, {0: -1, 4: 2}, half_power=1)
    q, j = proportionality_ratio(g, h)
    assert (q, j) == (Fraction(1), 1)  # g = sqrt(2) * h
    assert proportionality_ratio(f, GaussPolyState(2, {0: 1, 4: 2})) is None


@st.composite
def gauss_states(draw, n=None, min_exp=0, max_exp=12):
    if n is None:
        n = draw(st.integers(1, 4))
    size = draw(st.integers(1, 4))
    exps = draw(
        st.lists(st.integers(min_exp, max_exp), min_size=size, max_size=size, unique=True)
    )
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda q: q != 0),
            min_size=size,
            max_size=size,
        )
    )
    w = draw(st.integers(0, 1))
    return GaussPolyState(n, dict(zip(exps, coeffs)), half_power=w)


@given(gauss_states())
@settings(max_examples=60, deadline=None)
def test_serialisation_roundtrip(state):
    assert GaussPolyState.parse(state.serialize()) == state


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def test_gaussian_norm_n1():
    g = monomial_state(1, 0)
    ip = inner_product(g, g)
    assert ip == GammaVector(1, {1: 1})
    assert float(evaluate_gamma_vector_mp(ip)[0]) == pytest.approx(float(mpmath.sqrt(mpmath.pi)), rel=1e-14)


def test_ground_state_norm_n2():
    g = monomial_state(2, 0)
    ip = inner_product(g, g)
    assert ip == GammaVector(2, {1: Fraction(1, 2)})
    # adaptive quadrature oracle
    value = float(evaluate_gamma_vector_mp(ip)[0])
    assert value == pytest.approx(quad_inner_product(g, g), rel=1e-12)
    assert value == pytest.approx(2.1558005495409279, rel=1e-14)


def test_tower_orthogonality_exact_cancellation_n2():
    psi0 = monomial_state(2, 0)
    psi1 = GaussPolyState(2, {0: -1, 4: 2})
    assert inner_product(psi0, psi1).is_zero
    assert abs(quad_inner_product(psi0, psi1)) < 1e-12


def test_divergent_integrand_rejected():
    f = GaussPolyState(2, {-1: 1})
    with pytest.raises(DivergenceError):
        inner_product(f, monomial_state(2, 0))
    # odd negative powers are not absolutely integrable either
    with pytest.raises(DivergenceError):
        inner_product(GaussPolyState(2, {-2: 1}), monomial_state(2, 1))


def test_odd_total_exponents_integrate_to_zero():
    f = monomial_state(2, 0)
    g = monomial_state(2, 3)
    assert inner_product(f, g).is_zero


def test_odd_sqrt2_parity_rejected():
    f = monomial_state(2, 0)
    g = GaussPolyState(2, {0: 1}, half_power=1)
    with pytest.raises(ValueError):
        inner_product(f, g)
    assert not inner_product(f, g.scale_sqrt2(1)).is_zero


@pytest.mark.parametrize(
    "n,terms_f,terms_g",
    [
        (1, {0: Fraction(1)}, {2: Fraction(3, 2)}),
        (2, {0: Fraction(2), 4: Fraction(-1, 3)}, {0: Fraction(1), 8: Fraction(1, 5)}),
        (3, {1: Fraction(1), 7: Fraction(-2)}, {5: Fraction(1, 2)}),
        (2, {3: Fraction(1)}, {7: Fraction(-4, 7)}),
    ],
)
def test_inner_product_matches_quadrature(n, terms_f, terms_g):
    f = GaussPolyState(n, terms_f)
    g = GaussPolyState(n, terms_g)
    exact = float(evaluate_gamma_vector_mp(inner_product(f, g))[0])
    assert exact == pytest.approx(quad_inner_product(f, g), rel=1e-10, abs=1e-20)


@given(gauss_states(n=2, min_exp=0, max_exp=10), gauss_states(n=2, min_exp=0, max_exp=10))
@settings(max_examples=40, deadline=None)
def test_inner_product_bilinear(f, g):
    if (f.half_power + g.half_power) % 2 != 0:
        g = g.scale_sqrt2(1).scale(Fraction(1, 2))  # same parity, half the value
    r = Fraction(3, 7)
    lhs = inner_product(f.scale(r), g)
    assert lhs == inner_product(f, g).scale(r)
    assert inner_product(f, g.scale(r)) == lhs
    h = f.scale(Fraction(-2, 5))
    assert inner_product(f + h, g) == inner_product(f, g) + inner_product(h, g)


@given(
    st.integers(1, 3),
    st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_adjoint_symmetry(n, exps_f, exps_g):
    # exponents >= n keep both sides integrable
    f = GaussPolyState(n, {k + n: 1 for k in exps_f})
    g = GaussPolyState(n, {k + n: 1 for k in exps_g})
    sysn = make_xn_system(n)
    # one generator leaves an odd sqrt(2) parity; compare the sqrt(2)-scaled
    # products, which is the same identity multiplied through by sqrt(2)
    lhs = inner_product(apply_generator(sysn, A, f).scale_sqrt2(1), g)
    rhs = inner_product(f, apply_generator(sysn, ADAG, g).scale_sqrt2(1))
    assert lhs == rhs


@given(gauss_states(min_exp=0, max_exp=10))
@settings(max_examples=40, deadline=None)
def test_norm_positive_for_nonzero_states(state):
    ip = inner_product(state, state)
    assert evaluate_gamma_vector_mp(ip)[0] > 0


def test_ladder_closure_residue_classes():
    for n in (1, 2, 3):
        sysn = make_xn_system(n)
        for residue in (0, 2 * n - 1):
            state = monomial_state(n, residue)
            for _ in range(5):
                state = apply_word(sysn, (ADAG, B), state)
                assert state.residues() == {residue}
                assert state.min_exponent() >= 0


# ---------------------------------------------------------------------------
# Gamma symbol evaluation
# ---------------------------------------------------------------------------


def test_evaluate_sqrt_pi():
    value, bound = evaluate_gamma_vector_mp(GammaVector(1, {1: 1}))
    assert float(value) == pytest.approx(1.7724538509055160, rel=1e-15)
    with mp.workprec(200):
        assert abs(value - mp.sqrt(mp.pi)) <= bound < mp.mpf(2) ** -100


def test_evaluate_quarter_gamma_symbol():
    # Gamma(1/4) * 2^(1/4), cross-checked against mpmath directly
    with mp.workdps(30):
        want = float(mp.gamma(mp.mpf(1) / 4) * mp.power(2, mp.mpf(1) / 4))
    assert float(evaluate_gamma_vector_mp(GammaVector(2, {1: 1}))[0]) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(4.3116010990818559, rel=1e-14)


def test_evaluate_empty_vector_is_zero():
    assert evaluate_gamma_vector_mp(GammaVector(3, {})) == (0, 0)


def test_gamma_vector_rational_ratio():
    v = GammaVector(2, {1: Fraction(3, 4), 3: Fraction(-2)})
    assert v.scale(Fraction(5, 9)).rational_ratio(v) == Fraction(5, 9)
    assert v.rational_ratio(GammaVector(2, {1: 1})) is None


def test_gamma_vector_roundtrip_and_validation():
    v = GammaVector(3, {1: Fraction(1, 3), 5: Fraction(-7, 2)})
    assert GammaVector.parse(v.serialize()) == v
    assert GammaVector.parse(GammaVector(3, {}).serialize()) == GammaVector(3, {})
    with pytest.raises(ValueError):
        GammaVector(2, {2: 1})
    with pytest.raises(ValueError):
        GammaVector(2, {5: 1})


# ---------------------------------------------------------------------------
# exact oracles: the Fraction implementations the integer loops replaced
# ---------------------------------------------------------------------------


def ref_poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return [c + q[i] if i < len(q) else c for i, c in enumerate(p)]


def ref_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def ref_poly_shift(p, s):
    out = [Fraction(0)]
    for c in reversed(p):
        out = ref_poly_add(ref_poly_mul(out, (s, 1)), (c,))
    return out


def ref_poly_eval(p, k):
    value = Fraction(0)
    for c in reversed(p):
        value = value * k + c
    return value


def ref_apply(op, state):
    out = {}
    items = state.terms.items()
    for shift, poly in op.terms.items():
        linear = len(poly) <= 2
        alpha, beta = poly[0], (poly[1] if len(poly) > 1 else 0)
        for k, c in items:
            coeff = c * (alpha + beta * k if linear else ref_poly_eval(poly, k))
            if coeff == 0:
                continue
            kk = k + shift
            out[kk] = out.get(kk, Fraction(0)) + coeff
    return GaussPolyState(state.n, out, state.half_power + op.half_power)


def ref_compose(first, second):
    """first . second as a RefOperator; either argument may be an Operator."""
    out = {}
    for s2, p2 in second.terms.items():
        for s1, p1 in first.terms.items():
            s = s1 + s2
            out[s] = ref_poly_add(out.get(s, ()), ref_poly_mul(ref_poly_shift(p1, s2), p2))
    return RefOperator(out, first.half_power + second.half_power)


def ref_binomial_compose(first, second):
    """first . second over the int maps by the binomial theorem, the Operator product the Taylor shift replaced.

    x^k -> c2 k^j x^(k+s2) -> c1 (k+s2)^i c2 k^j x^(k+s1+s2) for each term
    c1 k^i at shift s1 of first and c2 k^j at shift s2 of second, expanded
    into sum_l C(i, l) s2^(i-l) c1 c2 k^(l+j).
    """
    out = {}
    for (s2, j), c2 in second._data.items():
        for (s1, i), c1 in first._data.items():
            s, c = s1 + s2, c1 * c2
            for l in range(i + 1):
                key = (s, l + j)
                out[key] = out.get(key, 0) + math.comb(i, l) * s2 ** (i - l) * c
    return Operator._from_ints(None, out, first.den * second.den, first.half_power + second.half_power)


def ref_monomial_integral(n, j):
    if j <= -1:
        raise DivergenceError(f"integrand term x^{j} is not integrable")
    if j % 2 == 1:
        return {}
    s = j + 1
    r = s % (2 * n)
    t = s // (2 * n)
    c = Fraction(1, n) * Fraction(n) ** t
    for i in range(t):
        c *= Fraction(r + 2 * n * i, 2 * n)
    return {r: c}


def ref_inner_product(f, g):
    """<f, g> as a RefGammaVector, summed in Fractions monomial by monomial."""
    if f.is_zero or g.is_zero:
        return RefGammaVector(f.n, {})
    total_half = f.half_power + g.half_power
    scale = Fraction(1, 2) ** (total_half // 2)
    collected = {}
    for k, c in f.terms.items():
        for l, d in g.terms.items():
            j = k + l
            collected[j] = collected.get(j, Fraction(0)) + c * d
    if total_half % 2 != 0:  # irrational unless f g is an odd integrand with no negative power
        if min(f.terms) + min(g.terms) < 0 or any(d for j, d in collected.items() if j % 2 == 0):
            raise ValueError("odd combined sqrt(2) parity")
        return RefGammaVector(f.n, {})
    coeffs = {}
    for j, d in sorted(collected.items()):
        if d == 0:
            continue
        for r, c in ref_monomial_integral(f.n, j).items():
            coeffs[r] = coeffs.get(r, Fraction(0)) + d * c * scale
    return RefGammaVector(f.n, coeffs)


NON_DYADIC = (Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), Fraction(-11, 6))


def oracle_coefficients():
    return st.one_of(
        st.sampled_from(NON_DYADIC),
        st.fractions(min_value=-7, max_value=7, max_denominator=12),
    )


@st.composite
def oracle_states(draw, n):
    """States over several residues mod 2n, negative exponents and the zero state included."""
    size = draw(st.integers(0, 6))
    exps = draw(st.lists(st.integers(-4, 14), min_size=size, max_size=size, unique=True))
    coeffs = draw(st.lists(oracle_coefficients(), min_size=size, max_size=size))
    return GaussPolyState(n, dict(zip(exps, coeffs)), half_power=draw(st.integers(0, 1)))


@st.composite
def oracle_systems(draw):
    """An x^n system, real or with one generator coefficient moved by 1/3 or -2."""
    n = draw(st.integers(1, 3))
    system = make_xn_system(n)
    if draw(st.booleans()):
        gen, idx, field = draw(st.sampled_from(mutation_slots(system)))
        delta = draw(st.sampled_from([Fraction(1, 3), Fraction(-2)]))
        system = make_xn_system(n, mutate=(gen, idx, field, delta))
    return system


@st.composite
def word_operators(draw, system):
    """A word of up to four generators (degree <= 4 in k), rescaled, with either half power.

    The word is composed by the Fraction oracle and enters through the
    public constructor.
    """
    op = RefOperator({0: (1,)})
    for gen in draw(st.lists(st.sampled_from(list(Generator)), max_size=4)):
        op = ref_compose(op, system.generator(gen))
    op = op.scale(draw(st.sampled_from((Fraction(1),) + NON_DYADIC)))
    op = op.scale_sqrt2(draw(st.integers(-2, 2)))
    return Operator(op.terms, op.half_power)


@st.composite
def algebra_inputs(draw):
    system = draw(oracle_systems())
    ops = [draw(word_operators(system)) for _ in range(3)]
    states = [draw(oracle_states(system.n)) for _ in range(2)]
    return ops, states


def assert_same_state(got, want):
    assert got == want
    assert list(got.terms) == list(want.terms)


@given(algebra_inputs())
@settings(max_examples=200, deadline=None)
def test_apply_matches_fraction_reference(inputs):
    ops, states = inputs
    for op in ops:
        for state in states:
            assert_same_state(op.apply(state), ref_apply(op, state))


@given(algebra_inputs())
@settings(max_examples=200, deadline=None)
def test_composition_matches_fraction_reference(inputs):
    (a, b, c), (state, _) = inputs
    product = a @ b
    assert_matches_ref_operator(product, ref_compose(a, b))
    binomial = ref_binomial_compose(a, b)
    assert (product, product.den, product.polys) == (binomial, binomial.den, binomial.polys)
    assert product.apply(state) == a.apply(b.apply(state))
    assert (a @ b) @ c == a @ (b @ c)


def product_outcome(f, g):
    """The value of <f, g> and its key order, or the type and message of what it raises."""
    try:
        value = inner_product(f, g)
    except ValueError as exc:  # DivergenceError included
        return type(exc), str(exc)
    return value, list(value.coeffs)


@given(algebra_inputs())
@settings(max_examples=200, deadline=None)
def test_inner_product_matches_fraction_reference(inputs):
    ops, (f, g) = inputs
    for state in (f, g):  # the product cannot depend on whether both arguments are one object
        copy = GaussPolyState.parse(state.serialize())
        assert copy is not state and product_outcome(state, state) == product_outcome(state, copy)
    pairs = ((f, g), (f, f), (g, g), (f, ops[0].apply(g)), (ops[1].apply(f), ops[2].apply(g)))
    for left, right in pairs:
        try:
            want = ref_inner_product(left, right)
        except DivergenceError as exc:
            with pytest.raises(DivergenceError, match=f"^{re.escape(str(exc))}$"):
                inner_product(left, right)
            continue
        except ValueError:
            with pytest.raises(ValueError, match="odd combined sqrt"):
                inner_product(left, right)
            continue
        assert_matches_ref_gamma(inner_product(left, right), want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tower_states_match_fraction_reference(n):
    system = make_xn_system(n)
    for sector in SectorLabel:
        for m in range(1, 13):
            state = eigenstate(system, sector, m).state
            want = ref_apply(system.generator(A), state)
            assert_same_state(apply_generator(system, A, state), want)
            ref = RefState(n, state.terms, state.half_power)
            for gen in Generator:
                op = system.generator(gen)
                assert_matches_ref(op.apply(state), ref.apply(op))
            assert_matches_ref_gamma(inner_product(state, state), ref_inner_product(state, state))


# ---------------------------------------------------------------------------
# the state representation: int numerators over one denominator
# ---------------------------------------------------------------------------


class RefState:
    """The Fraction-map state the integer representation replaced, kept as an oracle."""

    def __init__(self, n, terms, half_power=0):
        fold = half_power >> 1
        factor = Fraction(1, 2) ** fold
        self.n, self.terms = n, {}
        for k, c in terms.items():
            c = Fraction(c)
            if c != 0:
                self.terms[int(k)] = c * factor
        self.half_power = half_power - 2 * fold if self.terms else 0

    def scale(self, r):
        r = Fraction(r)
        return RefState(self.n, {k: c * r for k, c in self.terms.items()}, self.half_power)

    def scale_sqrt2(self, j):
        return RefState(self.n, self.terms, self.half_power - j)

    def add(self, other, sign=1):
        if not other.terms:
            return self
        if not self.terms:
            return other.scale(sign)
        assert self.half_power == other.half_power
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + sign * c
        return RefState(self.n, out, self.half_power)

    def apply(self, op):
        out = {}
        for shift, poly in op.terms.items():
            for k, c in self.terms.items():
                coeff = c * ref_poly_eval(poly, k)
                if coeff:
                    out[k + shift] = out.get(k + shift, Fraction(0)) + coeff
        return RefState(self.n, out, self.half_power + op.half_power)

    def serialize(self):
        body = ", ".join(
            f"{k}:{c.numerator}/{c.denominator}" for k, c in sorted(self.terms.items())
        )
        return f"{self.n}; {self.half_power}; {body}"


def assert_matches_ref(state, ref):
    """Canonical ints, and the Fraction map and text of the reference."""
    nums = list(state.nums.values())
    assert state.den > 0 and math.gcd(state.den, *nums) == 1
    assert all(nums) and state.half_power in (0, 1)
    assert state.half_power == ref.half_power
    assert state.terms == ref.terms
    assert list(state.terms) == list(ref.terms)
    assert state.terms is state.terms  # derived once
    assert state.serialize() == ref.serialize()


@st.composite
def raw_state_inputs(draw, n):
    """A Fraction-like map (zeros and ints included) and any half power."""
    size = draw(st.integers(0, 6))
    exps = draw(st.lists(st.integers(-4, 14), min_size=size, max_size=size, unique=True))
    coeffs = draw(
        st.lists(
            st.one_of(oracle_coefficients(), st.integers(-9, 9), st.just(Fraction(0))),
            min_size=size,
            max_size=size,
        )
    )
    return dict(zip(exps, coeffs)), draw(st.integers(-3, 3))


@st.composite
def state_programs(draw):
    """A start state and up to six steps: apply, scale, scale_sqrt2, + and -."""
    system = draw(oracle_systems())
    start = draw(raw_state_inputs(system.n))
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["apply", "scale", "sqrt2", "add", "sub"]))
        if kind == "apply":
            arg = system.generator(draw(st.sampled_from(list(Generator))))
        elif kind == "scale":
            arg = draw(st.one_of(oracle_coefficients(), st.integers(-4, 4)))
        elif kind == "sqrt2":
            arg = draw(st.integers(-3, 3))
        else:
            arg = draw(raw_state_inputs(system.n))
        steps.append((kind, arg))
    return system.n, start, steps


@given(state_programs())
@settings(max_examples=200, deadline=None)
def test_state_representation_matches_fraction_reference(program):
    n, (terms, w), steps = program
    state, ref = GaussPolyState(n, terms, w), RefState(n, terms, w)
    assert_matches_ref(state, ref)
    for kind, arg in steps:
        if kind == "apply":
            state, ref = arg.apply(state), ref.apply(arg)
        elif kind == "scale":
            state, ref = state.scale(arg), ref.scale(arg)
        elif kind == "sqrt2":
            state, ref = state.scale_sqrt2(arg), ref.scale_sqrt2(arg)
        else:
            other = GaussPolyState(n, *arg)
            if not (state.is_zero or other.is_zero) and other.half_power != state.half_power:
                other = other.scale_sqrt2(1)  # match the sqrt(2) parity
            ref_other = RefState(n, other.terms, other.half_power)
            if kind == "add":
                state, ref = state + other, ref.add(ref_other)
            else:
                state, ref = state - other, ref.add(ref_other, -1)
        assert_matches_ref(state, ref)


@given(oracle_systems().flatmap(lambda s: oracle_states(s.n)), st.sampled_from(NON_DYADIC))
@settings(max_examples=100, deadline=None)
def test_equal_states_by_different_routes(state, r):
    routes = [
        state.scale(3).scale(Fraction(1, 3)),
        state.scale(r).scale(1 / r),
        state.scale_sqrt2(2).scale(Fraction(1, 2)),
        state.scale_sqrt2(-3).scale_sqrt2(3),
        -(-state),
        state + state - state,
        GaussPolyState(state.n, state.terms, state.half_power),
        GaussPolyState(state.n, {k: c * 4 for k, c in state.terms.items()}, state.half_power + 4),
        GaussPolyState.parse(state.serialize()),
    ]
    for other in routes:
        assert other == state
        assert hash(other) == hash(state)
        assert (other.nums, other.den) == (state.nums, state.den)
    assert state - state == GaussPolyState(state.n, {})
    assert state.scale(0) == GaussPolyState(state.n, {})
    if not state.is_zero:
        assert proportionality_ratio(state.scale(r), state) == (r, 0)
        assert proportionality_ratio(state, state.scale(r)) == (1 / r, 0)


# ---------------------------------------------------------------------------
# the GammaVector representation: int numerators over one denominator
# ---------------------------------------------------------------------------


class RefGammaVector:
    """The Fraction-map GammaVector the integer representation replaced, kept as an oracle."""

    def __init__(self, n, coeffs):
        self.n, self.coeffs = n, {}
        for r, c in coeffs.items():
            c = Fraction(c)
            if c != 0:
                self.coeffs[int(r)] = c

    def scale(self, r):
        r = Fraction(r)
        return RefGammaVector(self.n, {k: c * r for k, c in self.coeffs.items()})

    def add(self, other):
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            out[r] = out.get(r, Fraction(0)) + c
        return RefGammaVector(self.n, out)

    def rational_ratio(self, other):
        if not self.coeffs or not other.coeffs:
            return Fraction(0) if not self.coeffs else None
        r = max(other.coeffs)
        q = self.coeffs.get(r, Fraction(0)) / other.coeffs[r]
        return q if self.coeffs == other.scale(q).coeffs else None

    def serialize(self):
        body = ", ".join(f"{r}:{c.numerator}/{c.denominator}" for r, c in sorted(self.coeffs.items()))
        return f"{self.n}; {body}"


def assert_matches_ref_gamma(vector, ref):
    """Canonical ints (private to a GammaVector), and the Fraction map and text of the reference."""
    nums, den = list(vector._data.values()), vector._den
    assert all(type(c) is int for c in nums) and type(den) is int
    assert den > 0 and math.gcd(den, *nums) == 1 and all(nums) and vector._half == 0
    assert vector.n == ref.n
    assert vector.coeffs == ref.coeffs
    assert list(vector.coeffs) == list(ref.coeffs)
    assert vector.coeffs is vector.coeffs  # derived once
    assert vector.serialize() == ref.serialize()


@st.composite
def raw_gamma_inputs(draw, n):
    """A Fraction-like map on odd residues 1..2n-1, zeros and ints included."""
    residues = draw(st.lists(st.sampled_from(range(1, 2 * n, 2)), max_size=n, unique=True))
    coeff = st.one_of(oracle_coefficients(), st.integers(-9, 9), st.just(Fraction(0)))
    return dict(zip(residues, draw(st.lists(coeff, min_size=len(residues), max_size=len(residues)))))


@st.composite
def gamma_programs(draw):
    """A start vector and up to six steps: scale, + a vector, and the ratio to a vector or to a multiple."""
    n = draw(st.integers(1, 4))
    start = draw(raw_gamma_inputs(n))
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["scale", "add", "ratio", "multiple"]))
        if kind in ("scale", "multiple"):
            arg = draw(st.one_of(oracle_coefficients(), st.integers(-4, 4)))
        else:
            arg = draw(raw_gamma_inputs(n))
        steps.append((kind, arg))
    return n, start, steps


@given(gamma_programs())
@settings(max_examples=200, deadline=None)
def test_gamma_vector_representation_matches_fraction_reference(program):
    n, coeffs, steps = program
    vector, ref = GammaVector(n, coeffs), RefGammaVector(n, coeffs)
    assert_matches_ref_gamma(vector, ref)
    for kind, arg in steps:
        if kind == "scale":
            vector, ref = vector.scale(arg), ref.scale(arg)
        elif kind == "add":
            vector, ref = vector + GammaVector(n, arg), ref.add(RefGammaVector(n, arg))
        else:
            if kind == "multiple":
                other, ref_other = vector.scale(arg), ref.scale(arg)
            else:
                other, ref_other = GammaVector(n, arg), RefGammaVector(n, arg)
            assert_matches_ref_gamma(other, ref_other)
            pairs = ((vector, ref), (other, ref_other))
            for (a, ref_a), (b, ref_b) in (pairs, pairs[::-1]):
                got, want = a.rational_ratio(b), ref_a.rational_ratio(ref_b)
                assert got == want and type(got) is type(want)
            assert (vector == other) == (ref.coeffs == ref_other.coeffs)
        assert_matches_ref_gamma(vector, ref)
        parsed = GammaVector.parse(vector.serialize())
        assert parsed == vector and hash(parsed) == hash(vector)


# ---------------------------------------------------------------------------
# the operator representation: int polynomials over one denominator
# ---------------------------------------------------------------------------


class RefOperator:
    """The Fraction-map operator the integer representation replaced, kept as an oracle."""

    def __init__(self, terms, half_power=0):
        factor = Fraction(1, 2) ** (half_power >> 1)
        self.terms = {}
        for s in sorted(terms):
            poly = [Fraction(c) * factor for c in terms[s]]
            while poly and poly[-1] == 0:
                poly.pop()
            if poly:
                self.terms[int(s)] = tuple(poly)
        self.half_power = half_power & 1 if self.terms else 0

    def scale(self, r):
        r = Fraction(r)
        return RefOperator({s: [c * r for c in p] for s, p in self.terms.items()}, self.half_power)

    def scale_sqrt2(self, j):
        return RefOperator(self.terms, self.half_power - j)

    def add(self, other, sign=1):
        if not other.terms:
            return self
        if not self.terms:
            return other.scale(sign)
        assert self.half_power == other.half_power
        out = dict(self.terms)
        for s, p in other.terms.items():
            out[s] = ref_poly_add(out.get(s, ()), [sign * c for c in p])
        return RefOperator(out, self.half_power)

    def serialize(self):
        body = ", ".join(
            f"{s}:[{' '.join(f'{c.numerator}/{c.denominator}' for c in p)}]"
            for s, p in self.terms.items()
        )
        return f"{self.half_power}; {body}"


def assert_matches_ref_operator(op, ref):
    """Canonical ints in the map {(shift, power): int}, and the Fraction map and text of the reference."""
    assert all(type(s) is int and type(i) is int and i >= 0 and type(c) is int and c
               for (s, i), c in op._data.items())
    by_shift = {}
    for (s, i), c in op._data.items():
        poly = by_shift.setdefault(s, [])
        poly += [0] * (i + 1 - len(poly))
        poly[i] = c
    assert tuple((s, tuple(p)) for s, p in sorted(by_shift.items())) == op.polys
    coeffs = [c for _, p in op.polys for c in p]
    assert all(type(c) is int for c in coeffs) and type(op.den) is int
    assert op.den > 0 and math.gcd(op.den, *coeffs) == 1
    assert all(p and p[-1] for _, p in op.polys)
    shifts = [s for s, _ in op.polys]
    assert shifts == sorted(set(shifts))
    assert op.half_power == ref.half_power and op.half_power in (0, 1)
    assert op.terms == ref.terms
    assert list(op.terms) == list(ref.terms)
    assert op.terms is op.terms  # derived once
    assert op.serialize() == ref.serialize()


@st.composite
def raw_operator_inputs(draw):
    """A Fraction-like map {shift: coefficients} (zeros, ints, zero polynomials) and any half power."""
    size = draw(st.integers(0, 3))
    shifts = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size, unique=True))
    coeff = st.one_of(oracle_coefficients(), st.integers(-9, 9), st.just(Fraction(0)))
    polys = [draw(st.lists(coeff, max_size=4)) for _ in shifts]
    return dict(zip(shifts, polys)), draw(st.integers(-3, 3))


@st.composite
def operator_programs(draw):
    """A start operator and up to six steps: @ on either side, +, -, unary -, scale, scale_sqrt2.

    Operands are generators of a real or mutated system, or raw maps
    through the public constructor, the zero operator included.
    """
    system = draw(oracle_systems())

    def operand():
        if draw(st.booleans()):
            gen = system.generator(draw(st.sampled_from(list(Generator))))
            return gen.terms, gen.half_power
        return draw(raw_operator_inputs())

    start = operand()
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["matmul", "rmatmul", "add", "sub", "neg", "scale", "sqrt2"]))
        if kind == "scale":
            arg = draw(st.one_of(oracle_coefficients(), st.integers(-4, 4)))
        elif kind == "sqrt2":
            arg = draw(st.integers(-3, 3))
        else:
            arg = operand()
        steps.append((kind, arg))
    return start, steps


@given(operator_programs())
@settings(max_examples=200, deadline=None)
def test_operator_representation_matches_fraction_reference(program):
    (terms, w), steps = program
    op, ref = Operator(terms, w), RefOperator(terms, w)
    assert_matches_ref_operator(op, ref)
    for kind, arg in steps:
        if kind == "neg":
            op, ref = -op, ref.scale(-1)
        elif kind == "scale":
            op, ref = op.scale(arg), ref.scale(arg)
        elif kind == "sqrt2":
            op, ref = op.scale_sqrt2(arg), ref.scale_sqrt2(arg)
        else:
            other = Operator(*arg)
            if kind == "matmul":
                op, ref = op @ other, ref_compose(ref, RefOperator(*arg))
            elif kind == "rmatmul":
                op, ref = other @ op, ref_compose(RefOperator(*arg), ref)
            else:
                if not (op.is_zero or other.is_zero) and other.half_power != op.half_power:
                    other = other.scale_sqrt2(1)  # match the sqrt(2) parity
                ref_other = RefOperator(other.terms, other.half_power)
                if kind == "add":
                    op, ref = op + other, ref.add(ref_other)
                else:
                    op, ref = op - other, ref.add(ref_other, -1)
        assert_matches_ref_operator(op, ref)


@given(operator_programs())
@settings(max_examples=100, deadline=None)
def test_commutator_is_the_difference_of_the_two_products(program):
    # zero, the identity and an odd half power among the operands
    (terms, w), steps = program
    operands = [Operator(terms, w)] + [Operator(*arg) for kind, arg in steps if type(arg) is tuple][:2]
    operands += [Operator({}), IDENTITY, operands[0].scale_sqrt2(1)]
    for x in operands:
        for y in operands:
            got, want = x._commutator(y), x @ y - y @ x
            assert (got, got.den, got.polys, got.serialize()) == (want, want.den, want.polys, want.serialize())
            assert_matches_ref_operator(got, ref_compose(x, y).add(ref_compose(y, x), -1))


@given(raw_operator_inputs())
@settings(max_examples=200, deadline=None)
def test_operator_text_is_written_from_the_ints(raw):
    op = Operator(*raw)
    text = op.serialize()
    assert op._view is None  # no Fraction view is built to write it
    body = ", ".join(
        f"{s}:[{' '.join(f'{c.numerator}/{c.denominator}' for c in p)}]" for s, p in op.terms.items()
    )
    assert text == f"{op.half_power}; {body}"


@given(algebra_inputs(), st.sampled_from(NON_DYADIC))
@settings(max_examples=100, deadline=None)
def test_equal_operators_by_different_routes(inputs, r):
    (a, b, c), _ = inputs
    for op in (a, a @ b, Operator({})):
        routes = [
            op.scale(3).scale(Fraction(1, 3)),
            op.scale(r).scale(1 / r),
            op.scale_sqrt2(2).scale(Fraction(1, 2)),
            op.scale_sqrt2(-3).scale_sqrt2(3),
            -(-op),
            op + op - op,
            Operator(op.terms, op.half_power),
            Operator({s: [x * 4 for x in p] for s, p in op.terms.items()}, op.half_power + 4),
        ]
        for other in routes:
            assert other == op
            assert hash(other) == hash(op)
            assert (other.den, other.polys, other.serialize()) == (op.den, op.polys, op.serialize())
    assert a - a == Operator({}) == a.scale(0)
    left, right = (a @ b) @ c, a @ (b @ c)
    assert left == right
    assert hash(left) == hash(right)
    assert left.serialize() == right.serialize()


def test_operator_algebra_builds_no_fraction_per_coefficient(monkeypatch):
    # only the scalar arguments of scale (gamma/2, 1/(delta-gamma), ...) are Fractions
    systems = [make_xn_system(n) for n in (1, 2, 3)]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    counts = []
    for system in systems:
        built.clear()
        reports = verify_coupled_susy(system) + verify_su11(system)
        assert all(r.passed for r in reports)
        counts.append(len(built))
    monkeypatch.undo()
    assert len(set(counts)) == 1 and counts[0] < 40, counts


def test_fraction_constructors_build_no_fraction_of_their_own(monkeypatch):
    # each Fraction input is converted once, Fraction(c); its ints over the common den are ints
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real_new(cls, *args, **kwargs)

    third, sixth, quarter, half, three_quarters = (Fraction(c) for c in ("1/3", "-5/6", "1/4", "1/2", "3/4"))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    forms = [GaussPolyState(2, {0: third, 4: sixth}, 1), GammaVector(2, {1: quarter}),
             Operator({0: (half, 2), 6: (three_quarters,)}, 1)]
    monkeypatch.undo()
    assert len(built) == 2 + 1 + 3
    assert [f._den for f in forms] == [6, 4, 4]
    assert forms[0].nums == {0: 2, 4: -5} and forms[2].polys == ((0, (2, 8)), (6, (3,)))


def test_text_forms_build_no_fraction_on_write(monkeypatch):
    # one writer over the ints for states and GammaVectors; the Fraction view stays unset
    forms = [GaussPolyState(2, {0: Fraction(1, 3), 4: Fraction(-5, 6)}, 1),
             GammaVector(3, {1: Fraction(1, 4), 5: Fraction(-7, 6)})]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    texts = [form.serialize() for form in forms]
    monkeypatch.undo()
    assert built == [] and all(form._view is None for form in forms)
    assert texts == ["2; 1; 0:1/3, 4:-5/6", "3; 1:1/4, 5:-7/6"]


def test_fresh_forms_leave_hash_and_view_unset():
    # None until first use, so the first hash and the first view read raise nothing
    for form in (monomial_state(3, 5), GammaVector(2, {1: 1}), Operator({0: (1, 2), 6: (3,)})):
        assert form._hash is None and form._view is None
        assert hash(form) == form._hash == hash(form.scale(1))
        view = form.coeffs if isinstance(form, GammaVector) else form.terms
        assert form._view is view


class _Pair(Record):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class _OtherPair(_Pair):
    __slots__ = ()


def test_record_base_semantics():
    pair = _Pair(1, Fraction(1, 2))
    assert pair == _Pair(1, Fraction(1, 2)) and hash(pair) == hash(_Pair(1, Fraction(1, 2)))
    assert pair != _Pair(2, Fraction(1, 2)) and pair != _Pair(1, Fraction(1, 3))
    assert pair != _OtherPair(1, Fraction(1, 2))  # == holds only within one class
    assert pair != (1, Fraction(1, 2))
    for action in (lambda: setattr(pair, "left", 2), lambda: setattr(pair, "new", 0),
                   lambda: delattr(pair, "left")):
        with pytest.raises(AttributeError, match="_Pair is immutable"):
            action()
    assert not hasattr(pair, "__dict__")
    assert repr(pair) == "_Pair(left=1, right=Fraction(1, 2))"
    assert repr(_OtherPair(0, "x")) == "_OtherPair(left=0, right='x')"


@pytest.mark.parametrize(
    "form",
    [GammaVector(2, {1: Fraction(1, 3), 3: 2}), GaussPolyState(1, {0: 1, 2: Fraction(-1, 2)}, 1),
     Operator({-1: (1, 2), 1: (Fraction(1, 2),)}, 1)],
    ids=["GammaVector", "GaussPolyState", "Operator"],
)
def test_exact_forms_refuse_deletion(form):
    copy = form.scale(1)  # an equal form, built anew
    cls = type(form)
    names = [name for name in dir(cls) if not name.startswith("__") and not callable(getattr(cls, name))]
    assert {"_data", "_den", "_half", "_hash", "is_zero"} <= set(names)
    for name in names:
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            delattr(form, name)
    assert form == form and form == copy and hash(form) == hash(copy)


#: Every Record subclass the package defines.
_RECORD_CLASSES = (
    "CoupledSusySystem", "VerificationReport", "EigenstateRecord", "CoherentState", "HalfLoweringCheck",
    "GalerkinProblem", "SpectrumReport", "OperatorExpression", "UncertaintyResult", "DirectSumState",
)


@pytest.fixture(scope="module")
def package_records() -> dict:
    """Class name -> one record of that class, built by the library."""
    from coupledsusy import coherent, spectral, towers, uncertainty

    sys2 = make_xn_system(2)
    psi0, phi0 = towers.ground_states(sys2)
    samples = [
        sys2,
        verify_coupled_susy(sys2, range(-2, 3))[0],
        eigenstate(sys2, SectorLabel.PHI, 3),
        coherent.coherent_state(sys2, SectorLabel.PSI, 0.3 + 0.2j, 1e-8),
        coherent.verify_half_lowering(sys2, SectorLabel.PSI, 0.3, 1e-8),
        spectral.build_galerkin(sys2, 0, 3),
        spectral.galerkin_spectrum(make_xn_system(1), 0, 4),
        uncertainty.observable_A(sys2),
        uncertainty.uncertainty_product_LA(sys2, psi0),
        uncertainty.direct_sum(psi0, Fraction(1, 4), phi0, Fraction(3, 4)),
    ]
    return {type(r).__name__: r for r in samples}


def test_every_package_record_class_is_sampled(package_records):
    pending, defined = [Record], set()
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("coupledsusy."):
                defined.add(cls.__name__)
    assert defined == set(_RECORD_CLASSES) == set(package_records)


@pytest.mark.parametrize("name", _RECORD_CLASSES)
def test_record_constructor_binds_positions_and_keywords_alike(name, package_records):
    record = package_records[name]
    cls, values = type(record), record._values()
    by_keyword = dict(zip(cls._fields, values))
    assert cls(*values) == record == cls(**by_keyword)
    assert cls(*values[:2], **dict(list(by_keyword.items())[2:])) == record
    assert repr(cls(**by_keyword)) == repr(record)
    # omitted fields take their defaults, positionally and by keyword alike
    required = [f for f in cls._fields if f not in cls._defaults]
    short = cls(**{f: by_keyword[f] for f in required})
    if cls._fields[:len(required)] == tuple(required):
        assert cls(*values[:len(required)]) == short
    for field, default in cls._defaults.items():
        assert getattr(short, field) == (default() if callable(default) else default)


@pytest.mark.parametrize("name", _RECORD_CLASSES)
def test_record_constructor_rejects_what_a_signature_rejects(name, package_records):
    cls, values = type(package_records[name]), package_records[name]._values()
    fields = cls._fields
    first, last = fields[0], [f for f in fields if f not in cls._defaults][-1]
    cases = [
        (lambda: cls(**dict(zip(fields[1:], values[1:]))), f"missing required argument '{first}'"),
        (lambda: cls(*values[:fields.index(last)]), f"missing required argument '{last}'"),
        (lambda: cls(*values, bogus=1), "got an unexpected keyword argument 'bogus'"),
        (lambda: cls(*values, **{first: values[0]}), f"got multiple values for argument '{first}'"),
        (lambda: cls(*values, None), f"takes {len(fields)} arguments but {len(fields) + 1} were given"),
    ]
    for build, message in cases:
        with pytest.raises(TypeError, match=f"^{name}\\(\\) {message}$"):
            build()


def test_omitted_details_is_a_fresh_dict_per_record(package_records):
    factories = 0
    for record in package_records.values():
        cls = type(record)
        if "details" not in cls._defaults:
            continue
        factories += 1
        given = {f: v for f, v in zip(cls._fields, record._values()) if f != "details"}
        first, second = cls(**given), cls(**given)
        assert first.details == {} == second.details
        assert first.details is not second.details
        first.details["grid"] = 2
        assert second.details == {} and cls(**given).details == {}
    assert factories == 2  # SpectrumReport and UncertaintyResult
