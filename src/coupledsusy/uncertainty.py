"""Generalized position/momentum observables and their uncertainty bounds.

Within one sector the quadratic observables

    L  = -(a+b + b+a)/2          A  = i(a+b - b+a)/2
    L~ = -(ba+ + ab+)/2          A~ = i(ba+ - ab+)/2

play the role of position and momentum (for the x^n family L is a
Lagrangian-type operator and A the classical action variable).  Both
are -(R + L)/2 and i(R - L)/2 over the words R, L of the sector's row of
system.pairs, which also gives its number operator H and shift c.  On the
direct sum of the two sectors the first-order block operators

    X = [[0, a+ + b+], [a + b, 0]] / sqrt(2)
    P = -i [[0, a+ - b+], [-a + b, 0]] / sqrt(2)

generalize the usual position and momentum.  Robertson's inequality
sigma_F sigma_G >= |<[F, G]>| / 2 then yields

    sigma_L  sigma_A  >= (delta-gamma) |gamma| / 4   (minimised by the PSI ground state)
    sigma_L~ sigma_A~ >= (delta-gamma) delta / 4     (minimised by the PHI_TILDE ground state)
    sigma_X  sigma_P  >= min(|gamma|, delta) / 2

with the per-state X-P Robertson bound equal to the exact convex
combination (|gamma| ||psi1||^2 + delta ||psi2||^2) / 2.

Each observable is an exact real Operator composed from the system's
generators, times 1 or i; so is every product and commutator built from
them.  On the package's real states every matrix element is therefore one
GammaVector, times the observable's phase.  On a tower record, or any
state on one Gamma symbol, it is a rational multiple of the squared norm:
variances and the squared bound are Fractions, `pass` (sigma1^2 sigma2^2
>= bound^2) is exact, and floats appear only in the result, where an
exactly saturated bound gives product == bound.  A bare state whose norm
spans two Gamma symbols runs the same formulas over certified mpmath
intervals (_decide).  No tolerance is involved.  Quantities that vanish
identically on real-coefficient states, like <A>, are still routed
through the full computation so that a wrong sign in any word would
surface.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .calculus import (
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Record,
    evaluate_gamma_vector_mp,
    inner_product,
)
from .systems import CoupledSusySystem
from .towers import EigenstateRecord, SectorLabel


class SectorDomainError(ValueError):
    """A sector observable was evaluated on a state outside its residue classes."""


_HALF = Fraction(1, 2)


class OperatorExpression(Record):
    """The observable op, or i op when `imaginary`, with op an exact real Operator.

    `sector` is 1 or 2 for within-sector observables (enforced on states),
    or None for the direct-sum blocks which transfer between sectors.
    """

    __slots__ = _fields = ("name", "op", "imaginary", "sector")
    _defaults = {"imaginary": False, "sector": None}

    def compose(self, other: "OperatorExpression") -> "OperatorExpression":
        """Operator product self . other (other acts first); i . i = -1."""
        product = self.op @ other.op
        return OperatorExpression(
            f"{self.name}.{other.name}",
            -product if self.imaginary and other.imaginary else product,
            self.imaginary != other.imaginary,
            self.sector,
        )

    def minus(self, other: "OperatorExpression") -> "OperatorExpression":
        """self - other; ValueError when one is real and the other imaginary."""
        if self.imaginary != other.imaginary:
            raise ValueError(f"{self.name} - {other.name} is neither real nor imaginary")
        return OperatorExpression(
            f"{self.name}-{other.name}", self.op - other.op, self.imaginary, self.sector
        )

    def commutator_with(self, other: "OperatorExpression") -> "OperatorExpression":
        """[self, other]: i op and i op' give -[op, op'], real; one imaginary factor gives i [op, op']."""
        bracket = self.op._commutator(other.op)
        return OperatorExpression(
            f"[{self.name},{other.name}]", -bracket if self.imaginary and other.imaginary else bracket,
            self.imaginary != other.imaginary, self.sector,
        )


def _ladder_observables(system: CoupledSusySystem, sector: int) -> tuple:
    """(L, A) of sector 1, or (L~, A~) of sector 2: -(R + L)/2 and i(R - L)/2 over its pair's words."""
    pair, tilde = system.pairs[sector - 1], "~" * (sector == 2)
    return (
        OperatorExpression(f"L{tilde}", (pair.raising + pair.lowering).scale(-_HALF), False, sector),
        OperatorExpression(f"A{tilde}", (pair.raising - pair.lowering).scale(_HALF), True, sector),
    )


def observable_L(system: CoupledSusySystem) -> OperatorExpression:
    return _ladder_observables(system, 1)[0]


def observable_A(system: CoupledSusySystem) -> OperatorExpression:
    return _ladder_observables(system, 1)[1]


def observable_L_tilde(system: CoupledSusySystem) -> OperatorExpression:
    return _ladder_observables(system, 2)[0]


def observable_A_tilde(system: CoupledSusySystem) -> OperatorExpression:
    return _ladder_observables(system, 2)[1]


def x_block(system: CoupledSusySystem, which: str) -> OperatorExpression:
    """Off-diagonal blocks of X: "12" = (a+ + b+)/sqrt(2), "21" = (a + b)/sqrt(2)."""
    a, ad, b, bd = system.generators
    if which == "12":
        op = ad + bd
    elif which == "21":
        op = a + b
    else:
        raise ValueError("block must be '12' or '21'")
    return OperatorExpression(f"X{which}", op.scale_sqrt2(-1), False, None)


def p_block(system: CoupledSusySystem, which: str) -> OperatorExpression:
    """Off-diagonal blocks of P: "12" = -i(a+ - b+)/sqrt(2), "21" = -i(-a + b)/sqrt(2)."""
    a, ad, b, bd = system.generators
    if which == "12":
        op = bd - ad
    elif which == "21":
        op = a - b
    else:
        raise ValueError("block must be '12' or '21'")
    return OperatorExpression(f"P{which}", op.scale_sqrt2(-1), True, None)


# ---------------------------------------------------------------------------
# Exact expectation machinery
# ---------------------------------------------------------------------------


def matrix_element(system: CoupledSusySystem, expr: OperatorExpression, f: GaussPolyState,
                   g: GaussPolyState) -> GammaVector:
    """<f | expr.op | g> exactly: one apply and one inner product.

    The matrix element of expr is this value times i when expr.imaginary.
    inner_product raises ValueError when the sqrt(2) half powers of f, op
    and g add up to an odd total.
    """
    if f.n != system.n or g.n != system.n:
        raise FamilyMismatchError("states and system belong to different families")
    return inner_product(f, expr.op.apply(g))


def _as_state(state) -> GaussPolyState:
    if isinstance(state, EigenstateRecord):
        return state.state
    return state


@functools.lru_cache(maxsize=64)
def _sector_classes(n: int, sector: int) -> frozenset:
    """The residue classes of sector 1 (the a+a towers) or 2 (the tilde towers)."""
    return frozenset(s.residue(n) for s in SectorLabel if s.is_tilde == (sector == 2))


def _guard_sector(system: CoupledSusySystem, sector: int, state: GaussPolyState):
    """SectorDomainError unless the state lies in the residue classes of sector 1 or 2."""
    allowed = _sector_classes(system.n, sector)
    if not state.residues() <= allowed:
        raise SectorDomainError(
            f"state residues {sorted(state.residues())} lie outside the "
            f"sector-{sector} classes {sorted(allowed)}"
        )


def expectation_exact(system, expr, state) -> GammaVector:
    """Unnormalised <state | expr.op | state> as an exact GammaVector."""
    state = _as_state(state)
    if expr.sector is not None:
        _guard_sector(system, expr.sector, state)
    return matrix_element(system, expr, state, state)


def _norm_sq(state) -> GammaVector:
    """||state||^2: a record's exact norm_sq, else one inner product."""
    return state.norm_sq if isinstance(state, EigenstateRecord) else inner_product(state, state)


class _NoRatio(Exception):
    """A GammaVector and its norm lie on different Gamma symbols: the ratio is irrational."""


def _decide(formula):
    """(gap >= 0, values) for formula(ratio) = (gap, *values), ratio(v, norm) = v / norm.

    Fraction ratios decide exactly.  An irrational ratio sends the formula
    to mpmath intervals, each GammaVector its value +- the error bound of
    evaluate_gamma_vector_mp, at 64, 128, ... bits until the sign of the
    gap is certain; still uncertain at 4096 bits, the verdict is False.  A
    formula with nothing to decide returns gap 0.
    """
    def rational(v, norm):
        q = v.rational_ratio(norm)
        if q is None:
            raise _NoRatio
        return q

    try:
        gap, *values = formula(rational)
        return gap >= 0, values
    except _NoRatio:
        from mpmath import iv

    def interval(v):
        value, bound = evaluate_gamma_vector_mp(v, iv.prec)
        return iv.mpf(value) + iv.mpf([-bound, bound])

    saved = iv.prec
    try:
        for iv.prec in (64, 128, 256, 512, 1024, 2048, 4096):  # iv rounds outward at iv.prec
            gap, *values = formula(lambda v, norm: interval(v) / interval(norm))
            verdict = gap >= 0  # None while the interval holds 0
            if verdict is not None:
                return verdict, values
    finally:
        iv.prec = saved
    return False, values


def _variance(mean: GammaVector, second: GammaVector, norm, ratio):
    """<O^2> - |<O>|^2 from <f|O|f> and <f|O^2|f>; O^2 is real for O real or imaginary."""
    return ratio(second, norm) - ratio(mean, norm) ** 2


def _float(x) -> float:
    """A Fraction's float, or an interval's midpoint."""
    return float(getattr(x, "mid", x))


def _root(x) -> float:
    """sqrt of a nonnegative number; an interval's midpoint may dip below 0."""
    return math.sqrt(max(_float(x), 0.0))


def _phased(value, imaginary: bool) -> complex:
    """A real value's float times i when imaginary."""
    return complex(0.0, _float(value)) if imaginary else complex(_float(value), 0.0)


def expectation(system, expr, state) -> complex:
    """Normalised expectation <expr> on the given state or record."""
    element, norm = expectation_exact(system, expr, state), _norm_sq(state)
    _, (value,) = _decide(lambda ratio: (0, ratio(element, norm)))
    return _phased(value, expr.imaginary)


def variance(system, expr, state) -> float:
    mean, second = (expectation_exact(system, e, state) for e in (expr, expr.compose(expr)))
    norm = _norm_sq(state)
    _, (var,) = _decide(lambda ratio: (0, _variance(mean, second, norm, ratio)))
    return max(_float(var), 0.0)  # an interval's midpoint may dip below 0


def sigma(system, expr, state) -> float:
    return math.sqrt(variance(system, expr, state))


# ---------------------------------------------------------------------------
# Uncertainty products
# ---------------------------------------------------------------------------


class UncertaintyResult(Record):
    __slots__ = _fields = ("pair", "sigma1", "sigma2", "product", "bound", "passed", "details")
    _defaults = {"details": dict}

    @property
    def equality_gap(self) -> float:
        return self.product - self.bound

    def to_json_dict(self) -> dict:
        return {
            "observable_pair": self.pair,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "product": self.product,
            "bound": self.bound,
            "equality_gap": self.equality_gap,
            "pass": self.passed,
            "details": self.details,
        }


def _result(pair, passed, var1, var2, bound_sq, details) -> UncertaintyResult:
    """Floats by one route from var1 var2 and bound^2, so equal ones give product == bound."""
    return UncertaintyResult(pair, _root(var1), _root(var2), _root(var1 * var2), _root(bound_sq),
                             passed, details)


def _sector_product(system, state, sector: int) -> UncertaintyResult:
    """sigma_L sigma_A of one sector against its Robertson bound.

    The closed form is (d-g)|2<N> - c|/4 with N the sector's H and c its
    shift: a+a and gamma in the first sector, aa+ and delta in the second.
    The state's norm is taken once, for all six expectations.
    """
    row = system.pairs[sector - 1]
    obs_l, obs_a = _ladder_observables(system, sector)
    number_op = OperatorExpression(row.names[0], row.hamiltonian, False, sector)
    exprs = (obs_l, obs_l.compose(obs_l), obs_a, obs_a.compose(obs_a), obs_l.commutator_with(obs_a), number_op)
    mean_l, second_l, mean_a, second_a, comm, number = (expectation_exact(system, e, state) for e in exprs)
    norm = _norm_sq(state)

    def formula(ratio):
        var_l = _variance(mean_l, second_l, norm, ratio)
        var_a = _variance(mean_a, second_a, norm, ratio)
        bound_sq = ratio(comm, norm) ** 2 / 4
        return var_l * var_a - bound_sq, var_l, var_a, bound_sq, ratio(number, norm)

    passed, (var_l, var_a, bound_sq, number) = _decide(formula)
    number = _float(number)
    closed_form = float(system.spacing) / 4 * abs(2 * number - float(row.shift))
    return _result(f"{obs_l.name},{obs_a.name}", passed, var_l, var_a, bound_sq,
                   {"mean_number": number, "bound_closed_form": closed_form})


def uncertainty_product_LA(system, state) -> UncertaintyResult:
    """sigma_L sigma_A against the Robertson bound (d-g)|2<a+a> - gamma|/4."""
    return _sector_product(system, state, 1)


def uncertainty_product_tilde(system, state) -> UncertaintyResult:
    """sigma_L~ sigma_A~ against (d-g)|2<aa+> - delta|/4 (minimised by phi~ level 0)."""
    return _sector_product(system, state, 2)


class DirectSumState(Record):
    """A normalised two-component state (sqrt(w1) psi1/|psi1|, sqrt(w2) psi2/|psi2|).

    Components are stored unnormalised, as bare states or as
    EigenstateRecords (which bring their exact norm_sq); w1 and w2 are the
    exact squared weights and must sum to one.  A missing component
    requires weight zero.
    """

    __slots__ = _fields = ("component1", "component2", "weight1", "weight2")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        w1, w2 = Fraction(self.weight1), Fraction(self.weight2)
        if w1 < 0 or w2 < 0 or w1 + w2 != 1:
            raise ValueError("squared weights must be nonnegative and sum to 1 exactly")
        if (w1 > 0) != (self.component1 is not None):
            raise ValueError("component 1 must be present iff weight1 > 0")
        if (w2 > 0) != (self.component2 is not None):
            raise ValueError("component 2 must be present iff weight2 > 0")
        if self.component1 is not None and _as_state(self.component1).is_zero:
            raise ValueError("component 1 is the zero state")
        if self.component2 is not None and _as_state(self.component2).is_zero:
            raise ValueError("component 2 is the zero state")


def direct_sum(state1, weight1, state2, weight2) -> DirectSumState:
    return DirectSumState(state1, state2, Fraction(weight1), Fraction(weight2))


def _xp_component(system, sector: int, given, weight):
    """(the state at half power 0, its squared norm / weight), or (None, None) if absent.

    A first-sector and a tilde state differ in their sqrt(2) half power, so
    the X,P cross terms pair them only once both are rescaled to half power 0.
    """
    if given is None:
        return None, None
    state = _as_state(given)
    _guard_sector(system, sector, state)
    half = state.half_power
    return state.scale_sqrt2(half), _norm_sq(given).scale(2 ** half / Fraction(weight))


def _block_moments(system, upper, lower, components, norms):
    """moments(ratio) = (variance, <Op^2>, (s^2, mean)) of the block operator Op.

    With norms[i] = ||c_i||^2 / w_i, <Op> = cross / sqrt(norms[0] norms[1]) is
    s mean, mean = cross / norms[0], times Op's phase; s^2 = norms[0] / norms[1]
    is taken only for a nonzero cross term (for the CLI's mixed state it is
    irrational).
    """
    c1, c2 = components
    cross = None
    if c1 is not None and c2 is not None:
        cross = matrix_element(system, upper, c1, c2) + matrix_element(system, lower, c2, c1)
    diagonal = [(matrix_element(system, left.compose(right), c, c), norm)
                for c, left, right, norm in ((c1, upper, lower, norms[0]), (c2, lower, upper, norms[1]))
                if c is not None]

    def moments(ratio):
        second = sum(ratio(e, norm) for e, norm in diagonal)
        if cross is None or cross.is_zero:
            return second, second, (0, 0)
        scale_sq, mean = ratio(norms[0], norms[1]), ratio(cross, norms[0])
        return second - scale_sq * mean ** 2, second, (scale_sq, mean)

    return moments


def uncertainty_product_XP(system, dstate: DirectSumState) -> UncertaintyResult:
    """sigma_X sigma_P on a direct-sum state, with the exact Robertson bound.

    The commutator [X, P] is block diagonal and acts as -gamma on the first
    component and delta on the second, so the per-state bound is the convex
    combination (|gamma| w1 + delta w2)/2; the global minimum over states is
    min(|gamma|, delta)/2.
    """
    components, norms = zip(_xp_component(system, 1, dstate.component1, dstate.weight1),
                            _xp_component(system, 2, dstate.component2, dstate.weight2))
    x12, x21 = x_block(system, "12"), x_block(system, "21")
    p12, p21 = p_block(system, "12"), p_block(system, "21")
    x_moments = _block_moments(system, x12, x21, components, norms)
    p_moments = _block_moments(system, p12, p21, components, norms)
    # Robertson bound from the block commutators, evaluated per component.
    comm11 = x12.compose(p21).minus(p12.compose(x21))
    comm22 = x21.compose(p12).minus(p21.compose(x12))
    comms = [(matrix_element(system, comm, c, c), norm)
             for comm, c, norm in zip((comm11, comm22), components, norms) if c is not None]

    def formula(ratio):
        (var_x, second_x, mean_x), (var_p, second_p, mean_p) = x_moments(ratio), p_moments(ratio)
        bound_sq = sum(ratio(e, norm) for e, norm in comms) ** 2 / 4
        return var_x * var_p - bound_sq, var_x, var_p, bound_sq, mean_x, mean_p, second_x, second_p

    passed, (var_x, var_p, bound_sq, *means, second_x, second_p) = _decide(formula)
    # s mean, rounded once: the root of the exact s^2 mean^2, with mean's sign (0.0 for 0)
    mean_x, mean_p = (_phased(math.copysign(_root(scale_sq * mean ** 2), _float(mean)), block.imaginary)
                      for (scale_sq, mean), block in zip(means, (x12, p12)))
    convex = 0.5 * float(abs(system.gamma) * dstate.weight1 + system.delta * dstate.weight2)
    return _result("X,P", passed, var_x, var_p, bound_sq, {
        "mean_x": (mean_x.real, mean_x.imag),
        "mean_p": (mean_p.real, mean_p.imag),
        "second_x": _float(second_x),
        "second_p": _float(second_p),
        "bound_convex_combination": convex,
        "global_bound": 0.5 * float(min(abs(system.gamma), system.delta)),
    })
