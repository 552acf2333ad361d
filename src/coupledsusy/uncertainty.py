"""Generalized position/momentum observables and their uncertainty bounds.

Within one sector the quadratic observables

    L  = -(a+b + b+a)/2          A  = i(a+b - b+a)/2
    L~ = -(ba+ + ab+)/2          A~ = i(ba+ - ab+)/2

play the role of position and momentum (for the x^n family L is a
Lagrangian-type operator and A the classical action variable).  On the
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

Observables are pairs of exact Operators, the real and the imaginary
part, composed from the system's generators; every expectation is
assembled exactly (GammaVectors bucketed by the parity of the accumulated
sqrt(2) powers) and only evaluated numerically at the end.  Quantities
that vanish identically on real-coefficient states, like <A>, are still
routed through the full computation so that a wrong sign in any word
would surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import (
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Operator,
    evaluate_gamma_vector,
    inner_product,
)
from .systems import CoupledSusySystem
from .towers import EigenstateRecord


class SectorDomainError(ValueError):
    """A sector observable was evaluated on a state outside its residue classes."""


_ZERO = Operator({})
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class OperatorExpression:
    """The complex operator re + i im, with exact Operator parts.

    `sector` is 1 or 2 for within-sector observables (enforced on states),
    or None for the direct-sum blocks which transfer between sectors.
    """

    name: str
    re: Operator
    im: Operator = _ZERO
    sector: int | None = None

    def compose(self, other: "OperatorExpression", name: str | None = None) -> "OperatorExpression":
        """Operator product self . other (other acts first)."""
        return OperatorExpression(
            name or f"{self.name}.{other.name}",
            self.re @ other.re - self.im @ other.im,
            self.re @ other.im + self.im @ other.re,
            self.sector,
        )

    def minus(self, other: "OperatorExpression", name: str | None = None) -> "OperatorExpression":
        return OperatorExpression(
            name or f"{self.name}-{other.name}",
            self.re - other.re,
            self.im - other.im,
            self.sector,
        )

    def commutator_with(self, other: "OperatorExpression", name: str | None = None):
        return self.compose(other).minus(
            other.compose(self), name or f"[{self.name},{other.name}]"
        )


def observable_L(system: CoupledSusySystem) -> OperatorExpression:
    a, ad, b, bd = system.generators
    return OperatorExpression("L", (ad @ b + bd @ a).scale(-_HALF), sector=1)


def observable_A(system: CoupledSusySystem) -> OperatorExpression:
    a, ad, b, bd = system.generators
    return OperatorExpression("A", _ZERO, (ad @ b - bd @ a).scale(_HALF), sector=1)


def observable_L_tilde(system: CoupledSusySystem) -> OperatorExpression:
    a, ad, b, bd = system.generators
    return OperatorExpression("L~", (b @ ad + a @ bd).scale(-_HALF), sector=2)


def observable_A_tilde(system: CoupledSusySystem) -> OperatorExpression:
    a, ad, b, bd = system.generators
    return OperatorExpression("A~", _ZERO, (b @ ad - a @ bd).scale(_HALF), sector=2)


def x_block(system: CoupledSusySystem, which: str) -> OperatorExpression:
    """Off-diagonal blocks of X: "12" = (a+ + b+)/sqrt(2), "21" = (a + b)/sqrt(2)."""
    a, ad, b, bd = system.generators
    if which == "12":
        re = ad + bd
    elif which == "21":
        re = a + b
    else:
        raise ValueError("block must be '12' or '21'")
    return OperatorExpression(f"X{which}", re.scale_sqrt2(-1))


def p_block(system: CoupledSusySystem, which: str) -> OperatorExpression:
    """Off-diagonal blocks of P: "12" = -i(a+ - b+)/sqrt(2), "21" = -i(-a + b)/sqrt(2)."""
    a, ad, b, bd = system.generators
    if which == "12":
        im = bd - ad
    elif which == "21":
        im = a - b
    else:
        raise ValueError("block must be '12' or '21'")
    return OperatorExpression(f"P{which}", _ZERO, im.scale_sqrt2(-1))


# ---------------------------------------------------------------------------
# Exact expectation machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactMatrixElement:
    """<f | expr | g> as exact GammaVectors, bucketed by residual sqrt(2) parity.

    value = re_even + re_odd / sqrt(2) + i (im_even + im_odd / sqrt(2)).
    """

    re_even: GammaVector
    re_odd: GammaVector
    im_even: GammaVector
    im_odd: GammaVector

    @property
    def is_exactly_zero(self) -> bool:
        return all(
            v.is_zero for v in (self.re_even, self.re_odd, self.im_even, self.im_odd)
        )

    @property
    def imag_exactly_zero(self) -> bool:
        return self.im_even.is_zero and self.im_odd.is_zero

    def value(self, precision: float = 1e-14) -> complex:
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        re = evaluate_gamma_vector(self.re_even, precision)
        re += inv_sqrt2 * evaluate_gamma_vector(self.re_odd, precision)
        im = evaluate_gamma_vector(self.im_even, precision)
        im += inv_sqrt2 * evaluate_gamma_vector(self.im_odd, precision)
        return complex(re, im)


def matrix_element(
    system: CoupledSusySystem,
    expr: OperatorExpression,
    f: GaussPolyState,
    g: GaussPolyState,
) -> ExactMatrixElement:
    """Assemble <f | expr | g> exactly: one apply and one inner product per part."""
    if f.n != system.n or g.n != system.n:
        raise FamilyMismatchError("states and system belong to different families")
    buckets = []
    for part in (expr.re, expr.im):
        even = odd = GammaVector(f.n, {})
        if not part.is_zero:
            image = part.apply(g)
            if (f.half_power + image.half_power) % 2 != 0:
                # multiply the image by sqrt(2) and divide it back out in the odd bucket
                odd = inner_product(f, image.scale_sqrt2(1))
            else:
                even = inner_product(f, image)
        buckets += [even, odd]
    return ExactMatrixElement(*buckets)


def _as_state(state) -> GaussPolyState:
    if isinstance(state, EigenstateRecord):
        return state.state
    return state


def _sector_residues(system: CoupledSusySystem, sector: int) -> set:
    n = system.n
    mod = 2 * n
    if sector == 1:
        return {0, (2 * n - 1) % mod}
    return {n % mod, (n - 1) % mod}


def _guard_sector(system, expr, state):
    if expr.sector is None:
        return
    allowed = _sector_residues(system, expr.sector)
    if not state.residues() <= allowed:
        raise SectorDomainError(
            f"state residues {sorted(state.residues())} lie outside the "
            f"sector-{expr.sector} classes {sorted(allowed)}"
        )


def expectation_exact(system, expr, state) -> ExactMatrixElement:
    """Unnormalised <state | expr | state> as exact data."""
    state = _as_state(state)
    _guard_sector(system, expr, state)
    return matrix_element(system, expr, state, state)


def _norm_sq(state, precision: float) -> tuple:
    """(||state||^2, its float): a record's exact norm_sq, else one inner product."""
    exact = state.norm_sq if isinstance(state, EigenstateRecord) else inner_product(state, state)
    return exact, evaluate_gamma_vector(exact, precision)


def _over_norm(element: ExactMatrixElement, norm: tuple, precision: float) -> tuple:
    """Floats (value, norm) for element / ||state||^2, or the exact ratio and 1.0 where one overflows.

    The ratio needs every bucket on the norm's Gamma symbol, as for tower states.
    """
    exact, norm_value = norm
    value = element.value(precision)
    if math.isfinite(norm_value) and cmath.isfinite(value):
        return value, norm_value
    ratio = _exact_ratio(element, exact)
    return (value, norm_value) if ratio is None else (ratio, 1.0)


def _exact_ratio(element: ExactMatrixElement, exact: GammaVector):
    """element / exact from the buckets' rational ratios, or None if one has none."""
    buckets = (element.re_even, element.re_odd, element.im_even, element.im_odd)
    ratios = [v.rational_ratio(exact) for v in buckets]
    if None in ratios:
        return None
    re_even, re_odd, im_even, im_odd = map(float, ratios)
    return complex(re_even + re_odd / math.sqrt(2.0), im_even + im_odd / math.sqrt(2.0))


def _guarded(system, expr, state, precision: float):
    """(bare state, its squared norm) once the state passes expr's sector guard."""
    bare = _as_state(state)
    _guard_sector(system, expr, bare)
    return bare, _norm_sq(state, precision)


def _mean(system, expr, state, norm: tuple, precision: float) -> complex:
    value, norm_value = _over_norm(matrix_element(system, expr, state, state), norm, precision)
    return value / norm_value


def _variance(system, expr, state, norm: tuple, precision: float) -> float:
    mean = _mean(system, expr, state, norm, precision)
    second = _mean(system, expr.compose(expr), state, norm, precision)
    var = second.real - abs(mean) ** 2
    return max(var, 0.0)


def expectation(system, expr, state, precision: float = 1e-14) -> complex:
    """Normalised expectation <expr> on the given state or record."""
    return _mean(system, expr, *_guarded(system, expr, state, precision), precision)


def variance(system, expr, state, precision: float = 1e-14) -> float:
    return _variance(system, expr, *_guarded(system, expr, state, precision), precision)


def sigma(system, expr, state, precision: float = 1e-14) -> float:
    return math.sqrt(variance(system, expr, state, precision))


# ---------------------------------------------------------------------------
# Uncertainty products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertaintyResult:
    pair: str
    sigma1: float
    sigma2: float
    product: float
    bound: float
    passed: bool
    details: dict = field(default_factory=dict)

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


def _holds(product: float, bound: float, tolerance: float) -> bool:
    """product >= bound - tolerance for a finite product and bound; inf >= inf proves nothing."""
    return math.isfinite(product) and math.isfinite(bound) and product >= bound - tolerance


def _sector_product(system, state, sector: int, tolerance: float) -> UncertaintyResult:
    """sigma_L sigma_A of one sector against its Robertson bound.

    The closed form is (d-g)|2<N> - c|/4 with N = a+a, c = gamma in the
    first sector and N = aa+, c = delta in the second.  The state's norm is
    evaluated once, for all six expectations.
    """
    a, ad = system.generators[:2]
    if sector == 1:
        pair, obs_l, obs_a = "L,A", observable_L(system), observable_A(system)
        number_op, offset = OperatorExpression("a+a", ad @ a, sector=1), system.gamma
    else:
        pair, obs_l, obs_a = "L~,A~", observable_L_tilde(system), observable_A_tilde(system)
        number_op, offset = OperatorExpression("aa+", a @ ad, sector=2), system.delta
    precision = 1e-14
    state, norm = _guarded(system, obs_l, state, precision)
    s_l = math.sqrt(_variance(system, obs_l, state, norm, precision))
    s_a = math.sqrt(_variance(system, obs_a, state, norm, precision))
    comm_value = _mean(system, obs_l.commutator_with(obs_a), state, norm, precision)
    bound = 0.5 * abs(comm_value)
    number = _mean(system, number_op, state, norm, precision).real
    closed_form = float(system.spacing) / 4 * abs(2 * number - float(offset))
    product = s_l * s_a
    return UncertaintyResult(
        pair=pair,
        sigma1=s_l,
        sigma2=s_a,
        product=product,
        bound=bound,
        passed=_holds(product, bound, tolerance),
        details={"mean_number": number, "bound_closed_form": closed_form},
    )


def uncertainty_product_LA(system, state, tolerance: float = 1e-12) -> UncertaintyResult:
    """sigma_L sigma_A against the Robertson bound (d-g)|2<a+a> - gamma|/4."""
    return _sector_product(system, state, 1, tolerance)


def uncertainty_product_tilde(system, state, tolerance: float = 1e-12) -> UncertaintyResult:
    """sigma_L~ sigma_A~ against (d-g)|2<aa+> - delta|/4 (minimised by phi~ level 0)."""
    return _sector_product(system, state, 2, tolerance)


@dataclass(frozen=True)
class DirectSumState:
    """A normalised two-component state (sqrt(w1) psi1/|psi1|, sqrt(w2) psi2/|psi2|).

    Components are stored unnormalised, as bare states or as
    EigenstateRecords (which bring their exact norm_sq); w1 and w2 are the
    exact squared weights and must sum to one.  A missing component
    requires weight zero.
    """

    component1: GaussPolyState | EigenstateRecord | None
    component2: GaussPolyState | EigenstateRecord | None
    weight1: Fraction
    weight2: Fraction

    def __post_init__(self):
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


def _xp_guard(system, components):
    c1, c2 = components
    if c1 is not None and not c1.residues() <= _sector_residues(system, 1):
        raise SectorDomainError("component 1 lies outside the first-sector classes")
    if c2 is not None and not c2.residues() <= _sector_residues(system, 2):
        raise SectorDomainError("component 2 lies outside the second-sector classes")


def _cross_over_norms(elements, norms, w1w2: float, fallback: complex) -> complex:
    """sqrt(w1 w2) (cross / ||c1||^2) sqrt(||c1||^2 / ||c2||^2), both ratios exact.

    For cross terms whose float or whose norms' product overflows; fallback
    where a ratio is not rational (the parts lie on different Gamma symbols).
    """
    exact1, exact2 = norms[0][0], norms[1][0]
    parts = [_exact_ratio(e, exact1) for e in elements]
    norm_ratio = exact1.rational_ratio(exact2)
    if None in parts or norm_ratio is None:
        return fallback
    return math.sqrt(w1w2 * float(norm_ratio)) * (parts[0] + parts[1])


def _block_expectations(system, upper, lower, dstate, components, norms, precision):
    """(<Psi|Op|Psi>, <Psi|Op^2|Psi>) for Op with the given off-diagonal blocks."""
    w1, w2 = float(dstate.weight1), float(dstate.weight2)
    c1, c2 = components
    mean = 0.0 + 0.0j
    if c1 is not None and c2 is not None:
        elements = matrix_element(system, upper, c1, c2), matrix_element(system, lower, c2, c1)
        cross = elements[0].value(precision) + elements[1].value(precision)
        norm_product = norms[0][1] * norms[1][1]
        mean = math.sqrt(w1 * w2 / norm_product) * cross
        if not (math.isfinite(norm_product) and cmath.isfinite(cross)):
            mean = _cross_over_norms(elements, norms, w1 * w2, mean)
    second = 0.0
    if c1 is not None:
        sq11, norm1_sq = _over_norm(matrix_element(system, upper.compose(lower), c1, c1), norms[0], precision)
        second += w1 * sq11.real / norm1_sq
    if c2 is not None:
        sq22, norm2_sq = _over_norm(matrix_element(system, lower.compose(upper), c2, c2), norms[1], precision)
        second += w2 * sq22.real / norm2_sq
    return mean, second


def uncertainty_product_XP(system, dstate: DirectSumState, tolerance: float = 1e-12,
                           precision: float = 1e-14) -> UncertaintyResult:
    """sigma_X sigma_P on a direct-sum state, with the exact Robertson bound.

    The commutator [X, P] is block diagonal and acts as -gamma on the first
    component and delta on the second, so the per-state bound is the convex
    combination (|gamma| w1 + delta w2)/2; the global minimum over states is
    min(|gamma|, delta)/2.
    """
    given = (dstate.component1, dstate.component2)
    c1, c2 = components = tuple(map(_as_state, given))  # _as_state(None) is None
    _xp_guard(system, components)
    norms = tuple(None if c is None else _norm_sq(c, precision) for c in given)
    x12, x21 = x_block(system, "12"), x_block(system, "21")
    p12, p21 = p_block(system, "12"), p_block(system, "21")
    mean_x, second_x = _block_expectations(system, x12, x21, dstate, components, norms, precision)
    mean_p, second_p = _block_expectations(system, p12, p21, dstate, components, norms, precision)
    var_x = max(second_x - abs(mean_x) ** 2, 0.0)
    var_p = max(second_p - abs(mean_p) ** 2, 0.0)
    s_x, s_p = math.sqrt(var_x), math.sqrt(var_p)
    product = s_x * s_p
    # Robertson bound from the block commutators, evaluated per component.
    comm11 = x12.compose(p21).minus(p12.compose(x21))
    comm22 = x21.compose(p12).minus(p21.compose(x12))
    comm_total = 0.0 + 0.0j
    for weight, comm, c, norm in zip((dstate.weight1, dstate.weight2), (comm11, comm22), components, norms):
        if c is not None:
            value, norm_value = _over_norm(matrix_element(system, comm, c, c), norm, precision)
            comm_total += float(weight) * value / norm_value
    bound = 0.5 * abs(comm_total)
    convex = 0.5 * float(
        abs(system.gamma) * dstate.weight1 + system.delta * dstate.weight2
    )
    global_bound = 0.5 * float(min(abs(system.gamma), system.delta))
    return UncertaintyResult(
        pair="X,P",
        sigma1=s_x,
        sigma2=s_p,
        product=product,
        bound=bound,
        passed=_holds(product, bound, tolerance),
        details={
            "mean_x": (mean_x.real, mean_x.imag),
            "mean_p": (mean_p.real, mean_p.imag),
            "second_x": second_x,
            "second_p": second_p,
            "bound_convex_combination": convex,
            "global_bound": global_bound,
        },
    )
