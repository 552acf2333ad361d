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

Each product takes one of two routes, with the same Fractions either way.

- The table route: every component is an EigenstateRecord of its sector,
  the system's own (towers._tower_state returns it), the system is proved
  (towers._proved), and an X,P cross term is rational (the two states'
  sqrt(2) powers differ by an odd number).  There each generator is a weighted shift on
  the towers with a weight from E and delta alone, the levels are
  orthogonal, and the moments are closed forms in E_m, delta and, for the
  X,P cross terms, the two records' norm_sq ratio (_table_sector,
  _table_xp), computed in ints over the towers' one denominator with one
  Fraction built per returned value.  No operator is composed or applied.
- The composition route, for bare states and unproved systems: each
  observable is an exact real Operator composed from the system's
  generators, times 1 or i, and every moment one exact matrix element
  over the squared norm.  It lives in the _oracle module, which
  _sector_product and uncertainty_product_XP import on the first state
  the table does not serve; it is also the table's test oracle.

Either way variances and the squared bound are Fractions, `pass`
(sigma1^2 sigma2^2 >= bound^2) is exact, and floats appear only in the
result (_result), where an exactly saturated bound gives product ==
bound.  No tolerance is involved.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .calculus import Record
from .towers import EigenstateRecord, SectorLabel, _eigenvalue_ints, _proved, _tower_state


class SectorDomainError(ValueError):
    """A sector observable was evaluated on a state outside its residue classes."""


def _float(x) -> float:
    """A Fraction's float, or an interval's midpoint."""
    return float(getattr(x, "mid", x))


def _root(x) -> float:
    """sqrt of a nonnegative number; an interval's midpoint may dip below 0."""
    return math.sqrt(max(_float(x), 0.0))


def _signed_root(scale_sq, mean) -> float:
    """s mean rounded once: the root of the exact s^2 mean^2 (in ints when rational), with mean's sign."""
    if isinstance(mean, (int, Fraction)):
        (s, t), (p, q) = scale_sq.as_integer_ratio(), mean.as_integer_ratio()
        return math.copysign(math.sqrt(s * p * p / (t * q * q)), -1 if p < 0 else 1)
    return math.copysign(_root(scale_sq * mean ** 2), _float(mean))


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


def _own(system, state, sector: int) -> bool:
    """Whether the shift table serves the state in sector 1 or 2: the system is proved and the
    state is its own tower record of that sector (_tower_state returns it, or one equal to it)."""
    return (isinstance(state, EigenstateRecord) and state.sector.is_tilde == (sector == 2)
            and type(state.m) is int and state.m >= state.sector.first_level and _proved(system)
            and ((own := _tower_state(system, state.sector, state.m)) is state or own == state))


def _table_sector(system, record) -> tuple:
    """(passed, (var_L, var_A, bound^2, <N>)) of the record's sector from the shift table.

    On its tower the sector's raising and lowering words R and D are
    weighted shifts (towers._proved), so R D and D R act on level m as the
    numbers lo and hi: rho_m and rho_(m+1) untilded, E_(m-1)(E_m - delta)
    and E_m(E_(m+1) - delta) on a tilde tower, rho_m = E_m(E_m - delta).
    Levels are orthogonal, so <L> = <A> = 0, sigma_L^2 = sigma_A^2 = (lo +
    hi)/4, <[L, A]> = i(lo - hi)/2 and <N> = E_m, in ints over the towers'
    one den D (towers._eigenvalue_ints): var^2 >= bound^2 is lo hi >= 0.
    """
    m, t, (d, e) = record.m, record.sector.is_tilde, system.delta.as_integer_ratio()
    (e0, den), (e1, _), (e2, _) = (_eigenvalue_ints(system, record.sector, j) for j in (m - 1, m, m + 1))
    delta = d * (den // e)
    lo, hi = (e0 if t else e1) * (e1 - delta), (e1 if t else e2) * (e2 - delta)  # over D^2
    var = Fraction(lo + hi, 4 * den * den)
    return lo * hi >= 0, [var, var, Fraction((lo - hi) ** 2, 16 * den ** 4), Fraction(e1, den)]


def _sector_product(system, state, sector: int) -> UncertaintyResult:
    """sigma_L sigma_A of one sector against its Robertson bound.

    The closed form is (d-g)|2<N> - c|/4 with N the sector's H and c its
    shift: a+a and gamma in the first sector, aa+ and delta in the second.
    A proved system's own record reads the shift table (_table_sector);
    any other state takes the composed observables of the _oracle module
    (_oracle._composed_sector), loaded on the first such state.
    """
    if _own(system, state, sector):
        passed, (var_l, var_a, bound_sq, number) = _table_sector(system, state)
    else:
        from . import _oracle

        passed, (var_l, var_a, bound_sq, number) = _oracle._composed_sector(system, state, sector)
    number = _float(number)
    closed_form = float(system.spacing) / 4 * abs(2 * number - float(system.pairs[sector - 1].shift))
    tilde = "~" * (sector == 2)
    return _result(f"L{tilde},A{tilde}", passed, var_l, var_a, bound_sq,
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
        Record.__init__(self, *args, **kwargs)
        c1, c2 = self.component1, self.component2
        (w1, den1), (w2, den2) = self.weight1.as_integer_ratio(), self.weight2.as_integer_ratio()
        if w1 < 0 or w2 < 0 or w1 * den2 + w2 * den1 != den1 * den2:
            raise ValueError("squared weights must be nonnegative and sum to 1 exactly")
        if (w1 > 0) != (c1 is not None):
            raise ValueError("component 1 must be present iff weight1 > 0")
        if (w2 > 0) != (c2 is not None):
            raise ValueError("component 2 must be present iff weight2 > 0")
        if c1 is not None and (c1.state if isinstance(c1, EigenstateRecord) else c1).is_zero:
            raise ValueError("component 1 is the zero state")
        if c2 is not None and (c2.state if isinstance(c2, EigenstateRecord) else c2).is_zero:
            raise ValueError("component 2 is the zero state")


def direct_sum(state1, weight1, state2, weight2) -> DirectSumState:
    return DirectSumState(state1, state2, weight1 if type(weight1) is Fraction else Fraction(weight1),
                          weight2 if type(weight2) is Fraction else Fraction(weight2))


def _table_xp(system, dstate: DirectSumState) -> tuple:
    """(passed, values) of X,P from the shift table, values as _oracle._composed_xp gives them.

    Each block word is a weighted shift on the records (towers._proved): a s_i
    = s~_i, b s_i = s~_(i+1)/E_(i+1), a+ s~_j = E_j s_j and b+ s~_j = rho_j
    s_(j-1).  So with weights w1, w2, <X^2> = <P^2> = w1 (E_i + E_(i+1) -
    delta)/2 + w2 (2E_j - delta)/2, and the commutator blocks act as gamma =
    delta - (E_(i+1) - E_i) and -delta.  Only s~_i and s~_(i+1) of s_i's
    family give a cross term c, from the records' norm_sq ratio r = p/q; with
    h the states' sqrt(2) power difference, odd here (_table_serves_xp), s^2
    = 2^-h w2 / (w1 r) and mean = 2^((h-1)/2) w1 c.  E and delta are ints over
    the towers' one den D (towers._eigenvalue_ints), w1 and w2 over one den W.
    """
    one, two = dstate.component1, dstate.component2
    (w1, w), (d, e) = dstate.weight1.as_integer_ratio(), system.delta.as_integer_ratio()
    w2, second, comm, p, q, cd, cx, cp = w - w1, 0, 0, 1, 1, 1, 0, 0
    means = [(0, 0), (0, 0)]
    den = _eigenvalue_ints(system, SectorLabel.PSI, 0)[1]
    delta = d * (den // e)
    if one is not None:  # <X^2> over 2 W D, the commutator over W D
        e_i = _eigenvalue_ints(system, one.sector, one.m)[0]
        e_up = _eigenvalue_ints(system, one.sector, one.m + 1)[0]
        second, comm = w1 * (e_i + e_up - delta), w1 * (delta - e_up + e_i)
    if two is not None:
        e_j = _eigenvalue_ints(system, two.sector, two.m)[0]
        second, comm = second + w2 * (2 * e_j - delta), comm - w2 * delta
        if one is not None and two.sector.base is one.sector and two.m - one.m in (0, 1):
            # <s_i|(a+ + b+)|s~_j> / ||s_i||^2 = t and <s~_j|(a + b)|s_i> / ||s~_j||^2 = u r; P flips a sign
            p, q, _ = two.norm_sq._ratio(one.norm_sq)
            if two.m > one.m:  # t = E_j(E_j - delta) and u = 1/E_j, over cd = D^2 E_j q
                t, u, cd = e_j * e_j * (e_j - delta) * q, den ** 3 * p, den * den * e_j * q
            else:  # t = E_j and u = 1, over cd = D q
                t, u, cd = e_j * q, den * p, den * q
            cx, cp = t + u, (t - u) * (1 if two.m > one.m else -1)
            h = two.state.half_power - one.state.half_power
            k, scale_sq = (h - 1) // 2, Fraction(w2 * q << max(-h, 0), w1 * p << max(h, 0))
            means = [(scale_sq, Fraction(w1 * c << max(k, 0), w * cd << max(-k, 0))) if c else (0, 0)
                     for c in (cx, cp)]
    # var = <X^2> - s^2 mean^2 = <X^2> - w1 w2 c^2 / (2r) over 2 W D f for X and P: one int verdict
    f, cross = p * w * cd * cd, w1 * w2 * q * den
    var_x, var_p = second * f - cross * cx * cx, second * f - cross * cp * cp
    passed = var_x * var_p >= (comm * f) ** 2
    var_den, second = 2 * w * den * f, Fraction(second, 2 * w * den)
    values = Fraction(var_x, var_den) if cx else second, Fraction(var_p, var_den) if cp else second
    return passed, [*values, Fraction(comm * comm, 4 * (w * den) ** 2), *means, second, second]


def _table_serves_xp(system, dstate: DirectSumState) -> bool:
    """Whether each component is the proved system's own record of its sector (_own), and two
    components differ by an odd sqrt(2) power, so their cross terms are rational."""
    one, two = dstate.component1, dstate.component2
    return ((one is None or _own(system, one, 1)) and (two is None or _own(system, two, 2))
            and (one is None or two is None or (two.state.half_power - one.state.half_power) % 2 == 1))


def uncertainty_product_XP(system, dstate: DirectSumState) -> UncertaintyResult:
    """sigma_X sigma_P on a direct-sum state, with the exact Robertson bound.

    The commutator [X, P] is block diagonal and acts as -gamma on the first
    component and delta on the second, so the per-state bound is the convex
    combination (|gamma| w1 + delta w2)/2; the global minimum over states is
    min(|gamma|, delta)/2.  Components that are a proved system's own records
    read the shift table (_table_xp); any other state takes the composed
    blocks of the _oracle module (_oracle._composed_xp), loaded on the
    first such state.
    """
    if _table_serves_xp(system, dstate):
        route = _table_xp
    else:
        from . import _oracle

        route = _oracle._composed_xp
    passed, (var_x, var_p, bound_sq, *means, second_x, second_p) = route(system, dstate)
    (scale_x, mean_x), (scale_p, mean_p) = means
    # |gamma| w1 + delta w2 and min(|gamma|, delta) in ints; an int quotient rounds as float(Fraction) does
    (g, h), (d, e) = system.gamma.as_integer_ratio(), system.delta.as_integer_ratio()
    w1, w = dstate.weight1.as_integer_ratio()
    return _result("X,P", passed, var_x, var_p, bound_sq, {
        "mean_x": (_signed_root(scale_x, mean_x), 0.0),
        "mean_p": (0.0, _signed_root(scale_p, mean_p)),
        "second_x": _float(second_x),
        "second_p": _float(second_p),
        "bound_convex_combination": 0.5 * ((d * h * (w - w1) - g * e * w1) / (h * e * w)),
        "global_bound": 0.5 * (min(-g * e, d * h) / (h * e)),
    })
