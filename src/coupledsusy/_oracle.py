"""The unproved-system route: tower levels solved one by one, and composed observables.

A proved system (towers._proved) gets its tower records, the half-lowering
lemma and its uncertainty products from closed forms and the weighted-shift
table.  Every other input takes this route: a mutated or hand-built system,
a bare state, a record that is not the system's own.  It is also the
reference the tests compare the proved route against.  The four functions
that choose a route import this module on their first such input:
towers._tower_state, towers.verify_lemma_half_lowering,
uncertainty._sector_product and uncertainty.uncertainty_product_XP.  So a
command that only meets proved systems never compiles it.  Each observable
here is an exact real Operator composed from the generators, times 1 or i;
a state whose norm spans two Gamma symbols is decided over certified mpmath
intervals (_decide).  Quantities that vanish identically on real states,
like <A>, are still computed, so that a wrong sign in any word would show.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .calculus import (FamilyMismatchError, GammaVector, GaussPolyState, Generator, Record, apply_generator,
                       evaluate_gamma_vector_mp, inner_product)
from .systems import CoupledSusySystem, VerificationReport
from .towers import (EigenstateRecord, SectorLabel, _eigenvalue_ints, _laguerre_form, _lemma_report, _poly_at,
                     _tower_eigenvalue, _tower_state, half_lowering_factor_squared)
from .uncertainty import DirectSumState, SectorDomainError, _float


_EIGEN_FAILURE = "eigenvalue equation failed for {} m={}; system generators are inconsistent"


def _solve_level(system: CoupledSusySystem, sector: SectorLabel, m: int) -> GaussPolyState:
    """Untilded level m of an unproved system: the eigenvector of H with eigenvalue E and top
    exponent K; on a proved system it is the oracle of towers._closed_record.

    K = seed + 2nm, and H must send x^k to d(k) x^k + l(k) x^(k-2n) with
    d(K) = E and E != d(k) below K, E an int over one den (_eigenvalue_ints),
    so the whole solve runs in ints.  The top coefficient is that of R^m seed,
    prod_{i<m} u(seed + 2ni) for R's +2n polynomial u; below it
    c_k = l(k+2n) c_(k+2n) / (E - d(k)), reduced at every step.  That makes
    (H s)_k = E c_k at every exponent from the seed to K, so H s = E s is
    proved once the one term below the seed, l(seed) c_seed, is zero.
    """
    two_n = 2 * system.n
    seed = sector.residue(system.n)
    top = seed + two_n * m
    hamiltonian, raising = system.pairs[0].hamiltonian, system.pairs[0].raising  # the a+a pair
    h_den, r_den = hamiltonian.den, raising.den
    polys = dict(hamiltonian.polys)
    diag, low, up = polys.pop(0, [0]), polys.pop(-two_n, [0]), dict(raising.polys).get(two_n, [0])
    p, q = _eigenvalue_ints(system, sector, m)
    p *= h_den  # E - d(k) = (p - q D(k)) / (q h_den)
    num, den = math.prod(_poly_at(up, seed + two_n * i) for i in range(m)), r_den ** m
    if polys or hamiltonian.half_power or not num:
        raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    levels = []
    for k in range(top, seed - 1, -two_n):
        gap = p - q * _poly_at(diag, k)
        if (gap == 0) != (k == top):
            raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
        if gap:
            num, den = num * (q * _poly_at(low, k + two_n)), den * gap
        g = math.gcd(num, den)  # den may turn negative; lcm and // below keep the sign
        num, den = num // g, den // g
        levels.append((k, num, den))
    if num and _poly_at(low, seed):  # the one term H sends below the seed
        raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    common = math.lcm(*[d for _, _, d in levels])
    nums = {k: c * (common // d) for k, c, d in reversed(levels)}
    return GaussPolyState._from_ints(system.n, nums, common, m * raising.half_power)


def _laguerre_norm_sq(state: GaussPolyState) -> GammaVector:
    """<psi, psi>, from the Laguerre closed form where _laguerre_form holds, else the full product.

    psi = K x^p L_j^beta(t) exp(-t/2) with K = c_top (-1)^j j! n^j, c_top
    the top int over den 2^(w/2), so ||psi||^2 = K^2 n^beta Gamma(j+beta+1)
    / j! (DLMF 18.3).  With
    2p + 1 + 2nj = r + 2nT, r odd in 1..2n-1, n^beta Gamma(j+beta+1) =
    G_r prod_{i<T} (r + 2ni) / (2^T n^(j+1)): one symbol, the same
    GammaVector as the full product, from O(j) int steps.
    """
    form = _laguerre_form(state)
    if form is None:
        return inner_product(state, state)
    p, _, j = form
    n = state.n
    top, r = divmod(2 * p + 1 + 2 * n * j, 2 * n)
    c = state.nums[p + 2 * n * j]
    num = c * c * math.factorial(j) * n ** j * math.prod(range(r, r + 2 * n * top, 2 * n))
    return GammaVector._from_ints(n, {r: num}, n * state.den ** 2 << (top + state.half_power), 0)


def _unproved_record(system: CoupledSusySystem, sector: SectorLabel, m: int) -> EigenstateRecord:
    """Level m of a system the tower proof does not cover, for towers._tower_state to cache.

    A tilde level is a s on the base record, read back through
    towers._tower_state and refused when zero, and an untilded one the
    solved level (_solve_level), which must equal R s_(m-1) (R.apply on the
    level below); that route is the closed form's oracle."""
    if sector.is_tilde:
        state = apply_generator(system, Generator.A, _tower_state(system, sector.base, m).state)
        if state.is_zero:
            raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    else:
        state = _solve_level(system, sector, m)
        if m and system.pairs[0].raising.apply(_solve_level(system, sector, m - 1)) != state:
            raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    return EigenstateRecord(sector, m, state, _laguerre_norm_sq(state), _tower_eigenvalue(system, sector, m))


#: The lemma's cases at each level, in the order they are checked.
_LEMMA_SECTORS = (SectorLabel.PSI, SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE, SectorLabel.PHI)


def _lemma_by_level(system: CoupledSusySystem, m_max: int) -> VerificationReport:
    """The half-lowering relations checked level by level on the tower records.

    Each case applies T to the source's memoised record (_tower_state), a
    on an untilded tower and b+ on a tilde one, and compares the image's
    full product <T s, T s> with lambda^2 times the record's norm_sq.
    """
    failures = []
    checked = 0
    for m in range(0, m_max + 1):
        for sector in _LEMMA_SECTORS:
            if m == 0 and sector is not SectorLabel.PHI:
                continue  # a psi_0 and b+ phi~_0 vanish, and psi~_0 is no state
            source = _tower_state(system, sector, m)
            lowering = Generator.BDAG if sector.is_tilde else Generator.A
            image = apply_generator(system, lowering, source.state)
            lamsq = half_lowering_factor_squared(system, sector, m)
            checked += 1
            if inner_product(image, image) != source.norm_sq.scale(lamsq):
                failures.append({"sector": sector.value, "m": m})
    return _lemma_report(system, m_max, failures, checked)


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


def _composed_sector(system, state, sector: int) -> tuple:
    """(passed, (var_L, var_A, bound^2, <N>)) from the composed observables, six expectations
    over one norm."""
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

    return _decide(formula)


def _xp_component(system, sector: int, given, weight, half: int):
    """(the state at sqrt(2) half power `half`, its squared norm / weight), or (None, None) if absent.

    With the first-sector state at 0 and the tilde state at X12's half power, every block
    matrix element between them has an even total, whatever the states' own sqrt(2) powers.
    """
    if given is None:
        return None, None
    state = _as_state(given)
    _guard_sector(system, sector, state)
    shift = state.half_power - half
    return state.scale_sqrt2(shift), _norm_sq(given).scale(Fraction(2) ** shift / Fraction(weight))


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


def _composed_xp(system, dstate: DirectSumState) -> tuple:
    """(passed, values) of X,P from the composed blocks, one matrix element per block and component."""
    x12, x21 = x_block(system, "12"), x_block(system, "21")
    p12, p21 = p_block(system, "12"), p_block(system, "21")
    components, norms = zip(_xp_component(system, 1, dstate.component1, dstate.weight1, 0),
                            _xp_component(system, 2, dstate.component2, dstate.weight2, x12.op.half_power))
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

    passed, values = _decide(formula)  # signed squares s^2 mean^2 after the verdict: at iv's restored precision
    values[3:5] = [-s * m ** 2 if math.copysign(1, _float(m)) < 0 else s * m ** 2 for s, m in values[3:5]]
    return passed, values
