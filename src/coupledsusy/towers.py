"""Eigenstate towers of the coupled SUSY Hamiltonians.

Four families of eigenfunctions are generated from two ground states:

    PSI        ker a,            a+a eigenvalue m(delta-gamma)
    PHI        ker b+a \\ ker a,  a+a eigenvalue m(delta-gamma) + delta
    PSI_TILDE  a . PSI (m >= 1), aa+ eigenvalue m(delta-gamma)
    PHI_TILDE  a . PHI,          aa+ eigenvalue m(delta-gamma) + delta

H and its ladder words are read from the pair table, system.pairs[is_tilde].
The raising word R = a+b raises m by one inside each untilded family, so a
level-m state is R^m applied to the ground state.  It is solved directly:
H = a+a sends x^k to d(k) x^k + l(k) x^(k-2n), so the eigenvector follows
top-down from the top coefficient of R^m, and R must send level m-1 onto
it.  A tilde state is a applied to its partner.  States are kept
unnormalised with their exact squared norm attached; normalisation only
happens at numeric export, because the norms are irrational Gamma values.

The norm takes O(m) exact steps rather than a product over all term
pairs.  Where H (a+a, or aa+ for a tilde state) provably pairs
symmetrically, a level-m state psi is orthogonal to every lower monomial
of its chain, so ||psi||^2 = c_top <x^top, psi>: one pairing against the
top term (see _norm_sq for the proof and its conditions).  Any state the
proof does not cover gets the full product <psi, psi>.

For the x^n family the kernels of a and b+ on smooth whole-line states are
one dimensional (exp(-x^(2n)/(2n)) and x^(n-1) exp(-x^(2n)/(2n))), so the
tower index sets are singletons.  SectorLabel holds the only per-sector
facts: partner (base, is_tilde), first level (1 for PSI_TILDE, else 0) and
the residue class mod 2n of every exponent (0 for PSI, 2n-1 for PHI, and a
shifts it by n: n for PSI_TILDE, n-1 for PHI_TILDE).  Every other constant
is a formula over these and the tower eigenvalue E.

Every level is a closed form: with t = x^(2n)/n, a level-m state is a
constant times x^p L_j^beta(t) exp(-t/2), L the generalized Laguerre
polynomial, and its squared norm that constant squared times
n^beta Gamma(j+beta+1) / j!, where

    p = residue,   beta = (2p + 1 - 2n) / (2n),   j = m - first level.

Numeric samples come from the Laguerre recurrence (normalized_samples);
the exact state only fixes the sign and is checked against the closed form.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum
from fractions import Fraction

from .calculus import (
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Generator,
    Record,
    apply_generator,
    inner_product,
    proportionality_ratio,
)
from .systems import CoupledSusySystem, VerificationReport


class SectorLabel(Enum):
    """The four towers: the only per-sector facts; every other constant derives from them."""

    PSI = "psi"
    PHI = "phi"
    PSI_TILDE = "psi~"
    PHI_TILDE = "phi~"

    @property
    def is_tilde(self) -> bool:
        return self in (SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE)

    @property
    def base(self) -> "SectorLabel":
        if self is SectorLabel.PSI_TILDE:
            return SectorLabel.PSI
        if self is SectorLabel.PHI_TILDE:
            return SectorLabel.PHI
        return self

    @property
    def first_level(self) -> int:
        """The lowest level of the tower: 1 for PSI_TILDE, as a annihilates the PSI ground state."""
        return int(self is SectorLabel.PSI_TILDE)

    def residue(self, n: int) -> int:
        """The class mod 2n of every exponent: 0 or 2n-1 for the ground states, a shifts it by n."""
        return ((2 * n - 1) * (self.base is SectorLabel.PHI) + n * self.is_tilde) % (2 * n)


class EigenstateRecord(Record):
    """An unnormalised exact eigenstate with its norm and eigenvalue.

    Untilded records are eigenstates of a+a, tilde records of aa+; both
    carry the same eigenvalue ladder m(delta-gamma) / m(delta-gamma)+delta.
    """

    __slots__ = _fields = ("sector", "m", "state", "norm_sq", "eigenvalue")

    def __init__(self, sector: SectorLabel, m: int, state: GaussPolyState, norm_sq: GammaVector,
                 eigenvalue: Fraction):
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "norm_sq", norm_sq)
        object.__setattr__(self, "eigenvalue", eigenvalue)

    def to_json_dict(self) -> dict:
        """ValueError once an int passes the int-to-text digit limit (n = 1: from level 800)."""
        return {
            "sector": self.sector.value,
            "m": self.m,
            "n": self.state.n,
            "eigenvalue": f"{self.eigenvalue.numerator}/{self.eigenvalue.denominator}",
            "state": self.state.serialize(),
            "norm_sq": self.norm_sq.serialize(),
        }


_EIGEN_FAILURE = "eigenvalue equation failed for {} m={}; system generators are inconsistent"


def tower_eigenvalue(system: CoupledSusySystem, sector: SectorLabel, m: int) -> Fraction:
    base = m * system.spacing
    if sector.base is SectorLabel.PHI:
        base += system.delta
    return Fraction(base)


def _poly_at(poly, k: int) -> int:
    value = 0
    for c in reversed(poly):
        value = value * k + c
    return value


@functools.lru_cache(maxsize=4096)
def _solve_level(system: CoupledSusySystem, sector: SectorLabel, m: int) -> GaussPolyState:
    """Untilded level m: the eigenvector of H with eigenvalue E and top exponent K.

    K = seed + 2nm, and H must send x^k to d(k) x^k + l(k) x^(k-2n) with
    d(K) = E and E != d(k) below K.  The top coefficient is that of R^m seed,
    prod_{i<m} u(seed + 2ni) for R's +2n polynomial u; below it
    c_k = l(k+2n) c_(k+2n) / (E - d(k)), reduced at every step.
    """
    two_n = 2 * system.n
    seed = sector.residue(system.n)
    top = seed + two_n * m
    hamiltonian, raising = system.pairs[0].hamiltonian, system.pairs[0].raising  # the a+a pair
    h_den, r_den = hamiltonian.den, raising.den
    polys = dict(hamiltonian.polys)
    diag, low, up = polys.pop(0, [0]), polys.pop(-two_n, [0]), dict(raising.polys).get(two_n, [0])
    value = tower_eigenvalue(system, sector, m)
    p, q = value.numerator * h_den, value.denominator  # E - d(k) = (p - q D(k)) / (q h_den)
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
    common = math.lcm(*[d for _, _, d in levels])
    nums = {k: c * (common // d) for k, c, d in reversed(levels) if c}
    return GaussPolyState._from_ints(system.n, nums, common, m * raising.half_power)


@functools.lru_cache(maxsize=64)
def _symmetric_diagonal(system: CoupledSusySystem, tilde: bool):
    """(den, d) for H = aa+ (tilde) or a+a if H pairs monomials symmetrically, else None.

    H must send x^k to (d(k) x^k + l(k) x^(k-2n)) / den with int
    polynomials d, l and half power 0.  A pairing's weight exp(-x^(2n)/n)
    gives mu(s) = (s-2n+1)/2 mu(s-2n) for mu(s) = <x^s, 1>, so
    <x^i, H x^j> = <H x^i, x^j> for all i + j >= 2n if

        (d(j) - d(i)) (i + j - 2n + 1) + 2 (l(j) - l(i)) = 0.

    The residual has degree at most N = max(len d, len l) in each of i and
    j, so it is identically zero iff it vanishes on (N+1)^2 points.  Its
    i j^a coefficient for a >= 2 is that of k^a in d, so a symmetric d is affine.
    """
    hamiltonian = system.pairs[tilde].hamiltonian
    two_n = 2 * system.n
    den, polys = hamiltonian.den, dict(hamiltonian.polys)
    diag, low = polys.pop(0, [0]), polys.pop(-two_n, [0])
    if polys or hamiltonian.half_power:
        return None
    points = range(max(len(diag), len(low)) + 1)
    for i in points:
        for j in points:
            residual = (_poly_at(diag, j) - _poly_at(diag, i)) * (i + j - two_n + 1)
            if residual + 2 * (_poly_at(low, j) - _poly_at(low, i)):
                return None
    return den, diag


def _norm_sq(
    system: CoupledSusySystem, sector: SectorLabel, state: GaussPolyState, value: Fraction
) -> GammaVector:
    """<psi, psi> for a nonzero psi with H psi = value psi, already checked exactly.

    Let H pair symmetrically (_symmetric_diagonal), psi = sum c_k x^k have
    exponents from bottom >= 0 to top, and value != d(k) at every k =
    bottom, bottom+2n, ... below top.  Then ||psi||^2 = c_top <x^top, psi>,
    the same GammaVector as the full product, from O(m) term pairs:

    * psi lies in one residue class mod 2n.  H keeps the classes apart, so
      each class part is an eigenvector whose top t has d(t) = value; d is
      affine, so two such tops would make d constant and the gaps zero.
    * At each k of the chain, value <x^k, psi> = <x^k, H psi> = <H x^k, psi>,
      so (value - d(k)) <x^k, psi> = l(k) <x^(k-2n), psi>; every pairing
      converges, and the symmetry covers it since distinct exponents of
      one class sum to at least 2n.  l(bottom) = 0, as l(bottom) c_bottom
      is the x^(bottom-2n) coefficient of H psi = value psi, so induction
      upwards from bottom gives <x^k, psi> = 0 for every k below top.

    Any other state gets the full product <psi, psi>.
    """
    proof = _symmetric_diagonal(system, sector.is_tilde)
    top, bottom = max(state.nums), min(state.nums)
    if proof is not None and bottom >= 0:
        den, diag = proof
        p, q = value.numerator * den, value.denominator  # value - d(k) = (p - q D(k)) / (q den)
        if all(p != q * _poly_at(diag, k) for k in range(bottom, top, 2 * state.n)):
            lead = GaussPolyState._from_ints(state.n, {top: state.nums[top]}, state.den, state.half_power)
            return inner_product(lead, state)
    return inner_product(state, state)


@functools.lru_cache(maxsize=4096)
def _tower_state(system: CoupledSusySystem, sector: SectorLabel, m: int) -> GaussPolyState:
    if sector.is_tilde:
        return apply_generator(system, Generator.A, _tower_state(system, sector.base, m))
    state = _solve_level(system, sector, m)
    if m and system.pairs[0].raising.apply(_solve_level(system, sector, m - 1)) != state:
        raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    return state


def eigenstate(system: CoupledSusySystem, sector: SectorLabel, m: int) -> EigenstateRecord:
    """Level-m eigenstate record of the given tower.

    PSI_TILDE requires m >= 1 because a annihilates the PSI ground state.
    The eigenvalue equation is re-verified exactly on construction; a zero state fails it.
    Once it holds, norm_sq is the single top pairing c_top <x^top, psi>
    where the symmetry of H proves the lower pairings vanish (_norm_sq),
    and the full product <psi, psi> otherwise; both are exact and equal.
    """
    if m < 0:
        raise ValueError("tower level m must be nonnegative")
    if m < sector.first_level:
        raise ValueError("the tilde image of the PSI ground state vanishes (m >= 1)")
    state = _tower_state(system, sector, m)
    value = tower_eigenvalue(system, sector, m)
    if state.is_zero or system.pairs[sector.is_tilde].hamiltonian.apply(state) != state.scale(value):
        raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    return EigenstateRecord(
        sector=sector,
        m=m,
        state=state,
        norm_sq=_norm_sq(system, sector, state, value),
        eigenvalue=value,
    )


def ground_states(system: CoupledSusySystem):
    """The two unnormalised ground states (PSI level 0, PHI level 0).

    Construction checks that a annihilates the first, and that the lowering
    word b+a (but not a itself) annihilates the second.
    """
    psi0 = eigenstate(system, SectorLabel.PSI, 0)
    phi0 = eigenstate(system, SectorLabel.PHI, 0)
    if not apply_generator(system, Generator.A, psi0.state).is_zero:
        raise RuntimeError("PSI ground state is not annihilated by a")
    if not system.pairs[0].lowering.apply(phi0.state).is_zero:
        raise RuntimeError("PHI ground state is not annihilated by b+a")
    if apply_generator(system, Generator.A, phi0.state).is_zero:
        raise RuntimeError("PHI ground state must not lie in ker a")
    return psi0, phi0


def merged_spectrum(system: CoupledSusySystem, count: int):
    """Lowest `count` eigenvalues of a+a from both towers, ascending."""
    sectors = (SectorLabel.PSI, SectorLabel.PHI)
    return sorted(tower_eigenvalue(system, s, m) for m in range(count) for s in sectors)[:count]


# ---------------------------------------------------------------------------
# Ladder coefficient checks
# ---------------------------------------------------------------------------


def half_lowering_factor_squared(
    system: CoupledSusySystem, sector: SectorLabel, m: int
) -> Fraction:
    """Exact lambda^2 in a psi_m = lambda psi~_m (and companions).

    Applying a to a normalised level-m untilded state, or b+ to a tilde one,
    lands on the normalised partner state times sqrt of its squared norm:
    ||a psi_m||^2 = <psi, a+a psi> = E, and ||b+ psi~_m||^2 = <psi~, (aa+ -
    delta) psi~> = E - delta, with E = tower_eigenvalue(sector, m).
    """
    return tower_eigenvalue(system, sector, m) - system.delta * sector.is_tilde


#: The lemma's cases at each level, in the order they are checked.
_LEMMA_SECTORS = (SectorLabel.PSI, SectorLabel.PSI_TILDE, SectorLabel.PHI_TILDE, SectorLabel.PHI)
#: a maps level m of an untilded tower onto level m of its tilde partner.
_A_IMAGE = {SectorLabel.PSI: SectorLabel.PSI_TILDE, SectorLabel.PHI: SectorLabel.PHI_TILDE}


def verify_lemma_half_lowering(system: CoupledSusySystem, m_max: int) -> VerificationReport:
    """Exact check of the four half-lowering norm relations up to level m_max.

    Each relation is verified without division: for unnormalised states,
    <T s, T s> must equal lambda^2 <s, s> as identical GammaVectors, with T =
    b+ on a tilde tower and a on an untilded one (levels m >= 1, and PHI
    from m = 0).  The norms are keyed by (sector, level), and every tower
    state's norm is the full product <s, s>, computed once.  The image a psi_m
    is the tower state psi~_m (a phi_m is phi~_m), so its norm is that
    state's.  The image b+ psi~_m is an exact multiple q 2^(j/2) psi_(m-1) of
    the level below, checked termwise by proportionality_ratio, so its norm
    is q^2 2^j <psi_(m-1), psi_(m-1)>, the same GammaVector as its full
    product; an image with no such ratio gets the full product.  lambda^2 is
    affine in m: its level-0 value plus m times the spacing.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    norms: dict = {}  # (sector, level) -> <state, state>

    def norm_sq(sector: SectorLabel, level: int) -> GammaVector:
        if (sector, level) not in norms:
            state = _tower_state(system, sector, level)
            norms[sector, level] = inner_product(state, state)
        return norms[sector, level]

    lamsq = {sector: half_lowering_factor_squared(system, sector, 0) for sector in _LEMMA_SECTORS}
    failures = []
    checked = 0
    for m in range(0, m_max + 1):
        step = m * system.spacing
        for sector in _LEMMA_SECTORS:
            if m == 0 and sector is not SectorLabel.PHI:
                continue  # a psi_0 and b+ phi~_0 vanish, and psi~_0 is no state
            if sector.is_tilde:  # b+ lowers to level m-1 of the partner tower
                image = apply_generator(system, Generator.BDAG, _tower_state(system, sector, m))
                source_norm = norm_sq(sector, m)
                ratio = proportionality_ratio(image, _tower_state(system, sector.base, m - 1))
                if ratio is None:
                    lhs = inner_product(image, image)
                else:
                    q, j = ratio
                    lhs = norm_sq(sector.base, m - 1).scale(q * q * Fraction(2) ** j)
            else:
                source_norm = norm_sq(sector, m)
                lhs = norm_sq(_A_IMAGE[sector], m)
            checked += 1
            if lhs != source_norm.scale(lamsq[sector] + step):
                failures.append({"sector": sector.value, "m": m})
    return VerificationReport(
        identity="half-lowering norm relations",
        n=system.n,
        k_range=(0, m_max),
        passed=not failures,
        first_failure=failures[0] if failures else None,
        checked=checked,
        note=(
            "lambda^2 values: m(d-g) for PSI and PHI_TILDE, m(d-g)+delta for "
            "PHI, m(d-g)-delta for PSI_TILDE"
        ),
    )


def gram_matrix(records) -> list:
    """Exact pairwise inner products of the given records: one triangle, mirrored, as <b, a> = <a, b>."""
    records = list(records)
    if len({r.state.n for r in records}) > 1:
        raise FamilyMismatchError("records belong to different families")
    rows = [[None] * len(records) for _ in records]
    for i, a in enumerate(records):
        for j in range(i, len(records)):
            rows[i][j] = rows[j][i] = inner_product(a.state, records[j].state)
    return rows


def _laguerre_parameters(record: EigenstateRecord):
    """(p, a, j) with the record's state a constant times x^p L_j^beta(t) exp(-t/2), beta = a/(2n).

    Checked exactly against the record: its lowest exponent is p, its top
    exponent p + 2nj, and the ratio of the two coefficients is that of the
    Laguerre polynomial, (-1)^j / (n^j prod_{i=1..j} (i + beta)), that is
    c_top prod_{i=1..j} (2ni + a) = (-2)^j c_p.  Any other state raises
    RuntimeError.
    """
    n, nums = record.state.n, record.state.nums
    p, j = record.sector.residue(n), record.m - record.sector.first_level
    a = 2 * p + 1 - 2 * n
    top = p + 2 * n * j
    if (
        j < 0
        or min(nums, default=None) != p
        or max(nums) != top
        or nums[top] * math.prod(2 * n * i + a for i in range(1, j + 1)) != (-2) ** j * nums[p]
    ):
        raise RuntimeError(f"{record.sector.value} level {record.m} is not the closed form x^{p} L_{j}")
    return p, a, j


_T_CAP = 1e200  # exp(-t/2) is 0 in floats long before t reaches it, at any level
_GROWTH_LIMIT = 1e300


def _libm(fn, values):
    """fn at each value, through libm: numpy's SIMD power, log and exp can differ from it by an ulp."""
    import numpy as np

    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _sampling_plan(record: EigenstateRecord, points: list):
    """What both sampling routes share, for a flat list of float points.

    Returns t and the log scale at each point, in plain floats with
    x^(2n) and log from libm; the recurrence schedule, one (alpha_i,
    gamma_i, rescale) per step, rescale marking the steps before which the
    bound on P would pass _GROWTH_LIMIT; and the sign rule (negate every
    value, negate where x < 0).
    """
    p, a, j = _laguerre_parameters(record)
    n = record.state.n
    beta = a / (2 * n)
    power = float(2 * n)
    # t is at the cap from this bound on, so x = +-inf samples 0, and the power stays finite
    x_cap = (n * _T_CAP) ** (1 / (2 * n)) * (1 + 1 / n)
    log_norm = 0.5 * (math.lgamma(j + 1) + math.lgamma(j + beta + 1) + beta * math.log(n))
    axs = [x_cap if ax > x_cap else ax for ax in map(abs, points)]  # min(|x|, x_cap), NaN kept
    ts = [_T_CAP if t > _T_CAP else t for t in [ax ** power / n for ax in axs]]
    if p:
        log, inf = math.log, math.inf
        scales = [-0.5 * t + p * (log(ax) if ax != 0 else -inf) - log_norm for t, ax in zip(ts, axs)]
    else:
        scales = [-0.5 * t - log_norm for t in ts]
    t_max = max([t for t in ts if t == t], default=0.0)  # a NaN x leaves the bound alone
    schedule, bound = [], 1.0
    for i in range(j):
        alpha, gamma = 2 * i + 1 + beta, i * (i + beta)
        growth = t_max + alpha + gamma  # |P_(i+1)| <= growth * max(|P_i|, |P_(i-1)|)
        rescale = bound * growth > _GROWTH_LIMIT
        schedule.append((alpha, gamma, rescale))
        bound = growth if rescale else bound * growth
    negate = (record.state.nums[p] < 0) != (j % 2 == 1)  # P_j carries (-1)^j
    return ts, scales, schedule, negate, p % 2 == 1


def _array_samples(record: EigenstateRecord, xs):
    """The recurrence vectorised over a numpy array of any shape; an array of that shape."""
    import numpy as np

    x = np.asarray(xs, dtype=float)
    ts, scales, schedule, negate, odd = _sampling_plan(record, x.ravel().tolist())
    t, log_scale = np.array(ts).reshape(x.shape), np.array(scales).reshape(x.shape)
    prev, cur = np.zeros_like(t), np.ones_like(t)
    for alpha, gamma, rescale in schedule:
        if rescale:
            peak = np.maximum(np.abs(prev), np.abs(cur))
            peak = np.where(peak > 0, peak, 1.0)
            prev, cur = prev / peak, cur / peak
            log_scale += _libm(math.log, peak)
        prev, cur = cur, (t - alpha) * cur - gamma * prev
    values = cur * _libm(math.exp, log_scale)
    if negate:
        values = -values
    return np.where(x < 0, -values, values) if odd else values


def normalized_samples(record: EigenstateRecord, xs):
    """Values of the L2-normalised eigenfunction on the grid xs.

    The state is the closed form x^p L_j^beta(t) exp(-t/2), t = x^(2n)/n
    (_laguerre_parameters), with squared norm n^beta Gamma(j+beta+1) / j!.
    P_i = (-1)^i i! L_i^beta(t) runs the three-term recurrence

        P_(i+1) = (t - 2i - 1 - beta) P_i - i (i + beta) P_(i-1).

    The weight, x^p and the norm ride along as a log scale per point, and
    P is divided back to at most 1 (its log added to the scale) before a
    bound on its growth could pass 1e300, so every finite grid gives
    finite values.  x^(2n), the logs and exp are taken from libm point by
    point, so the values do not depend on the CPU that numpy dispatches
    to.  The sign is that of the record's lowest coefficient; no Gamma
    value is evaluated.

    The route follows the type of xs.  A numpy array runs the recurrence
    vectorised over the array and returns an array of its shape; any
    other sequence of floats runs it point by point in plain floats and
    returns a list, without importing numpy.  Both routes share t, the
    log scale, the rescale schedule and the sign rule (_sampling_plan),
    and do the same correctly rounded operations in the same order, so
    their values are the same bits.
    """
    numpy = sys.modules.get("numpy")  # an ndarray means numpy is already loaded
    if numpy is not None and isinstance(xs, numpy.ndarray):
        return _array_samples(record, xs)
    points = [float(x) for x in xs]
    ts, scales, schedule, negate, odd = _sampling_plan(record, points)
    values = []
    for x, t, scale in zip(points, ts, scales):
        prev, cur = 0.0, 1.0
        for alpha, gamma, rescale in schedule:
            if rescale:
                peak = max(abs(cur), abs(prev))  # NaN when cur is, as with np.maximum
                peak = peak if peak > 0 else 1.0
                prev, cur = prev / peak, cur / peak
                scale += math.log(peak)
            prev, cur = cur, (t - alpha) * cur - gamma * prev
        value = cur * math.exp(scale)
        values.append(-value if negate != (odd and x < 0) else value)
    return values
