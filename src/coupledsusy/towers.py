"""Eigenstate towers of the coupled SUSY Hamiltonians.

Four families of eigenfunctions are generated from two ground states:

    PSI        ker a,            a+a eigenvalue m(delta-gamma)
    PHI        ker b+a \\ ker a,  a+a eigenvalue m(delta-gamma) + delta
    PSI_TILDE  a . PSI (m >= 1), aa+ eigenvalue m(delta-gamma)
    PHI_TILDE  a . PHI,          aa+ eigenvalue m(delta-gamma) + delta

H and its ladder words are read from the pair table, system.pairs[is_tilde].
The raising word R = a+b raises m by one inside each untilded family, so a
level-m state is R^m applied to the ground state.  On a proved system
(below) every level of the four towers is its closed form, built in one
pass of O(j) ints from the constants the proof read (_closed_record): the
top coefficient of R^m on the seed, times a's on a tilde tower, the
Laguerre ratio below it, the norm off its ends.  Elsewhere, as on a mutated
system, an untilded level is solved directly, the closed form's oracle:
H = a+a sends x^k to d(k) x^k + l(k) x^(k-2n), so the eigenvector follows
top-down from the top coefficient of R^m, and R must send level m-1 onto
it.  That solve forces H s = E s at every exponent but the one below the
seed, which it checks, so the eigenvalue equation is proved in ints; a
tilde state a s then has aa+ (a s) = a (a+a s) = E a s, aa+ being the
composed a . a+, and only a s != 0 is checked.  Each level's record (state,
exact squared norm, eigenvalue) is built once per system (_tower_state).
States are kept unnormalised; normalisation only happens at numeric
export, because the norms are irrational Gamma values.

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

The norm is computed from that closed form in O(m) exact steps once the
state's own coefficients are checked against it (_laguerre_form); any other
state gets the full product <psi, psi>.  Numeric samples come from the
Laguerre recurrence (normalized_samples); the exact state only fixes the
sign and passes the same check.

One proof per system, run on first use and never by a constructor
(_proved), covers every level at once: H = a+a is the closed form's
operator, [H, R] = (delta-gamma) R, and the norm ratios of the a and b+
images and the b+ row b+ s~_m = rho_m s_(m-1), rho_m = E_m(E_m - delta),
are identities among polynomials in the level, checked in ints at D + 1
levels, D a degree bound read from the operators' polynomial lengths (a
nonzero polynomial of degree <= D has at most D roots).  The proof returns
the constants it read as one read-only table per system, or None.
From them the solve, the raising check and every norm relation hold at
every level, so the lemma builds no record, and a record is its closed
form, built with no solve, raising check or _laguerre_form.  They also
make the four generators weighted shifts on the towers, with weights from
E and delta alone:

    a s_m = s~_m,                  a+ s~_m = E_m s_m,
    b s_m = s~_(m+1) / E_(m+1),    b+ s~_m = rho_m s_(m-1),

the table the uncertainty products read on a proved system's records.  A
system where the proof does not hold, such as a mutated one, is checked
level by level (_lemma_by_level): each record's a or b+ image by its full
product, against lambda^2 times the record's norm.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import types
from enum import Enum
from fractions import Fraction

from .calculus import (
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Generator,
    Operator,
    Record,
    _integer,
    apply_generator,
    inner_product,
)
from .systems import CoupledSusySystem, VerificationReport


class SectorLabel(Enum):
    """The four towers: the only per-sector facts; every other constant derives from them."""

    PSI = "psi"
    PHI = "phi"
    PSI_TILDE = "psi~"
    PHI_TILDE = "phi~"

    __hash__ = object.__hash__  # members are singletons; the cache keys hash them on every lookup

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
    """E = m(delta-gamma), plus delta on the PHI towers; an integral m (2.0, True) is taken as that
    int, and any other m is a ValueError."""
    return _tower_eigenvalue(system, sector, _integer(m, "tower level m"))


def _tower_eigenvalue(system: CoupledSusySystem, sector: SectorLabel, m: int) -> Fraction:
    return Fraction(*_eigenvalue_ints(system, sector, m))


def _eigenvalue_ints(system: CoupledSusySystem, sector: SectorLabel, m: int) -> tuple:
    """E = m spacing, plus delta on the PHI towers, as ints (num, den > 0), not reduced."""
    (s, t), (d, e) = system.spacing.as_integer_ratio(), system.delta.as_integer_ratio()
    return m * s * e + d * t * (sector.base is SectorLabel.PHI), t * e


def _poly_at(poly, k: int) -> int:
    value = 0
    for c in reversed(poly):
        value = value * k + c
    return value


def _solve_level(system: CoupledSusySystem, sector: SectorLabel, m: int) -> GaussPolyState:
    """Untilded level m of an unproved system: the eigenvector of H with eigenvalue E and top
    exponent K; on a proved system it is the oracle of _closed_record.

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


def _laguerre_form(state: GaussPolyState):
    """(p, a, j) if the state is a constant times x^p L_j^beta(t) exp(-t/2), beta = a/(2n); else None.

    L_j^beta(t) = sum_i (-1)^i binom(j+beta, j-i) t^i / i! and t^i = x^(2ni) / n^i,
    so the exponents must be exactly p + 2ni for i = 0..j with p >= 0, and
    with a = 2p + 1 - 2n every coefficient must satisfy, in ints,

        c_(i+1) (i+1) (a + 2n(i+1)) = -2 (j-i) c_i.
    """
    nums, two_n = state.nums, 2 * state.n
    p, j = min(nums, default=-1), len(nums) - 1
    if p < 0:
        return None
    a = 2 * p + 1 - two_n
    for i in range(j):
        c = nums.get(p + two_n * (i + 1))
        if c is None or c * (i + 1) * (a + two_n * (i + 1)) != -2 * (j - i) * nums[p + two_n * i]:
            return None
    return p, a, j


def _norm_sq(state: GaussPolyState) -> GammaVector:
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


def _closed_record(n: int, row: tuple, sector: SectorLabel, m: int) -> EigenstateRecord:
    """Level m of a proved system's tower as a record, in one int pass from its row of _proved.

    The top coefficient at p + 2nj is T = r_+^m / r_den^m, times P_a(K) /
    a_den and a's half power (P_a = 1 untilded), K = p_base + 2nm, where the
    a norm ratio makes P_a(K)^2 a positive multiple of E_m > 0.  R's half
    power is 0: the a and b+ norm ratios give a and b+ half powers of one
    parity, and the b+ row adds R's to theirs to an even sum.  Below the
    top the Laguerre ratio of _laguerre_form gives c_i = T w_i / 2^j with
    ints w_j = 2^j and w_i = -w_(i+1) (i+1) (a + 2n(i+1)) / (2(j-i)), one
    small-int multiply and one exact division per step, as w_i = (-1)^(j-i)
    2^i binom(j, i) prod_(l>i) (a + 2nl).  w_0 is odd, so the state, over
    T_den 2^j, is reduced once T_num and that den are.  As a + 2nl = 2p + 1
    + 2n(l-1), _norm_sq's c_top^2 prod_(i<T) (r + 2ni) is |T_num w_0|
    2^(2j), times r when 2p + 1 >= 2n.
    """
    p, first, up, r_den, pa, origin, a_den, half, slope, offset, e_den = row
    two_n, j, a = 2 * n, m - first, 2 * p + 1 - 2 * n
    num = up ** m * _poly_at(pa, origin + two_n * m)
    den = r_den ** m * a_den << j
    g = math.gcd(num, den)
    num, den = num // g, den // g
    w = num << j
    levels = [w]
    for factor, divisor in zip(map(operator.mul, range(-j, 0), range(a + two_n * j, a, -two_n)),
                               range(2, 2 * j + 1, 2)):
        w = w * factor // divisor
        levels.append(w)
    levels.reverse()
    state = GaussPolyState._from_ints(n, dict(zip(range(p, p + two_n * j + 1, two_n), levels)), den, half)
    top, r = divmod(2 * p + 1 + two_n * j, two_n)
    product = abs(num * w) * (r if top > j else 1) * math.factorial(j) * n ** j << 2 * j
    norm = GammaVector._from_ints(n, {r: product}, n * den * den << (top + half), 0)
    return EigenstateRecord(sector, m, state, norm, Fraction(m * slope + offset, e_den))


@functools.lru_cache(maxsize=4096)
def _tower_state(system: CoupledSusySystem, sector: SectorLabel, m: int) -> EigenstateRecord:
    """The record of level m with its norm and Fraction eigenvalue, built once.

    Where the tower proof holds (_proved), every level of the four towers is
    its closed form, built in one pass from the constants the proof read
    (_closed_record).  Elsewhere a tilde level is a s on the base record,
    refused when zero, and an untilded one the solved level (_solve_level),
    which must equal R s_(m-1) (R.apply on the level below); that route is
    the closed form's oracle."""
    table = _proved(system)
    if table:
        return _closed_record(system.n, table[sector], sector, m)
    if sector.is_tilde:
        state = apply_generator(system, Generator.A, _tower_state(system, sector.base, m).state)
        if state.is_zero:
            raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    else:
        state = _solve_level(system, sector, m)
        if m and system.pairs[0].raising.apply(_solve_level(system, sector, m - 1)) != state:
            raise RuntimeError(_EIGEN_FAILURE.format(sector, m))
    return EigenstateRecord(sector, m, state, _norm_sq(state), _tower_eigenvalue(system, sector, m))


def eigenstate(system: CoupledSusySystem, sector: SectorLabel, m: int) -> EigenstateRecord:
    """Level-m eigenstate record of the given tower.

    PSI_TILDE requires m >= 1 because a annihilates the PSI ground state.
    The record is memoised (_tower_state), so a call applies no operator.
    On a proved system (_proved) the state is the level's closed form,
    built directly, and the proof covers the eigenvalue equation; elsewhere
    the equation is proved where the state is built, by the solve or by
    aa+ (a s) = a (a+a s), and a zero state is refused there.
    norm_sq is _norm_sq: the Laguerre closed form or the full product.
    An integral m (2.0, True) is taken as that int; any other m is a ValueError.
    """
    m = _integer(m, "tower level m")
    if m < 0:
        raise ValueError("tower level m must be nonnegative")
    if m < sector.first_level:
        raise ValueError("the tilde image of the PSI ground state vanishes (m >= 1)")
    return _tower_state(system, sector, m)


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
    return sorted(_tower_eigenvalue(system, s, m) for m in range(count) for s in sectors)[:count]


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

    For unnormalised states, <T s, T s> must equal lambda^2 <s, s>, with T
    = b+ on a tilde tower and a on an untilded one (levels m >= 1, and PHI
    from m = 0).  The relations are first proved for every level at once,
    once per system (_proved): the solved PSI and PHI levels are the
    Laguerre closed form, a s_m and b+ s~_m are nonzero multiples
    of the partner levels' closed forms, and those forms' norms give
    lambda^2 exactly.  Then the report passes with every case counted and
    no tower record is built.  When the proof does not hold (a mutated or
    hand-built system), the per-level run (_lemma_by_level) decides, with
    its failures and exceptions.
    """
    m_max = _integer(m_max, "m_max")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if _proved(system):
        return _lemma_report(system, m_max, [], 4 * m_max + 1)
    return _lemma_by_level(system, m_max)


def _lemma_report(system: CoupledSusySystem, m_max: int, failures: list, checked: int):
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


def _agree(lhs: list, rhs: list) -> bool:
    """Whether two products of int polynomials in the level v are equal as polynomials.

    A factor (poly, origin, step) is poly(origin + step v), of degree below
    len(poly); a constant is ((c,), 0, 0).  The sides differ by a polynomial
    of degree <= D, the larger summed degree, so equality at v = 0..D proves
    it: a nonzero polynomial of degree <= D has at most D roots.
    """
    degree = max(sum([len(poly) - 1 for poly, _, _ in side]) for side in (lhs, rhs))
    return all(math.prod([_poly_at(poly, k + step * v) for poly, k, step in lhs])
               == math.prod([_poly_at(poly, k + step * v) for poly, k, step in rhs]) for v in range(degree + 1))


def _lowers(op, n: int, p: int, q: int, lamsq: tuple, lamsq_den: int) -> bool:
    """Whether op, x^k -> P(k) x^(k-n), sends the closed form of seed p at every level j to a
    nonzero multiple of the closed form of seed q = p - n + 2no at level j - o, o in {0, 1},
    whose squared norm is lamsq(j) / lamsq_den times the source's, lamsq linear ints (c0, c1).

    The image's top is P(p + 2nj) / den 2^(-h/2) times the source's, so by
    the norm formula of _norm_sq the ratio is 2 P(p + 2nj)^2 / (2^h den^2
    (2nj + a(1-o))), a = 2p + 1 - 2n.  As lamsq is linear, that identity
    makes P(p + 2nv) a multiple of 2nv + a(1-o), so P(k) a multiple of k -
    p (o = 1) or of k + p + 1 - 2n (o = 0), which sends the closed form of
    seed p to that of seed q.
    """
    (_, poly), = op.polys
    two_n = 2 * n
    o, a = (q - p + n) // two_n, 2 * p + 1 - two_n
    top = (poly, p, two_n)
    return _agree([top, top, ((2 * lamsq_den,), 0, 0)],
                  [(lamsq, 0, 1), ((a * (1 - o), two_n), 0, 1), ((op.den ** 2 << op.half_power,), 0, 0)])


@functools.lru_cache(maxsize=256)
def _proved(system: CoupledSusySystem):
    """The constants of the four towers if the tower proof holds, else None: the closed forms, the
    half-lowering relations and the weighted-shift table at every level; proved once per system,
    in ints, never by a constructor.

    With v a level, p a tower's seed, E(v) = v(delta-gamma) (+delta on PHI)
    and rho(v) = E(v)(E(v) - delta), it checks that a and b+ have one
    shift -n each and these identities, the first two among Operators and
    the others among polynomials in v:

    - H = a+a sends x^k to d(k) x^k + l(k) x^(k-2n) with d(k) =
      (delta-gamma) k / (2n) and l(k) = -(delta-gamma) k (k + 1 - 2n) / (4n),
      the closed form's coefficient ratio (l(p) = 0 for both seeds);
    - [H, R] = (delta-gamma) R, R = a+b;
    - per family, the a and b+ norm ratios of _lowers: a s_m and b+ s~_m
      are nonzero multiples of the partner levels' closed forms, with
      squared norms E(m) and E(m) - delta times the source's;
    - per family, the b+ row: b+ s~_m = rho(m) s_(m-1).  _lowers makes
      it a multiple of s_(m-1), and the tops pin the multiple: with K the
      top exponent of s_m, P_b+(K-n) P_a(K) r_+(K-2n) = rho(m), r_+ R's
      +2n polynomial.

    A polynomial identity is checked in ints at v = 0..D (_agree), D its
    degree bound from the operators' polynomial lengths (2 for the x^n
    family): a nonzero polynomial of degree <= D has at most D roots.

    The a and b+ ratios make P_a and P_b+ linear, P_a a multiple of k and
    delta = d(2n-1), so the b+ row makes r_+ a nonzero constant.  A nonzero
    T with [H, T] = (delta-gamma) T has its highest shift w at +2n, as
    (delta-gamma) w / (2n) = delta-gamma there; so R equals r_+ times the
    operator with shifts 0 and +-2n and +2n polynomial 1 that this H
    admits, their difference having no +2n part.  Its -4n part makes R's
    -2n polynomial a multiple of l and its -2n part R's 0 polynomial
    linear.  So E(j) - d(p + 2ni) = (delta-gamma)(j-i), nonzero
    below the top, and the solve (_solve_level) builds the closed form with
    nothing below the seed, which _closed_record builds directly.  R s_(m-1)
    = s_m: it is an eigenvector of H with eigenvalue E(m) by the
    commutator, has s_m's top and nothing below the seed (the -2n part is
    2(delta-gamma) r_-(k) = l(k)(r_0(k) - r_0(k-2n))), so the difference
    would be an eigenvector with a lower top, where E(m) - d is not zero.

    The b row needs no check of its own: b s_m = s~_(m+1) / E(m+1), as a+
    sends both sides to s_(m+1) (a+b = R, a+a = H) and is injective, its +n
    polynomial being the nonzero constant d(k) / P_a(k).  The norms are
    the images' own, so a+ = a-dagger is never assumed.

    It returns the read-only table {sector: row} that _closed_record reads:
    the seed p, the first level, r_+ and R's den, P_a, the seed K is read
    from, a's den and half power ((1,), 0, 1, 0 on an untilded tower), and
    E(v) = (slope v + offset) / den as the three ints.
    """
    n, two_n = system.n, 2 * system.n
    first = system.pairs[0]
    hamiltonian, raising = first.hamiltonian, first.raising
    a_op, bdag = system.generator(Generator.A), system.generator(Generator.BDAG)
    s, t = system.spacing.as_integer_ratio()
    d, e = system.delta.as_integer_ratio()
    # d(k) = (delta-gamma) k / (2n) and l(k) = -(delta-gamma) k (k + 1 - 2n) / (4n), over den 4n
    closed = {(0, 1): 2 * s, (-two_n, 1): (two_n - 1) * s, (-two_n, 2): -s}
    half = a_op.half_power + bdag.half_power + raising.half_power
    if (hamiltonian != Operator._from_ints(None, closed, 2 * two_n * t, 0)
            or dict(a_op.polys).keys() != {-n} or dict(bdag.polys).keys() != {-n}
            or (ratio := hamiltonian._commutator(raising)._ratio(raising)) is None  # (p/q) 2^(j/2) R
            or ratio[0] * t != s * ratio[1] or ratio[2] or half % 2):
        return None
    ((_, pa),), ((_, pb),) = a_op.polys, bdag.polys
    up = dict(raising.polys).get(two_n, (0,))
    se, te = s * e, t * e
    dens = ((bdag.den * a_op.den * raising.den << half // 2,), 0, 0)
    table = {}
    for sector, tilde in _A_IMAGE.items():
        p, q, dt = sector.residue(n), tilde.residue(n), d * t * (sector is SectorLabel.PHI)
        energy, below = (dt, se), (dt - d * t, se)  # E(v) te and (E(v) - delta) te
        lowered = (below[0] + se * tilde.first_level, se)
        if (not _lowers(a_op, n, p, q, energy, te) or not _lowers(bdag, n, q, p, lowered, te)
                or not _agree([(pb, p - n, two_n), (pa, p, two_n), (up, p - two_n, two_n), ((te * te,), 0, 0)],
                              [(energy, 0, 1), (below, 0, 1), dens])):
            return None
        table[sector] = (p, 0, up[0], raising.den, (1,), 0, 1, 0, se, dt, te)
        table[tilde] = (q, tilde.first_level, up[0], raising.den, pa, p, a_op.den, a_op.half_power, se, dt, te)
    return types.MappingProxyType(table)


def gram_matrix(records) -> list:
    """Exact pairwise inner products of the given records; <r, r> is r.norm_sq as given."""
    states = [r.state for r in records]
    if len({s.n for s in states}) > 1:
        raise FamilyMismatchError("records belong to different families")
    return _gram(states, [r.norm_sq for r in records])


def _gram(states: list, diagonal: list) -> list:
    """Rows of <a, b> over the states, diagonal[i] at (i, i): one triangle off it, mirrored."""
    rows = [[None] * len(states) for _ in states]
    for i, a in enumerate(states):
        rows[i][i] = diagonal[i]
        for j in range(i + 1, len(states)):
            rows[i][j] = rows[j][i] = inner_product(a, states[j])
    return rows


def _laguerre_parameters(record: EigenstateRecord):
    """(p, a, j) with the record's state a constant times x^p L_j^beta(t) exp(-t/2), beta = a/(2n).

    The state must have the closed form (_laguerre_form) of its sector and
    level: p the sector's residue, j the level above the first.  Any other
    state raises RuntimeError.
    """
    n = record.state.n
    p, j = record.sector.residue(n), record.m - record.sector.first_level
    form = (p, 2 * p + 1 - 2 * n, j)
    if _laguerre_form(record.state) != form:
        raise RuntimeError(f"{record.sector.value} level {record.m} is not the closed form x^{p} L_{j}")
    return form


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
