"""Displacement coherent states over the eigenstate towers.

Each tower carries a discrete-series su(1,1) representation.  Writing k for
the lowest K0 eigenvalue of the representation (the Bargmann index), the
displacement operator exp(z K+ - conj(z) K-) applied to the cyclic vector
produces, for |z| < 1,

    |z; k> = (1 - |z|^2)^k  sum_m  sqrt(Gamma(m+2k) / (m! Gamma(2k)))  z^m  e_m,

where e_m is the normalised tower state m steps above the cyclic vector.
K0 is (a+a - gamma/2)/(delta-gamma) on an untilded tower and
(aa+ - delta/2)/(delta-gamma) on a tilde one, so each tower's index is

    k = (E - c/2) / (delta-gamma),   c = gamma (untilded) or delta (tilde),

with E the tower eigenvalue at its first level.  The PSI_TILDE tower
starts at level 1 (a annihilates the PSI ground state), so its series
coefficient index is the level minus one; with that shift the state is
exactly normalised, like the other three.

Coefficients are generated by the stable ratio recurrence

    c_{m+1} / c_m = z sqrt((m + 2k) / (m + 1)),

so no Gamma evaluations are needed for construction; truncation uses a
geometric tail majorant with ratio |z|^2 sup_{m>M} (m+2k)/(m+1).

Applying a to a PSI coherent state, or b+ to a PHI_TILDE one, transfers it
coefficient-by-coefficient onto the partner family: half of a quadratic
lowering word intertwines the families with the exact scalar

    sqrt(-gamma) z / sqrt(1-|z|^2)     (a on PSI)
    sqrt(delta)  z / sqrt(1-|z|^2)     (b+ on PHI_TILDE),

as the ladder norm relations force (substituting the coefficient ratios
shows both scalars share the 1/sqrt(1-|z|^2) factor); each root is
sqrt(2k(delta-gamma)).  The full quadratic lowering word b+a does not fix
any of these states.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .calculus import Record
from .systems import CoupledSusySystem
from .towers import SectorLabel, half_lowering_factor_squared, tower_eigenvalue


class CoherentState(Record):
    """Truncated coefficient expansion of a displacement coherent state.

    coefficients[i] multiplies the normalised tower state at level
    m_start + i; the dropped tail has squared l2 mass below tail_bound.
    """

    __slots__ = _fields = ("sector", "k", "z", "m_start", "coefficients", "tail_bound")

    @property
    def truncation_level(self) -> int:
        return self.m_start + len(self.coefficients) - 1

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self.coefficients)

    def coefficient_at_level(self, m: int) -> complex:
        i = m - self.m_start
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0.0

    def to_json_dict(self) -> dict:
        return {
            "sector": self.sector.value,
            "k": f"{self.k.numerator}/{self.k.denominator}",
            "z": [self.z.real, self.z.imag],
            "m_start": self.m_start,
            "M": self.truncation_level,
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "tail_bound": self.tail_bound,
        }


class HalfLoweringCheck(Record):
    """Result of the coefficientwise intertwining check."""

    __slots__ = _fields = ("sector", "operator", "target_sector", "target_k", "scalar", "best_fit_scalar",
                           "residual", "compared_levels", "tail_bound_source", "tail_bound_target")


def bargmann_index(system: CoupledSusySystem, sector: SectorLabel) -> Fraction:
    """The lowest K0 eigenvalue (E - c/2)/(delta-gamma): E at the tower's first level, c its pair's shift."""
    c = system.pairs[sector.is_tilde].shift
    return (tower_eigenvalue(system, sector, sector.first_level) - c / 2) / system.spacing


def bargmann_indices(system: CoupledSusySystem) -> dict:
    return {sector: bargmann_index(system, sector) for sector in SectorLabel}


#: Truncation levels before coherent_state gives up on a |z| too close to 1.
_MAX_TERMS = 100000


def coherent_state(
    system: CoupledSusySystem,
    sector: SectorLabel,
    z: complex,
    tol: float = 1e-12,
) -> CoherentState:
    """Construct the displacement coherent state truncated to tail mass < tol."""
    z = complex(z)
    if not abs(z) < 1:  # NaN parts fail this as well
        raise ValueError("|z| must be < 1 (disk of convergence)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    k = bargmann_index(system, sector)
    two_k = float(2 * k)
    m_start = sector.first_level
    zsq = abs(z) ** 2
    prefactor = (1.0 - zsq) ** float(k)
    coeffs = [complex(prefactor)]

    def tail_bound_after(index_m):
        sup = 1.0 if two_k <= 1.0 else (index_m + two_k) / (index_m + 1.0)
        ratio = zsq * sup
        if ratio >= 1.0:
            return math.inf
        last = abs(coeffs[-1]) ** 2
        return last * ratio / (1.0 - ratio)

    m = 0
    while tail_bound_after(m) >= tol:
        coeffs.append(coeffs[-1] * z * math.sqrt((m + two_k) / (m + 1.0)))
        m += 1
        if m > _MAX_TERMS:
            raise RuntimeError("truncation did not converge; |z| too close to 1")
    return CoherentState(
        sector=sector,
        k=k,
        z=z,
        m_start=m_start,
        coefficients=tuple(coeffs),
        tail_bound=tail_bound_after(m),
    )


#: The towers whose half-lowering is verified: source -> (operator, target tower).
HALF_LOWERING = {
    SectorLabel.PSI: ("a", SectorLabel.PSI_TILDE),
    SectorLabel.PHI_TILDE: ("b+", SectorLabel.PHI),
}


def half_lowering_scalar(system: CoupledSusySystem, sector: SectorLabel, z: complex) -> complex:
    """The exact intertwining scalar for a (on PSI) or b+ (on PHI_TILDE)."""
    if sector not in HALF_LOWERING:
        raise ValueError("half lowering transfers PSI or PHI_TILDE states")
    root = math.sqrt(float(2 * bargmann_index(system, sector) * system.spacing))
    return root * complex(z) / math.sqrt(1.0 - abs(z) ** 2)


def verify_half_lowering(
    system: CoupledSusySystem,
    sector: SectorLabel,
    z: complex,
    tol: float = 1e-12,
) -> HalfLoweringCheck:
    """Apply half of the lowering word coefficientwise and compare families.

    The image of each tower state is sqrt(lambda^2) times the partner tower
    state (the ladder norm relations); collecting coefficients must land on
    `scalar` times the partner coherent state.  The residual is the l2
    mismatch over the levels both truncations resolve; the dropped tails
    are reported separately and are below tol by construction.
    """
    if sector not in HALF_LOWERING:
        raise ValueError("half lowering is verified from PSI (a) or PHI_TILDE (b+)")
    op_name, target_sector = HALF_LOWERING[sector]
    source = coherent_state(system, sector, z, tol)
    target = coherent_state(system, target_sector, z, tol)
    scalar = half_lowering_scalar(system, sector, z)

    image = {}
    spacing = system.spacing
    lamsq = half_lowering_factor_squared(system, sector, source.m_start)  # affine in m
    for i, c in enumerate(source.coefficients):
        m = source.m_start + i
        if lamsq:
            image[m - sector.is_tilde] = c * math.sqrt(float(lamsq))  # b+ lowers a tilde level
        lamsq += spacing

    shared = [m for m in sorted(image) if target.m_start <= m <= target.truncation_level]
    residual_sq = 0.0
    dot = 0.0 + 0.0j
    tt = 0.0
    for m in shared:
        t = target.coefficient_at_level(m)
        residual_sq += abs(image[m] - scalar * t) ** 2
        dot += image[m] * t.conjugate()
        tt += abs(t) ** 2
    best_fit = dot / tt if tt > 0 else complex(0)
    return HalfLoweringCheck(
        sector=sector,
        operator=op_name,
        target_sector=target_sector,
        target_k=target.k,
        scalar=scalar,
        best_fit_scalar=best_fit,
        residual=math.sqrt(residual_sq),
        compared_levels=len(shared),
        tail_bound_source=source.tail_bound,
        tail_bound_target=target.tail_bound,
    )


def full_lowering_misfit(
    system: CoupledSusySystem,
    z: complex,
    tol: float = 1e-12,
):
    """Best-scalar relative residual of b+a applied to a PSI coherent state.

    The quadratic lowering word maps the level-m state to
    sqrt(m(d-g)) sqrt(m(d-g) - delta) times the level m-1 state.  Coherent
    states here are not eigenstates of that word; the returned residual is
    || image - s* state || / || image || for the least-squares scalar s*.
    """
    source = coherent_state(system, SectorLabel.PSI, z, tol)
    image = {}
    spacing = system.spacing
    lam1 = half_lowering_factor_squared(system, SectorLabel.PSI, source.m_start)  # both affine in m
    lam2 = half_lowering_factor_squared(system, SectorLabel.PSI_TILDE, source.m_start)
    for i, c in enumerate(source.coefficients):
        m = source.m_start + i
        if m:
            image[m - 1] = c * math.sqrt(float(lam1 * lam2))
        lam1, lam2 = lam1 + spacing, lam2 + spacing
    dot = 0.0 + 0.0j
    ss = 0.0
    norm_image_sq = sum(abs(v) ** 2 for v in image.values())
    if norm_image_sq == 0:
        return complex(0), 0.0
    for m, v in image.items():
        s = source.coefficient_at_level(m)
        dot += v * s.conjugate()
        ss += abs(s) ** 2
    best = dot / ss if ss > 0 else complex(0)
    residual_sq = sum(
        abs(v - best * source.coefficient_at_level(m)) ** 2 for m, v in image.items()
    )
    return best, math.sqrt(residual_sq / norm_image_sq)
