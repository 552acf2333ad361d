"""Independent confirmation of the ladder spectrum.

Two routes, deliberately different from the exact tower construction:

* An exact Galerkin (Rayleigh-Ritz) generalized eigenproblem over the
  monomial basis x^(r + 2nt) exp(-x^(2n)/(2n)) of one residue class, with
  stiffness entries <a b_i, a b_j> and Gram entries <b_i, b_j> assembled
  as GammaVectors.  Every entry of one problem is a rational multiple of a
  single Gamma symbol, so the pencil is rational.  The first t basis
  functions span the first t tower states, so symmetric elimination on S
  in basis order leaves H diagonal as well, and diag(H) / diag(S) are the
  eigenvalues, exact at every basis size.  A report passes iff both
  reduced matrices are exactly diagonal and every eigenvalue is on the
  ladder.

* A conservative second-order finite-difference discretisation of
  H = (-(x^(2-2n) u')' + (x^(2n) - 1) u)/2 on [-L, L] with Dirichlet ends.
  Interior unknowns sit at x_i = -L + i h; the singular coefficient
  w = x^(2-2n) is sampled only at the inter-node midpoints -L + (i+1/2) h,
  which for even N never touch x = 0 (odd N would, and is rejected).  A
  refinement sweep N/2 -> N with Richardson extrapolation is performed and
  reported alongside the raw values; the raw scheme is cleanly second
  order for n = 1, while the x = 0 singularity limits the observed order
  for n >= 2, hence the looser documented tolerances.  The offset grid
  implicitly selects one self-adjoint extension at x = 0 for n >= 2; this
  is flagged in the report, not resolved.
"""

from __future__ import annotations

from .calculus import Generator, Record, apply_generator, inner_product, monomial_state
from .systems import CoupledSusySystem, make_xn_system
from .towers import SectorLabel, merged_spectrum, tower_eigenvalue


#: Documented tolerances on the lowest eigenvalues (relative, with the zero
#: eigenvalue measured absolutely), per family index, for the refined
#: finite-difference route at the reference grids (L=12, N=2000 for n=1;
#: L=6, N=4000 for n=2; L=6, N=1000 for n=3).  Values come from refinement
#: sweeps, not from an assumed convergence order: for n >= 3 the midpoint
#: samples of x^(2-2n) grow so fast that finer grids amplify roundoff, so
#: the useful grid window is bounded on both sides.
FD_DOCUMENTED_TOLERANCE = {1: 1e-5, 2: 0.05, 3: 0.10}


class GalerkinProblem(Record):
    """Exact weak-form matrices of a+a over one residue-class monomial basis."""

    __slots__ = _fields = ("n", "residue", "exponents", "h_matrix", "s_matrix")

    def __init__(self, n: int, residue: int, exponents: tuple, h_matrix: tuple, s_matrix: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "h_matrix", h_matrix)
        object.__setattr__(self, "s_matrix", s_matrix)

    @property
    def size(self) -> int:
        return len(self.exponents)


class SpectrumReport(Record):
    """Computed vs theoretical eigenvalues with per-eigenvalue errors.

    `rel_errors` uses |computed - theory| / max(1, |theory|) so the zero
    ground eigenvalue is measured absolutely.  `passed` is the Galerkin
    route's exact verdict; the finite-difference route has none (None).
    """

    __slots__ = _fields = ("method", "n", "computed", "theory", "rel_errors", "details", "passed")

    def __init__(self, method: str, n: int, computed: tuple, theory: tuple, rel_errors: tuple,
                 details: dict | None = None, passed: bool | None = None):
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "rel_errors", rel_errors)
        object.__setattr__(self, "details", {} if details is None else details)
        object.__setattr__(self, "passed", passed)

    def to_json_dict(self) -> dict:
        payload = {
            "method": self.method,
            "n": self.n,
            "computed": list(self.computed),
            "theory": [f"{t.numerator}/{t.denominator}" for t in self.theory],
            "rel_errors": list(self.rel_errors),
            "details": self.details,
        }
        if self.passed is not None:
            payload["pass"] = self.passed
        return payload

    def rows(self):
        for i, (c, t, e) in enumerate(zip(self.computed, self.theory, self.rel_errors)):
            yield i, c, float(t), e


def _relative_errors(computed, theory):
    return tuple(abs(c - float(t)) / max(1.0, abs(float(t))) for c, t in zip(computed, theory))


def build_galerkin(system: CoupledSusySystem, residue: int, size: int) -> GalerkinProblem:
    """Assemble exact H and S for the residue-class basis of the given size."""
    n = system.n
    if size < 1:
        raise ValueError("basis size must be at least 1")
    if residue not in (0, 2 * n - 1):
        raise ValueError(f"residue must be 0 or {2 * n - 1} for the a+a sectors")
    exponents = tuple(residue + 2 * n * t for t in range(size))
    basis = [monomial_state(n, k) for k in exponents]
    lowered = [apply_generator(system, Generator.A, b) for b in basis]
    h_rows = []
    s_rows = []
    for i in range(size):
        h_rows.append(tuple(inner_product(lowered[i], lowered[j]) for j in range(size)))
        s_rows.append(tuple(inner_product(basis[i], basis[j]) for j in range(size)))
    return GalerkinProblem(
        n=n,
        residue=residue,
        exponents=exponents,
        h_matrix=tuple(h_rows),
        s_matrix=tuple(s_rows),
    )


def _galerkin_theory(system, residue, size):
    sector = SectorLabel.PSI if residue == 0 else SectorLabel.PHI
    return tuple(tower_eigenvalue(system, sector, m) for m in range(size))


def _rational_matrices(problem: GalerkinProblem):
    """H and S as Fraction matrices, in units of the Gamma symbol of S[0][0]."""
    reference = problem.s_matrix[0][0]

    def rational(entry):
        q = entry.rational_ratio(reference)
        if q is None:
            raise ValueError(
                f"Galerkin entry {entry.serialize()} is not a rational multiple of "
                f"S[0][0] = {reference.serialize()}: H and S use different Gamma symbols"
            )
        return q

    return [[[rational(e) for e in row] for row in matrix]
            for matrix in (problem.h_matrix, problem.s_matrix)]


def solve_generalized(
    problem: GalerkinProblem,
    system: CoupledSusySystem,
    count: int | None = None,
) -> SpectrumReport:
    """Solve H c = lambda S c exactly by symmetric elimination on S.

    For each pivot k in basis order, row i -= f row k and column i -= f
    column k with f = S[i][k] / S[k][k] clear S below and right of the
    pivot; the same operations act on H, so the pencil stays congruent to
    the original.  The eliminated basis is the Gram-Schmidt basis, which
    for the true system is the tower itself: both matrices end diagonal and
    diag(H) / diag(S) is the ladder, level by level.  `passed` is true iff
    every off-diagonal entry of both is exactly 0 and every eigenvalue is
    exactly on the theory.
    """
    size = problem.size
    count = size if count is None else min(count, size)
    h, s = _rational_matrices(problem)
    for k in range(size):
        for i in range(k + 1, size):
            f = s[i][k] / s[k][k]
            if f:
                for matrix in (h, s):
                    matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[k])]
                    for row in matrix:
                        row[i] -= f * row[k]
    eigenvalues = tuple(h[i][i] / s[i][i] for i in range(size))
    theory = _galerkin_theory(system, problem.residue, size)
    diagonal = all(
        matrix[i][j] == 0 for matrix in (h, s) for i in range(size) for j in range(size) if i != j
    )
    return SpectrumReport(
        method="galerkin",
        n=problem.n,
        computed=tuple(float(v) for v in eigenvalues[:count]),
        theory=theory[:count],
        rel_errors=_relative_errors(eigenvalues[:count], theory[:count]),
        details={"residue": problem.residue, "basis_size": size},
        passed=diagonal and eigenvalues == theory,
    )


def galerkin_spectrum(
    system: CoupledSusySystem,
    residue: int,
    size: int,
    count: int | None = None,
) -> SpectrumReport:
    return solve_generalized(build_galerkin(system, residue, size), system, count)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _assemble_fd(n: int, half_width: float, grid_count: int):
    """Tridiagonal (diag, offdiag, nodes) for the conservative scheme."""
    import numpy as np

    if grid_count % 2 != 0:
        raise ValueError(
            "grid count must be even: odd counts place a coefficient sample "
            "at the singular point x = 0"
        )
    if grid_count < 8:
        raise ValueError("grid too coarse")
    h = 2.0 * half_width / grid_count
    nodes = -half_width + h * np.arange(1, grid_count)
    midpoints = -half_width + h * (np.arange(grid_count) + 0.5)
    if np.any(midpoints == 0.0):
        raise ValueError("coefficient sample collided with x = 0")
    w = midpoints ** (2 - 2 * n) if n != 1 else np.ones_like(midpoints)
    diag = 0.5 * ((w[:-1] + w[1:]) / h ** 2 + (nodes ** (2 * n) - 1.0))
    off = -0.5 * w[1:-1] / h ** 2
    return diag, off, nodes


def fd_spectrum(n: int, half_width: float, grid_count: int, count: int = 6) -> SpectrumReport:
    """Lowest eigenvalues of the finite-difference Hamiltonian on [-L, L].

    When N is divisible by 4, so that the half grid is still even, the
    problem is also solved on the half grid and the reported values are the
    Richardson extrapolates (4 f_N - f_{N/2})/3, which cancel the leading
    second-order error; the raw values of both grids stay available in the
    details.  Otherwise the raw values are reported.
    """
    from scipy.linalg import eigh_tridiagonal

    sysn_theory = tuple(merged_spectrum(make_xn_system(n), count))
    diag, off, _ = _assemble_fd(n, half_width, grid_count)
    raw = eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )
    details = {
        "half_width": half_width,
        "grid_count": grid_count,
        "raw": [float(v) for v in raw],
        "documented_tolerance": FD_DOCUMENTED_TOLERANCE.get(n, 0.10),
        "boundary_note": (
            "offset grid implicitly selects one self-adjoint extension at x=0 "
            "for n >= 2"
        ),
    }
    if grid_count % 4 == 0:
        diag2, off2, _ = _assemble_fd(n, half_width, grid_count // 2)
        coarse = eigh_tridiagonal(
            diag2, off2, eigvals_only=True, select="i", select_range=(0, count - 1)
        )
        computed = (4.0 * raw - coarse) / 3.0
        details["coarse"] = [float(v) for v in coarse]
        details["refined"] = True
    else:
        computed = raw
        details["refined"] = False
    computed = tuple(float(v) for v in computed)
    return SpectrumReport(
        method="fd",
        n=n,
        computed=computed,
        theory=sysn_theory,
        rel_errors=_relative_errors(computed, sysn_theory),
        details=details,
    )
