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
  which for even N never touch x = 0.  N must be a multiple of 4, so that
  the half grid is even too: the report carries the Richardson extrapolate
  of the N/2 -> N pair, with the raw values of both grids.  The raw scheme
  is cleanly second order for n = 1, while the x = 0 singularity limits the
  observed order for n >= 2, hence the looser documented tolerances.  The
  offset grid implicitly selects one self-adjoint extension at x = 0 for
  n >= 2; this is flagged in the report, not resolved.

  The eigenvalues are resolved to 2^-40 max(1, |lambda|), where LAPACK's
  bisection stops at eps ||T|| and ||T|| grows like N^(2n).  For n >= 3 a
  grid window remains: rounding the entries moves the eigenvalues whose
  states reach x = 0, and the n = 3 refined error is 3.3e-5, 2.0e-6, 2.4e-5
  and 3.6e-3 at N = 500, 1000, 2000 and 4000.
"""

from __future__ import annotations

import math
import sys

from .calculus import Generator, Record, apply_generator, inner_product, monomial_state
from .systems import CoupledSusySystem, make_xn_system
from .towers import SectorLabel, _gram, _tower_eigenvalue, merged_spectrum


#: The reference grid (half width L, grid count N) per family index: the
#: grids the tolerances below were swept at, and the CLI's --fd defaults
#: (other n take the n = 3 grid).
FD_REFERENCE_GRID = {1: (12.0, 2000), 2: (6.0, 4000), 3: (6.0, 1000)}

#: Documented tolerances on the lowest eight eigenvalues (relative, with the
#: zero eigenvalue measured absolutely), per family index, for the refined
#: finite-difference route at the grids of FD_REFERENCE_GRID.  Values come
#: from a refinement sweep over N = 500..8000 and counts 1..8, not from an
#: assumed convergence order: each is at least 10x the worst error at its
#: reference grid (2.0e-8, 1.0e-8 and 2.0e-6).  For n >= 3 the useful grid
#: window is bounded on both sides (see the module docstring).
FD_DOCUMENTED_TOLERANCE = {1: 1e-6, 2: 1e-6, 3: 1e-4}


class GalerkinProblem(Record):
    """Exact weak-form matrices of a+a over one residue-class monomial basis."""

    __slots__ = _fields = ("n", "residue", "exponents", "h_matrix", "s_matrix")

    @property
    def size(self) -> int:
        return len(self.exponents)


class SpectrumReport(Record):
    """Computed vs theoretical eigenvalues with per-eigenvalue errors.

    `rel_errors` uses |computed - theory| / max(1, |theory|) so the zero
    ground eigenvalue is measured absolutely.  `passed` is the Galerkin
    route's exact verdict, and for the finite-difference route whether every
    relative error is within details["documented_tolerance"].
    """

    __slots__ = _fields = ("method", "n", "computed", "theory", "rel_errors", "details", "passed")
    _defaults = {"details": dict}

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "n": self.n,
            "computed": list(self.computed),
            "theory": [f"{t.numerator}/{t.denominator}" for t in self.theory],
            "rel_errors": list(self.rel_errors),
            "details": self.details,
            "pass": self.passed,
        }

    def rows(self):
        for i, (c, t, e) in enumerate(zip(self.computed, self.theory, self.rel_errors)):
            yield i, c, float(t), e


def _relative_errors(computed, theory):
    return tuple(abs(c - float(t)) / max(1.0, abs(float(t))) for c, t in zip(computed, theory))


def _untilded_sector(n: int, residue: int) -> SectorLabel:
    """The a+a tower whose exponents lie in the residue class; ValueError for any other class."""
    sectors = {s.residue(n): s for s in SectorLabel if not s.is_tilde}
    if residue not in sectors:
        raise ValueError(f"residue must be {' or '.join(map(str, sectors))} for the a+a sectors")
    return sectors[residue]


def build_galerkin(system: CoupledSusySystem, residue: int, size: int) -> GalerkinProblem:
    """Assemble exact H and S for the residue-class basis of the given size.

    Both are Gram matrices (towers._gram), of the lowered basis and of the basis.
    """
    n = system.n
    if size < 1:
        raise ValueError("basis size must be at least 1")
    _untilded_sector(n, residue)
    exponents = tuple(residue + 2 * n * t for t in range(size))
    basis = [monomial_state(n, k) for k in exponents]
    lowered = [apply_generator(system, Generator.A, b) for b in basis]
    return GalerkinProblem(
        n=n,
        residue=residue,
        exponents=exponents,
        h_matrix=tuple(map(tuple, _gram(lowered, [inner_product(s, s) for s in lowered]))),
        s_matrix=tuple(map(tuple, _gram(basis, [inner_product(s, s) for s in basis]))),
    )


def _galerkin_theory(system, residue, size):
    sector = _untilded_sector(system.n, residue)
    return tuple(_tower_eigenvalue(system, sector, m) for m in range(size))


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

    matrices = [[[rational(e) for e in row] for row in matrix]
                for matrix in (problem.h_matrix, problem.s_matrix)]
    if any(m[i][j] != m[j][i] for m in matrices for i in range(problem.size) for j in range(i)):
        raise ValueError("Galerkin H and S must be symmetric")
    return matrices


def solve_generalized(
    problem: GalerkinProblem,
    system: CoupledSusySystem,
    count: int | None = None,
) -> SpectrumReport:
    """Solve H c = lambda S c exactly by symmetric elimination on S.

    For each pivot k in basis order, row i -= f row k and column i -= f
    column k with f = S[i][k] / S[k][k] clear S below and right of the
    pivot; the same operations act on H, so the pencil stays congruent to
    the original.  Both matrices are symmetric and stay so, and a step
    changes only row and column i: row i is computed once and copied into
    column i.  The eliminated basis is the Gram-Schmidt basis, which
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
                    row = [x - f * y for x, y in zip(matrix[i], matrix[k])]
                    row[i] -= f * row[k]
                    for j, x in enumerate(row):
                        matrix[j][i] = x
                    matrix[i] = row
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
    """Tridiagonal (diag, offdiag, nodes) for the conservative scheme, as float lists."""
    h = 2.0 * half_width / grid_count
    h2 = h * h
    nodes = [-half_width + h * i for i in range(1, grid_count)]
    # an even grid puts x = 0 on node N/2, so no midpoint sample is 0
    w = [(-half_width + h * (i + 0.5)) ** (2 - 2 * n) for i in range(grid_count)]
    diag = [0.5 * ((a + b) / h2 + (x ** (2 * n) - 1.0)) for a, b, x in zip(w, w[1:], nodes)]
    off = [-0.5 * v / h2 for v in w[1:-1]]
    return diag, off, nodes


#: Relative resolution of `_lowest_eigenvalues`: far below any grid's
#: discretisation error, far above the float noise of well-conditioned values.
_EIGENVALUE_RESOLUTION = 2.0 ** -40


def _sturm(diag, off2, x, pivmin):
    """(eigenvalues below x, d/dx log|det(T - x)|) from one pass over the LDL^T pivots of T - x.

    The pivots q_i = d_i - x - e_{i-1}^2 / q_{i-1} multiply to det(T - x),
    and the number of negative ones is the number of eigenvalues below x.
    A pivot smaller than pivmin in magnitude becomes -pivmin, as in LAPACK.
    The log-derivative sums r_i = q_i' / q_i, with q_i' = t r_{i-1} - 1 and
    t = e_{i-1}^2 / q_{i-1}.
    """
    below = 0
    q, r, s = 1.0, 0.0, 0.0
    for d, e2 in zip(diag, off2):
        t = e2 / q
        q = d - x - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            below += 1
        r = (t * r - 1.0) / q
        s += r
    return below, s


def _lowest_eigenvalues(diag, off, count):
    """The `count` lowest eigenvalues of the symmetric tridiagonal (diag, off), ascending.

    Sturm bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967) 386)
    isolates eigenvalue k = 0, 1, ... in turn in the Gershgorin interval of
    width W, using the counts of earlier k only, so no value depends on
    `count`; splits are geometric while the bracket spans a factor over 4
    above the interval's bottom.  Newton steps x - 1/s on det(T - x) refine
    it, each probe narrowing the bracket by its count; a step that leaves
    the bracket, or follows two passes in which it did not halve, becomes a
    bisection.  The search ends when a step or the bracket is below 2^-40
    max(1, |x|); several eigenvalues in so narrow a bracket all get its
    midpoint, as in LAPACK.  After at most 5 geometric splits the bracket
    halves every third pass or sooner: at most 3 (log2 W + 41) + 5 passes.
    """
    size = len(diag)
    off2 = [0.0] + [e * e for e in off]
    pivmin = sys.float_info.min * max(off2 + [1.0])
    radius = [abs(a) + abs(b) for a, b in zip([0.0] + off, off + [0.0])]
    lower = min(d - r for d, r in zip(diag, radius))
    upper = max(d + r for d, r in zip(diag, radius))
    slack = 2.1 * (max(-lower, upper) * sys.float_info.epsilon * size + 2.0 * pivmin)
    lower, upper = lower - slack, upper + slack
    if not math.isfinite(upper - lower):
        raise ValueError("the matrix spectrum is not within the float range")
    origin = lower - (upper - lower) * _EIGENVALUE_RESOLUTION
    probes = {lower: (0, 0.0), upper: (size, 0.0)}  # x -> _sturm(x)

    def below(x):
        if x not in probes:
            probes[x] = _sturm(diag, off2, x, pivmin)
        return probes[x][0]

    def newton(x):
        s = probes[x][1]
        return x - 1.0 / s if s else math.nan

    def resolved(width, x):
        return width <= _EIGENVALUE_RESOLUTION * max(1.0, abs(x))

    values = []
    for k in range(count):
        lo = max(x for x, (c, _) in probes.items() if c <= k)
        hi = min(x for x, (c, _) in probes.items() if c > k)
        reference, stalled, pending = hi - lo, 0, math.nan
        while True:
            mid = lo + 0.5 * (hi - lo)
            if resolved(hi - lo, mid):
                values.append(mid)
                break
            a, b = lo - origin, hi - origin
            newton_step = False
            if probes[lo][0] < k or probes[hi][0] > k + 1:  # not isolated yet
                x = origin + math.sqrt(a) * math.sqrt(b) if b > 4.0 * a else mid
            else:
                newton_step = stalled < 2 and lo < pending < hi
                x = pending if newton_step else mid
            if below(x) <= k:
                lo = x
            else:
                hi = x
            if hi - lo <= 0.5 * reference:
                reference, stalled = hi - lo, 0
            else:
                stalled += 1
            y = newton(x)
            if (resolved(abs(y - x), x) and lo <= y <= hi
                    and probes[lo][0] == k and probes[hi][0] == k + 1):
                values.append(y)
                break
            if newton_step or not lo < pending < hi:
                pending = y
    return values


def fd_spectrum(n: int, half_width: float, grid_count: int, count: int = 6) -> SpectrumReport:
    """Lowest eigenvalues of the finite-difference Hamiltonian on [-L, L].

    The problem is solved on the grid of N cells and on the half grid, and
    the reported values are the Richardson extrapolates (4 f_N - f_{N/2})/3,
    which cancel the leading second-order error; the raw values of both
    grids stay in the details.  N must be a multiple of 4, so that both
    grids are even, and at least 8; `count` may be at most N/2 - 1, the
    size of the half-grid matrix.  The report passes when every relative
    error is within FD_DOCUMENTED_TOLERANCE for n (0.10 for other n).
    """
    if grid_count % 4 != 0 or grid_count < 8:
        raise ValueError(
            f"fd grid count must be a multiple of 4 and at least 8, got {grid_count}: "
            "the half grid must be even, or a coefficient sample lands on x = 0"
        )
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError(f"fd half-width must be positive and finite, got {half_width}")
    if not 1 <= count <= grid_count // 2 - 1:
        raise ValueError(
            f"count must be between 1 and {grid_count // 2 - 1} (the half-grid matrix size) "
            f"for fd grid count {grid_count}, got {count}"
        )
    sysn_theory = tuple(merged_spectrum(make_xn_system(n), count))
    try:
        raw, coarse = (
            _lowest_eigenvalues(*_assemble_fd(n, half_width, grid)[:2], count)
            for grid in (grid_count, grid_count // 2)
        )
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ValueError(f"the fd matrix for half-width {half_width} and grid count "
                         f"{grid_count} has entries beyond the float range") from exc
    computed = tuple((4.0 * f - c) / 3.0 for f, c in zip(raw, coarse))
    rel_errors = _relative_errors(computed, sysn_theory)
    tolerance = FD_DOCUMENTED_TOLERANCE.get(n, 0.10)
    details = {
        "half_width": half_width,
        "grid_count": grid_count,
        "raw": raw,
        "documented_tolerance": tolerance,
        "boundary_note": (
            "offset grid implicitly selects one self-adjoint extension at x=0 "
            "for n >= 2"
        ),
        "coarse": coarse,
        "refined": True,
    }
    return SpectrumReport(
        method="fd",
        n=n,
        computed=computed,
        theory=sysn_theory,
        rel_errors=rel_errors,
        details=details,
        passed=all(e <= tolerance for e in rel_errors),  # a NaN error fails
    )
