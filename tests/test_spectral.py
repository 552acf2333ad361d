"""Galerkin and finite-difference confirmation of the eigenvalue ladder."""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from coupledsusy.calculus import (
    DivergenceError,
    GammaVector,
    Generator,
    Operator,
    apply_generator,
    evaluate_gamma_vector_mp,
    monomial_state,
)
from coupledsusy import spectral
from coupledsusy.spectral import (
    FD_DOCUMENTED_TOLERANCE,
    GalerkinProblem,
    SpectrumReport,
    build_galerkin,
    fd_spectrum,
    galerkin_spectrum,
    solve_generalized,
)
from coupledsusy.systems import CoupledSusySystem, make_xn_system
from coupledsusy.towers import SectorLabel, tower_eigenvalue


def mp_state_value(state, t):
    total = mp.mpf(0)
    for k, c in state.terms.items():
        total += mp.mpf(c.numerator) / c.denominator * mp.power(t, k)
    return (
        total
        * mp.exp(-mp.power(t, 2 * state.n) / (2 * state.n))
        * mp.power(2, mp.mpf(-state.half_power) / 2)
    )


def quad_ip(f, g, dps=25):
    with mp.workdps(dps):
        return float(
            mp.quad(lambda t: mp_state_value(f, t) * mp_state_value(g, t), [-mp.inf, 0, mp.inf])
        )


# ---------------------------------------------------------------------------
# Galerkin assembly
# ---------------------------------------------------------------------------


def test_build_galerkin_shapes_and_symmetry():
    problem = build_galerkin(make_xn_system(2), 0, 6)
    assert problem.exponents == (0, 4, 8, 12, 16, 20)
    for i in range(6):
        for j in range(6):
            assert problem.h_matrix[i][j] == problem.h_matrix[j][i]
            assert problem.s_matrix[i][j] == problem.s_matrix[j][i]


def test_galerkin_ground_row_is_zero_n1():
    problem = build_galerkin(make_xn_system(1), 0, 4)
    assert all(problem.h_matrix[0][j].is_zero for j in range(4))
    assert all(problem.h_matrix[j][0].is_zero for j in range(4))
    # every Gram entry is a rational multiple of the single symbol G_1
    for row in problem.s_matrix:
        for entry in row:
            assert set(entry.coeffs) == {1}


def test_galerkin_known_entries_n2():
    problem = build_galerkin(make_xn_system(2), 0, 2)
    assert problem.s_matrix[0][0] == GammaVector(2, {1: Fraction(1, 2)})
    assert problem.s_matrix[0][1] == GammaVector(2, {1: Fraction(1, 4)})
    assert problem.s_matrix[1][1] == GammaVector(2, {1: Fraction(5, 8)})
    assert problem.h_matrix[1][1] == GammaVector(2, {1: 2})


def test_invalid_residue_rejected():
    with pytest.raises(ValueError):
        build_galerkin(make_xn_system(2), 1, 4)


@pytest.mark.parametrize("residue", [0, 3])
def test_galerkin_entries_match_quadrature_n2(residue):
    sys2 = make_xn_system(2)
    problem = build_galerkin(sys2, residue, 4)
    basis = [monomial_state(2, k) for k in problem.exponents]
    lowered = [apply_generator(sys2, Generator.A, b) for b in basis]
    for i in range(4):
        for j in range(i, 4):
            s_exact = float(evaluate_gamma_vector_mp(problem.s_matrix[i][j])[0])
            assert s_exact == pytest.approx(quad_ip(basis[i], basis[j]), rel=1e-10)
            h_exact = float(evaluate_gamma_vector_mp(problem.h_matrix[i][j])[0])
            h_quad = quad_ip(lowered[i], lowered[j])
            assert h_exact == pytest.approx(h_quad, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Galerkin eigenvalues
# ---------------------------------------------------------------------------


def test_galerkin_qmho_exact_closure():
    report = galerkin_spectrum(make_xn_system(1), 0, 8)
    assert [round(v) for v in report.computed] == [0, 2, 4, 6, 8, 10, 12, 14]
    assert max(report.rel_errors) < 1e-10


@pytest.mark.parametrize(
    "residue,expected",
    [(0, [0, 4, 8, 12]), (3, [3, 7, 11, 15])],
)
def test_galerkin_n2_reproduces_ladder(residue, expected):
    report = galerkin_spectrum(make_xn_system(2), residue, 10, count=4)
    assert [float(t) for t in report.theory] == expected
    assert max(report.rel_errors) <= 1e-6
    assert report.passed


# n = 2 at size 10 keeps its original ids "0" and "3" (the residue)
_LADDER_CASES = [pytest.param(2, 0, 10, id="0"), pytest.param(2, 3, 10, id="3")] + [
    pytest.param(n, residue, size, id=f"n{n}-r{residue}-s{size}")
    for n in range(1, 7)
    for residue in (0, 2 * n - 1)
    for size in (1, 4, 6, 10, 20)
    if (n, size) != (2, 10)
]


@pytest.mark.parametrize("n,residue,size", _LADDER_CASES)
def test_galerkin_every_eigenvalue_on_the_ladder(n, residue, size):
    # the basis contains the true eigenfunctions, so every computed
    # eigenvalue must sit exactly on the ladder, not just the lowest few
    system = make_xn_system(n)
    report = galerkin_spectrum(system, residue, size)
    sector = SectorLabel.PSI if residue == 0 else SectorLabel.PHI
    theory = tuple(tower_eigenvalue(system, sector, m) for m in range(size))
    assert report.theory == theory
    assert report.computed == tuple(float(t) for t in theory)
    assert report.rel_errors == (0.0,) * size
    assert report.passed is True
    assert report.to_json_dict()["pass"] is True


@pytest.mark.parametrize("which", ["alpha", "beta"])
@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mutated_lowering_fails(n, delta, which):
    # a perturbed a changes H = a+a; the pencil then misses the ladder
    system = make_xn_system(n, mutate=(Generator.A, 0, which, delta))
    for residue in (0, 2 * n - 1):
        if which == "alpha" and residue == 0:
            # a constant term sends x^0 to x^(-n), which is not integrable
            with pytest.raises(DivergenceError):
                galerkin_spectrum(system, residue, 6)
            continue
        report = galerkin_spectrum(system, residue, 6)
        assert report.passed is False
        assert report.to_json_dict()["pass"] is False
        assert report.computed != tuple(float(t) for t in report.theory)


@pytest.mark.parametrize("shift", [-1, -3, 1])
def test_lowering_off_the_residue_lattice_is_rejected(shift):
    # a shift not = n (mod 2n) puts H on another Gamma symbol than S
    system = make_xn_system(2)
    lowering = Operator({shift: (0, 1)}, 1)
    system = CoupledSusySystem(system.n, system.gamma, system.delta, (lowering,) + system.generators[1:])
    with pytest.raises(ValueError, match="different Gamma symbols") as info:
        galerkin_spectrum(system, 0, 4)
    assert "\n" not in str(info.value)


def test_off_diagonal_pencil_fails_on_the_ladder():
    # add eps to H[0][1] = H[1][0] and 2 f eps to H[1][1], f = S[1][0] / S[0][0]:
    # the eliminated H keeps its diagonal, so the eigenvalues stay on the
    # ladder, but gains eps off the diagonal
    system = make_xn_system(2)
    problem = build_galerkin(system, 0, 2)
    (h00, h01), (_, h11) = problem.h_matrix
    s00, s01 = problem.s_matrix[0]
    eps, f = s00, s01.rational_ratio(s00)
    h_matrix = ((h00, h01 + eps), (h01 + eps, h11 + eps.scale(2 * f)))
    changed = GalerkinProblem(problem.n, problem.residue, problem.exponents, h_matrix, problem.s_matrix)
    report = solve_generalized(changed, system)
    assert report.computed == (0.0, 4.0)
    assert report.passed is False


def _two_triangle_elimination(problem):
    """The reference elimination: every step applies its row and column operation in full."""
    h, s = spectral._rational_matrices(problem)
    for k in range(problem.size):
        for i in range(k + 1, problem.size):
            f = s[i][k] / s[k][k]
            if f:
                for matrix in (h, s):
                    matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[k])]
                    for row in matrix:
                        row[i] -= f * row[k]
    return h, s


@pytest.mark.parametrize(
    "system",
    [make_xn_system(n) for n in (1, 2, 3)]
    + [make_xn_system(n, mutate=(Generator.A, 0, "beta", 1)) for n in (1, 2)]
    + [make_xn_system(2, mutate="a-coeff")],
)
def test_one_triangle_elimination_matches_the_two_triangle_reference(system):
    for residue in (0, 2 * system.n - 1):
        problem = build_galerkin(system, residue, 7)
        h, s = _two_triangle_elimination(problem)
        eigenvalues = tuple(float(h[i][i] / s[i][i]) for i in range(problem.size))
        diagonal = all(m[i][j] == 0 for m in (h, s) for i in range(7) for j in range(7) if i != j)
        report = solve_generalized(problem, system)
        assert report.computed == eigenvalues
        assert report.passed == (diagonal and report.computed == tuple(map(float, report.theory)))


def test_asymmetric_pencil_is_rejected():
    system = make_xn_system(2)
    problem = build_galerkin(system, 0, 3)
    h = [list(row) for row in problem.h_matrix]
    h[0][1] = h[0][1] + problem.s_matrix[0][0]
    changed = GalerkinProblem(problem.n, problem.residue, problem.exponents,
                              tuple(map(tuple, h)), problem.s_matrix)
    with pytest.raises(ValueError, match="symmetric"):
        solve_generalized(changed, system)


def test_galerkin_h_positive_semidefinite():
    report = galerkin_spectrum(make_xn_system(2), 0, 8)
    assert report.computed[0] >= -1e-20


def test_rayleigh_ritz_monotone_from_above():
    # eigenvalues decrease weakly toward theory as the basis grows
    sys3 = make_xn_system(3)
    seq = [galerkin_spectrum(sys3, 5, size).computed for size in (4, 6, 8)]
    for level in range(4):
        values = [s[level] for s in seq]
        theory = float(2 * 3 * level + 5)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        assert values[-1] >= theory - 1e-9


def test_report_json_shape():
    report = galerkin_spectrum(make_xn_system(2), 0, 4)
    payload = report.to_json_dict()
    assert payload["method"] == "galerkin"
    assert len(payload["computed"]) == len(payload["theory"]) == len(payload["rel_errors"])
    assert all(e >= 0 for e in payload["rel_errors"])
    assert payload["pass"] is True
    assert payload["details"] == {"residue": 0, "basis_size": 4}


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def test_fd_qmho_reference_grid():
    report = fd_spectrum(1, 12.0, 2000, count=6)
    theory = [0, 1, 2, 3, 4, 5]
    assert [float(t) for t in report.theory] == theory
    assert max(abs(c - t) for c, t in zip(report.computed, theory)) < 1e-5
    assert report.details["refined"] is True
    assert "pass" not in report.to_json_dict()  # the FD route has no gate yet


def test_fd_raw_scheme_is_second_order_n1():
    fine = fd_spectrum(1, 12.0, 2000, count=2).details["raw"]
    coarse = fd_spectrum(1, 12.0, 1000, count=2).details["raw"]
    err_fine = abs(fine[1] - 1.0)
    err_coarse = abs(coarse[1] - 1.0)
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.05)
    # ground state too
    e0f = abs(fine[0])
    e0c = abs(coarse[0])
    assert e0c / e0f == pytest.approx(4.0, rel=0.05)


def test_fd_n2_within_documented_tolerance():
    report = fd_spectrum(2, 6.0, 4000, count=4)
    theory = [0, 3, 4, 7]
    assert [float(t) for t in report.theory] == theory
    tol = FD_DOCUMENTED_TOLERANCE[2]
    for c, t in zip(report.computed, theory):
        assert abs(c - t) <= tol * max(1.0, t)


def test_fd_n3_within_documented_tolerance():
    # reference grid for n=3: finer grids lose accuracy to the rounding of
    # the x^(-4) midpoint samples, so the window is bounded on both sides
    report = fd_spectrum(3, 6.0, 1000, count=4)
    theory = [0, 5, 6, 11]
    tol = FD_DOCUMENTED_TOLERANCE[3]
    for c, t in zip(report.computed, theory):
        assert abs(c - t) <= tol * max(1.0, t)


def test_fd_odd_grid_rejected():
    with pytest.raises(ValueError):
        fd_spectrum(2, 6.0, 4001)


def test_fd_mismatched_potential_flags_disagreement(monkeypatch):
    # quartic potential with the n=1 kinetic term: systematically wrong ladder
    real = spectral._assemble_fd

    def quartic(n, half_width, grid_count):
        diag, off, nodes = real(n, half_width, grid_count)
        return [d + 0.5 * (x ** 4 - x ** 2) for d, x in zip(diag, nodes)], off, nodes

    monkeypatch.setattr(spectral, "_assemble_fd", quartic)
    report = fd_spectrum(1, 12.0, 2000, count=4)
    assert max(report.rel_errors) > 0.1


def test_fd_values_do_not_depend_on_count():
    # each eigenvalue's search depends only on its index, so a larger count
    # only appends values
    for n, half_width, grid in ((1, 12.0, 2000), (2, 6.0, 4000), (3, 6.0, 1000)):
        full = fd_spectrum(n, half_width, grid, count=8)
        for count in range(1, 8):
            report = fd_spectrum(n, half_width, grid, count=count)
            assert report.computed == full.computed[:count], (n, count)
            assert report.details["raw"] == full.details["raw"][:count]


@pytest.mark.parametrize(
    "grid,half_width,count",
    [(2002, 6.0, 4), (6, 6.0, 1), (8, 0.0, 2), (8, -3.0, 2), (8, math.inf, 2), (8, math.nan, 2),
     (400, 6.0, 200), (400, 6.0, 0)],
)
def test_fd_rejects_bad_inputs(grid, half_width, count):
    with pytest.raises(ValueError):
        fd_spectrum(2, half_width, grid, count=count)


@pytest.mark.parametrize("half_width", [1e-320, 1e300])
def test_fd_half_width_beyond_float_range_is_a_value_error(half_width):
    with pytest.raises(ValueError, match="beyond the float range"):
        fd_spectrum(3, half_width, 16, count=2)


def test_fd_half_grid_count_bound_is_inclusive():
    report = fd_spectrum(1, 6.0, 16, count=7)  # the 7 x 7 half-grid matrix, all of it
    assert len(report.computed) == len(report.details["coarse"]) == 7


# ---------------------------------------------------------------------------
# Tridiagonal eigensolver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,e", [(2.0, -1.0), (-3.5, 0.25), (1e6, 4e5)])
@pytest.mark.parametrize("size", [1, 2, 7, 50])
def test_lowest_eigenvalues_of_a_constant_matrix(d, e, size):
    want = sorted(d + 2 * e * math.cos(k * math.pi / (size + 1)) for k in range(1, size + 1))
    got = spectral._lowest_eigenvalues([d] * size, [e] * (size - 1), size)
    scale = abs(d) + 2 * abs(e)
    assert got == pytest.approx(want, rel=0, abs=1e-11 * scale)
    assert got == sorted(got)


def test_lowest_eigenvalues_of_exact_clusters():
    # two identical uncoupled blocks: every eigenvalue is exactly double,
    # and a zero matrix is one cluster of the whole size
    block_d, block_e = [2.0, 5.0, -1.0], [0.5, 3.0]
    got = spectral._lowest_eigenvalues(block_d * 2, block_e + [0.0] + block_e, 6)
    single = spectral._lowest_eigenvalues(block_d, block_e, 3)
    assert got == pytest.approx([v for v in single for _ in (0, 1)], rel=0, abs=1e-11)
    assert spectral._lowest_eigenvalues([0.0] * 5, [0.0] * 4, 5) == [0.0] * 5


def test_lowest_eigenvalues_rejects_entries_beyond_float_range():
    with pytest.raises(ValueError):
        spectral._lowest_eigenvalues([1.0, math.inf], [1.0], 1)
    with pytest.raises(ValueError):
        spectral._lowest_eigenvalues([1.0, 1e308], [-1e308], 1)


@pytest.mark.parametrize("grid", [8, 16, 64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowest_eigenvalues_match_dense_eigvalsh(n, grid):
    # all of a small FD matrix; n = 2 at N = 8 has two pairs that agree to
    # float resolution (the half grid of fd_spectrum(2, 6.0, 16))
    np = pytest.importorskip("numpy")
    diag, off, _ = spectral._assemble_fd(n, 6.0, grid)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    want = np.linalg.eigvalsh(dense)
    got = spectral._lowest_eigenvalues(diag, off, len(diag))
    scale = float(np.abs(want).max())
    assert got == pytest.approx(list(want), rel=0, abs=1e-12 * scale)


def mp_sturm_eigenvalues(diag, off, count, dps=30):
    """Lowest eigenvalues of the same float matrix by Sturm bisection in dps digits."""
    with mp.workdps(dps):
        d = [mp.mpf(v) for v in diag]
        e2 = [mp.mpf(0)] + [mp.mpf(v) ** 2 for v in off]

        def below(x):
            count, q = 0, mp.mpf(1)
            for di, ei in zip(d, e2):
                q = di - x - ei / q
                if q == 0:
                    q = mp.mpf(10) ** (-3 * dps)
                count += q < 0
            return count

        bound = max(abs(a) for a in d) + 2 * max(mp.sqrt(b) for b in e2)
        values, lo = [], -bound
        for k in range(count):
            hi = bound
            while hi - lo > mp.mpf(10) ** (-14) * max(1, abs(lo)):
                mid = (lo + hi) / 2
                if below(mid) <= k:
                    lo = mid
                else:
                    hi = mid
            values.append((lo + hi) / 2)
            lo = values[-1] - mp.mpf(10) ** (-12) * max(1, abs(lo))
        return [float(v) for v in values]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowest_eigenvalues_match_mp_sturm_bisection(n):
    diag, off, _ = spectral._assemble_fd(n, 6.0, 200)
    want = mp_sturm_eigenvalues(diag, off, 6)
    got = spectral._lowest_eigenvalues(diag, off, 6)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-8 * max(1.0, abs(w))


def test_merged_theory_values():
    # the FD theory is the merged a+a ladder, as a tuple of Fractions
    for n, count, want in [(2, 6, (0, 3, 4, 7, 8, 11)), (1, 5, (0, 1, 2, 3, 4)), (3, 4, (0, 5, 6, 11))]:
        theory = fd_spectrum(n, 6.0, 16, count=count).theory
        assert theory == want and all(type(t) is Fraction for t in theory)


def test_galerkin_matches_fd_cross_route_n2():
    galerkin = galerkin_spectrum(make_xn_system(2), 0, 8, count=3)
    fd = fd_spectrum(2, 6.0, 4000, count=6)
    fd_even = [v for v, t in zip(fd.computed, fd.theory) if t % 4 == 0][:3]
    for g, f in zip(galerkin.computed, fd_even):
        assert g == pytest.approx(f, abs=0.05)


def test_galerkin_problem_record_semantics():
    problem = build_galerkin(make_xn_system(2), 0, 3)
    fields = (problem.n, problem.residue, problem.exponents, problem.h_matrix, problem.s_matrix)
    assert problem == GalerkinProblem(*fields) == build_galerkin(make_xn_system(2), 0, 3)
    assert hash(problem) == hash(GalerkinProblem(*fields))
    assert problem != build_galerkin(make_xn_system(2), 0, 4)
    assert problem != GalerkinProblem(*fields[:3], problem.s_matrix, problem.s_matrix)
    with pytest.raises(AttributeError):
        problem.n = 3
    assert repr(problem).startswith("GalerkinProblem(n=2, residue=0, exponents=(0, 4, 8), h_matrix=((")
    assert ", s_matrix=((" in repr(problem)


def test_spectrum_report_record_semantics():
    report = SpectrumReport("m", 1, (0.0,), (Fraction(0),), (0.0,))
    assert report.details == {} and report.passed is None
    other = SpectrumReport(method="m", n=1, computed=(0.0,), theory=(Fraction(0),), rel_errors=(0.0,))
    assert other == report and other.details is not report.details
    assert report != SpectrumReport("m", 1, (0.0,), (Fraction(0),), (0.0,), passed=True)
    assert report != SpectrumReport("m", 1, (0.0,), (Fraction(0),), (0.0,), {"grid": 2})
    with pytest.raises(AttributeError):
        report.passed = True
    assert repr(report) == (
        "SpectrumReport(method='m', n=1, computed=(0.0,), theory=(Fraction(0, 1),), "
        "rel_errors=(0.0,), details={}, passed=None)"
    )
    assert galerkin_spectrum(make_xn_system(1), 0, 4) == galerkin_spectrum(make_xn_system(1), 0, 4)
