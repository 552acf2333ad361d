"""Independent numeric confirmation of the ladder spectrum.

The Galerkin route assembles exact Gamma-symbol matrices and solves the
generalized eigenproblem exactly, by rational symmetric elimination; the
finite-difference route discretises the Sturm-Liouville form directly.  Both land on the exact
ladder {2kn} and {2kn + 2n - 1}.
"""

from coupledsusy import fd_spectrum, galerkin_spectrum, make_xn_system

system = make_xn_system(2)

print("Galerkin, n=2, basis size 10, exact:")
for residue in (0, 3):
    report = galerkin_spectrum(system, residue, 10, count=4)
    print(f"  residue {residue}: pencil diagonal and on the ladder: {report.passed}")
    for i, computed, theory, err in report.rows():
        print(f"    lambda_{i}: computed {computed:.12f}, theory {theory:g}, "
              f"rel error {err:.1e}")

print()
print("finite differences (conservative, offset grid, Richardson refined):")
for n, half_width, grid in ((1, 12.0, 2000), (2, 6.0, 4000)):
    report = fd_spectrum(n, half_width, grid, count=4)
    raw = report.details["raw"]
    print(f"  n={n}, L={half_width}, N={grid} "
          f"(documented tolerance {report.details['documented_tolerance']:g}):")
    for i, computed, theory, err in report.rows():
        print(f"    lambda_{i}: raw {raw[i]:.8f} -> refined {computed:.10f} "
              f"(theory {theory:g}, rel error {err:.1e})")
