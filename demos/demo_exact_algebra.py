"""Exact verification of the coupled SUSY algebra for the x^n family.

Walks the defining identities and the su(1,1) ladder commutators for a few
family indices, shows that every residual operator is exactly zero (a proof
for every exponent k), and demonstrates that a deliberately perturbed
generator coefficient is caught.
"""

from coupledsusy import (
    all_reports_pass,
    make_xn_system,
    verify_coupled_susy,
    verify_su11,
)

for n in (1, 2, 3, 6):
    system = make_xn_system(n)
    reports = verify_coupled_susy(system) + verify_su11(system)
    print(f"n={n}: gamma={system.gamma}, delta={system.delta}")
    for report in reports:
        mark = "ok " if report.passed else "FAIL"
        print(f"  [{mark}] {report.identity}  (for every k)")
    assert all_reports_pass(reports)

print()
print("perturbing one coefficient of b (2 -> 3):")
mutated = make_xn_system(2, mutate="b-coeff")
reports = verify_coupled_susy(mutated)
for report in reports:
    status = "passed" if report.passed else f"failed at k={report.first_failure['k']}"
    print(f"  {report.identity}: {status}")
    if report.first_failure:
        print(f"    residual operator: {report.first_failure['residual_operator']}")
        print(f"    residual state at k: {report.first_failure['residual']}")
assert not all_reports_pass(reports)
print("the verifier is not vacuous.")
