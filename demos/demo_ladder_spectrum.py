"""The four eigenstate towers and their exact interleaved spectrum.

Builds the towers for n = 2, prints the exact states with eigenvalues and
norms, checks orthogonality exactly, and compares each state with the
Laguerre closed form x^p L_j^beta(t) exp(-t/2), t = x^(2n)/n.
"""

import math
from fractions import Fraction

from coupledsusy import (
    GaussPolyState,
    SectorLabel,
    eigenstate,
    gram_matrix,
    make_xn_system,
    merged_spectrum,
    proportionality_ratio,
)
from coupledsusy.calculus import evaluate_gamma_vector_mp

n = 2
system = make_xn_system(n)

print("n=2 towers (a+a eigenvalues 4m and 4m+3):")
for sector in (SectorLabel.PSI, SectorLabel.PHI):
    for m in range(4):
        rec = eigenstate(system, sector, m)
        norm, bound = evaluate_gamma_vector_mp(rec.norm_sq)
        print(f"  {sector.value:4} m={m}: eigenvalue {rec.eigenvalue}, "
              f"norm^2 = {float(norm):.6f} (+- {float(bound):.1e}), state {rec.state.serialize()}")

print()
print("merged lowest eigenvalues:", [int(v) for v in merged_spectrum(system, 10)])

records = [eigenstate(system, s, m) for s in (SectorLabel.PSI, SectorLabel.PHI) for m in range(4)]
gram = gram_matrix(records)
orthogonal = all(gram[i][j].is_zero == (i != j) for i in range(8) for j in range(8))
print(f"8x8 Gram matrix exactly diagonal: {orthogonal}")

print()
print("Laguerre closed form x^p L_j^beta(t) exp(-t/2), t = x^4/2:")
# sector -> (p, beta, j) at level m
table = {
    SectorLabel.PSI: lambda m: (0, Fraction(1, 2 * n) - 1, m),
    SectorLabel.PHI: lambda m: (2 * n - 1, 1 - Fraction(1, 2 * n), m),
    SectorLabel.PSI_TILDE: lambda m: (n, Fraction(1, 2 * n), m - 1),
    SectorLabel.PHI_TILDE: lambda m: (n - 1, Fraction(-1, 2 * n), m),
}
for sector, row in table.items():
    for m in range(1, 4):
        p, beta, j = row(m)
        # L_j^beta(t) = sum_i (-1)^i binom(j + beta, j - i) t^i / i!
        terms = {}
        for i in range(j + 1):
            binom = math.prod([beta + l for l in range(i + 1, j + 1)], start=Fraction(1))
            terms[p + 2 * n * i] = (-1) ** i * binom / (math.factorial(j - i) * math.factorial(i) * n ** i)
        ratio = proportionality_ratio(GaussPolyState(n, terms), eigenstate(system, sector, m).state)
        print(f"  {sector.value:4} m={m} (p={p}, beta={beta}, j={j}): "
              f"tower state = {ratio[0]} * 2^({ratio[1]}/2) * closed form")
