"""Premium rate 3: a conjugate pair of roots feeds a 3x3 boundary system.

With geometric claims and kappa=3 the characteristic equation has two complex
conjugate unit-disk roots. One row per root plus the first-moment row pins
down the supremum probabilities, and partial sums give the survival table.
The product over the roots recovers the same table without the solve.
"""

import numpy as np

from ruinwalk import (
    Geometric,
    build_boundary_system,
    build_characteristic,
    find_unit_disk_roots,
    solve_boundary_system,
    sup_pmf_closed_form,
    survival_gf,
    survival_gf_coefficients,
    ultimate_survival_table,
)

dist = Geometric(101.0 / 300.0)
kappa = 3

char = build_characteristic(dist, kappa)
roots = find_unit_disk_roots(char)
print("unit-disk roots:")
for r in roots.roots:
    print(f"  {r.value:.9f}  (multiplicity {r.multiplicity})")

system = build_boundary_system(dist, kappa, roots)
print("\nboundary system (one row per root, then the moment row):")
with np.printoptions(precision=6, suppress=True):
    print(system.matrix)
    print("rhs:", system.rhs)

sup = solve_boundary_system(system)
print("\nsupremum pmf:", np.round(sup.mass, 7), f"(solve residual {sup.residual:.1e})")

table = ultimate_survival_table(sup, char, 10)
print("\nsurvival table phi(0..10):")
print(np.round(table.phi, 7))

# the complex parts cancel: phi values are partial sums of a real pmf
coeffs = survival_gf_coefficients(sup_pmf_closed_form(dist, char, roots), char, 9)
print("\nroot-product route, phi(1..10):")
print(np.round(coeffs, 7))
print("max disagreement:", float(np.max(np.abs(coeffs - table.phi[1:11]))))

s = 0.4 + 0.25j
print(f"\ngenerating function at s = {s}: {survival_gf(sup, dist, kappa, s):.9f}")
