"""A repeated characteristic root and the derivative-row trick.

For the claim law (0.128, 0.576, 0.264, 0.032) at premium rate 3 the
characteristic polynomial has -4/11 as a double root: two identical rows
would make the boundary system singular, so the duplicate is replaced by the
derivative of the row polynomial at the root. The model is also a nice edge
case on its own: claims never exceed the premium, so ruin is possible only
from an empty reserve.
"""

import numpy as np

from ruinwalk import (
    FinitePmf,
    build_boundary_system,
    build_characteristic,
    find_unit_disk_roots,
    solve_boundary_system,
    sup_pmf_closed_form,
    survival_gf_coefficients,
    ultimate_survival_table,
)

dist = FinitePmf((0.128, 0.576, 0.264, 0.032))
kappa = 3

char = build_characteristic(dist, kappa)
roots = find_unit_disk_roots(char)
root = roots.roots[0]
print(f"root {root.value.real:.12f} with multiplicity {root.multiplicity}")
print(f"(-4/11 = {-4/11:.12f})")

system = build_boundary_system(dist, kappa, roots)
print("\nrow kinds:", system.row_kinds)
with np.printoptions(precision=6, suppress=True):
    print(system.matrix.real)

sup = solve_boundary_system(system)
print("\nsupremum pmf:", np.round(sup.mass, 12))

table = ultimate_survival_table(sup, char, 6)
print("phi(0) =", table.phi[0], " and phi(u) = 1 for u >= 1:", table.phi[1:])

coeffs = survival_gf_coefficients(sup_pmf_closed_form(dist, char, roots), char, 30)
print("\ngenerating function = 1/(1-s): coefficient deviation through order 30:",
      float(np.max(np.abs(coeffs - 1.0))))

# sanity: ruin from zero happens exactly when the first claim is maximal
print("1 - phi(0) =", 1 - table.phi[0], "= P(X = 3) =", dist.pmf(3))
