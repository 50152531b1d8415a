"""Survival analysis for geometric claims at premium rate 2, three ways.

The model: surplus u + 2n - (X_1 + ... + X_n) with P(X=k) = p(1-p)^k.
Ruin never happens iff the running supremum of the centred claim walk stays
below u. We compute phi(0) and phi(1) by (i) the boundary linear system,
(ii) root products, and (iii) limits of recurrent sequences, then read a long
table off the supremum generating function and check it against the pole
expansion over the roots outside the disk.
"""

import numpy as np

from ruinwalk import (
    Geometric,
    build_boundary_system,
    build_characteristic,
    check_net_profit,
    closed_form_initial_values,
    find_unit_disk_roots,
    recurrent_sequence_limits,
    solve_boundary_system,
    sup_pmf_closed_form,
    tail_expansion,
    ultimate_survival_table,
)

p = 101.0 / 300.0
dist = Geometric(p)
kappa = 2

npr = check_net_profit(dist, kappa)
print(f"mean claim {npr.mean:.6f} < premium rate {kappa}: net profit holds")

# the characteristic equation s^2 = G_X(s) has exactly one root besides s=1
# in the closed unit disk, and for this family it is real and negative
char = build_characteristic(dist, kappa)
roots = find_unit_disk_roots(char)
alpha = roots.values[0].real
print(f"unit-disk root alpha = {alpha:.12f}")

system = build_boundary_system(dist, kappa, roots)
sup = solve_boundary_system(system)
table = ultimate_survival_table(sup, char, 300)
print(f"route 1 (linear system):      phi(0) = {table.phi[0]:.10f}, phi(1) = {table.phi[1]:.10f}")

closed = closed_form_initial_values(sup_pmf_closed_form(dist, char, roots))
print(f"route 2 (root products):      phi(0) = {closed[0]:.10f}, phi(1) = {closed[1]:.10f}")

limits = recurrent_sequence_limits(dist)
print(
    f"route 3 (sequence limits):    phi(0) = {limits.phi0:.10f}, phi(1) = {limits.phi1:.10f}"
    f"   (solved at N = {limits.truncated_at}, error <= {limits.error_bound:.1e})"
)

# a forward recurrence would amplify roundoff like (1/|alpha|)^u ~ 2^u; the
# FFT inversion of the supremum pgf scales it by a fixed factor instead
tail = tail_expansion(sup, char, roots)
us = np.arange(1, 301)
print(f"\ntable method: {table.method}; largest gap to the pole expansion "
      f"{np.max(np.abs(tail.phi(us - 1) - table.phi[us])):.1e}")
for u in (0, 1, 5, 20, 100, 300):
    print(f"  phi({u:>3}) = {table.phi[u]:.10f}")
print("ruin stays likely for small reserves: the drift 2 - EX is only "
      f"{2 - dist.mean():.4f} per period.")
