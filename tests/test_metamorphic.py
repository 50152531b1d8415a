"""Lattice scaling: an exact relation between two runs, with no reference values.

Let X = dY and kappa = d kappa'. The surplus u + d (t kappa' - sum Y) stays
positive exactly when ceil(u/d) + t kappa' - sum Y does, so

    phi_X(u) = phi_Y(ceil(u/d))   and   phi_X(u, T) = phi_Y(ceil(u/d), T).

Because Q_X(s) = Q_Y(s^d), the unit-disk roots of X are the d-th roots of
those of Y, with their multiplicities, and the d - 1 non-trivial d-th roots
of unity lie on the unit circle: the family reaches repeated roots and roots
on the circle, which no model of the stress corpus has.
"""

from __future__ import annotations

import numpy as np
import pytest

from ruinwalk.config import ModelConfig
from ruinwalk.distributions import FinitePmf
from ruinwalk.pipeline import run_model

U_MAX = 20  # of the base law Y; X runs to d * U_MAX
T_MAX = 10
TOL = 1e-12
DOUBLE_ROOT = FinitePmf((0.128, 0.576, 0.264, 0.032))  # -4/11 is a double root at kappa=3


def lattice_laws():
    """150 seeded random finite laws: (law, kappa).

    kappa in 1..8, support 2..11 and Dirichlet(1) weights are redrawn
    together until E X < kappa.
    """
    rng = np.random.default_rng(7)
    laws = []
    for _ in range(150):
        while True:
            kappa = int(rng.integers(1, 9))
            size = int(rng.integers(2, 12))
            weights = rng.dirichlet(np.ones(size))
            if np.arange(size) @ weights < kappa:
                break
        laws.append((FinitePmf(tuple(weights)), kappa))
    return laws


def scaled(dist: FinitePmf, d: int) -> FinitePmf:
    """The law of dY for Y with law `dist`."""
    p = np.zeros(d * (len(dist.probabilities) - 1) + 1)
    p[::d] = dist.probabilities
    return FinitePmf(tuple(p))


def scaling_gaps(dist: FinitePmf, kappa: int, factors) -> list[tuple[int, float, float]]:
    """(d, |phi_X - phi_Y(ceil(u/d))|, the same for phi(u, T)) for each d.

    Exit codes are not read: some of these runs fail checks on the solved
    masses, while their tables are right.
    """
    base = run_model(ModelConfig(kappa=kappa, dist=dist, u_max=U_MAX, t_max=T_MAX))
    gaps = []
    for d in factors:
        run = run_model(
            ModelConfig(kappa=d * kappa, dist=scaled(dist, d), u_max=d * U_MAX, t_max=T_MAX)
        )
        coarse = -(-np.arange(d * U_MAX + 1) // d)  # ceil(u/d)
        phi = np.max(np.abs(run.survival.phi - base.survival.phi[coarse]))
        grid = np.max(np.abs(run.finite_time.phi - base.finite_time.phi[:, coarse]))
        gaps.append((d, float(phi), float(grid)))
    return gaps


def test_scaled_random_laws():
    misses = [
        (index, d, phi, grid)
        for index, (dist, kappa) in enumerate(lattice_laws())
        for d, phi, grid in scaling_gaps(dist, kappa, (2, 3, 5))
        if not (phi <= TOL and grid <= TOL)
    ]
    assert misses == []


def test_scaled_double_root_law():
    # repeated roots that also lie on the unit circle
    for d, phi, grid in scaling_gaps(DOUBLE_ROOT, 3, (2, 3, 4, 6)):
        assert phi <= TOL and grid <= TOL, (d, phi, grid)


@pytest.mark.parametrize("d", [2, 3])
def test_scaled_law_has_roots_on_the_circle(d):
    report = run_model(ModelConfig(kappa=3 * d, dist=scaled(DOUBLE_ROOT, d), u_max=5, t_max=2))
    on_circle = [r for r in report.roots if r["on_boundary"]]
    assert len(on_circle) == d - 1
    assert all(r["multiplicity"] == 2 for r in report.roots if not r["on_boundary"])
