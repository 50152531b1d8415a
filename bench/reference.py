"""Output-correctness gate: checks every accepted result against references.

Each check has a fixed tolerance, stated next to it. A miss means the program
returned a wrong answer while reporting every own check as passed; the
benchmark counts such a run as failed and exits non-zero.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ruinwalk.survival import enumerate_finite_time

# exact algebraic values of phi(0), phi(1) for Geometric(101/300) at kappa=2
PHI0_EXACT_K2 = (np.sqrt(90597.0) - 297.0) / 202.0
PHI1_EXACT_K2 = (45450.0 - 150.0 * np.sqrt(90597.0)) / 10201.0
EXACT_TOL = 1e-12  # absolute, the unit-test tolerance for these two values

# phi in [0, 1], non-decreasing in u, and phi(u, T) >= phi(u) are checked to
# the model's tol_real (1e-8 by default): the program admits negative
# supremum masses and table excursions outside [0, 1] up to that size
FINITE_TIME_TOL = 1e-12  # absolute slack for phi(u, T) non-increasing in T
ORACLE_TOL = 1e-12  # absolute, DP against enumeration of all claim sequences
CSV_REL_TOL = 1e-11  # survival.csv carries 12 significant digits

# enumeration builds arrays of support**T cells; larger products are skipped
ORACLE_MAX_CELLS = 300_000
ORACLE_EPS = 1e-14


def reference_misses(model_id: str, config, report, outdir: Path) -> list[str]:
    """Names of the reference checks this result misses (empty when correct)."""
    misses = []
    tol = config.tol_real
    phi = report.survival.phi
    if model_id == "geom_k2":
        err = max(abs(phi[0] - PHI0_EXACT_K2), abs(phi[1] - PHI1_EXACT_K2))
        if not err <= EXACT_TOL:
            misses.append("geom_k2_exact")
    if not (phi.min() >= -tol and phi.max() <= 1.0 + tol):
        misses.append("phi_in_unit_interval")
    if np.any(np.diff(phi) < -tol):
        misses.append("phi_non_decreasing")

    grid = report.finite_time.phi  # row T-1 holds phi(., T)
    if np.any(np.diff(grid, axis=0) > FINITE_TIME_TOL):
        misses.append("finite_time_non_increasing")
    width = min(grid.shape[1], phi.size)
    if np.any(grid[:, :width] < phi[None, :width] - tol):
        misses.append("finite_time_above_phi")

    if not _oracle_matches(config, grid):
        misses.append("finite_time_oracle")
    if not _csv_matches(outdir / "survival.csv", phi):
        misses.append("survival_csv")
    return misses


def _oracle_matches(config, grid: np.ndarray) -> bool:
    """phi(u, T) for T <= 3 at a few u against enumerate_finite_time."""
    support = config.dist.truncate(ORACLE_EPS)[0].size
    u_max = grid.shape[1] - 1
    for t in range(1, min(3, grid.shape[0]) + 1):
        if support**t > ORACLE_MAX_CELLS:
            break
        for u in sorted({0, min(config.kappa, u_max), u_max}):
            exact = enumerate_finite_time(config.dist, config.kappa, u, t, eps=ORACLE_EPS)
            if not abs(grid[t - 1, u] - exact) <= ORACLE_TOL:
                return False
    return True


def _csv_matches(path: Path, phi: np.ndarray) -> bool:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != phi.size:
        return False
    written = np.array([float(r[1]) for r in rows])
    return bool(np.all(np.abs(written - phi) <= CSV_REL_TOL * np.abs(phi)))
