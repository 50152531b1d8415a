"""Characteristic polynomial of the surplus recursion and its unit-disk roots.

The survival analysis needs the roots of s^kappa = G_X(s) inside the closed
unit disk, excluding the ever-present root s = 1 and counted with
multiplicity; there are exactly kappa-1 of them under the net profit
condition. Roots strictly outside the disk are kept as well: they are the
poles that drive the stable large-u tail of the survival table.

The roots are the eigenvalues of the balanced companion matrix of the
polynomial deflated by (s - 1), clustered into multiple roots and polished by
multiplicity-aware Newton steps. A cluster is a connected component of the
graph that joins raw roots at most TOL_CLUSTER apart; the components must be
the same at a tenth and at ten times TOL_CLUSTER. The tests check the roots
against mpmath.polyroots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .distributions import ClaimDistribution, FinitePmf
from .errors import (
    AmbiguousCluster,
    ConvergenceFailure,
    ReductionError,
    RootCountMismatch,
    RuinwalkError,
)

_DEFLATION_REL = 1e-12
# an accepted root of multiplicity l leaves |Q^(j)| below TOL_ROOT times the
# coefficient sum for every order j < l; raw roots this close to s = 1 are dropped
TOL_ROOT = 1e-10
# raw roots closer than TOL_CLUSTER form one multiple root; the partition
# must not change between TOL_CLUSTER / 10 and TOL_CLUSTER * 10
TOL_CLUSTER = 1e-6
# roots with ||s| - 1| <= TOL_BOUNDARY lie on the unit circle and count as
# unit-disk roots
TOL_BOUNDARY = 1e-8
_NEWTON_MAX_ITER = 80


@dataclass(frozen=True)
class CharPolynomial:
    """Q(s) with Q = 0 iff s^kappa = G_X(s); coefficients lowest degree first.

    g is the pgf denominator, G_X(s) - s^kappa = -Q(s) / g(s); q1 = Q / (s - 1).
    """

    coeffs: np.ndarray
    kappa: int
    g: np.ndarray
    q1: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.size - 1 < self.kappa:
            raise RuinwalkError("characteristic polynomial degree is too small")
        object.__setattr__(self, "q1", deflate_at_one(c))

    @property
    def degree(self) -> int:
        return int(self.coeffs.size - 1)

    def eval(self, s) -> complex | np.ndarray:
        return npoly.polyval(s, self.coeffs)


@dataclass(frozen=True)
class DiskRoot:
    value: complex
    multiplicity: int
    on_boundary: bool


@dataclass(frozen=True)
class RootSet:
    """Unit-disk roots (s != 1) with multiplicities, plus outside poles."""

    roots: tuple[DiskRoot, ...]
    outside: tuple[complex, ...] = ()

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.roots], dtype=complex)

    @property
    def all_simple(self) -> bool:
        return all(r.multiplicity == 1 for r in self.roots)

    def values_with_multiplicity(self) -> np.ndarray:
        """Roots repeated by multiplicity, e.g. for symmetric functions."""
        out: list[complex] = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return np.array(out, dtype=complex)

    def to_records(self) -> list[dict]:
        return [
            {
                "re": float(r.value.real),
                "im": float(r.value.imag),
                "multiplicity": r.multiplicity,
                "on_boundary": r.on_boundary,
            }
            for r in self.roots
        ]


def reduce_support(dist: ClaimDistribution, kappa: int):
    """Shift away a deterministic claim floor: (X, kappa) -> (X - m, kappa - m).

    The surplus path is unchanged (u + kappa*n - sum X_i is invariant under
    the joint shift), so every survival quantity carries over. Leaves zero
    mass at the origin positive, which downstream solvers require.
    """
    m = dist.min_support()
    if m == 0:
        return dist, kappa, 0
    if m >= kappa:
        # P(X >= kappa) = 1 forces EX >= kappa, so the caller's net profit
        # precondition is already broken
        raise ReductionError(
            f"minimal claim {m} reaches premium rate {kappa}; model cannot survive"
        )
    assert isinstance(dist, FinitePmf), "only finite pmfs can have a positive support floor"
    shifted = FinitePmf(dist.probabilities[m:])
    return shifted, kappa - m, m


def build_characteristic(dist: ClaimDistribution, kappa: int) -> CharPolynomial:
    """Polynomial Q with Q(s) = 0 iff s^kappa = G_X(s), with exact coefficients.

    With the pgf ratio G_X = A / g, Q(s) = s^kappa g(s) - A(s), with no
    truncation error. The geometric g(s) = 1 - (1-p) s adds no root in the
    closed disk: its zero 1/(1-p) > 1 is not a root of Q.
    """
    if dist.pmf(0) <= 0.0:
        raise ValueError("build_characteristic requires positive mass at zero; reduce support first")
    a, g = dist.pgf_ratio()
    coeffs = np.zeros(max(kappa + g.size, a.size))
    coeffs[: a.size] = -a
    coeffs[kappa : kappa + g.size] += g
    return CharPolynomial(coeffs, kappa, g)


def deflate_at_one(coeffs: np.ndarray) -> np.ndarray:
    """Synthetic division of Q by (s - 1); the remainder must be negligible."""
    c = np.asarray(coeffs, dtype=float)
    # b_k = c_n + c_(n-1) + ... + c_(k+1), summed from the top down
    b = np.cumsum(c[:0:-1])[::-1]
    remainder = c[0] + b[0]
    # + 1 for the s^kappa term, whose roundoff stays when x_kappa ~ 1 cancels it
    scale = np.abs(c).sum() + 1.0
    if abs(remainder) > _DEFLATION_REL * scale:
        raise RuinwalkError(
            f"deflation of the root s=1 left remainder {remainder:.3e} (scale {scale:.3e})"
        )
    return b


def companion_roots(coeffs) -> np.ndarray:
    """All roots of a real polynomial (lowest degree first) as the eigenvalues
    of its balanced companion matrix; complex roots come in exact conjugate pairs.
    """
    c = np.asarray(coeffs, dtype=float)
    try:
        return np.roots(c[::-1])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"companion eigenvalues: {exc}") from exc


def _components(points: np.ndarray, tol: float) -> np.ndarray:
    """Connected components of the graph |z_i - z_j| <= tol, as the smallest
    index in each point's component (the minimum label spreads until stable)."""
    near = np.abs(points[:, None] - points[None, :]) <= tol
    labels = np.arange(points.size)
    while True:
        spread = np.where(near, labels, points.size).min(axis=1)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _groups(points: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """The points of each component, in the order of their smallest indices."""
    return [points[labels == k] for k in np.flatnonzero(labels == np.arange(labels.size))]


def cluster_multiplicities(raw) -> list[tuple[complex, int]]:
    """Merge near-identical root approximations into (centroid, multiplicity).

    Components only merge as the tolerance grows, so when the partitions at
    TOL_CLUSTER/10 and TOL_CLUSTER*10 agree, the one at TOL_CLUSTER is the
    same. Raises AmbiguousCluster when they differ: the data cannot then tell
    a multiple root from a tight cluster of simple ones.
    """
    pts = np.asarray(raw, dtype=complex)
    if pts.size == 0:
        return []
    tight = _components(pts, TOL_CLUSTER / 10.0)
    loose = _components(pts, TOL_CLUSTER * 10.0)
    if not np.array_equal(tight, loose):
        raise AmbiguousCluster(
            f"clustering is sensitive near TOL_CLUSTER={TOL_CLUSTER:g}",
            tight=[list(g) for g in _groups(pts, tight)],
            loose=[list(g) for g in _groups(pts, loose)],
        )
    out = []
    for group in _groups(pts, tight):
        centroid = complex(group.mean())
        if abs(centroid.imag) <= TOL_CLUSTER / 2.0:
            centroid = complex(centroid.real, 0.0)
        out.append((centroid, group.size))
    return out


def _newton_polish(coeffs: np.ndarray, z0: complex) -> complex:
    z = complex(z0)
    c = np.asarray(coeffs, dtype=complex)
    dc = npoly.polyder(c)
    for _ in range(_NEWTON_MAX_ITER):
        dp = npoly.polyval(z, dc)
        if dp == 0:
            break
        step = npoly.polyval(z, c) / dp
        z = z - step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def find_unit_disk_roots(char: CharPolynomial) -> RootSet:
    """Locate the kappa-1 roots of Q in |s| <= 1, s != 1, with multiplicities.

    Boundary roots (|s| ~ 1, e.g. roots of unity when the support lattice is
    coarser than the integers) are accepted. Everything strictly outside the
    disk is returned separately for tail-expansion use.
    """
    expected = char.kappa - 1
    deflated = char.q1
    if deflated.size - 1 <= 0:
        if expected != 0:
            raise RootCountMismatch(0, expected)
        return RootSet(roots=())

    raw = companion_roots(deflated)
    inside_mask = (np.abs(raw) <= 1.0 + TOL_BOUNDARY) & (np.abs(raw - 1.0) > TOL_ROOT)
    inside_raw = raw[inside_mask]
    outside_raw = raw[np.abs(raw) > 1.0 + TOL_BOUNDARY]

    clusters = cluster_multiplicities(inside_raw)

    # polish each cluster: a multiplicity-l root of Q is a simple root of
    # Q^(l-1), where Newton converges quadratically again
    final: list[tuple[complex, int]] = []
    for value, mult in clusters:
        target = npoly.polyder(char.coeffs, mult - 1) if mult > 1 else char.coeffs
        z = _newton_polish(target, value)
        if abs(z.imag) <= TOL_CLUSTER / 2.0:
            z = complex(z.real, 0.0)
        final.append((z, mult))

    # the eigenvalues of a real matrix come in exact conjugate pairs, and a
    # Newton step on a real polynomial keeps a pair conjugate bit for bit
    total = sum(m for _, m in final)
    conjugates = Counter((z.conjugate(), m) for z, m in final)
    if total != expected or Counter(final) != conjugates:
        raise RootCountMismatch(total, expected, roots=[z for z, _ in final])

    values = np.array([z for z, _ in final], dtype=complex)
    mults = np.array([m for _, m in final], dtype=int)
    scale0 = float(np.abs(char.coeffs).sum())
    for j in range(mults.max(initial=0)):
        dcoeffs = npoly.polyder(char.coeffs, j) if j else char.coeffs
        scale = float(np.abs(dcoeffs).sum())
        tested = values[mults > j]
        failed = tested[np.abs(npoly.polyval(tested, dcoeffs)) > TOL_ROOT * max(scale, scale0)]
        if failed.size:
            raise ConvergenceFailure(f"root {failed[0]} fails the order-{j} residual test")

    roots = tuple(
        DiskRoot(value, mult, bool(abs(abs(value) - 1.0) <= TOL_BOUNDARY))
        for value, mult in final
    )
    outside = tuple(_newton_polish(char.coeffs, z) for z in outside_raw)
    return RootSet(roots=roots, outside=outside)
