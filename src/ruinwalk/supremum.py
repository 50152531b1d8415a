"""Boundary probabilities of the walk supremum.

Let M be the all-time supremum of the centred claim walk, clipped at zero.
Its first kappa local probabilities solve a square linear system: one row per
unit-disk root of the characteristic equation (derivative rows standing in for
repeated roots), closed by a first-moment row. Every longer stretch of the
pmf comes from one FFT inversion of its generating function G_M on a circle
inside the unit disk, fed either by the solved masses or, as an independent
check, by the product over the roots; a determinant identity checks the
system itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import CharPolynomial, RootSet, build_characteristic, deflate_at_one
from .distributions import ClaimDistribution, Geometric
from .errors import ImagLeak, MultipleRootsUnsupported, SingularSystem

# FFT inversion of a pgf: at most _ALIAS_MASS aliased into each coefficient,
# and _OVERSAMPLE samples per wanted coefficient bound the r^-k rescaling
_ALIAS_MASS = 1e-13
_OVERSAMPLE = 8


@dataclass(frozen=True)
class BoundarySystem:
    """A @ mass = rhs; row_kinds tags each row (root, derivative order) or 'moment'."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_kinds: tuple
    kappa: int


@dataclass(frozen=True)
class SupremumPmf:
    """P(M = i) for i = 0..kappa-1 plus solve diagnostics."""

    mass: np.ndarray
    residual: float
    imag_leak: float
    kappa: int

    def __post_init__(self):
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))


def cdf_toeplitz(dist: ClaimDistribution, kappa: int) -> np.ndarray:
    """The cdf factor C[k, i] = F_X(k - i) of the boundary system, zero above the diagonal.

    Column i holds the coefficients, lowest degree first, of the row
    polynomial sum_j F_X(j) s^(i+j) that multiplies mass i. C @ mass is the
    numerator R(s) of G_M, and the column sums of C form the moment row.
    """
    cdf = np.array([dist.cdf(j) for j in range(kappa)], dtype=float)
    k = np.arange(kappa)
    return np.tril(cdf[k[:, None] - k])  # negative lags wrap, then tril zeroes them


def build_boundary_system(dist: ClaimDistribution, kappa: int, roots: RootSet) -> BoundarySystem:
    """Assemble the kappa x kappa system for the first supremum probabilities.

    A root row evaluates every column of the cdf factor at the root by
    Horner's rule; for a root of multiplicity l, derivative orders 0..l-1
    replace what would otherwise be l identical rows. The last row is the
    moment row with right-hand side kappa - E X. The rows are not formed as a
    Vandermonde product V @ C: near a tiny root that product leaves roundoff
    where Horner's rule cancels to exact zeros.
    """
    cdf = cdf_toeplitz(dist, kappa)
    rows = []
    kinds: list = []
    for root in roots.roots:
        for order in range(root.multiplicity):
            rows.append(npoly.polyval(root.value, npoly.polyder(cdf, order)))
            kinds.append((root.value, order))
    rows.append(cdf.sum(axis=0))
    kinds.append("moment")
    matrix = np.array(rows, dtype=complex)
    rhs = np.zeros(kappa, dtype=complex)
    rhs[-1] = kappa - dist.mean()
    return BoundarySystem(matrix=matrix, rhs=rhs, row_kinds=tuple(kinds), kappa=kappa)


def solve_boundary_system(system: BoundarySystem, *, tol_real: float = 1e-8) -> SupremumPmf:
    """Complex LU solve; the solution must be real up to tol_real."""
    try:
        sol = np.linalg.solve(system.matrix, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"boundary system is singular: {exc}") from None
    residual = float(np.max(np.abs(system.matrix @ sol - system.rhs)))
    leak = float(np.max(np.abs(sol.imag))) if sol.size else 0.0
    if leak > tol_real:
        raise ImagLeak(leak, tol_real)
    return SupremumPmf(mass=sol.real, residual=residual, imag_leak=leak, kappa=system.kappa)


def denominator_factor(dist: ClaimDistribution, s):
    """g(s) with G_X(s) - s^kappa = -Q(s) / g(s); 1 except for the geometric law."""
    if isinstance(dist, Geometric):
        return 1.0 - dist.q * s
    return 1.0 + 0.0j


def pgf_coefficients(values, n: int) -> tuple[np.ndarray, float]:
    """First n power-series coefficients of a pgf, by one FFT on |s| = r < 1.

    `values` maps an array of points to the pgf there. With N samples and
    r = _ALIAS_MASS^(1/N), each coefficient picks up aliased mass of at most
    r^N = _ALIAS_MASS, whatever the tail of the law; N >= _OVERSAMPLE * n keeps
    the rescaling by r^-k below _ALIAS_MASS^(-1/_OVERSAMPLE) ~ 42 (Abate and
    Whitt, Oper. Res. Lett. 12, 1992). Returns the real parts and the largest
    imaginary part dropped.
    """
    size = 1024
    while size < _OVERSAMPLE * n:
        size *= 2
    r = _ALIAS_MASS ** (1.0 / size)
    points = r * np.exp(2j * np.pi * np.arange(size) / size)
    coeffs = np.fft.fft(values(points))[:n] / size * r ** -np.arange(n)
    leak = float(np.max(np.abs(coeffs.imag))) if n else 0.0
    return coeffs.real, leak


def sup_pgf_masses(numerator, dist: ClaimDistribution, char: CharPolynomial, n: int):
    """P(M = 0..n-1) from G_M(s) = numerator(s) g(s) / Q1(s), where Q = (s - 1) Q1.

    The root s = 1 is divided out of Q exactly, so the quotient suffers no
    0/0 cancellation against the (s - 1) of the survival generating function.
    """
    q1 = deflate_at_one(char.coeffs)
    return pgf_coefficients(
        lambda s: numerator(s) * denominator_factor(dist, s) / npoly.polyval(s, q1), n
    )


def root_product(dist: ClaimDistribution, kappa: int, roots: RootSet):
    """(kappa - E X) prod_j (s - alpha_j)/(1 - alpha_j) over the unit-disk roots.

    The numerator R(s) of G_M vanishes at every unit-disk root, with
    multiplicity, and G_M(1) = 1 fixes its scale, so this product is R(s) up
    to roundoff, computed from the roots alone.
    """
    alphas = roots.values_with_multiplicity()
    margin = kappa - dist.mean()

    def numerator(s):
        out = np.full(s.shape, margin, dtype=complex)
        for a in alphas:
            out *= (s - a) / (1.0 - a)
        return out

    return numerator


def sup_pmf_closed_form(dist: ClaimDistribution, kappa: int, roots: RootSet) -> SupremumPmf:
    """Boundary probabilities from the root product, without the linear solve.

    The first kappa coefficients of
        G_M(s) = (kappa - E X) g(s) prod_j (s - alpha_j)/(1 - alpha_j) / Q1(s);
    repeated roots enter the product with their multiplicity.
    """
    char = build_characteristic(dist, kappa)
    mass, leak = sup_pgf_masses(root_product(dist, kappa, roots), dist, char, kappa)
    return SupremumPmf(mass=mass, residual=0.0, imag_leak=leak, kappa=kappa)


def determinant_identity_error(system: BoundarySystem, roots: RootSet, x0: float) -> float:
    """Relative error of det(A) against the factored closed form.

    det(A) = x0^kappa / (-1)^(kappa+1) * prod_j (alpha_j - 1)
             * prod_{i<j} (alpha_j - alpha_i),
    valid for simple roots, with empty products equal to one. Health check
    only; never part of the solve path.
    """
    if not roots.all_simple:
        raise MultipleRootsUnsupported("determinant identity holds for simple roots")
    kappa = system.kappa
    alphas = roots.values
    formula = x0**kappa * (-1.0) ** (kappa + 1)
    formula *= complex(np.prod(alphas - 1.0)) if alphas.size else 1.0
    for j in range(alphas.size):
        for i in range(j):
            formula *= alphas[j] - alphas[i]
    det = complex(np.linalg.det(system.matrix))
    return abs(det - formula) / abs(formula)
