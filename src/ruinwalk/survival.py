"""Survival probabilities: finite-time grid, ultimate-time table, generating function.

Ultimate-time values come from the law of the walk supremum M: phi(u+1) =
P(M <= u), and phi(0) is a cdf-weighted combination of the boundary masses.
The masses themselves are read off the generating function
G_M(s) = R(s) g(s) / Q1(s) by one FFT on a circle of radius r < 1, which
needs no recurrence and so no stability horizon: roundoff is scaled by at
most r^-u_max, a fixed factor. The product over the unit-disk roots gives a
second, independent numerator for the same inversion, and the pole expansion
over the roots outside the disk a third, closed-form evaluation of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import CharPolynomial, RootSet, build_characteristic, find_unit_disk_roots, reduce_support
from .distributions import ClaimDistribution
from .errors import NearPole, RecurrenceBlowup, UnsupportedKappa
from .supremum import (
    SupremumPmf,
    cdf_toeplitz,
    denominator_factor,
    root_product,
    sup_pgf_masses,
    sup_pmf_closed_form,
)

# outside roots closer than this are too near a double pole for the
# simple-pole tail expansion
_POLE_SEPARATION = 1e-6
# longest supremum pmf the extension computes before it gives up
_EXTENSION_CAP = 200_000


@dataclass(frozen=True)
class SurvivalTable:
    phi: np.ndarray
    kappa: int
    method: str

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))


@dataclass(frozen=True)
class FiniteTimeGrid:
    """phi(u, T) for u = 0..u_max and T = 1..t_max (row T-1)."""

    phi: np.ndarray
    kappa: int
    state_cap: int | None = None

    def value(self, u: int, t: int) -> float:
        return float(self.phi[t - 1, u])


@dataclass(frozen=True)
class TailExpansion:
    """phi(u+1) = sum_k coeffs[k] * poles[k]^-(u+1); includes the unit pole."""

    poles: np.ndarray
    coeffs: np.ndarray
    unit_coeff: float

    def phi(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u))
        powers = self.poles[None, :] ** -(u[:, None] + 1.0)
        vals = (powers * self.coeffs[None, :]).sum(axis=1).real
        return vals

    def sup_mass(self, n) -> np.ndarray:
        """P(M = n) for large n: first difference of the expansion."""
        n = np.atleast_1d(np.asarray(n))
        factors = self.coeffs[None, :] * (1.0 / self.poles[None, :] - 1.0)
        vals = (factors * self.poles[None, :] ** -n[:, None]).sum(axis=1).real
        return vals


def tail_expansion(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    char: CharPolynomial,
    roots: RootSet,
) -> TailExpansion | None:
    """Exact pole expansion of the survival generating function.

    The generating function is R(s) g(s) / (-Q(s)); its unit-disk poles are
    cancelled by construction of the supremum pmf, so only s=1 and the
    strictly-outside roots of Q contribute:

        phi(u+1) = sum_rho  R(rho) g(rho) / Q'(rho) * rho^-(u+1).

    The s=1 coefficient must equal 1 (it restates the moment identity); this
    is asserted. Returns None when outside roots are too close to each other
    for the simple-pole formula.
    """
    rcoeffs = cdf_toeplitz(dist, kappa) @ sup.mass
    poles = [1.0 + 0.0j]
    outs = list(roots.outside)
    for i, w in enumerate(outs):
        for v in outs[i + 1 :]:
            if abs(w - v) <= _POLE_SEPARATION:
                return None
    poles.extend(outs)
    poles_arr = np.array(poles, dtype=complex)
    dq = npoly.polyder(char.coeffs)
    coeffs = np.empty(poles_arr.size, dtype=complex)
    for k, rho in enumerate(poles_arr):
        g = denominator_factor(dist, rho)
        qprime = npoly.polyval(rho, dq)
        if qprime == 0:
            return None
        coeffs[k] = npoly.polyval(rho, rcoeffs) * g / qprime
    unit = coeffs[0]
    if abs(unit - 1.0) > 1e-6:
        raise RecurrenceBlowup(
            f"unit-pole coefficient of the tail expansion is {unit:.8g}, expected 1; "
            "the supremum pmf does not satisfy the moment identity"
        )
    return TailExpansion(poles=poles_arr, coeffs=coeffs, unit_coeff=float(unit.real))


def _solved_masses(
    rcoeffs: np.ndarray, dist: ClaimDistribution, char: CharPolynomial, n: int
) -> np.ndarray:
    """P(M = 0..n-1) inverted from G_M, with R(s) = C @ mass from the solved masses."""
    mass, _leak = sup_pgf_masses(lambda s: npoly.polyval(s, rcoeffs), dist, char, n)
    return mass


def ultimate_survival_table(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    u_max: int,
    *,
    char: CharPolynomial,
    bound_tol: float = 1e-8,
) -> SurvivalTable:
    """phi(0)..phi(u_max) from the supremum pmf.

    phi(0) = sum_i mass_i F_X(kappa-1-i), the top coefficient of R(s);
    phi(u+1) is the partial sum of the masses P(M = 0..u), inverted from G_M
    with the solved masses in R(s).
    """
    rcoeffs = cdf_toeplitz(dist, kappa) @ sup.mass
    phi = np.empty(u_max + 1, dtype=float)
    phi[0] = rcoeffs[-1]
    phi[1:] = np.cumsum(_solved_masses(rcoeffs, dist, char, u_max))
    if np.any(phi < -bound_tol) or np.any(phi > 1.0 + bound_tol):
        raise RecurrenceBlowup("survival table left [0, 1]")
    return SurvivalTable(phi=phi, kappa=kappa, method="pgf_fft")


def closed_form_initial_values(roots: RootSet, dist: ClaimDistribution, kappa: int) -> np.ndarray:
    """phi(0)..phi(kappa) from the unit-disk roots alone.

    phi(0) = (kappa - E X) / prod_j (1 - alpha_j); the rest are partial sums
    of the root-product supremum pmf. Repeated roots count with multiplicity.
    """
    alphas = roots.values_with_multiplicity()
    out = np.empty(kappa + 1, dtype=float)
    out[0] = ((kappa - dist.mean()) / np.prod(1.0 - alphas)).real
    out[1:] = np.cumsum(sup_pmf_closed_form(dist, kappa, roots).mass)
    return out


def survival_gf(sup: SupremumPmf, dist: ClaimDistribution, kappa: int, s: complex) -> complex:
    """Generating function of phi(1), phi(2), ... evaluated at s."""
    den = dist.pgf(s) - s**kappa
    if abs(den) <= 1e-12:
        raise NearPole(f"generating function evaluated within 1e-12 of a zero of G_X(s)-s^kappa at s={s}")
    num = npoly.polyval(s, cdf_toeplitz(dist, kappa) @ sup.mass)
    return num / den


def survival_gf_closed(
    dist: ClaimDistribution,
    kappa: int,
    s: complex,
    *,
    roots: RootSet | None = None,
) -> complex:
    """Premium-rate 1 and 2 closed forms of the survival generating function.

    kappa=1:              (1 - E X) / (G_X(s) - s)
    kappa=2, x0 > 0:      (2 - E X)/(alpha - 1) * (alpha - s)/(G_X(s) - s^2)
    kappa=2, x0 = 0:      (2 - E X) / (Gt(s) - s) with Gt the unit-shifted pgf
    """
    if kappa == 1:
        den = dist.pgf(s) - s
        if abs(den) <= 1e-12:
            raise NearPole("closed form evaluated too close to a denominator zero")
        return (1.0 - dist.mean()) / den
    if kappa != 2:
        raise UnsupportedKappa(f"closed generating function exists for kappa in (1, 2), got {kappa}")
    if dist.pmf(0) > 0.0:
        if roots is None:
            char = build_characteristic(dist, 2)
            roots = find_unit_disk_roots(char)
        alpha = complex(roots.values[0])
        if abs(alpha.imag) > 1e-10 or not -1.0 - 1e-9 <= alpha.real < 0.0:
            raise RecurrenceBlowup(f"kappa=2 unit-disk root {alpha} is not in [-1, 0)")
        den = dist.pgf(s) - s**2
        if abs(den) <= 1e-12:
            raise NearPole("closed form evaluated too close to a denominator zero")
        return (2.0 - dist.mean()) / (alpha - 1.0) * (alpha - s) / den
    # zero mass at the origin: cancel one power of s from both sides
    reduced, kappa2, shift = reduce_support(dist, 2)
    if kappa2 != 1:
        raise UnsupportedKappa("kappa=2 with x0=0 requires positive mass at one")
    den = reduced.pgf(s) - s
    if abs(den) <= 1e-12:
        raise NearPole("closed form evaluated too close to a denominator zero")
    return (2.0 - dist.mean()) / den


def survival_gf_coefficients(
    dist: ClaimDistribution, kappa: int, u_max: int, *, roots: RootSet
) -> np.ndarray:
    """phi(1)..phi(u_max+1) from the unit-disk roots alone.

    An independent route to the ultimate table: the same inversion of G_M,
    with the root product in place of the solved masses.
    """
    char = build_characteristic(dist, kappa)
    mass, _leak = sup_pgf_masses(root_product(dist, kappa, roots), dist, char, u_max + 1)
    return np.cumsum(mass)


def extend_sup_pmf_stable(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    *,
    char: CharPolynomial,
    tail_target: float = 1e-10,
) -> np.ndarray:
    """P(M = 0..n), with n doubled until 1 - sum of the masses is below target.

    Raises if the target is not met within _EXTENSION_CAP terms.
    """
    rcoeffs = cdf_toeplitz(dist, kappa) @ sup.mass
    n = max(2 * kappa, 16)
    while True:
        mass = _solved_masses(rcoeffs, dist, char, n + 1)
        remaining = 1.0 - float(mass.sum())
        if remaining < tail_target:
            return mass
        if n >= _EXTENSION_CAP:
            raise RecurrenceBlowup(f"supremum tail still {remaining:.3e} after {n} terms")
        n *= 2


def finite_time_grid(
    dist: ClaimDistribution,
    kappa: int,
    u_max: int,
    t_max: int,
    *,
    state_cap: int | None = None,
) -> FiniteTimeGrid:
    """Dynamic-programming grid of phi(u, T), T = 1..t_max, u = 0..u_max.

    Without a cap the state space holds the full dependence cone
    u_max + kappa*t_max and the grid is exact (up to pmf truncation for
    unbounded laws). With `state_cap` every state at or above the cap is
    treated as certain survival, which keeps the grid an upper bound whose
    error is at most the chance of ever reaching the cap; choose the cap
    where 1 - phi(cap) is negligible.

    Step t computes only the states u <= u_max + kappa*(t_max - t) that the
    remaining steps can still reach from u_max. A step reads at most kappa
    states past the previous step's last one, so kappa padding states
    suffice.
    """
    x, _tail = dist.truncate(dist.trunc_eps)
    if state_cap is None:
        length = u_max + kappa * t_max
    else:
        length = max(u_max + kappa, int(state_cap))
    v = np.ones(length + 1, dtype=float)
    rows = np.empty((t_max, u_max + 1), dtype=float)
    work = np.empty(length + 1 + kappa, dtype=float)
    for t in range(1, t_max + 1):
        n = v.size
        work[:n] = v
        work[n : n + kappa] = 1.0
        work[0] = 0.0
        top = min(length, u_max + kappa * (t_max - t))
        conv = np.convolve(x, work[: n + kappa])
        v = conv[kappa : kappa + top + 1]
        np.clip(v, 0.0, 1.0, out=v)
        rows[t - 1] = v[: u_max + 1]
    return FiniteTimeGrid(phi=rows, kappa=kappa, state_cap=state_cap)


def enumerate_finite_time(dist: ClaimDistribution, kappa: int, u: int, t: int, *, eps: float = 1e-14) -> float:
    """Exact small-horizon oracle: sum over every claim sequence of length t.

    Enumerates the full product space of the truncated support directly from
    the survival definition (every partial surplus stays positive); no state
    collapsing, so it is independent of the DP recursion it checks.
    """
    if t > 3:
        raise ValueError("enumeration oracle is for horizons <= 3")
    x, _tail = dist.truncate(eps)
    m = x.size
    shape_axes = [
        np.arange(m).reshape((1,) * k + (m,) + (1,) * (t - k - 1)) for k in range(t)
    ]
    prob = np.ones((1,) * t)
    alive = np.ones((1,) * t, dtype=bool)
    cumulative = np.zeros((1,) * t)
    for k in range(t):
        prob = prob * x[shape_axes[k]]
        cumulative = cumulative + shape_axes[k]
        surplus = u + (k + 1) * kappa - cumulative
        alive = alive & (surplus > 0)
    return float((prob * alive).sum())
