"""Survival probabilities: finite-time grid, ultimate-time table, generating function.

Ultimate-time values come from the supremum pmf: phi(u+1) is its partial sum,
phi(0) a cdf-weighted combination, and larger u follow from the convolution
recurrence. That forward recurrence is exponentially unstable once the
characteristic equation has unit-disk roots of modulus < 1 (roundoff excites
modes growing like (1/|alpha|)^u), so the table switches to the exact
pole expansion of the generating function - a sum of decaying powers of the
strictly-outside roots plus the constant 1 from the pole at s=1 - beyond a
principled stability horizon. The two representations are asserted to agree
where they overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import CharPolynomial, RootSet, build_characteristic, find_unit_disk_roots, reduce_support
from .distributions import ClaimDistribution, Geometric
from .errors import (
    MultipleRootsUnsupported,
    NearPole,
    RecurrenceBlowup,
    UnsupportedKappa,
)
from .supremum import SupremumPmf, extend_sup_pmf, row_polynomial_coeffs

_INJECTED_EPS = 1e-15
_STABLE_TARGET = 1e-12
_HUGE_HORIZON = 10**9


@dataclass(frozen=True)
class SurvivalTable:
    phi: np.ndarray
    kappa: int
    method: str
    stability_horizon: int
    tail_start: int | None = None
    warnings: tuple[str, ...] = ()

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


def survival_numerator_coeffs(sup: SupremumPmf, dist: ClaimDistribution, kappa: int) -> np.ndarray:
    """Coefficients of R(s) = sum_i mass_i sum_j F_X(j) s^(i+j); degree <= kappa-1."""
    coeffs = np.zeros(kappa, dtype=float)
    for i in range(kappa):
        coeffs += sup.mass[i] * row_polynomial_coeffs(dist, kappa, i)
    return coeffs


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


def _denominator_factor(dist: ClaimDistribution, s: complex) -> complex:
    """g(s) with G_X(s) - s^kappa = -Q(s) / g(s); 1 except for the geometric law."""
    if isinstance(dist, Geometric):
        return 1.0 - dist.q * s
    return 1.0 + 0.0j


def tail_expansion(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    char: CharPolynomial,
    roots: RootSet,
    *,
    separation_tol: float = 1e-6,
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
    rcoeffs = survival_numerator_coeffs(sup, dist, kappa)
    poles = [1.0 + 0.0j]
    outs = list(roots.outside)
    for i, w in enumerate(outs):
        for v in outs[i + 1 :]:
            if abs(w - v) <= separation_tol:
                return None
    poles.extend(outs)
    poles_arr = np.array(poles, dtype=complex)
    dq = npoly.polyder(char.coeffs)
    coeffs = np.empty(poles_arr.size, dtype=complex)
    for k, rho in enumerate(poles_arr):
        g = _denominator_factor(dist, rho)
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


def stability_horizon(roots: RootSet, *, target: float = _STABLE_TARGET) -> int:
    """Largest table index the forward recurrences resolve to ~target accuracy.

    Roundoff injected at scale ~1e-15 grows like (1/|alpha|)^u for each
    unit-disk root alpha; boundary roots (|alpha| = 1) do not grow. A
    multiplicity above one costs an extra decade of safety.
    """
    if not roots.roots:
        return _HUGE_HORIZON
    if not all(r.multiplicity == 1 for r in roots.roots):
        target = target / 10.0
    modulus = roots.min_modulus()
    if modulus >= 1.0 - 1e-12:
        return _HUGE_HORIZON
    growth = math.log(1.0 / modulus)
    return max(0, int(math.log(target / _INJECTED_EPS) / growth))


def ultimate_survival_table(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    u_max: int,
    *,
    roots: RootSet | None = None,
    char: CharPolynomial | None = None,
    bound_tol: float = 1e-8,
    overlap_tol: float = 1e-8,
) -> SurvivalTable:
    """phi(0)..phi(u_max) from the supremum pmf.

    phi(u) for u <= kappa are partial sums of the pmf (phi(0) uses cdf
    weights); beyond that the convolution recurrence runs up to the stability
    horizon and the pole expansion carries the tail, with both checked to
    agree on the overlap window.
    """
    x0 = dist.pmf(0)
    if x0 <= 0.0:
        raise ValueError("ultimate table requires positive mass at zero; reduce support first")
    warnings: list[str] = []
    phi = np.empty(u_max + 1, dtype=float)
    phi[0] = sum(sup.mass[i] * dist.cdf(kappa - 1 - i) for i in range(kappa))
    csum = np.cumsum(sup.mass)
    for u in range(1, min(kappa, u_max) + 1):
        phi[u] = csum[u - 1]

    horizon = stability_horizon(roots) if roots is not None else _HUGE_HORIZON
    tail = None
    if roots is not None and char is not None:
        tail = tail_expansion(sup, dist, kappa, char, roots)
    if x0 < 0.05 and u_max > 50:
        warnings.append(f"low mass at zero (x0={x0:.3g}) with a long table; recurrence divides by x0 each step")
    if horizon < u_max and tail is None:
        warnings.append(
            f"forward recurrence loses accuracy beyond u~{horizon} and no pole tail is available"
        )

    maxs = dist.max_support()
    # the tail may only take over beyond the definitional partial-sum block
    rec_end = u_max if tail is None else max(min(u_max, horizon), min(kappa, u_max))
    for w in range(kappa + 1, rec_end + 1):
        lo = 1 if maxs is None else max(1, w - maxs)
        acc = sum(dist.pmf(w - i) * phi[i] for i in range(lo, w))
        phi[w] = (phi[w - kappa] - acc) / x0
        if not (-bound_tol <= phi[w] <= 1.0 + bound_tol):
            raise RecurrenceBlowup(
                f"phi({w}) = {phi[w]:.6g} left [0, 1]; forward recurrence is unstable here"
            )

    tail_start = None
    method = "pi_sum+recurrence"
    if tail is not None and rec_end < u_max:
        tail_start = rec_end + 1
        us = np.arange(tail_start, u_max + 1)
        phi[tail_start:] = tail.phi(us - 1)
        # overlap check: the last few recurrence values against the expansion
        lo = max(kappa + 1, rec_end - kappa)
        if lo <= rec_end:
            overlap = np.arange(lo, rec_end + 1)
            diff = np.max(np.abs(tail.phi(overlap - 1) - phi[lo : rec_end + 1]))
            if diff > overlap_tol:
                raise RecurrenceBlowup(
                    f"recurrence and pole expansion disagree by {diff:.3e} at the stitch point"
                )
        method = "pi_sum+recurrence+pole_tail"

    if np.any(phi < -bound_tol) or np.any(phi > 1.0 + bound_tol):
        raise RecurrenceBlowup("survival table left [0, 1]")
    return SurvivalTable(
        phi=phi,
        kappa=kappa,
        method=method,
        stability_horizon=horizon,
        tail_start=tail_start,
        warnings=tuple(warnings),
    )


def closed_form_initial_values(roots: RootSet, dist: ClaimDistribution, kappa: int) -> np.ndarray:
    """phi(0)..phi(kappa) by root products and the symmetric-function cascade.

    phi(0) = (kappa - E X) (-1)^(kappa+1) prod_j 1/(alpha_j - 1); the rest are
    partial sums of the closed-form supremum pmf. Simple roots only.
    """
    from .supremum import sup_pmf_closed_form

    if not roots.all_simple:
        raise MultipleRootsUnsupported("closed-form initial values need simple roots")
    alphas = roots.values_with_multiplicity()
    margin = kappa - dist.mean()
    prod = complex(np.prod(alphas - 1.0)) if alphas.size else 1.0 + 0.0j
    out = np.empty(kappa + 1, dtype=float)
    phi0 = margin * (-1.0) ** (kappa + 1) / prod
    out[0] = phi0.real
    mass = sup_pmf_closed_form(dist, kappa, roots).mass
    out[1:] = np.cumsum(mass)
    return out


def survival_gf(sup: SupremumPmf, dist: ClaimDistribution, kappa: int, s: complex) -> complex:
    """Generating function of phi(1), phi(2), ... evaluated at s."""
    den = dist.pgf(s) - s**kappa
    if abs(den) <= 1e-12:
        raise NearPole(f"generating function evaluated within 1e-12 of a zero of G_X(s)-s^kappa at s={s}")
    num = npoly.polyval(s, survival_numerator_coeffs(sup, dist, kappa))
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
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    u_max: int,
    *,
    roots: RootSet | None = None,
    char: CharPolynomial | None = None,
    bound_tol: float = 1e-6,
    overlap_tol: float = 1e-8,
) -> np.ndarray:
    """phi(1)..phi(u_max+1) by power-series division of the generating function.

    An independent route to the ultimate table: long division of R(s) g(s) by
    the characteristic polynomial -Q(s), with kappa guard coefficients
    validating that the division has not drifted out of [0, 1]. Beyond the
    stability horizon the pole expansion supplies the coefficients, exactly
    as in the table route.
    """
    if char is None:
        char = build_characteristic(dist, kappa)
    num = survival_numerator_coeffs(sup, dist, kappa).astype(float)
    gcoeffs = np.array([1.0]) if not isinstance(dist, Geometric) else np.array([1.0, -dist.q])
    num_full = npoly.polymul(num, gcoeffs)
    den = -char.coeffs
    horizon = stability_horizon(roots) if roots is not None else _HUGE_HORIZON
    tail = None
    if roots is not None and char is not None:
        tail = tail_expansion(sup, dist, kappa, char, roots)

    n_div = u_max if tail is None else min(u_max, horizon)
    n_guard = n_div + kappa
    out = np.zeros(n_guard + 1, dtype=float)
    for n in range(n_guard + 1):
        acc = num_full[n] if n < num_full.size else 0.0
        for k in range(1, min(n, den.size - 1) + 1):
            acc -= den[k] * out[n - k]
        out[n] = acc / den[0]
    guards = out[n_div + 1 :]
    if np.any(guards < -bound_tol) or np.any(guards > 1.0 + bound_tol):
        if tail is None:
            raise RecurrenceBlowup("series division drifted out of [0, 1] in the guard band")
    coeffs = np.zeros(u_max + 1, dtype=float)
    keep = min(n_div, u_max)
    coeffs[: keep + 1] = out[: keep + 1]
    if tail is not None and n_div < u_max:
        us = np.arange(n_div + 1, u_max + 1)
        coeffs[n_div + 1 :] = tail.phi(us)
        lo = max(0, n_div - kappa)
        overlap = np.arange(lo, n_div + 1)
        diff = np.max(np.abs(tail.phi(overlap) - coeffs[lo : n_div + 1]))
        if diff > overlap_tol:
            raise RecurrenceBlowup(
                f"series division and pole expansion disagree by {diff:.3e} at the stitch point"
            )
    return coeffs


def extend_sup_pmf_stable(
    sup: SupremumPmf,
    dist: ClaimDistribution,
    kappa: int,
    *,
    roots: RootSet,
    char: CharPolynomial,
    tail_target: float = 1e-10,
    n_cap: int = 200_000,
) -> np.ndarray:
    """Supremum pmf extended until the remaining tail mass is below target.

    The convolution recurrence runs inside its stability window; beyond it the
    pole expansion supplies the masses. Raises if the target is unreachable.
    """
    tail = tail_expansion(sup, dist, kappa, char, roots)
    horizon = stability_horizon(roots)

    def tail_mass(mass: np.ndarray) -> float:
        if tail is None:
            return 1.0 - float(mass.sum())
        # P(M > n) from the outside poles alone: 1 - sum(mass) cancels down
        # to a roundoff floor near 1e-12, below which no target is reachable
        n = mass.size - 1
        return -float((tail.coeffs[1:] * tail.poles[1:] ** -(n + 1.0)).sum().real)

    n = max(2 * kappa, 16)
    while True:
        n_rec = min(n, max(horizon, kappa))
        mass = extend_sup_pmf(sup, dist, kappa, n_rec, check_negative=False)
        if n > n_rec:
            if tail is None:
                raise RecurrenceBlowup(
                    "supremum tail target unreachable: recurrence horizon "
                    f"{horizon} reached and no pole expansion is available"
                )
            ext = tail.sup_mass(np.arange(n_rec + 1, n + 1))
            mass = np.concatenate([mass, ext])
        if tail_mass(mass) < tail_target:
            return mass
        if n >= n_cap:
            raise RecurrenceBlowup(
                f"supremum tail still {tail_mass(mass):.3e} after {n} terms"
            )
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
    """
    x, _tail = dist.truncate(dist.trunc_eps)
    m = x.size - 1
    if state_cap is None:
        length = u_max + kappa * t_max
    else:
        length = max(u_max + kappa, int(state_cap))
    v = np.ones(length + 1, dtype=float)
    rows = np.empty((t_max, u_max + 1), dtype=float)
    work = np.empty(length + 1 + kappa + m, dtype=float)
    for t in range(1, t_max + 1):
        work[: length + 1] = v
        work[length + 1 :] = 1.0
        work[0] = 0.0
        conv = np.convolve(x, work)
        v = conv[kappa : kappa + length + 1]
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
