"""Survival probabilities: finite-time grid, ultimate-time table, generating function.

Ultimate-time values come from the law of the walk supremum M: phi(u+1) =
P(M <= u), and phi(0) is the top coefficient of the numerator R(s) of
G_M(s) = R(s) g(s) / Q1(s). The masses are read off G_M by one FFT on a
circle of radius r < 1, which needs no recurrence and so no stability
horizon: roundoff is scaled by at most r^-u_max, a fixed factor. g and Q1
come with the characteristic polynomial, R and phi(0) with the supremum law,
from either route: the boundary solve or the product over the unit-disk
roots, an independent second numerator read by the same table code. This
module only reads the laws that `supremum` builds; a run builds each once.
The pole expansion over the roots outside the disk gives a third,
closed-form evaluation of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charpoly import CharPolynomial, RootSet, reduce_support
from .distributions import ClaimDistribution
from .errors import NearPole, RecurrenceBlowup, UnsupportedKappa
from .supremum import TOL_REAL, SupremumPmf, sup_pgf_masses

# outside roots closer than this are too near a double pole for the
# simple-pole tail expansion
_POLE_SEPARATION = 1e-6
# longest supremum pmf the extension computes before it gives up
_EXTENSION_CAP = 200_000
# the extension stops once P(M > n) is below this
EXTENSION_TAIL = 1e-10


@dataclass(frozen=True)
class SurvivalTable:
    phi: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))


@dataclass(frozen=True)
class FiniteTimeGrid:
    """phi(u, T) for u = 0..u_max and T = 1..t_max (row T-1)."""

    phi: np.ndarray

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


def tail_expansion(sup: SupremumPmf, char: CharPolynomial, roots: RootSet) -> TailExpansion | None:
    """Exact pole expansion of the survival generating function.

    The generating function is R(s) g(s) / (-Q(s)); its unit-disk poles are
    cancelled by construction of the supremum pmf, so only s=1 and the
    strictly-outside roots of Q contribute:

        phi(u+1) = sum_rho  R(rho) g(rho) / Q'(rho) * rho^-(u+1).

    The s=1 coefficient must equal 1 (it restates the moment identity); this
    is asserted. Returns None when outside roots are too close to each other
    for the simple-pole formula.
    """
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
        g = npoly.polyval(rho, char.g)
        qprime = npoly.polyval(rho, dq)
        if qprime == 0:
            return None
        coeffs[k] = sup.numerator(rho) * g / qprime
    unit = coeffs[0]
    if abs(unit - 1.0) > 1e-6:
        raise RecurrenceBlowup(
            f"unit-pole coefficient of the tail expansion is {unit:.8g}, expected 1; "
            "the supremum pmf does not satisfy the moment identity"
        )
    return TailExpansion(poles=poles_arr, coeffs=coeffs, unit_coeff=float(unit.real))


def ultimate_survival_table(sup: SupremumPmf, char: CharPolynomial, u_max: int) -> SurvivalTable:
    """phi(0)..phi(u_max) from either supremum law.

    phi(0) is sup.phi0, the top coefficient of R(s); phi(u+1) is the partial
    sum of the masses P(M = 0..u), inverted from G_M with sup.numerator as R.
    """
    phi = np.r_[sup.phi0, np.cumsum(sup_pgf_masses(sup.numerator, char, u_max)[0])]
    if not np.all((phi >= -TOL_REAL) & (phi <= 1.0 + TOL_REAL)):
        raise RecurrenceBlowup("survival table left [0, 1]")
    return SurvivalTable(phi=phi, method="pgf_fft")


def closed_form_initial_values(closed: SupremumPmf) -> np.ndarray:
    """phi(0)..phi(kappa) from the unit-disk roots alone.

    phi(0) = (kappa - E X) / prod_j (1 - alpha_j) is closed.phi0; the rest
    are partial sums of the root-product supremum pmf `closed`
    (sup_pmf_closed_form). Repeated roots count with multiplicity.
    """
    return np.r_[closed.phi0, np.cumsum(closed.mass)]


def survival_gf(sup: SupremumPmf, dist: ClaimDistribution, kappa: int, s: complex) -> complex:
    """Generating function of phi(1), phi(2), ... evaluated at s."""
    den = dist.pgf(s) - s**kappa
    if abs(den) <= 1e-12:
        raise NearPole(f"generating function evaluated within 1e-12 of a zero of G_X(s)-s^kappa at s={s}")
    return sup.numerator(s) / den


def survival_gf_closed(
    dist: ClaimDistribution,
    kappa: int,
    s: complex,
    *,
    roots: RootSet,
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


def survival_gf_coefficients(closed: SupremumPmf, char: CharPolynomial, u_max: int) -> np.ndarray:
    """phi(1)..phi(u_max+1) from the unit-disk roots alone.

    An independent route to the ultimate table: the same table code, fed the
    root-product law `closed` (sup_pmf_closed_form) in place of the solved
    one. A one-line reader of `ultimate_survival_table`, kept as a named
    function because the benchmark tracer wraps it by this name in
    `ruinwalk.pipeline`.
    """
    return ultimate_survival_table(closed, char, u_max + 1).phi[1:]


def extend_sup_pmf_stable(sup: SupremumPmf, char: CharPolynomial) -> np.ndarray:
    """P(M = 0..n), with n doubled until 1 - sum of the masses is below EXTENSION_TAIL.

    Raises if the target is not met within _EXTENSION_CAP terms.
    """
    n = max(2 * char.kappa, 16)
    while True:
        mass = sup_pgf_masses(sup.numerator, char, n + 1)[0]
        remaining = 1.0 - float(mass.sum())
        if remaining < EXTENSION_TAIL:
            return mass
        if n >= _EXTENSION_CAP:
            raise RecurrenceBlowup(f"supremum tail still {remaining:.3e} after {n} terms")
        n *= 2


def _one_pole(q: float, y: np.ndarray) -> None:
    """y_j <- y_j + q y_{j-1}, in place from j = 1 up: y convolved with q^k.

    A doubling scan: after the pass with shift k, y_j holds the terms of
    the lags below 2k, and the pass adds q^k y_{j-k}. The passes (at most
    log2(len(y))) are elementwise, so y_j depends on y_0..y_j alone,
    whatever the length of y. Every weight is a power of q <= 1 and every
    term is non-negative, so nothing cancels, and a nondecreasing y stays
    nondecreasing in floating point too: each pass adds a nondecreasing
    non-negative sequence to one.

    y must be nondecreasing and non-negative, as a DP row convolved with A
    is. Then y_{j-k} <= y_j, so once q^k <= 2^-55 a pass adds less than half an
    ulp of y_j and changes no bit; the scan stops there. (At 2^-54 a subnormal
    term could round up to exactly half an ulp, and the tie could round up.)
    """
    shifted = np.empty_like(y)
    k = 1
    while k < y.size and q**k > 2.0**-55:
        np.multiply(y[:-k], q**k, out=shifted[k:])
        y[k:] += shifted[k:]
        k *= 2


def _claim_filter(dist: ClaimDistribution):
    """w -> x * w for the claim law x = A / g, exact in its first w.size entries.

    One np.convolve by A, then the pole of g = 1 - q s as `_one_pole`, so
    an unbounded law runs with no truncation.
    """
    a, g = dist.pgf_ratio()
    assert g.size <= 2, "the DP step runs at most one pole"

    def step(w: np.ndarray) -> np.ndarray:
        y = np.convolve(a, w)
        if g.size == 2:
            _one_pole(-g[1], y)
        return y

    return step


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
    u_max + kappa*t_max and the grid is exact up to roundoff. With
    `state_cap` every state at or above the cap is treated as certain
    survival, which keeps the grid an upper bound whose error is at most the
    chance of ever reaching the cap; choose the cap where 1 - phi(cap) is
    negligible.

    Step t computes only the states u <= u_max + kappa*(t_max - t) that the
    remaining steps can still reach from u_max. A step reads at most kappa
    states past the previous step's last one, so kappa padding states
    suffice. The step's convolution with the claim law is `_claim_filter`.
    """
    if state_cap is None:
        length = u_max + kappa * t_max
    else:
        length = max(u_max + kappa, int(state_cap))
    v = np.ones(length + 1, dtype=float)
    rows = np.empty((t_max, u_max + 1), dtype=float)
    work = np.empty(length + 1 + kappa, dtype=float)
    step = _claim_filter(dist)
    for t in range(1, t_max + 1):
        n = v.size
        work[:n] = v
        work[n : n + kappa] = 1.0
        work[0] = 0.0
        top = min(length, u_max + kappa * (t_max - t))
        v = step(work[: n + kappa])[kappa : kappa + top + 1]
        np.clip(v, 0.0, 1.0, out=v)
        rows[t - 1] = v[: u_max + 1]
    return FiniteTimeGrid(phi=rows)


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
