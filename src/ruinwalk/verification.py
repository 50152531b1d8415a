"""Independent verification paths: Monte Carlo, stationarity, sequence limits.

Everything here avoids the analytic solve chain on purpose: walks are
simulated with integer arithmetic and counter-based RNG streams, the
supremum's stationarity is checked empirically, and for premium rate 2 the
survival initial values are recovered from ratios of recurrent sequences.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .distributions import ClaimDistribution, check_net_profit
from .errors import NonConvergence
from .supremum import cdf_toeplitz
from .survival import finite_time_grid

_CHUNK = 65_536
_BLOCK = 192
_SLICE = 512


@dataclass(frozen=True)
class McEstimate:
    u: np.ndarray
    phi_hat: np.ndarray
    std_err: np.ndarray
    paths: int
    horizon: int
    effective_horizon: int
    seed: int
    suprema: np.ndarray


@dataclass(frozen=True)
class StationarityReport:
    tv: float
    sampling_noise: float
    paths: int
    horizon: int
    support_cap: int


@dataclass(frozen=True)
class SequenceLimits:
    phi0: float
    phi1: float
    stopped_at: int
    gap: float


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Counter-based stream for one fixed-size path chunk.

    Chunking is fixed at 65536 paths regardless of how work is distributed,
    so path p is reproducible from (seed, p) by regenerating chunk p // 65536.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _effective_horizon(dist: ClaimDistribution, kappa: int, horizon: int) -> int:
    # when claims never exceed the premium the partial sums are
    # non-increasing, so the supremum is reached at the very first step
    maxs = dist.max_support()
    if maxs is not None and maxs <= kappa:
        return 1
    return horizon


def _simulate_suprema_chunk(
    dist: ClaimDistribution,
    kappa: int,
    rng: np.random.Generator,
    n_paths: int,
    horizon: int,
):
    """Unclipped running suprema of the centred walk for one chunk of paths.

    Consumption of the stream is a fixed function of (n_paths, horizon), so a
    path's draws depend only on its chunk and position, never on the fate of
    other paths. Each block of up to _BLOCK steps is one path-major segment of
    the stream, (n_paths, b) in C order; it is drawn in consecutive slices of
    _SLICE paths, which read that segment in the same order while the
    subtract, cumsum and max of a slice stay in cache.
    """
    running = np.zeros(n_paths, dtype=np.int64)
    best = np.full(n_paths, np.iinfo(np.int64).min, dtype=np.int64)
    done = 0
    while done < horizon:
        b = min(_BLOCK, horizon - done)
        for lo in range(0, n_paths, _SLICE):
            hi = min(lo + _SLICE, n_paths)
            draws = dist.sample(rng, (hi - lo, b))
            np.subtract(draws, kappa, out=draws)
            draws[:, 0] += running[lo:hi]
            np.cumsum(draws, axis=1, out=draws)
            np.maximum(best[lo:hi], draws.max(axis=1), out=best[lo:hi])
            running[lo:hi] = draws[:, -1]
        done += b
    return best


def _suprema_task(args):
    dist, kappa, seed, chunk_index, n, horizon = args
    rng = _chunk_rng(seed, chunk_index)
    return chunk_index, _simulate_suprema_chunk(dist, kappa, rng, n, horizon)


def _all_suprema(
    dist: ClaimDistribution,
    kappa: int,
    paths: int,
    horizon: int,
    seed: int,
    workers: int,
) -> np.ndarray:
    """Suprema for every path, merged from fixed-size chunks.

    Chunk streams are keyed (seed, chunk index), so the result does not depend
    on how many workers processed them.
    """
    sizes = []
    remaining = paths
    while remaining > 0:
        sizes.append(min(_CHUNK, remaining))
        remaining -= sizes[-1]
    tasks = [(dist, kappa, seed, i, n, horizon) for i, n in enumerate(sizes)]
    out = np.empty(paths, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if workers <= 1 or len(tasks) == 1:
        results = map(_suprema_task, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_suprema_task, tasks))
        finally:
            pool.shutdown()
    for chunk_index, best in results:
        out[offsets[chunk_index] : offsets[chunk_index + 1]] = best
    return out


def mc_survival(
    dist: ClaimDistribution,
    kappa: int,
    u_list,
    paths: int,
    horizon: int,
    seed: int,
    *,
    workers: int = 1,
) -> McEstimate:
    """Monte Carlo survival estimates, one per initial surplus.

    A path survives level u iff its walk supremum over the horizon stays
    strictly below u; the estimate is therefore biased upward by at most the
    chance of ruin after the horizon. Integer walk state throughout; fixed
    Philox chunking makes the result bit-reproducible and independent of the
    worker count. The unclipped suprema are kept for the stationarity check.
    """
    check_net_profit(dist, kappa).require_ok()
    u_arr = np.asarray(sorted(set(int(u) for u in u_list)), dtype=np.int64)
    eff = _effective_horizon(dist, kappa, horizon)
    best = _all_suprema(dist, kappa, paths, eff, seed, workers)
    phi_hat = (best[None, :] < u_arr[:, None]).mean(axis=1)
    std_err = np.sqrt(phi_hat * (1.0 - phi_hat) / paths)
    return McEstimate(
        u=u_arr,
        phi_hat=phi_hat,
        std_err=std_err,
        paths=paths,
        horizon=horizon,
        effective_horizon=eff,
        seed=seed,
        suprema=best,
    )


def mc_walk_suprema(
    dist: ClaimDistribution,
    kappa: int,
    paths: int,
    horizon: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Horizon-truncated samples of the unclipped walk supremum.

    Counting (suprema < u) reproduces mc_survival bit-for-bit at the same
    (seed, paths, horizon): both consume the chunk streams identically.
    """
    check_net_profit(dist, kappa).require_ok()
    eff = _effective_horizon(dist, kappa, horizon)
    return _all_suprema(dist, kappa, paths, eff, seed, workers)


def mc_stationarity_distance(
    dist: ClaimDistribution,
    kappa: int,
    suprema: np.ndarray,
    *,
    horizon: int,
) -> StationarityReport:
    """Total-variation gap between the empirical law of M and its one-step push.

    The clipped supremum satisfies (M + X - kappa)^+ equal in law to M. The
    empirical pmf of the given horizon-truncated walk suprema (unclipped, as
    mc_walk_suprema or McEstimate.suprema hold them) is clipped at zero and
    pushed through that step analytically (exact convolution with the claim
    law), and the TV distance between the two pmfs is reported together with
    the sampling-noise scale sum_k sqrt(p_k (1-p_k) / paths) / 2.
    """
    samples = np.maximum(suprema, 0)
    paths = samples.size
    cap = int(samples.max()) + 1
    pmf = np.bincount(samples, minlength=cap) / paths

    x, _tail = dist.truncate(min(dist.trunc_eps, 1e-12))
    # (i + X - kappa)^+ : the law of i + X shifted down by kappa, with the
    # mass below zero collapsed onto zero
    conv = np.convolve(pmf, x)
    pushed = np.zeros(cap + x.size, dtype=float)
    shifted = conv[kappa:]
    pushed[: shifted.size] = shifted
    pushed[0] += conv[:kappa].sum()
    full = np.zeros(pushed.size, dtype=float)
    full[:cap] = pmf
    tv = 0.5 * float(np.abs(full - pushed).sum())
    noise = 0.5 * float(np.sqrt(pmf * (1.0 - pmf) / paths).sum())
    return StationarityReport(
        tv=tv, sampling_noise=noise, paths=paths, horizon=horizon, support_cap=cap
    )


def recurrent_sequence_limits(
    dist: ClaimDistribution,
    *,
    n_max: int = 400,
    gap_tol: float = 1e-8,
) -> SequenceLimits:
    """Survival initial values for premium rate 2 from recurrent sequences.

    Two fundamental solutions of the order-reducing recurrence are iterated
    from unit initial data,

        a_0 = 1, a_1 = 0,   a_n = (a_{n-2} - sum_{i=1}^{n-1} x_{n-i} a_i)/x_0,

    (same for b with b_0 = 0, b_1 = 1), and phi(0), phi(1) emerge as limits of
    determinant ratios. Iteration stops at the first index where both ratio
    sequences are Cauchy below gap_tol; pushing further only amplifies the
    cancellation noise of the determinant.
    """
    if dist.pmf(0) <= 0.0:
        raise ValueError("recurrent sequences need positive mass at zero")
    mean = dist.mean()
    if mean >= 2.0:
        raise ValueError("recurrent-sequence limits require the net profit condition at kappa=2")
    # Two separate precision hazards meet here: the sequences grow like the
    # reciprocal of the smallest unit-disk root, and the determinant cancels
    # quadratically in that growth, so float64 (and even float80) runs out of
    # mantissa long before slow models converge. Multi-precision floating
    # point with digits scaled to the growth keeps the determinant resolvable;
    # precision doubles and retries if a plateau cannot be certified.
    growth = _sequence_growth_estimate(dist)
    digits = int(n_max * math.log10(growth)) + 40
    for _attempt in range(3):
        result = _sequence_limits_at_precision(dist, n_max, gap_tol, digits)
        if result is not None:
            return result
        digits *= 2
    raise NonConvergence(
        f"ratio sequences failed to stabilise below {gap_tol:g} within {n_max} terms"
    )


def _sequence_growth_estimate(dist: ClaimDistribution) -> float:
    """Cheap float64 estimate of the dominant growth rate of the sequences."""
    x0 = dist.pmf(0)
    a = [1.0, 0.0]
    n = 1
    while n < 120 and abs(a[-1]) < 1e120:
        n += 1
        sa = sum(dist.pmf(n - i) * a[i] for i in range(1, n))
        a.append((a[n - 2] - sa) / x0)
    top = max(abs(v) for v in a if v != 0.0)
    return max(1.5, top ** (1.0 / max(n, 1)))


def _sequence_limits_at_precision(dist, n_max: int, gap_tol: float, digits: int):
    import mpmath as mp

    from .distributions import Geometric

    confirm_window = 8
    with mp.workdps(digits):
        x0 = mp.mpf(dist.pmf(0))
        a = [mp.mpf(1), mp.mpf(0)]
        b = [mp.mpf(0), mp.mpf(1)]
        geom = isinstance(dist, Geometric)
        if geom:
            q = mp.mpf(dist.q)
            p = mp.mpf(dist.p)
            ha = mp.mpf(0)  # sum_{i<n} q^(n-i) a_i, updated by one telescoping step
            hb = mp.mpf(0)
        candidate = None
        confirmed = 0
        prev0 = prev1 = None
        for n in range(2, n_max + 1):
            if geom:
                ha = q * (ha + a[n - 1])
                hb = q * (hb + b[n - 1])
                sa = p * ha
                sb = p * hb
            else:
                sa = mp.fsum(mp.mpf(dist.pmf(n - i)) * a[i] for i in range(1, n))
                sb = mp.fsum(mp.mpf(dist.pmf(n - i)) * b[i] for i in range(1, n))
            a.append((a[n - 2] - sa) / x0)
            b.append((b[n - 2] - sb) / x0)
            det = a[n - 1] * b[n] - b[n - 1] * a[n]
            if det == 0:
                return None  # determinant lost to cancellation; retry with more digits
            scale = abs(a[n - 1] * b[n]) + abs(b[n - 1] * a[n])
            if scale > 0 and abs(det) / scale < mp.mpf(10) ** (-(digits - 10)):
                return None
            est0 = float((b[n] - b[n - 1]) / det)
            est1 = float((a[n - 1] - a[n]) / det)
            if prev0 is not None:
                gap = max(abs(est0 - prev0), abs(est1 - prev1))
                plausible = -1e-6 <= est0 <= 1 + 1e-6 and -1e-6 <= est1 <= 1 + 1e-6
                if candidate is None and gap < gap_tol and plausible:
                    candidate = (est0, est1, n, gap)
                    confirmed = 0
                elif candidate is not None:
                    if abs(est0 - candidate[0]) < 10 * gap_tol and abs(est1 - candidate[1]) < 10 * gap_tol:
                        confirmed += 1
                        if confirmed >= confirm_window:
                            return SequenceLimits(
                                phi0=candidate[0],
                                phi1=candidate[1],
                                stopped_at=candidate[2],
                                gap=candidate[3],
                            )
                    else:
                        candidate = None
                        confirmed = 0
            prev0, prev1 = est0, est1
    return None


def default_identity_points(n: int = 20, radius: float = 0.9) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(n) / n
    return radius * np.exp(1j * angles)


def stationarity_identity_residual(
    extended_mass: np.ndarray,
    dist: ClaimDistribution,
    kappa: int,
    sample_points=None,
) -> float:
    """Max residual of the defining generating-function identity.

    With G_M the (truncated) generating function of the supremum pmf and
    R(s) = C @ mass[:kappa] the numerator built from the cdf factor C,

        G_M(s) (s^kappa - G_X(s)) = (s - 1) R(s)
                                  = sum_{i<kappa} m_i sum_{j<=kappa-1-i} x_j (s^kappa - s^{i+j})

    must hold on the closed disk; the maximum modulus of the difference over
    the sample points is returned.
    """
    if sample_points is None:
        sample_points = default_identity_points()
    pts = np.asarray(sample_points, dtype=complex)
    mass = np.asarray(extended_mass, dtype=float)
    pgf = np.array([dist.pgf(s) for s in pts], dtype=complex)
    lhs = npoly.polyval(pts, mass) * (pts**kappa - pgf)
    rhs = (pts - 1.0) * npoly.polyval(pts, cdf_toeplitz(dist, kappa) @ mass[:kappa])
    return float(np.max(np.abs(lhs - rhs)))


def horizon_bias_bound(
    dist: ClaimDistribution,
    kappa: int,
    u_list,
    horizon: int,
    *,
    phi_exact: np.ndarray,
    state_cap: int,
) -> np.ndarray:
    """Upper bound on phi(u, horizon) - phi(u), per requested u.

    Uses the capped finite-time grid (an upper bound on the true finite-time
    value) minus the analytic ultimate value.
    """
    u_arr = np.asarray(sorted(set(int(u) for u in u_list)))
    grid = finite_time_grid(dist, kappa, int(u_arr.max()), horizon, state_cap=state_cap)
    bias = np.array([grid.value(u, horizon) - phi_exact[u] for u in u_arr])
    return np.maximum(bias, 0.0)
