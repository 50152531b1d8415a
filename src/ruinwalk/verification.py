"""Independent verification paths: Monte Carlo, stationarity, sequence limits.

Everything here avoids the analytic solve chain on purpose: walks are
simulated with integer arithmetic on keyed RNG streams, the
supremum's stationarity is checked empirically, and for premium rate 2 the
survival initial values are recovered from ratios of recurrent sequences.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .distributions import TRUNC_EPS, ClaimDistribution, check_net_profit
from .errors import DomainError, NonConvergence
from .supremum import cdf_toeplitz
from .survival import finite_time_grid

_CHUNK = 8_192
_SLICE = 24_576  # draws per slice of a chunk's stream, rounded down to whole steps
# chance that mc_concordance_excess fails a correct model, per run
MC_FALSE_ALARM = 1e-6

# recurrent_sequence_limits: the largest truncation index N, and the largest
# error bound it accepts at N
SEQUENCE_N_MAX = 2000
SEQUENCE_GAP = 1e-9

# where the generating-function identity is sampled: 20 points on |s| = 0.9
IDENTITY_POINTS = 0.9 * np.exp(1j * (2.0 * np.pi * np.arange(20) / 20))


@dataclass(frozen=True)
class McEstimate:
    u: np.ndarray
    phi_hat: np.ndarray
    std_err: np.ndarray
    paths: int
    effective_horizon: int
    suprema: np.ndarray


@dataclass(frozen=True)
class StationarityReport:
    tv: float
    sampling_noise: float
    paths: int
    horizon: int


@dataclass(frozen=True)
class SequenceLimits:
    phi0: float
    phi1: float
    truncated_at: int
    error_bound: float


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The stream of one fixed-size path chunk: SFC64 keyed by (seed, chunk).

    Chunking is fixed at 8192 paths regardless of how work is distributed,
    so path p is reproducible from (seed, p) by regenerating chunk p // 8192.
    SeedSequence hashes the key, so neighbouring keys get unrelated streams.
    """
    key = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, chunk_index])
    return np.random.Generator(np.random.SFC64(key))


def _effective_horizon(dist: ClaimDistribution, kappa: int, horizon: int) -> int:
    # when claims never exceed the premium the partial sums are
    # non-increasing, so the supremum is reached at the very first step
    maxs = dist.max_support()
    if maxs is not None and maxs <= kappa:
        return 1
    return horizon


def _raw_slices(dist: ClaimDistribution, rng: np.random.Generator, n_paths: int, horizon: int):
    """The chunk's raw draws in stream order, whole time steps at a time.

    Draw t * n_paths + p is path p's step t. A slice holds the next k steps
    of every path, (k, n_paths) in C order, with k = _SLICE // n_paths (at
    least 1, fewer in the last slice). The generator fills an array in the
    order it would draw it whole, so where the slices fall does not change
    any draw. All slices share one buffer: a slice is valid until the next
    one is drawn.
    """
    steps = max(1, _SLICE // n_paths)
    buffer = np.empty(steps * n_paths, dtype=float)
    for done in range(0, horizon, steps):
        k = min(steps, horizon - done)
        yield dist.draw(rng, buffer[: k * n_paths].reshape(k, n_paths))


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
    other paths. Each slice from `_raw_slices` is mapped to claims at once;
    then each step is one in-place add into the paths' positions and one
    max into their suprema, on n_paths-wide integer vectors.
    """
    running = np.zeros(n_paths, dtype=np.int64)
    best = np.full(n_paths, np.iinfo(np.int64).min, dtype=np.int64)
    for raw in _raw_slices(dist, rng, n_paths, horizon):
        steps = dist.claims(raw)
        np.subtract(steps, kappa, out=steps)
        for step in steps:
            np.add(running, step, out=running)
            np.maximum(best, running, out=best)
    return best


def _all_suprema(
    dist: ClaimDistribution,
    kappa: int,
    paths: int,
    horizon: int,
    seed: int,
) -> np.ndarray:
    """Suprema for every path, merged from fixed-size chunks.

    Chunk streams are keyed (seed, chunk index), so the result does not depend
    on which thread runs a chunk. The chunks wait in one queue, walked by this
    thread and up to one pool thread per further CPU; a run of one chunk
    walks on this thread alone. The first error stops every thread from
    taking another chunk, and all of them are joined before it is raised here.
    """
    sizes = [min(_CHUNK, paths - lo) for lo in range(0, paths, _CHUNK)]
    suprema: list[np.ndarray | None] = [None] * len(sizes)
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(sizes)):
        todo.put(i)
    failed = threading.Event()

    def walk() -> None:
        while not failed.is_set():
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                suprema[i] = _simulate_suprema_chunk(
                    dist, kappa, _chunk_rng(seed, i), sizes[i], horizon
                )
            except BaseException:
                failed.set()
                raise

    helpers = min(len(sizes), _cpu_count()) - 1
    if helpers == 0:
        walk()
    else:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            others = [pool.submit(walk) for _ in range(helpers)]
            walk()
        for other in others:
            other.result()
    return np.concatenate(suprema)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set, or where the OS
    has none (macOS, Windows) os.cpu_count(), 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_survival(
    dist: ClaimDistribution,
    kappa: int,
    u_list,
    paths: int,
    horizon: int,
    seed: int,
) -> McEstimate:
    """Monte Carlo survival estimates, one per initial surplus.

    A path survives level u iff its walk supremum over the horizon stays
    strictly below u; the estimate is therefore biased upward by at most the
    chance of ruin after the horizon. The suprema are mc_walk_suprema's, kept
    for the stationarity check.
    """
    u_arr = np.asarray(sorted(set(int(u) for u in u_list)), dtype=np.int64)
    best = mc_walk_suprema(dist, kappa, paths, horizon, seed)
    phi_hat = (best[None, :] < u_arr[:, None]).mean(axis=1)
    # the reported plug-in error, floored at 1/paths: when no path (or every
    # path) survives it is 0, yet the estimate is not exact. The concordance
    # check does not use it: see concordance_bands
    std_err = np.maximum(np.sqrt(phi_hat * (1.0 - phi_hat) / paths), 1.0 / paths)
    return McEstimate(
        u=u_arr,
        phi_hat=phi_hat,
        std_err=std_err,
        paths=paths,
        effective_horizon=_effective_horizon(dist, kappa, horizon),
        suprema=best,
    )


def mc_walk_suprema(
    dist: ClaimDistribution,
    kappa: int,
    paths: int,
    horizon: int,
    seed: int,
) -> np.ndarray:
    """Horizon-truncated samples of the unclipped walk supremum.

    Integer walk state throughout. Each chunk of 8192 paths reads its own
    keyed SFC64 stream time-major, so the result is bit-reproducible and
    independent of the thread count.
    """
    check_net_profit(dist, kappa).require_ok()
    return _all_suprema(dist, kappa, paths, _effective_horizon(dist, kappa, horizon), seed)


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

    x, _tail = dist.truncate(TRUNC_EPS)
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
    return StationarityReport(tv=tv, sampling_noise=noise, paths=paths, horizon=horizon)


def recurrent_sequence_limits(dist: ClaimDistribution) -> SequenceLimits:
    """Survival initial values for premium rate 2, the paper's sequence limits.

    phi(0), phi(1) are the limits of determinant ratios of the solutions a, b
    of a_n = (a_{n-2} - sum_{i=1}^{n-1} x_{n-i} a_i)/x_0 from (a_0, a_1) =
    (1, 0) and (b_0, b_1) = (0, 1). The ratio at index N is Cramer's rule for
    the boundary-value problem phi_N = 1 on states N-1 and N, so it is taken
    from that problem's banded solve (Olver, J. Res. NBS 71B, 1967; Wimp,
    Computation with Recurrence Relations, 1984), not from the sequences,
    which grow like |alpha|^-n and cancel. phi_N(u) is the chance of reaching
    the top before ruin, so 0 <= phi_N(u) - phi(u) <= phi_N(u) rho^-(N-1)
    (Lundberg; rho the root > 1 of G_X(s) = s^2), plus the solve's roundoff.
    N is the first index with rho^-(N-1) <= 2^-52, at most SEQUENCE_N_MAX (the
    roundoff grows with the expected exit time A^-1 1, and for the geometric
    law p = 101/300 it outweighs the truncation past N ~ 3000); the bound there
    must not exceed SEQUENCE_GAP, or NonConvergence is raised.
    """
    if dist.pmf(0) <= 0.0:
        raise ValueError("recurrent sequences need positive mass at zero")
    if dist.mean() >= 2.0:
        raise ValueError("recurrent-sequence limits require the net profit condition at kappa=2")
    rho = _outside_root(dist, 2)
    steps = 52.0 * math.log(2.0) / math.log(rho) if rho > 1.0 else math.inf
    n = max(2, math.ceil(min(SEQUENCE_N_MAX, 1 + steps)))
    phi, roundoff = _boundary_value_solve(dist, 2, n)
    bound = float(np.max(phi[:2] * rho ** -(n - 1) + roundoff[:2]))
    if bound > SEQUENCE_GAP:
        raise NonConvergence(
            f"sequence limits bounded to {bound:.3g} at N={n} > {SEQUENCE_GAP:g}"
        )
    return SequenceLimits(phi0=float(phi[0]), phi1=float(phi[1]), truncated_at=n, error_bound=bound)


def _outside_root(dist: ClaimDistribution, kappa: int) -> float:
    """Lower end of a bisection bracket of the root rho > 1 of G_X(s) = s^kappa
    (below rho, G_X(s) < s^kappa); inf when no claim exceeds kappa."""
    if (maxs := dist.max_support()) is not None and maxs <= kappa:
        return math.inf

    def past(s: float) -> bool:
        try:
            return dist.pgf(s).real > s**kappa
        except DomainError:  # beyond the pgf's radius of convergence
            return True

    lo, hi = 1.0, 2.0
    while not past(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return lo


def _boundary_value_solve(dist: ClaimDistribution, kappa: int, n: int):
    """phi_n(0..n), with phi_n = 1 on the top kappa states, and its roundoff bound.

    The band is a diagonally dominant M-matrix A: no pivoting is needed, and
    A^-1 >= 0 bounds the error by max|r| A^-1 1, r the residual plus its rounding.
    """
    ab, lower, b = _recurrence_band(dist, kappa, n - kappa)
    z, reach = _solve_band(ab, lower, (b, np.ones(b.size)))
    padded = np.concatenate((np.zeros(lower), z, np.zeros(kappa)))
    window = np.lib.stride_tricks.sliding_window_view(padded, ab.shape[1])
    slack = np.abs(b - (ab * window).sum(axis=1))
    slack += (ab.shape[1] + 2) * np.finfo(float).eps * ((np.abs(ab) * window).sum(axis=1) + b)
    top = np.zeros(kappa)
    return np.concatenate((z, top + 1.0)), np.concatenate((slack.max() * reach, top))


def _recurrence_band(dist: ClaimDistribution, kappa: int, m: int):
    """Rows phi(u) - sum_{v=1}^{u+kappa} x_{u+kappa-v} phi(v) = b_u, u <= m, as
    (ab, lower, b): `ab[u, c - u + lower]` is the coefficient of phi(c), b_u the
    terms of the states v > m, where phi = 1. With the pgf ratio x = A / g, row
    u >= deg g is sum_j g_j row_{u-j}, that is sum_j g_j phi(u-j) -
    sum_{v>=1} A_{u+kappa-v} phi(v); the rows below deg g read x itself."""
    a, g = dist.pgf_ratio()
    lower = max(g.size - 1, a.size - 1 - kappa)
    width = lower + kappa + 1
    ab = np.tile(-np.r_[a, np.zeros(width - a.size)][::-1], (m + 1, 1))
    columns = np.arange(m + 1)[:, None] + np.arange(width) - lower
    ab[columns <= 0] = 0.0  # ruin
    ab[:, lower - np.arange(g.size)] += g
    x = np.r_[dist.truncate(TRUNC_EPS)[0], np.zeros(width)]
    for u in range(min(g.size - 1, m + 1)):
        ab[u, lower - u :] = np.r_[0.0, -x[u + kappa - 1 :: -1]]
        ab[u, lower] += 1.0
    b = -np.where(columns > m, ab, 0.0).sum(axis=1)
    ab[columns > m] = 0.0
    return ab, lower, b


def _solve_band(ab: np.ndarray, lower: int, rhs) -> list[np.ndarray]:
    """A^-1 y for each y in `rhs`, A given by its band `ab[u, c - u + lower]`.

    Elimination without pivoting, then back substitution, in plain Python:
    at a few entries per row, a numpy call costs more than the arithmetic.
    """
    n, width = ab.shape
    rows, ys = ab.tolist(), [y.tolist() for y in rhs]
    for k, row in enumerate(rows):
        for d in range(1, min(lower, n - 1 - k) + 1):  # row k + d holds column k at lower - d
            below = rows[k + d]
            f = below[lower - d] / row[lower]
            for e in range(lower + 1, width):
                below[e - d] -= f * row[e]
            for y in ys:
                y[k + d] -= f * y[k]
    for x in ys:
        x += [0.0] * (width - 1 - lower)
        for k in range(n - 1, -1, -1):
            for e in range(lower + 1, width):
                x[k] -= rows[k][e] * x[k + e - lower]
            x[k] /= rows[k][lower]
    return [np.array(x[:n]) for x in ys]


def stationarity_identity_residual(
    extended_mass: np.ndarray,
    dist: ClaimDistribution,
    kappa: int,
    sample_points,
) -> float:
    """Max residual of the defining generating-function identity.

    With G_M the (truncated) generating function of the supremum pmf and
    R(s) = C @ mass[:kappa] the numerator built from the cdf factor C (from
    the masses under test, not taken from the solve),

        G_M(s) (s^kappa - G_X(s)) = (s - 1) R(s)
                                  = sum_{i<kappa} m_i sum_{j<=kappa-1-i} x_j (s^kappa - s^{i+j})

    must hold on the closed disk; the maximum modulus of the difference over
    the sample points (IDENTITY_POINTS in the pipeline) is returned.
    """
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


def concordance_bands(paths: int, phi_horizon: np.ndarray):
    """Per probe, the band [low, high] of surviving fractions that a correct
    simulation stays inside at every probe at once, but for a chance of
    about MC_FALSE_ALARM.

    A path survives level u with chance phi(u, T), given in `phi_horizon`,
    so the count of survivors is Binomial(paths, phi(u, T)). Each of the k
    probes gets the Sidak level 1 - (1 - alpha)^(1/k), alpha = MC_FALSE_ALARM,
    half in each tail of the exact binomial law. By the union bound the
    family misses with chance at most -log(1 - alpha), whatever the
    dependence between the probes.
    """
    phi_horizon = np.clip(np.asarray(phi_horizon, dtype=float), 0.0, 1.0)
    level = -math.expm1(math.log1p(-MC_FALSE_ALARM) / phi_horizon.size)
    counts = np.array([_binomial_acceptance(paths, p, level) for p in phi_horizon])
    return counts[:, 0] / paths, counts[:, 1] / paths


def _binomial_acceptance(n: int, p: float, level: float) -> tuple[float, float]:
    """The largest a and smallest b with P(X < a) <= level / 2 and
    P(X > b) <= level / 2, for X ~ Binomial(n, p).

    The pmf is summed on mean -+ (12 sd + 30), normalised there: by
    Bernstein's inequality the mass outside is below 1e-19, where sd is the
    binomial standard deviation.
    """
    if not 0.0 < p < 1.0:  # a certain count, or NaN, which fails the check
        return n * p, n * p
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo = max(0, math.floor(mean - 12.0 * sd - 30.0))
    hi = min(n, math.ceil(mean + 12.0 * sd + 30.0))
    k = np.arange(lo, hi)
    # log P(X = k + 1) - log P(X = k)
    log_pmf = np.r_[0.0, np.cumsum(np.log((n - k) * p / ((k + 1) * (1.0 - p))))]
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf /= pmf.sum()
    tail = 0.5 * level
    below = np.cumsum(pmf)  # P(X <= k)
    above = np.cumsum(pmf[::-1])[::-1]  # P(X >= k)
    return lo + int(np.searchsorted(below, tail, side="right")), hi - int(np.count_nonzero(above <= tail))
