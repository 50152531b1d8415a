import faulthandler
import hashlib
import itertools
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinwalk import verification
from ruinwalk.charpoly import build_characteristic, find_unit_disk_roots
from ruinwalk.config import ModelConfig
from ruinwalk.distributions import TRUNC_EPS, FinitePmf, Geometric
from ruinwalk.errors import NetProfitViolation, NonConvergence
from ruinwalk.pipeline import run_model
from ruinwalk.supremum import build_boundary_system, solve_boundary_system, sup_pmf_closed_form
from ruinwalk.survival import (
    closed_form_initial_values,
    extend_sup_pmf_stable,
    survival_gf_coefficients,
    ultimate_survival_table,
)
from ruinwalk.verification import (
    IDENTITY_POINTS,
    _CHUNK,
    _binomial_acceptance,
    _boundary_value_solve,
    _chunk_rng,
    _outside_root,
    concordance_bands,
    mc_stationarity_distance,
    mc_survival,
    mc_walk_suprema,
    recurrent_sequence_limits,
    stationarity_identity_residual,
)

from reference_values import GEOMETRIC_P, PHI0_EXACT_K2, PHI1_EXACT_K2


def solve_model(dist, kappa):
    char = build_characteristic(dist, kappa)
    roots = find_unit_disk_roots(char)
    sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
    return char, roots, sup


class TestMcSurvival:
    def test_bernoulli_from_one_is_certain(self, bernoulli):
        est = mc_survival(bernoulli, 1, [1], paths=5000, horizon=500, seed=3)
        assert est.phi_hat[0] == 1.0
        assert est.effective_horizon == 1

    def test_double_root_from_one_is_certain(self, double_root_dist):
        est = mc_survival(double_root_dist, 3, [1, 2], paths=5000, horizon=500, seed=9)
        np.testing.assert_allclose(est.phi_hat, 1.0)

    def test_rejects_net_profit_violation(self):
        with pytest.raises(NetProfitViolation):
            mc_survival(Geometric(0.25), 2, [0], paths=100, horizon=10, seed=0)

    def test_reproducible(self, geometric):
        a = mc_survival(geometric, 2, [0, 1, 5], paths=30_000, horizon=300, seed=42)
        b = mc_survival(geometric, 2, [0, 1, 5], paths=30_000, horizon=300, seed=42)
        np.testing.assert_array_equal(a.phi_hat, b.phi_hat)
        c = mc_survival(geometric, 2, [0, 1, 5], paths=30_000, horizon=300, seed=43)
        assert np.any(c.phi_hat != a.phi_hat)

    def test_concordance_small_scale(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        table = ultimate_survival_table(sup, char, 10)
        est = mc_survival(geometric, 3, [0, 1, 2, 5, 10], paths=100_000, horizon=800, seed=12)
        for i, u in enumerate(est.u):
            # horizon bias at kappa=3 is far below the sampling noise
            assert abs(est.phi_hat[i] - table.phi[u]) <= 4.0 * max(est.std_err[i], 1e-4)

    def test_std_err_formula(self, geometric):
        est = mc_survival(geometric, 2, [1], paths=10_000, horizon=100, seed=5)
        p = est.phi_hat[0]
        assert est.std_err[0] == pytest.approx(np.sqrt(p * (1 - p) / 10_000), abs=1e-12)


def _exact_acceptance(n, p, level):
    """`_binomial_acceptance` from the binomial tails in rational arithmetic."""
    p, tail = Fraction(p), Fraction(level) / 2
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    below = itertools.accumulate(pmf)  # P(X <= k)
    above = itertools.accumulate(reversed(pmf))  # P(X >= n - k)
    return sum(c <= tail for c in below), n - sum(c <= tail for c in above)


class TestConcordanceBands:
    def test_acceptance_matches_exact_tails(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            p = float(rng.choice([rng.random(), rng.random() ** 12, 1.0 - rng.random() ** 12]))
            level = float(rng.choice([2e-7, 1e-3, 0.07]))
            assert _binomial_acceptance(n, p, level) == _exact_acceptance(n, p, level), (n, p, level)

    def test_certain_probes_accept_one_count(self):
        assert _binomial_acceptance(16_384, 1.0, 2e-7) == (16_384, 16_384)
        assert _binomial_acceptance(16_384, 0.0, 2e-7) == (0, 0)

    def test_benchmark_width_at_one_half(self):
        # five probes at family level 1e-6 take 2e-7 each: 333 of 16 384
        # paths either side of phi(u, T) = 0.5, about 5.2 standard errors
        low, high = concordance_bands(16_384, np.full(5, 0.5))
        np.testing.assert_array_equal(low, (8192 - 333) / 16_384)
        np.testing.assert_array_equal(high, (8192 + 333) / 16_384)

    def test_sidak_split(self):
        # one probe keeps the whole level; five split it
        one = concordance_bands(16_384, np.array([0.5]))
        five = concordance_bands(16_384, np.full(5, 0.5))
        level = -math.expm1(math.log1p(-1e-6) / 5)
        assert (one[0][0] * 16_384, one[1][0] * 16_384) == _binomial_acceptance(16_384, 0.5, 1e-6)
        assert (five[0][0] * 16_384, five[1][0] * 16_384) == _binomial_acceptance(16_384, 0.5, level)
        assert five[1][0] > one[1][0]


class TestSupremumSamples:
    def test_walk_suprema_reproducible(self, geometric):
        s1 = mc_walk_suprema(geometric, 2, 20_000, 200, seed=1)
        s2 = mc_walk_suprema(geometric, 2, 20_000, 200, seed=1)
        np.testing.assert_array_equal(s1, s2)

    def test_matches_survival_counting(self, geometric):
        # P(sup < u) from raw suprema must reproduce mc_survival exactly
        paths, horizon, seed = 30_000, 300, 21
        suprema = mc_walk_suprema(geometric, 2, paths, horizon, seed)
        est = mc_survival(geometric, 2, [0, 1, 3], paths=paths, horizon=horizon, seed=seed)
        for i, u in enumerate(est.u):
            assert (suprema < u).mean() == pytest.approx(est.phi_hat[i], abs=0)
        np.testing.assert_array_equal(est.suprema, suprema)


def _digest(suprema: np.ndarray) -> str:
    return hashlib.sha256(suprema.astype("<i8").tobytes()).hexdigest()


UNIFORM_40 = FinitePmf(tuple([1.0 / 41.0] * 41))


class TestStreamConsumption:
    """Pins which draws of each (seed, chunk) stream make up each path.

    The digests are those of a kernel that reads each chunk's SFC64 stream
    time-major, draw t * n + p as path p's step t; a kernel change that
    reorders, drops or adds draws changes them.
    """

    @pytest.mark.parametrize(
        "dist, kappa, paths, horizon, seed, digest",
        [
            (Geometric(GEOMETRIC_P), 2, 2 * _CHUNK + 1000, 40, 5,
             "794e55d8a8c000e6b14381f55ab1de09a7c45ff86abb6c15ea9b277bde551f4e"),
            (UNIFORM_40, 25, 2 * _CHUNK + 1000, 40, 5,
             "393d06ceb04971527c4fdbe240985bb0ba41bc88a0b458d07ed7616219d0487e"),
        ],
        ids=["geometric", "finite"],
    )
    def test_two_chunks_match_digest_at_any_worker_count(
        self, monkeypatch, dist, kappa, paths, horizon, seed, digest
    ):
        # 1 CPU runs the three chunks one after another on this thread, 2 to
        # 4 run them on chunk threads; a short switch interval interleaves them
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3, 4):
                _cpus(monkeypatch, cpus)
                assert _digest(mc_walk_suprema(dist, kappa, paths, horizon, seed)) == digest, cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "dist, kappa, digest",
        [
            (Geometric(GEOMETRIC_P), 3,
             "5ac10ad5a4a874f16a5356f023cbfb0d5026ffd281a80eeb73ffc339cdc9fe96"),
            (UNIFORM_40, 25,
             "3836befdef2256aaeceda8b023a4c6dff814f9b1c742d036ae6b9a7900313b7a"),
        ],
        ids=["geometric", "finite"],
    )
    def test_multi_block_horizon_matches_digest(self, dist, kappa, digest):
        # 3000 paths take 32 steps per slice, so 500 steps end in a partial slice
        assert _digest(mc_walk_suprema(dist, kappa, 3000, 500, 17)) == digest


def _oracle_suprema(dist, kappa, paths, horizon, seed):
    """Oracle: per chunk, every claim drawn at once by `sample` as (horizon, n),
    then the walk as a cumulative sum over time."""
    best = []
    for chunk, lo in enumerate(range(0, paths, _CHUNK)):
        n = min(_CHUNK, paths - lo)
        claims = dist.sample(_chunk_rng(seed, chunk), (horizon, n))
        best.append(np.cumsum(claims - kappa, axis=0).max(axis=0))
    return np.concatenate(best)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestPipelinedKernel:
    """Each chunk maps and walks its stream a slice at a time, inline on one
    CPU and on chunk threads on several; either way it gives the oracle's
    suprema byte for byte."""

    @given(
        law=st.sampled_from([(Geometric(GEOMETRIC_P), (2, 5)), (UNIFORM_40, (21, 30))]),
        # small runs, and runs that end just short of, on or past a chunk boundary
        size=st.one_of(
            st.tuples(st.integers(1, 1500), st.integers(1, 450)),
            st.tuples(st.integers(_CHUNK - 2, 2 * _CHUNK + 2), st.integers(1, 8)),
        ),
        kappa_pick=st.integers(0, 3),
        seed=st.integers(0, 2**32),
        cpus=st.sampled_from([1, 2]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_serial_oracle(self, law, size, kappa_pick, seed, cpus):
        dist, (lo, hi) = law
        kappa = min(lo + kappa_pick, hi)
        paths, horizon = size
        with pytest.MonkeyPatch.context() as mp:
            _cpus(mp, cpus)
            got = mc_walk_suprema(dist, kappa, paths, horizon, seed)
        assert got.tobytes() == _oracle_suprema(dist, kappa, paths, horizon, seed).tobytes()

    @pytest.mark.parametrize("dist, kappa", [(Geometric(GEOMETRIC_P), 2), (UNIFORM_40, 25)],
                             ids=["geometric", "finite"])
    @pytest.mark.parametrize("paths", [1, 3, 700, _CHUNK + 5])
    def test_slice_size_moves_no_draw(self, monkeypatch, dist, kappa, paths):
        # slices of 1 draw hold one step; slices of 7 hold 7 steps of one
        # path and 2 of three; the default holds 140 steps of 700 paths
        expected = mc_walk_suprema(dist, kappa, paths, 300, 8).tobytes()
        for size in (1, 7):
            monkeypatch.setattr(verification, "_SLICE", size)
            assert mc_walk_suprema(dist, kappa, paths, 300, 8).tobytes() == expected, size

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_thread_only_with_several_cpus(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        # one chunk walks on the calling thread
        one_chunk = _RecordsWalkers(UNIFORM_40.probabilities)
        mc_walk_suprema(one_chunk, 25, 700, 300, 4)
        assert one_chunk.walkers == {threading.get_ident()}
        # two chunks walk on this thread on one CPU, each on a chunk thread on two
        two_chunks = _RecordsWalkers(UNIFORM_40.probabilities)
        mc_walk_suprema(two_chunks, 25, _CHUNK + 10, 2, 4)
        assert (threading.get_ident() in two_chunks.walkers) == (cpus == 1)


class _RecordsWalkers(FinitePmf):
    """Records the threads that map its draws."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "walkers", set())

    def claims(self, raw):
        self.walkers.add(threading.get_ident())
        return super().claims(raw)


class _Boom(RuntimeError):
    pass


class _MapFailsOnThirdSlice(FinitePmf):
    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_mapped", itertools.count(1))

    def claims(self, raw):
        if next(self._mapped) == 3:
            raise _Boom("map")
        return super().claims(raw)


class _DrawFailsOnThirdSlice:
    """Stands in for a chunk's Generator, the kernel's own; its third draw raises."""

    def __init__(self, seed, chunk_index):
        self._rng = _chunk_rng(seed, chunk_index)
        self._draws = itertools.count(1)

    def random(self, size=None, out=None):
        if next(self._draws) == 3:
            raise _Boom("draw")
        return self._rng.random(size, out=out)


class TestThreadHygiene:
    """An error while drawing or mapping reaches the caller, from this thread
    or a chunk thread, and no thread is left when it does."""

    @pytest.fixture(autouse=True)
    def _no_hang(self, monkeypatch):
        _cpus(monkeypatch, 2)
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def _raises(self, dist, message, paths=1000):
        # 1000 paths take 98 steps per slice, a full chunk 1: either way
        # 300 steps make more than three slices
        before = threading.active_count()
        with pytest.raises(_Boom, match=message) as caught:
            mc_walk_suprema(dist, 25, paths, 300, 7)
        # the traceback still holds the kernel's frame: the thread must be
        # joined before the error leaves the kernel, not when it is collected
        assert caught.tb is not None
        assert threading.active_count() == before

    def test_error_while_mapping(self):
        self._raises(_MapFailsOnThirdSlice(UNIFORM_40.probabilities), "map")

    def test_error_while_drawing(self, monkeypatch):
        monkeypatch.setattr(verification, "_chunk_rng", _DrawFailsOnThirdSlice)
        self._raises(UNIFORM_40, "draw")

    def test_error_while_mapping_in_a_chunk_thread(self):
        # two chunks on two CPUs: each walks on its own chunk thread
        self._raises(_MapFailsOnThirdSlice(UNIFORM_40.probabilities), "map", _CHUNK + 10)

    def test_error_while_drawing_in_a_chunk_thread(self, monkeypatch):
        monkeypatch.setattr(verification, "_chunk_rng", _DrawFailsOnThirdSlice)
        self._raises(UNIFORM_40, "draw", _CHUNK + 10)

    def test_no_thread_left_after_success(self):
        before = threading.active_count()
        mc_walk_suprema(UNIFORM_40, 25, _CHUNK + 10, 300, 7)
        assert threading.active_count() == before


def _push_tv_loop(dist, kappa, suprema):
    """Reference TV of the empirical supremum law against its one-step push,
    pushed atom by atom."""
    samples = np.maximum(suprema, 0)
    cap = int(samples.max()) + 1
    pmf = np.bincount(samples, minlength=cap) / samples.size
    x, _tail = dist.truncate(min(dist.trunc_eps, 1e-12))
    pushed = np.zeros(cap + x.size, dtype=float)
    for i in range(cap):
        if pmf[i] == 0.0:
            continue
        lo = i - kappa
        if lo >= 0:
            pushed[lo : lo + x.size] += pmf[i] * x
        else:
            cut = -lo
            pushed[0] += pmf[i] * x[:cut].sum()
            pushed[0 : x.size - cut] += pmf[i] * x[cut:]
    full = np.zeros(pushed.size, dtype=float)
    full[:cap] = pmf
    return 0.5 * float(np.abs(full - pushed).sum())


class TestStationarity:
    @pytest.mark.parametrize(
        "dist, kappa, horizon",
        [
            (Geometric(GEOMETRIC_P), 2, 400),
            (Geometric(0.03), 50, 300),
            (UNIFORM_40, 25, 300),
            (FinitePmf((0.128, 0.576, 0.264, 0.032)), 3, 50),
            (FinitePmf((0.5, 0.5)), 5, 50),
        ],
        ids=["geom_k2", "geom_k50", "unif40_k25", "double_root", "support_below_kappa"],
    )
    def test_convolution_matches_atom_loop(self, dist, kappa, horizon):
        suprema = mc_walk_suprema(dist, kappa, 20_000, horizon, 3)
        rep = mc_stationarity_distance(dist, kappa, suprema, horizon=horizon)
        assert abs(rep.tv - _push_tv_loop(dist, kappa, suprema)) <= 1e-15

    def test_degenerate_zero_claims(self):
        dist = FinitePmf((1.0,))
        rep = mc_stationarity_distance(dist, 1, mc_walk_suprema(dist, 1, 2000, 50, 2), horizon=50)
        assert rep.tv == pytest.approx(0.0, abs=1e-15)

    def test_double_root_model_zero_distance(self, double_root_dist):
        suprema = mc_walk_suprema(double_root_dist, 3, 50_000, 200, 4)
        rep = mc_stationarity_distance(double_root_dist, 3, suprema, horizon=200)
        # M == 0 a.s.; the push moves nothing because claims never exceed premium
        assert rep.tv <= 1e-12

    def test_within_noise_level(self, geometric):
        suprema = mc_walk_suprema(geometric, 3, 60_000, 600, 8)
        rep = mc_stationarity_distance(geometric, 3, suprema, horizon=600)
        assert rep.tv <= 3.0 * rep.sampling_noise

    def test_noise_shrinks_with_paths(self, geometric):
        small_sample = mc_walk_suprema(geometric, 2, 10_000, 400, 6)
        big_sample = mc_walk_suprema(geometric, 2, 40_000, 400, 6)
        small = mc_stationarity_distance(geometric, 2, small_sample, horizon=400)
        big = mc_stationarity_distance(geometric, 2, big_sample, horizon=400)
        ratio = small.tv / big.tv
        assert 1.5 <= ratio <= 3.0  # ~sqrt(4) with sampling slack


def _boundary_value_error(dist, kappa, char, roots, count):
    """|phi_N - phi| against the root-product table on the first `count`
    states (fewer when N is smaller), and Lundberg's truncation bound plus
    the solve's roundoff bound there; N is the first index where
    rho^-(N-kappa+1) <= 2^-52."""
    closed = sup_pmf_closed_form(dist, char, roots)
    phi0 = closed_form_initial_values(closed)[0]
    table = np.r_[phi0, survival_gf_coefficients(closed, char, count - 1)[:-1]]
    rho = _outside_root(dist, kappa)
    steps = 52 * np.log(2) / np.log(rho) if rho > 1.0 else np.inf
    n = max(kappa, int(np.ceil(min(10_000, kappa - 1 + steps))))
    phi, roundoff = _boundary_value_solve(dist, kappa, n)
    size = min(count, n + 1)
    bound = phi[:size] * rho ** -(n - kappa + 1) + roundoff[:size]
    return np.abs(phi[:size] - table[:size]), bound


class TestSequenceLimits:
    def test_geometric_kappa2_reference_values(self, geometric):
        lim = recurrent_sequence_limits(geometric, n_max=2000, gap_tol=1e-9)
        assert lim.phi0 == pytest.approx(PHI0_EXACT_K2, abs=1e-6)
        assert lim.phi1 == pytest.approx(PHI1_EXACT_K2, abs=1e-6)

    def test_bernoulli_degenerate(self, bernoulli):
        lim = recurrent_sequence_limits(bernoulli)
        assert lim.phi0 == pytest.approx(1.0, abs=1e-10)
        assert lim.phi1 == pytest.approx(1.0, abs=1e-10)

    def test_requires_mass_at_zero(self, shifted_dist):
        with pytest.raises(ValueError):
            recurrent_sequence_limits(shifted_dist)

    def test_defaults_are_criterion_2s(self, geometric):
        assert recurrent_sequence_limits(geometric) == recurrent_sequence_limits(
            geometric, n_max=2000, gap_tol=1e-9
        )

    def test_nonconvergence_when_budget_too_small(self, geometric):
        # the slow-drift model needs ~1e3 terms; 50 cannot stabilise the ratios
        with pytest.raises(NonConvergence):
            recurrent_sequence_limits(geometric, n_max=50)

    def test_fundamental_recurrence_shape(self, geometric):
        # recompute the first terms directly from the defining recurrence
        x0 = geometric.pmf(0)
        a = [1.0, 0.0]
        b = [0.0, 1.0]
        for n in range(2, 8):
            a.append((a[n - 2] - sum(geometric.pmf(n - i) * a[i] for i in range(1, n))) / x0)
            b.append((b[n - 2] - sum(geometric.pmf(n - i) * b[i] for i in range(1, n))) / x0)
        assert a[2] == pytest.approx(1.0 / x0)
        assert b[2] == pytest.approx(-geometric.pmf(1) / x0)

    def test_agrees_with_solver(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        table = ultimate_survival_table(sup, char, 2)
        lim = recurrent_sequence_limits(geometric, n_max=2000, gap_tol=1e-9)
        assert abs(lim.phi0 - table.phi[0]) <= 1e-6
        assert abs(lim.phi1 - table.phi[1]) <= 1e-6

    @pytest.mark.parametrize("n_max", [2000, 4000])
    def test_exact_geometric_values_within_bound(self, geometric, n_max):
        lim = recurrent_sequence_limits(geometric, n_max=n_max, gap_tol=1e-9)
        err = max(abs(lim.phi0 - PHI0_EXACT_K2), abs(lim.phi1 - PHI1_EXACT_K2))
        assert err <= lim.error_bound <= 1e-9
        if n_max == 4000:
            # rho^-(N-1) <= 2^-52 first holds at N = 3612
            assert lim.truncated_at == 3612
            assert err <= 1e-12

    def test_equals_paper_determinant_ratio(self, geometric):
        import mpmath as mp

        n = 40
        with mp.workdps(60):
            x = [mp.mpf(geometric.pmf(k)) for k in range(n + 1)]
            a = [mp.mpf(1), mp.mpf(0)]
            b = [mp.mpf(0), mp.mpf(1)]
            for k in range(2, n + 1):
                a.append((a[k - 2] - mp.fsum(x[k - i] * a[i] for i in range(1, k))) / x[0])
                b.append((b[k - 2] - mp.fsum(x[k - i] * b[i] for i in range(1, k))) / x[0])
            det = a[n - 1] * b[n] - b[n - 1] * a[n]
            ratio = [float((b[n] - b[n - 1]) / det), float((a[n - 1] - a[n]) / det)]
        phi, _roundoff = _boundary_value_solve(geometric, 2, n)
        np.testing.assert_allclose(phi[:2], ratio, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "dist, kappa",
        [
            (FinitePmf((0.3, 0.2, 0.1, 0.15, 0.25)), 2),
            (FinitePmf((0.2, 0.2, 0.2, 0.2, 0.1, 0.1)), 3),
            (Geometric(GEOMETRIC_P), 3),
        ],
        ids=["finite_k2", "finite_k3", "geometric_k3"],
    )
    def test_matches_root_product_table(self, dist, kappa):
        char, roots, _sup = solve_model(dist, kappa)
        err, bound = _boundary_value_error(dist, kappa, char, roots, 20)
        assert np.max(err) <= 1e-12
        # up to the root-product route's own error
        assert np.all(err <= bound + 1e-14)

    def test_corpus_within_error_bound(self, random_models):
        for dist, kappa, roots, char in random_models:
            err, bound = _boundary_value_error(dist, kappa, char, roots, 10)
            assert np.all(err <= bound + 1e-14), (dist, kappa)

    def test_bernoulli_needs_no_truncation(self, bernoulli):
        # no claim exceeds kappa = 2, so the walk never rises and phi_2 is exact
        assert _outside_root(bernoulli, 2) == np.inf
        lim = recurrent_sequence_limits(bernoulli)
        assert lim.truncated_at == 2
        assert lim.error_bound <= 1e-14

    def test_wrong_boundary_fails_the_check(self, monkeypatch, geometric):
        # b holds the top states' phi = 1; zeroing it puts phi = 0 there
        band = verification._recurrence_band

        def top_zero(dist, kappa, m):
            ab, lower, b = band(dist, kappa, m)
            return ab, lower, 0.0 * b

        monkeypatch.setattr(verification, "_recurrence_band", top_zero)
        config = ModelConfig(
            kappa=2, dist=geometric, u_max=10, t_max=10, mc_paths=1024, mc_horizon=100, seed=1
        )
        checks = {c.name: c for c in run_model(config, verify=True).checks}
        assert not checks["sequence_limits_agreement"].passed
        assert all(c.passed for name, c in checks.items() if name != "sequence_limits_agreement")


def _branch_per_law_band(dist, kappa, m):
    """`_recurrence_band` with one branch per law class: the reference that
    the pgf-ratio path matches bit for bit."""
    if isinstance(dist, Geometric):
        lower = 1
        ab = np.tile(np.r_[-dist.q, 1.0, np.zeros(kappa - 1), -dist.p], (m + 1, 1))
        ab[0, 2:] = -dist.p * dist.q ** np.arange(kappa - 1, -1, -1)
    else:
        x, _tail = dist.truncate(TRUNC_EPS)
        lower = max(x.size - 1 - kappa, 0)
        ab = np.tile(-np.r_[x, np.zeros(lower + kappa + 1 - x.size)][::-1], (m + 1, 1))
        ab[np.arange(m + 1)[:, None] + np.arange(lower + kappa + 1) <= lower] = 0.0  # ruin
        ab[:, lower] += 1.0
    columns = np.arange(m + 1)[:, None] + np.arange(ab.shape[1]) - lower
    b = -np.where(columns > m, ab, 0.0).sum(axis=1)
    ab[columns > m] = 0.0
    return ab, lower, b


def _assert_band_matches_branch_per_law(dist, kappa, m):
    ab, lower, b = verification._recurrence_band(dist, kappa, m)
    want_ab, want_lower, want_b = _branch_per_law_band(dist, kappa, m)
    assert lower == want_lower
    assert b.tobytes() == want_b.tobytes()
    # up to the sign of zero: the geometric reference holds +0.0 between
    # the g and A entries, the shared path -0.0 (adding +0.0 maps -0.0 to +0.0)
    assert (ab + 0.0).tobytes() == (want_ab + 0.0).tobytes()
    if isinstance(dist, FinitePmf):
        assert ab.tobytes() == want_ab.tobytes()
    got = _boundary_value_solve(dist, kappa, m + kappa)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "_recurrence_band", _branch_per_law_band)
        want = _boundary_value_solve(dist, kappa, m + kappa)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


class TestRecurrenceBand:
    @pytest.mark.parametrize("law", ["bernoulli", "geometric", "double_root_dist", "shifted_dist"])
    @pytest.mark.parametrize("kappa, m", [(1, 0), (2, 1), (2, 1998), (3, 40), (5, 17)])
    def test_fixture_laws(self, request, law, kappa, m):
        _assert_band_matches_branch_per_law(request.getfixturevalue(law), kappa, m)

    @settings(max_examples=150, deadline=None)
    @given(
        head=st.floats(1e-3, 1.0),
        tail=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), max_size=12),
        p=st.floats(0.05, 0.95),
        kappa=st.integers(1, 8),
        m=st.integers(0, 60),
    )
    def test_sampled_laws(self, head, tail, p, kappa, m):
        # p <= 0.95 keeps q^(kappa-1) above TRUNC_EPS, so the truncated pmf
        # that row 0 of a geometric band reads holds x_0..x_(kappa-1)
        weights = np.array([head, *tail])
        _assert_band_matches_branch_per_law(FinitePmf(tuple(weights / weights.sum())), kappa, m)
        _assert_band_matches_branch_per_law(Geometric(p), kappa, m)


class TestIdentityResidual:
    def test_both_sides_vanish_at_one(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, char)
        res = stationarity_identity_residual(mass, geometric, 3, [1.0])
        assert res <= 1e-9

    def test_value_at_zero(self, geometric):
        # at s=0 both sides reduce to -m0 x0
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, char)
        res = stationarity_identity_residual(mass, geometric, 3, [0.0])
        assert res <= 1e-12

    def test_circle_points(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, char, tail_target=1e-10)
        res = stationarity_identity_residual(mass, geometric, 3, IDENTITY_POINTS)
        assert res <= 1e-8 + 1e-10

    def test_wrong_mass_detected(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, char)
        corrupted = mass.copy()
        corrupted[0] += 1e-3
        res = stationarity_identity_residual(corrupted, geometric, 3, IDENTITY_POINTS)
        assert res > 1e-5
