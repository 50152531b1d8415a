import hashlib

import numpy as np
import pytest

from ruinwalk.charpoly import build_characteristic, find_unit_disk_roots
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import NetProfitViolation, NonConvergence
from ruinwalk.supremum import build_boundary_system, solve_boundary_system
from ruinwalk.survival import extend_sup_pmf_stable, tail_expansion, ultimate_survival_table
from ruinwalk.verification import (
    _CHUNK,
    default_identity_points,
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
        table = ultimate_survival_table(sup, geometric, 3, 10, char=char)
        est = mc_survival(geometric, 3, [0, 1, 2, 5, 10], paths=100_000, horizon=800, seed=12)
        for i, u in enumerate(est.u):
            # horizon bias at kappa=3 is far below the sampling noise
            assert abs(est.phi_hat[i] - table.phi[u]) <= 4.0 * max(est.std_err[i], 1e-4)

    def test_std_err_formula(self, geometric):
        est = mc_survival(geometric, 2, [1], paths=10_000, horizon=100, seed=5)
        p = est.phi_hat[0]
        assert est.std_err[0] == pytest.approx(np.sqrt(p * (1 - p) / 10_000), abs=1e-12)


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

    The digests are those of a kernel that draws each 192-step block for all
    paths of a chunk at once; a kernel change that reorders, drops or adds
    draws changes them.
    """

    @pytest.mark.parametrize(
        "dist, kappa, paths, horizon, seed, digest",
        [
            (Geometric(GEOMETRIC_P), 2, 2 * _CHUNK + 1000, 40, 5,
             "681c23b98c24a443e655b2b5dc8faa45837173b2b7db662527284ea363df63f0"),
            (UNIFORM_40, 25, 2 * _CHUNK + 1000, 40, 5,
             "5c85bf5852543362252c237f3c85dc0b987e9a7fa8bbaf12f48967cbcff86832"),
        ],
        ids=["geometric", "finite"],
    )
    def test_two_chunks_match_digest_at_any_worker_count(self, dist, kappa, paths, horizon, seed, digest):
        one = mc_walk_suprema(dist, kappa, paths, horizon, seed, workers=1)
        two = mc_walk_suprema(dist, kappa, paths, horizon, seed, workers=2)
        assert one.tobytes() == two.tobytes()
        assert _digest(one) == digest

    @pytest.mark.parametrize(
        "dist, kappa, digest",
        [
            (Geometric(GEOMETRIC_P), 3,
             "309f5b6ffa5e3c4930eee1a3d4ddfceeae9f95134bb54c562bd7c9add6930ffb"),
            (UNIFORM_40, 25,
             "3604f70182cd6eb78b7ffc385ebe8b016129c980b1007773986a36c72f2f9053"),
        ],
        ids=["geometric", "finite"],
    )
    def test_multi_block_horizon_matches_digest(self, dist, kappa, digest):
        # 500 steps cross two block boundaries; 3000 paths end in a partial slice
        assert _digest(mc_walk_suprema(dist, kappa, 3000, 500, 17)) == digest


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
        table = ultimate_survival_table(sup, geometric, 2, 2, char=char)
        lim = recurrent_sequence_limits(geometric, n_max=2000, gap_tol=1e-9)
        assert abs(lim.phi0 - table.phi[0]) <= 1e-6
        assert abs(lim.phi1 - table.phi[1]) <= 1e-6


class TestIdentityResidual:
    def test_both_sides_vanish_at_one(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, geometric, 3, char=char)
        res = stationarity_identity_residual(mass, geometric, 3, [1.0])
        assert res <= 1e-9

    def test_value_at_zero(self, geometric):
        # at s=0 both sides reduce to -m0 x0
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, geometric, 3, char=char)
        res = stationarity_identity_residual(mass, geometric, 3, [0.0])
        assert res <= 1e-12

    def test_circle_points(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, geometric, 3, char=char, tail_target=1e-10)
        res = stationarity_identity_residual(mass, geometric, 3, default_identity_points())
        assert res <= 1e-8 + 1e-10

    def test_wrong_mass_detected(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        mass = extend_sup_pmf_stable(sup, geometric, 3, char=char)
        corrupted = mass.copy()
        corrupted[0] += 1e-3
        res = stationarity_identity_residual(corrupted, geometric, 3, default_identity_points())
        assert res > 1e-5
