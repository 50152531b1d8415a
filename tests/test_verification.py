import numpy as np
import pytest

from ruinwalk.charpoly import build_characteristic, find_unit_disk_roots
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import NetProfitViolation, NonConvergence
from ruinwalk.supremum import build_boundary_system, solve_boundary_system
from ruinwalk.survival import extend_sup_pmf_stable, tail_expansion, ultimate_survival_table
from ruinwalk.verification import (
    default_identity_points,
    mc_stationarity_distance,
    mc_survival,
    mc_walk_suprema,
    recurrent_sequence_limits,
    stationarity_identity_residual,
)

from conftest import PHI0_EXACT_K2, PHI1_EXACT_K2


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


class TestStationarity:
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
