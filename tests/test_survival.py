import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinwalk import survival
from ruinwalk.charpoly import RootSet, build_characteristic, find_unit_disk_roots
from ruinwalk.distributions import TRUNC_EPS, FinitePmf, Geometric
from ruinwalk.errors import NearPole, RecurrenceBlowup, UnsupportedKappa
from ruinwalk.supremum import build_boundary_system, solve_boundary_system, sup_pmf_closed_form
from ruinwalk.survival import (
    _claim_filter,
    _one_pole,
    closed_form_initial_values,
    enumerate_finite_time,
    extend_sup_pmf_stable,
    finite_time_grid,
    survival_gf,
    survival_gf_closed,
    survival_gf_coefficients,
    tail_expansion,
    ultimate_survival_table,
)

from reference_values import GEOMETRIC_P, PHI0_EXACT_K2, PHI1_EXACT_K2


def solve_model(dist, kappa):
    char = build_characteristic(dist, kappa)
    roots = find_unit_disk_roots(char)
    sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
    return char, roots, sup


def closed_values(dist, char, roots):
    return closed_form_initial_values(sup_pmf_closed_form(dist, char, roots))


class TestUltimateTable:
    def test_geometric_kappa3_reference_values(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        table = ultimate_survival_table(sup, char, 10)
        np.testing.assert_allclose(
            table.phi[:4], [0.480212, 0.582072, 0.663971, 0.729821], atol=1e-5
        )

    def test_double_root_values(self, double_root_dist):
        char, roots, sup = solve_model(double_root_dist, 3)
        table = ultimate_survival_table(sup, char, 25)
        assert table.phi[0] == pytest.approx(0.968, abs=1e-12)
        np.testing.assert_allclose(table.phi[1:], 1.0, atol=1e-12)

    def test_geometric_kappa2_exact_targets(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        table = ultimate_survival_table(sup, char, 5)
        assert table.phi[0] == pytest.approx(PHI0_EXACT_K2, abs=1e-12)
        assert table.phi[1] == pytest.approx(PHI1_EXACT_K2, abs=1e-12)

    def test_monotone_and_bounded(self, random_models):
        for dist, kappa, roots, char in random_models[:60]:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            table = ultimate_survival_table(sup, char, 30)
            assert np.all(table.phi >= -1e-10)
            assert np.all(table.phi <= 1.0 + 1e-10)
            assert np.all(np.diff(table.phi) >= -1e-10)

    def test_u0_identity(self, random_models):
        # phi(0) = sum_{i=1}^{kappa} x_{kappa-i} phi(i)
        for dist, kappa, roots, char in random_models[:60]:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            table = ultimate_survival_table(sup, char, kappa + 1)
            acc = sum(dist.pmf(kappa - i) * table.phi[i] for i in range(1, kappa + 1))
            assert abs(table.phi[0] - acc) <= 1e-12

    def test_recurrence_fixed_point(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        table = ultimate_survival_table(sup, char, 40)
        for u in range(0, 37):
            acc = sum(geometric.pmf(u + 3 - i) * table.phi[i] for i in range(1, u + 4))
            assert abs(table.phi[u] - acc) <= 1e-10

    def test_deep_table_is_stable_and_monotone(self, geometric):
        # far beyond the naive recurrence's stability horizon
        char, roots, sup = solve_model(geometric, 2)
        table = ultimate_survival_table(sup, char, 400)
        assert np.all(np.diff(table.phi) >= -1e-12)
        assert table.phi[-1] < 1.0

    def test_deep_table_matches_exact_reference(self, geometric):
        # with alpha, rho the roots of q s^2 - p s - p = 0, |alpha| < 1 < rho,
        # and c = (2 - EX)/((1 - alpha) q rho): P(M = 0) = c and
        # P(M = n) = c (1 - q rho) rho^-n for n >= 1
        import mpmath as mp

        mp.mp.dps = 40
        p, q = mp.mpf(geometric.p), 1 - mp.mpf(geometric.p)
        disc = mp.sqrt(p * p + 4 * q * p)
        alpha, rho = (p - disc) / (2 * q), (p + disc) / (2 * q)
        c = (2 - q / p) / ((1 - alpha) * q * rho)
        mass = [c] + [c * (1 - q * rho) * rho ** -n for n in range(1, 2000)]
        exact = [mass[0] * (1 - q * q) + mass[1] * p]  # phi(0) = m0 F(1) + m1 F(0)
        total = mp.mpf(0)
        for m in mass:
            total += m
            exact.append(total)
        char, roots, sup = solve_model(geometric, 2)
        table = ultimate_survival_table(sup, char, 2000)
        err = np.max(np.abs(table.phi - np.array([float(v) for v in exact])))
        assert err <= 2e-13

    def test_convergence_to_one(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        tail = tail_expansion(sup, char, roots)
        u = 8
        while 1.0 - tail.phi(np.array([u - 1.0]))[0] > 1e-3:
            u *= 2
            assert u < 2**20
        assert 1.0 - tail.phi(np.array([float(u - 1)]))[0] <= 1e-3


class TestEitherLaw:
    """The solved and the root-product supremum laws run through the same code."""

    MODELS = [("bernoulli", 1), ("geometric", 2), ("geometric", 3), ("double_root_dist", 3)]

    @pytest.mark.parametrize("name, kappa", MODELS)
    def test_closed_law_agrees_with_solved_law(self, request, name, kappa):
        dist = request.getfixturevalue(name)
        char, roots, sup = solve_model(dist, kappa)
        closed = sup_pmf_closed_form(dist, char, roots)
        u = np.arange(100)
        solved, closed_tail = tail_expansion(sup, char, roots), tail_expansion(closed, char, roots)
        np.testing.assert_allclose(closed_tail.phi(u), solved.phi(u), rtol=0, atol=1e-12)
        for s in (0.3, -0.5 + 0.2j, 0.8j, 0.9 * np.exp(2j)):
            gap = survival_gf(closed, dist, kappa, s) - survival_gf(sup, dist, kappa, s)
            assert abs(gap) <= 1e-12
        extended = extend_sup_pmf_stable(sup, char)
        np.testing.assert_allclose(extend_sup_pmf_stable(closed, char), extended, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            ultimate_survival_table(closed, char, 50).phi,
            ultimate_survival_table(sup, char, 50).phi,
            rtol=0,
            atol=1e-12,
        )
        assert abs(closed.phi0 - sup.phi0) <= 1e-12

    def test_nan_table_is_rejected(self, geometric):
        # a range test written `phi < lo or phi > hi` is False for NaN
        char, _roots, sup = solve_model(geometric, 2)
        spoilt = dataclasses.replace(sup, numerator=lambda s: sup.numerator(s) * np.nan)
        with pytest.raises(RecurrenceBlowup, match="left"):
            ultimate_survival_table(spoilt, char, 5)


class TestStabilityMachinery:
    def test_boundary_root_table(self):
        # roots on the unit circle: the table matches the root product and
        # the pole expansion all the way out
        dist = FinitePmf((0.5, 0.0, 0.5))
        char, roots, sup = solve_model(dist, 2)
        assert roots.roots[0].on_boundary
        table = ultimate_survival_table(sup, char, 200)
        coeffs = survival_gf_coefficients(sup_pmf_closed_form(dist, char, roots), char, 199)
        np.testing.assert_allclose(coeffs, table.phi[1:], atol=1e-12)
        tail = tail_expansion(sup, char, roots)
        np.testing.assert_allclose(tail.phi(np.arange(200)), table.phi[1:], atol=1e-12)

    def test_unit_pole_coefficient_is_one(self, random_models):
        for dist, kappa, roots, char in random_models[:60]:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            tail = tail_expansion(sup, char, roots)
            assert tail is not None
            assert abs(tail.unit_coeff - 1.0) <= 1e-8

    def test_tail_matches_recurrence_in_overlap(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        tail = tail_expansion(sup, char, roots)
        table = ultimate_survival_table(sup, char, 10)
        us = np.arange(3, 11)
        np.testing.assert_allclose(tail.phi(us - 1.0), table.phi[3:11], atol=1e-11)

    def test_tail_expansion_exact_even_at_small_u(self, geometric, random_models):
        # the generating function is proper rational with a complete pole set,
        # so the expansion reproduces the partial sums from u = 1 on
        for dist, kappa, roots, char in [(geometric, 3, None, None)] + [
            random_models[i][:4] for i in (0, 7, 31)
        ]:
            if roots is None:
                char, roots, sup = solve_model(dist, kappa)
            else:
                sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            tail = tail_expansion(sup, char, roots)
            partial = np.cumsum(sup.mass)
            np.testing.assert_allclose(
                tail.phi(np.arange(kappa)), partial, atol=1e-10
            )


class TestClosedFormInitialValues:
    def test_kappa1(self, bernoulli):
        char = build_characteristic(bernoulli, 1)
        roots = find_unit_disk_roots(char)
        vals = closed_values(bernoulli, char, roots)
        assert vals[0] == pytest.approx(0.7, abs=1e-14)  # 1 - EX
        assert vals[1] == pytest.approx(1.0, abs=1e-14)  # (1 - EX)/x0

    def test_kappa2_displayed_formula(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        vals = closed_values(geometric, char, roots)
        p = 101.0 / 300.0
        phi0 = (3 * p - 2 + np.sqrt(4 * p - 3 * p * p)) / (2 * p)
        phi1 = (3 * p - np.sqrt(4 * p - 3 * p * p)) / (2 * p * p)
        assert vals[0] == pytest.approx(phi0, abs=1e-13)
        assert vals[1] == pytest.approx(phi1, abs=1e-13)

    def test_kappa3_product_formula(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        vals = closed_values(geometric, char, roots)
        a1, a2 = roots.values
        expected0 = (3.0 - geometric.mean()) / ((1 - a1) * (1 - a2))
        assert vals[0] == pytest.approx(expected0.real, abs=1e-12)
        np.testing.assert_allclose(vals, [0.480212, 0.582072, 0.663971, 0.729821], atol=1e-5)

    def test_agrees_with_table(self, random_models):
        for dist, kappa, roots, char in random_models[:80]:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            table = ultimate_survival_table(sup, char, kappa)
            vals = closed_values(dist, char, roots)
            assert np.max(np.abs(vals - table.phi[: kappa + 1])) <= 1e-9

    def test_rejects_multiple_roots(self, double_root_dist):
        # the double root enters the root product twice
        char = build_characteristic(double_root_dist, 3)
        roots = find_unit_disk_roots(char)
        vals = closed_values(double_root_dist, char, roots)
        np.testing.assert_allclose(vals, [0.968, 1.0, 1.0, 1.0], atol=1e-12)


class TestGeneratingFunction:
    def test_at_zero_is_phi1(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        assert survival_gf(sup, geometric, 3, 0.0) == pytest.approx(sup.mass[0], abs=1e-14)

    def test_bernoulli_is_geometric_series(self, bernoulli):
        char, roots, sup = solve_model(bernoulli, 1)
        assert survival_gf(sup, bernoulli, 1, 0.5) == pytest.approx(2.0, abs=1e-12)
        s = 0.25 + 0.3j
        assert survival_gf(sup, bernoulli, 1, s) == pytest.approx(1.0 / (1.0 - s), abs=1e-12)

    def test_double_root_model_series(self, double_root_dist):
        char, roots, sup = solve_model(double_root_dist, 3)
        assert survival_gf(sup, double_root_dist, 3, 0.3) == pytest.approx(1.0 / 0.7, abs=1e-10)

    def test_near_pole_guard(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        alpha = roots.values[0]
        with pytest.raises(NearPole):
            survival_gf(sup, geometric, 2, alpha)


class TestClosedGf:
    def test_kappa1_bernoulli(self, bernoulli):
        val = survival_gf_closed(bernoulli, 1, 0.0, roots=RootSet(()))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_kappa2_geometric_value(self, geometric):
        _char, roots, _sup = solve_model(geometric, 2)
        val = survival_gf_closed(geometric, 2, 0.0, roots=roots)
        assert val.real == pytest.approx(PHI1_EXACT_K2, abs=1e-10)

    def test_kappa2_zero_origin_mass(self, shifted_dist):
        # EX = 1.4, shifted pgf at 0 is 0.6
        val = survival_gf_closed(shifted_dist, 2, 0.0, roots=RootSet(()))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_matches_general_gf(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        rng = np.random.default_rng(17)
        for _ in range(50):
            s = (rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.9, 0.9)) / np.sqrt(2)
            a = survival_gf(sup, geometric, 2, s)
            b = survival_gf_closed(geometric, 2, s, roots=roots)
            assert abs(a - b) <= 1e-10

    def test_unsupported_kappa(self, geometric):
        with pytest.raises(UnsupportedKappa):
            survival_gf_closed(geometric, 3, 0.1, roots=RootSet(()))


class TestSeriesCoefficients:
    def test_first_coefficient(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        coeffs = survival_gf_coefficients(sup_pmf_closed_form(geometric, char, roots), char, 0)
        assert coeffs[0] == pytest.approx(sup.mass[0], abs=1e-14)

    def test_geometric_kappa3_reference_values(self, geometric):
        char, roots, sup = solve_model(geometric, 3)
        coeffs = survival_gf_coefficients(sup_pmf_closed_form(geometric, char, roots), char, 2)
        np.testing.assert_allclose(coeffs, [0.582072, 0.663971, 0.729821], atol=1e-5)

    def test_double_root_all_ones(self, double_root_dist):
        char, roots, sup = solve_model(double_root_dist, 3)
        coeffs = survival_gf_coefficients(sup_pmf_closed_form(double_root_dist, char, roots), char, 30)
        np.testing.assert_allclose(coeffs, 1.0, atol=1e-12)

    def test_agrees_with_table_route(self, random_models):
        for dist, kappa, roots, char in random_models:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            table = ultimate_survival_table(sup, char, 25)
            coeffs = survival_gf_coefficients(sup_pmf_closed_form(dist, char, roots), char, 24)
            assert np.max(np.abs(coeffs - table.phi[1:])) <= 1e-9


class TestStableExtension:
    def test_reaches_target(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        mass = extend_sup_pmf_stable(sup, char)
        assert 1.0 - mass.sum() < 1e-10
        assert mass.min() >= -1e-12

    def test_matches_table_differences(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        mass = extend_sup_pmf_stable(sup, char)
        table = ultimate_survival_table(sup, char, 200)
        diffs = table.phi[2:200] - table.phi[1:199]
        np.testing.assert_allclose(mass[1:199], diffs, atol=1e-11)

    def test_target_below_roundoff_floor_of_mass_sum(self, geometric, monkeypatch):
        # 1 - sum(mass) of the inverted pmf has no roundoff floor near 1e-12,
        # so a 1e-12 target is reachable
        char, roots, sup = solve_model(geometric, 2)
        default = extend_sup_pmf_stable(sup, char)
        monkeypatch.setattr(survival, "EXTENSION_TAIL", 1e-12)
        mass = extend_sup_pmf_stable(sup, char)
        assert mass.size == default.size == 4097
        assert mass.min() >= -1e-12


def _full_cone_grid(dist, kappa, u_max, t_max, state_cap=None):
    """Reference DP: every step carries all states and pads kappa ones.

    Its step is the grid's own convolution with the claim pmf, so what it
    checks is the trimming of the cone; `TestExactDp` checks the step.
    """
    if state_cap is None:
        length = u_max + kappa * t_max
    else:
        length = max(u_max + kappa, int(state_cap))
    step = _claim_filter(dist)
    v = np.ones(length + 1, dtype=float)
    rows = np.empty((t_max, u_max + 1), dtype=float)
    work = np.empty(length + 1 + kappa, dtype=float)
    for t in range(1, t_max + 1):
        work[: length + 1] = v
        work[length + 1 :] = 1.0
        work[0] = 0.0
        v = step(work)[kappa : kappa + length + 1]
        np.clip(v, 0.0, 1.0, out=v)
        rows[t - 1] = v[: u_max + 1]
    return rows


def _mp_geometric_grid(dist, kappa, u_max, t_max, state_cap, digits=40):
    """The capped geometric DP in `digits`-digit arithmetic, as a float array.

    The law is P(X = k) = p (1 - p)^k with 1 - p taken exactly; each step
    convolves with the whole pmf through y_j = (1 - p) y_{j-1} + p w_j.
    """
    import mpmath as mp

    with mp.workdps(digits):
        p = mp.mpf(dist.p)
        q = 1 - p
        length = max(u_max + kappa, state_cap)
        v = [mp.mpf(1)] * (length + 1)
        rows = []
        for _t in range(t_max):
            w = [mp.mpf(0)] + v[1:] + [mp.mpf(1)] * kappa
            y = mp.mpf(0)
            new = []
            for j, wj in enumerate(w):
                y = q * y + p * wj
                if j >= kappa:
                    new.append(min(y, mp.mpf(1)))
            v = new[: length + 1]
            rows.append([float(x) for x in v[: u_max + 1]])
    return np.array(rows)


def _truncated_convolution_grid(dist, kappa, u_max, t_max, state_cap):
    """The capped DP with the pmf truncated at TRUNC_EPS and np.convolve steps."""
    x, _tail = dist.truncate(TRUNC_EPS)
    length = max(u_max + kappa, state_cap)
    v = np.ones(length + 1, dtype=float)
    rows = np.empty((t_max, u_max + 1), dtype=float)
    for t in range(t_max):
        work = np.concatenate((v, np.ones(kappa)))
        work[0] = 0.0
        v = np.convolve(x, work)[kappa : kappa + length + 1]
        np.clip(v, 0.0, 1.0, out=v)
        rows[t] = v[: u_max + 1]
    return rows


class TestExactDp:
    """The geometric DP step is exact up to roundoff: no truncated pmf."""

    @pytest.mark.parametrize(
        "p, kappa, t_max, state_cap",
        [(GEOMETRIC_P, 2, 300, 600), (0.03, 50, 120, 1601)],
        ids=["geom_k2", "geom_k50"],
    )
    def test_one_pole_within_truncated_convolution_error(self, p, kappa, t_max, state_cap):
        dist = Geometric(p)
        exact = _mp_geometric_grid(dist, kappa, 10, t_max, state_cap)
        grid = finite_time_grid(dist, kappa, 10, t_max, state_cap=state_cap).phi
        convolved = _truncated_convolution_grid(dist, kappa, 10, t_max, state_cap)
        err = np.max(np.abs(grid - exact))
        assert err <= np.max(np.abs(convolved - exact))
        assert err <= 1e-13


class TestFiniteTime:
    @pytest.mark.parametrize(
        "dist, kappa, u_max, t_max, state_cap",
        [
            (Geometric(0.03), 50, 60, 100, 1601),
            (Geometric(GEOMETRIC_P), 2, 60, 2000, 4097),
            (Geometric(GEOMETRIC_P), 3, 20, 300, None),
            (FinitePmf(tuple([1.0 / 41.0] * 41)), 25, 10, 120, None),
            (Geometric(GEOMETRIC_P), 2, 0, 300, None),
            (Geometric(GEOMETRIC_P), 2, 0, 400, 50),
        ],
        ids=["geom_k50_capped", "geom_k2_capped", "geom_k3", "unif40_k25", "u0", "u0_capped"],
    )
    def test_trimmed_cone_matches_full_cone(self, dist, kappa, u_max, t_max, state_cap):
        grid = finite_time_grid(dist, kappa, u_max, t_max, state_cap=state_cap)
        reference = _full_cone_grid(dist, kappa, u_max, t_max, state_cap)
        assert np.max(np.abs(grid.phi - reference)) <= 1e-15

    def test_one_period_is_cdf(self, geometric):
        # phi(u, 1) = F_X(u + kappa - 1)
        for u in range(0, 6):
            assert finite_time_grid(geometric, 2, u, 1).value(u, 1) == pytest.approx(
                geometric.cdf(u + 1), abs=1e-12
            )

    def test_geometric_kappa2_first_step_value(self, geometric):
        p = 101.0 / 300.0
        value = finite_time_grid(geometric, 2, 0, 1).value(0, 1)
        assert value == pytest.approx(p * (2 - p), abs=1e-12)

    def test_bernoulli_never_ruins_from_one(self, bernoulli):
        for t in (1, 5, 40):
            assert finite_time_grid(bernoulli, 1, 1, t).value(1, t) == pytest.approx(1.0, abs=1e-14)

    def test_certain_when_claims_cannot_reach(self, double_root_dist):
        # u + kappa - 1 >= max support means one period always survives
        assert finite_time_grid(double_root_dist, 3, 1, 1).value(1, 1) == 1.0

    def test_matches_enumeration(self, geometric, double_root_dist):
        for dist, kappa in ((geometric, 2), (geometric, 3), (double_root_dist, 3)):
            grid = finite_time_grid(dist, kappa, 4, 3)
            for u in range(5):
                for t in (1, 2, 3):
                    exact = enumerate_finite_time(dist, kappa, u, t)
                    assert abs(grid.value(u, t) - exact) <= 1e-10

    def test_monotonicity(self, geometric):
        grid = finite_time_grid(geometric, 2, 8, 60)
        assert np.all(np.diff(grid.phi, axis=0) <= 1e-14)  # non-increasing in T
        assert np.all(np.diff(grid.phi, axis=1) >= -1e-14)  # non-decreasing in u

    def test_dominates_ultimate(self, geometric):
        char, roots, sup = solve_model(geometric, 2)
        table = ultimate_survival_table(sup, char, 8)
        grid = finite_time_grid(geometric, 2, 8, 60)
        assert np.all(grid.phi[-1] >= table.phi[:9] - 1e-12)

    def test_state_cap_is_upper_bound_and_tight(self, geometric):
        exact = finite_time_grid(geometric, 2, 6, 200)
        capped = finite_time_grid(geometric, 2, 6, 200, state_cap=2400)
        assert np.all(capped.phi >= exact.phi - 1e-13)
        np.testing.assert_allclose(capped.phi, exact.phi, atol=1e-9)

    def test_trivial_model_grid(self):
        # claim == premium surely: ruin from zero, survival from anywhere else
        d = FinitePmf((0.0, 0.0, 1.0))
        grid = finite_time_grid(d, 2, 3, 5)
        assert np.all(grid.phi[:, 0] == 0.0)
        assert np.all(grid.phi[:, 1:] == 1.0)

    def test_dropping_zero_claim_term_breaks_enumeration(self, geometric):
        # the variant recursion without the zero-claim term disagrees with the
        # exact enumeration, resolving the index-convention question
        kappa, u, t = 2, 1, 2
        x, _ = geometric.truncate(geometric.trunc_eps)
        grid = finite_time_grid(geometric, kappa, u + kappa, t - 1)
        variant = sum(
            x[j] * grid.value(u + kappa - j, t - 1) for j in range(1, u + kappa)
        )
        exact = enumerate_finite_time(geometric, kappa, u, t)
        with_zero = variant + x[0] * grid.value(u + kappa, t - 1)
        assert abs(with_zero - exact) <= 1e-10
        assert abs(variant - exact) > 1e-3


def _full_one_pole(p, q, w):
    """`_one_pole` without the early stop: every pass until q^k underflows."""
    y = p * w
    k = 1
    while k < y.size and q**k > 0.0:
        y[k:] += y[:-k] * q**k
        k *= 2
    return y


# zeros, subnormals, tiny normals and probabilities
_ROW_VALUES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022),
    st.floats(2.0**-1022, 2.0**-960),
    st.floats(0.0, 1.0),
)


class TestOnePoleEarlyStop:
    @settings(max_examples=300, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        values=st.lists(_ROW_VALUES, min_size=1, max_size=300),
    )
    # a subnormal term rounds up to half an ulp of y here, a tie that rounds
    # up, so the early stop at q^k <= 2^-54 changes bits and 2^-55 does not
    @example(
        q=float.fromhex("0x1.1d487312cfb3cp-1"),
        values=[float.fromhex("0x1.fffffbc11088fp-1000")] * 100,
    )
    def test_matches_full_scan_bit_for_bit(self, q, values):
        w = np.sort(np.array(values))
        got = (1.0 - q) * w
        _one_pole(q, got)
        assert got.tobytes() == _full_one_pole(1.0 - q, q, w).tobytes()

    @pytest.mark.parametrize("p, passes", [(GEOMETRIC_P, 7), (0.03, 11)])
    def test_pass_count(self, monkeypatch, p, passes):
        # the capped DP of geom_k2 / geom_k3 (cap 4097) and of geom_k50 (cap 1601)
        calls = []
        multiply = np.multiply

        def counted(*args, **kwargs):
            calls.append(1)
            return multiply(*args, **kwargs)

        monkeypatch.setattr(np, "multiply", counted)
        _one_pole(1.0 - p, p * np.ones(4097))
        assert len(calls) == passes
