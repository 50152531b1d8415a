import dataclasses

import numpy as np
import pytest

from ruinwalk.charpoly import build_characteristic, find_unit_disk_roots
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import ImagLeak
from ruinwalk.supremum import (
    build_boundary_system,
    cdf_toeplitz,
    determinant_identity_error,
    solve_boundary_system,
    sup_pmf_closed_form,
)
from ruinwalk.survival import extend_sup_pmf_stable, ultimate_survival_table
from ruinwalk.verification import IDENTITY_POINTS

from reference_values import PHI1_EXACT_K2


def solve_model(dist, kappa):
    char = build_characteristic(dist, kappa)
    roots = find_unit_disk_roots(char)
    system = build_boundary_system(dist, kappa, roots)
    return char, roots, system, solve_boundary_system(system)


class TestAssembly:
    def test_kappa1_is_scalar_moment_row(self, bernoulli):
        _c, _r, system, sup = solve_model(bernoulli, 1)
        assert system.matrix.shape == (1, 1)
        assert system.matrix[0, 0] == pytest.approx(0.7)  # x0
        assert system.rhs[0] == pytest.approx(1.0 - 0.3)  # 1 - EX
        assert sup.mass[0] == pytest.approx(1.0, abs=1e-15)

    def test_geometric_kappa3_rows_match_display(self, geometric):
        char = build_characteristic(geometric, 3)
        roots = find_unit_disk_roots(char)
        system = build_boundary_system(geometric, 3, roots)
        d = geometric
        x0, f1, f2 = d.pmf(0), d.cdf(1), d.cdf(2)
        for row, kind in zip(system.matrix[:2], system.row_kinds[:2]):
            a, order = kind
            assert order == 0
            np.testing.assert_allclose(
                row,
                [x0 + f1 * a + f2 * a**2, x0 * a + f1 * a**2, x0 * a**2],
                atol=1e-14,
            )
        x1, x2 = d.pmf(1), d.pmf(2)
        np.testing.assert_allclose(
            system.matrix[2].real, [3 * x0 + 2 * x1 + x2, 2 * x0 + x1, x0], atol=1e-15
        )
        assert system.rhs[2].real == pytest.approx(3 - d.mean(), abs=1e-14)

    def test_derivative_row_matches_display(self, double_root_dist):
        char = build_characteristic(double_root_dist, 3)
        roots = find_unit_disk_roots(char)
        system = build_boundary_system(double_root_dist, 3, roots)
        d = double_root_dist
        a = roots.roots[0].value.real
        x0, f1, f2 = d.pmf(0), d.cdf(1), d.cdf(2)
        np.testing.assert_allclose(
            system.matrix[1].real,
            [f1 + 2 * f2 * a, x0 + 2 * f1 * a, 2 * x0 * a],
            atol=1e-12,
        )
        assert system.row_kinds[1][1] == 1

    def test_derivative_row_matches_finite_difference(self, double_root_dist):
        # difference quotient of the order-0 row approximates the derivative row
        d = double_root_dist
        char = build_characteristic(d, 3)
        roots = find_unit_disk_roots(char)
        system = build_boundary_system(d, 3, roots)
        a = roots.roots[0].value
        delta = 1e-6
        cdf = cdf_toeplitz(d, 3)  # column i is the row polynomial of mass i
        pv = np.polynomial.polynomial.polyval
        fd = (pv(a + delta, cdf) - pv(a, cdf)) / delta
        np.testing.assert_allclose(system.matrix[1], fd, atol=1e-4)

    def test_moment_row_identity(self, geometric):
        # the moment row is the column sums of the cdf factor; they equal the
        # pmf-weighted first-moment row sum_j x_j (kappa - i - j)
        for kappa in (1, 2, 3, 5):
            row = cdf_toeplitz(geometric, kappa).sum(axis=0)
            alt = [
                sum(geometric.pmf(j) * (kappa - i - j) for j in range(kappa - i))
                for i in range(kappa)
            ]
            np.testing.assert_allclose(row, alt, atol=1e-14)


class TestCdfFactor:
    def test_matches_row_sums_and_identity_rhs(self, random_models):
        # reference: the per-row sums the cdf factor replaced, written out
        pts = IDENTITY_POINTS
        for dist, kappa, roots, _char in random_models:
            mass = solve_boundary_system(build_boundary_system(dist, kappa, roots)).mass
            r_loop = np.zeros(kappa)
            for i in range(kappa):
                for j in range(kappa - i):
                    r_loop[i + j] += mass[i] * dist.cdf(j)
            r = cdf_toeplitz(dist, kappa) @ mass
            np.testing.assert_allclose(r, r_loop, rtol=0, atol=1e-14)
            for s in pts:
                rhs_loop = 0.0 + 0.0j
                for i in range(kappa):
                    inner = sum(
                        dist.pmf(j) * (s**kappa - s ** (i + j)) for j in range(kappa - i)
                    )
                    rhs_loop += mass[i] * inner
                rhs = (s - 1.0) * np.polynomial.polynomial.polyval(s, r)
                assert abs(rhs - rhs_loop) <= 1e-14


class TestSolve:
    def test_geometric_kappa3_reference_values(self, geometric):
        _c, _r, _s, sup = solve_model(geometric, 3)
        np.testing.assert_allclose(
            sup.mass, [0.582072, 0.0818989, 0.0658497], atol=1e-5
        )
        assert sup.residual < 1e-12

    def test_double_root_unit_mass(self, double_root_dist):
        _c, _r, _s, sup = solve_model(double_root_dist, 3)
        np.testing.assert_allclose(sup.mass, [1.0, 0.0, 0.0], atol=1e-12)

    def test_mass_bounds(self, random_models):
        for dist, kappa, roots, _char in random_models:
            system = build_boundary_system(dist, kappa, roots)
            sup = solve_boundary_system(system)
            assert sup.mass.min() >= -1e-8
            assert sup.mass.sum() <= 1.0 + 1e-10
            assert sup.mass[0] > 0.0

    def test_nan_solution_is_an_imag_leak(self, geometric):
        # `leak > TOL_REAL` is False for NaN, so the guard is written `not <=`
        _c, _r, system, _sup = solve_model(geometric, 3)
        with pytest.raises(ImagLeak):
            solve_boundary_system(dataclasses.replace(system, rhs=system.rhs * np.nan))

    def test_moment_identity_after_solve(self, random_models):
        for dist, kappa, roots, _char in random_models[:60]:
            system = build_boundary_system(dist, kappa, roots)
            sup = solve_boundary_system(system)
            lhs = kappa - dist.mean()
            rhs = float(system.matrix[-1].real @ sup.mass)
            assert abs(lhs - rhs) <= 1e-10


class TestClosedForm:
    def test_kappa2_geometric_exact_value(self, geometric):
        char, roots, _s, _sup = solve_model(geometric, 2)
        closed = sup_pmf_closed_form(geometric, char, roots)
        assert closed.mass[0] == pytest.approx(PHI1_EXACT_K2, abs=1e-10)

    def test_kappa1_empty_products(self, bernoulli):
        char = build_characteristic(bernoulli, 1)
        roots = find_unit_disk_roots(char)
        closed = sup_pmf_closed_form(bernoulli, char, roots)
        assert closed.mass[0] == pytest.approx(1.0, abs=1e-14)

    def test_agrees_with_solve_everywhere(self, random_models):
        worst = 0.0
        for dist, kappa, roots, char in random_models:
            sup = solve_boundary_system(build_boundary_system(dist, kappa, roots))
            closed = sup_pmf_closed_form(dist, char, roots)
            worst = max(worst, float(np.max(np.abs(sup.mass - closed.mass))))
        assert worst <= 1e-9

    def test_rejects_multiple_roots(self, double_root_dist):
        # the double root enters the root product twice
        char = build_characteristic(double_root_dist, 3)
        roots = find_unit_disk_roots(char)
        closed = sup_pmf_closed_form(double_root_dist, char, roots)
        np.testing.assert_allclose(closed.mass, [1.0, 0.0, 0.0], atol=1e-12)


class TestDeterminantIdentity:
    def test_kappa1_trivial(self, bernoulli):
        char = build_characteristic(bernoulli, 1)
        roots = find_unit_disk_roots(char)
        system = build_boundary_system(bernoulli, 1, roots)
        assert determinant_identity_error(system, roots, bernoulli.pmf(0)) == pytest.approx(0.0, abs=1e-14)

    def test_geometric_kappa3(self, geometric):
        _c, roots, system, _sup = solve_model(geometric, 3)
        assert determinant_identity_error(system, roots, geometric.pmf(0)) <= 1e-9

    def test_random_models(self, random_models):
        for dist, kappa, roots, _char in random_models[:100]:
            system = build_boundary_system(dist, kappa, roots)
            assert determinant_identity_error(system, roots, dist.pmf(0)) <= 1e-8

    # x0^kappa underflows (NaN) or the product of differences overflows (inf)
    # when the identity is evaluated directly
    LARGE_KAPPA = {
        "geometric_0.006_k166": (Geometric(0.006), 166),
        "geometric_0.01_k120": (Geometric(0.01), 120),
        "uniform_0_200_k151": (FinitePmf(tuple(np.full(201, 1.0 / 201))), 151),
    }

    @pytest.mark.parametrize("model", list(LARGE_KAPPA))
    def test_large_kappa_is_finite_and_caught_when_faulty(self, model):
        dist, kappa = self.LARGE_KAPPA[model]
        _c, roots, system, _sup = solve_model(dist, kappa)
        assert determinant_identity_error(system, roots, dist.pmf(0)) <= 1e-8
        faulty = system.matrix.copy()
        faulty[0] *= 1.0 + 1e-6
        broken = dataclasses.replace(system, matrix=faulty)
        assert determinant_identity_error(broken, roots, dist.pmf(0)) > 1e-8


class TestVandermondeReduction:
    @staticmethod
    def _reduce(matrix, dist, kappa):
        """Column elimination: peel cdf multiples off, factoring x0 each stage."""
        a = matrix.astype(complex).copy()
        x0 = dist.pmf(0)
        for c in range(kappa - 1, 0, -1):
            a[:, c] /= x0
            for cprime in range(c):
                a[:, cprime] -= dist.cdf(c - cprime) * a[:, c]
        a[:, 0] /= x0
        return a

    def test_reduces_to_power_matrix(self, geometric):
        char = build_characteristic(geometric, 4)
        roots = find_unit_disk_roots(char)
        system = build_boundary_system(geometric, 4, roots)
        reduced = self._reduce(system.matrix, geometric, 4)
        values = np.array([k[0] for k in system.row_kinds[:-1]])
        expected = np.vstack(
            [np.power(v, np.arange(4)) for v in values] + [np.ones(4)]
        )
        np.testing.assert_allclose(reduced, expected, atol=1e-12)


class TestExtension:
    def test_bernoulli_kappa1_all_zero(self, bernoulli):
        char, _r, _s, sup = solve_model(bernoulli, 1)
        ext = extend_sup_pmf_stable(sup, char)
        assert ext[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(ext[1:], 0.0, atol=1e-14)

    def test_double_root_concentrated(self, double_root_dist):
        char, _r, _s, sup = solve_model(double_root_dist, 3)
        ext = extend_sup_pmf_stable(sup, char)
        assert ext[0] == pytest.approx(1.0, abs=1e-11)
        np.testing.assert_allclose(ext[1:], 0.0, atol=1e-10)

    def test_matches_survival_differences(self, geometric):
        char = build_characteristic(geometric, 3)
        roots = find_unit_disk_roots(char)
        sup = solve_boundary_system(build_boundary_system(geometric, 3, roots))
        table = ultimate_survival_table(sup, char, 26)
        ext = extend_sup_pmf_stable(sup, char)
        diffs = table.phi[2:26] - table.phi[1:25]  # phi(u+1)-phi(u) = P(M=u)
        np.testing.assert_allclose(ext[1:25], diffs, atol=1e-10)
