import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinwalk.distributions import (
    FinitePmf,
    Geometric,
    NetProfitStatus,
    check_net_profit,
    distribution_from_dict,
    lattice_span,
)
from ruinwalk.errors import ConfigError, DomainError, NetProfitViolation


class TestPmf:
    def test_geometric_at_zero_is_p(self):
        p = 101.0 / 300.0
        assert Geometric(p).pmf(0) == p

    def test_finite_pmf_example(self):
        d = FinitePmf((0.128, 0.576, 0.264, 0.032))
        assert d.pmf(2) == 0.264

    def test_geometric_direct_formula(self):
        # independent evaluation of p(1-p)^k
        assert Geometric(0.5).pmf(3) == pytest.approx(0.5 * 0.5**3, abs=0)
        assert Geometric(0.5).pmf(3) == 0.0625

    def test_pmf_sums_to_one(self):
        d = FinitePmf((0.2, 0.5, 0.3))
        assert sum(d.pmf(k) for k in range(10)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_index_is_zero(self):
        assert Geometric(0.4).pmf(-1) == 0.0
        assert FinitePmf((1.0,)).pmf(-2) == 0.0


class TestCdf:
    def test_total_mass(self):
        assert FinitePmf((0.3, 0.7)).cdf(50) == 1.0
        assert Geometric(0.6).cdf(2000) == pytest.approx(1.0, abs=1e-12)

    def test_partial_sum_example(self):
        d = FinitePmf((0.128, 0.576, 0.264, 0.032))
        assert d.cdf(1) == pytest.approx(0.128 + 0.576, abs=1e-15)

    def test_geometric_at_zero(self):
        assert Geometric(0.37).cdf(0) == pytest.approx(0.37, abs=1e-15)

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_cdf_increment_is_pmf(self, p, u):
        d = Geometric(p)
        assert d.cdf(u) - d.cdf(u - 1) == pytest.approx(d.pmf(u), abs=1e-14)


class TestPgf:
    def test_normalisation(self):
        for d in (Geometric(0.4), FinitePmf((0.1, 0.2, 0.7))):
            assert d.pgf(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_geometric_at_zero(self):
        p = 101.0 / 300.0
        assert Geometric(p).pgf(0.0) == pytest.approx(p, abs=0)

    def test_half_half_at_minus_one(self):
        assert FinitePmf((0.5, 0.5)).pgf(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_geometric_closed_form(self):
        p, s = 0.4, 0.3 + 0.2j
        assert Geometric(p).pgf(s) == pytest.approx(p / (1 - (1 - p) * s), abs=1e-15)

    def test_radius_of_convergence(self):
        with pytest.raises(DomainError):
            Geometric(0.2).pgf(1.3)  # radius is 1/(1-p) = 1.25

    def test_matches_truncated_series(self):
        d = Geometric(0.45)
        pmf, tail = d.truncate(d.trunc_eps)
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            if abs(s) > 1:
                s /= abs(s) * 1.0001
            series = np.polynomial.polynomial.polyval(s, pmf)
            assert abs(d.pgf(s) - series) <= tail + 1e-13


class TestMean:
    def test_geometric_mean_value(self):
        assert Geometric(101.0 / 300.0).mean() == pytest.approx(199.0 / 101.0, rel=1e-15)

    def test_bernoulli(self):
        assert FinitePmf((0.7, 0.3)).mean() == pytest.approx(0.3, abs=1e-15)

    def test_double_root_model(self):
        assert FinitePmf((0.128, 0.576, 0.264, 0.032)).mean() == pytest.approx(1.2, abs=1e-12)

    @pytest.mark.parametrize("p,eps", [(0.3, 1e-12), (0.7, 1e-12), (0.05, 1e-10), (0.9, 1e-14)])
    def test_mean_matches_truncated_sum(self, p, eps):
        # discarded tail mean is exactly q^(m+1) ((m+1)p + q)/p <= eps (m+1 + q/p)
        d = Geometric(p)
        pmf, _tail = d.truncate(eps)
        approx = float(np.arange(pmf.size) @ pmf)
        bound = eps * (pmf.size + d.q / d.p)
        assert abs(d.mean() - approx) <= bound


class TestNetProfit:
    def test_geometric_ok(self):
        res = check_net_profit(Geometric(101.0 / 300.0), 2)
        assert res.status is NetProfitStatus.OK
        res.require_ok()

    def test_trivial_survival(self):
        res = check_net_profit(FinitePmf((0.0, 0.0, 1.0)), 2)
        assert res.status is NetProfitStatus.TRIVIAL_SURVIVAL

    def test_violation(self):
        res = check_net_profit(Geometric(0.25), 2)  # mean 3 >= 2
        assert res.status is NetProfitStatus.VIOLATED
        assert res.mean == pytest.approx(3.0)
        with pytest.raises(NetProfitViolation):
            res.require_ok()

    def test_boundary_p_one_third(self):
        # mean (1-p)/p < 2 iff p > 1/3
        assert check_net_profit(Geometric(0.34), 2).status is NetProfitStatus.OK
        assert check_net_profit(Geometric(0.33), 2).status is NetProfitStatus.VIOLATED


class TestTruncate:
    def test_finite_returns_itself(self):
        d = FinitePmf((0.2, 0.3, 0.5))
        pmf, tail = d.truncate(1e-3)
        assert tail == 0.0
        np.testing.assert_allclose(pmf, [0.2, 0.3, 0.5])

    def test_geometric_half(self):
        pmf, tail = Geometric(0.5).truncate(1e-3)
        assert pmf.size - 1 == 9
        assert tail == pytest.approx(2.0**-10, rel=1e-12)

    def test_geometric_point_nine(self):
        pmf, tail = Geometric(0.9).truncate(1e-12)
        assert pmf.size - 1 == 11
        assert tail == pytest.approx(1e-12, rel=1e-9)

    def test_mass_covered(self):
        for p, eps in ((0.3, 1e-6), (0.8, 1e-10), (0.05, 1e-4)):
            pmf, tail = Geometric(p).truncate(eps)
            assert pmf.sum() + tail == pytest.approx(1.0, abs=1e-12)
            assert tail <= eps * (1 + 1e-6)


class TestLatticeSpan:
    def test_geometric_is_one(self):
        assert lattice_span(Geometric(0.5), 2) == 1
        assert lattice_span(Geometric(0.9), 7) == 1

    def test_even_support(self):
        assert lattice_span(FinitePmf((0.5, 0.0, 0.5)), 2) == 2

    def test_coprime_support(self):
        assert lattice_span(FinitePmf((0.9, 0.0, 0.0, 0.1)), 2) == 1

    def test_concentrated_at_zero(self):
        assert lattice_span(FinitePmf((1.0,)), 3) == 3


class TestConstructionAndConfig:
    def test_rejects_bad_pmf(self):
        with pytest.raises(ConfigError):
            FinitePmf((0.5, 0.6))
        with pytest.raises(ConfigError):
            FinitePmf((-0.1, 1.1))
        with pytest.raises(ConfigError):
            Geometric(1.5)

    def test_from_dict(self):
        d = distribution_from_dict({"kind": "geometric", "p": 0.336})
        assert isinstance(d, Geometric)
        d2 = distribution_from_dict({"kind": "finite", "pmf": [0.5, 0.5]})
        assert isinstance(d2, FinitePmf)
        with pytest.raises(ConfigError):
            distribution_from_dict({"kind": "poisson", "lam": 2.0})

    def test_round_trip(self):
        d = FinitePmf((0.25, 0.75))
        assert distribution_from_dict(d.to_dict()).probabilities == d.probabilities

    @given(st.floats(min_value=0.02, max_value=0.98))
    @settings(max_examples=40, deadline=None)
    def test_geometric_sampling_matches_pmf(self, p):
        d = Geometric(p)
        rng = np.random.default_rng(11)
        draws = d.sample(rng, 20_000)
        assert draws.min() >= 0
        freq0 = float((draws == 0).mean())
        assert abs(freq0 - p) < 5.0 * math.sqrt(p * (1 - p) / 20_000) + 1e-3

    def test_finite_sampling_matches_pmf(self):
        d = FinitePmf((0.128, 0.576, 0.264, 0.032))
        rng = np.random.default_rng(7)
        draws = d.sample(rng, 50_000)
        freq = np.bincount(draws, minlength=4) / 50_000
        np.testing.assert_allclose(freq, d.probabilities, atol=0.01)


class _FixedUniforms:
    """Stands in for a Generator whose random() returns the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u.reshape(size)


def _zero_run_pmf():
    p = np.zeros(2003)
    p[[0, 1, 2002]] = (0.3, 0.25, 0.45)
    return p


class TestGuideSampler:
    """FinitePmf.sample inverts the cdf exactly as searchsorted(side="right")."""

    @pytest.mark.parametrize(
        "pmf",
        [
            [1.0 / 41.0] * 41,
            np.random.default_rng(20261018).dirichlet([0.3] * 61),
            _zero_run_pmf(),
            [0.4] + [1e-12] * 50 + [0.6 - 50e-12],
            [0.5, 0.5 - 5e-13],
        ],
        ids=["uniform_41", "dirichlet_61", "zero_run_2000", "tiny_masses_50", "cdf_below_one"],
    )
    def test_matches_searchsorted(self, pmf):
        d = FinitePmf(tuple(pmf))
        cdf = np.cumsum(d.probabilities)
        # every cdf point and its neighbours, every bucket edge for up to
        # 2^14 buckets, both ends of [0, 1) and plain uniforms
        u = np.concatenate(
            [
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 2.0),
                np.arange(2**14) / 2**14,
                [0.0, 1.0 - 2.0**-53],
                np.random.default_rng(5).random(100_000),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        draws = d.sample(_FixedUniforms(u), u.shape)
        assert draws.dtype == np.int64
        np.testing.assert_array_equal(draws, np.searchsorted(cdf, u, side="right"))
