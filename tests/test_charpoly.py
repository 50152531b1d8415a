import hashlib
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ruinwalk.charpoly as charpoly
from ruinwalk.charpoly import (
    TOL_BOUNDARY,
    TOL_CLUSTER,
    TOL_ROOT,
    build_characteristic,
    cluster_multiplicities,
    companion_roots,
    deflate_at_one,
    find_unit_disk_roots,
    reduce_support,
)
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import (
    AmbiguousCluster,
    ConvergenceFailure,
    ReductionError,
    RootCountMismatch,
)

P = 101.0 / 300.0
# sha256 of TestLargeKappa::test_roots_pinned_bit_for_bit's roots
ROOT_DIGEST = "0481cb6e97787c90387a79cc1747d8da98d9c14844b5e1d17e81886578952f6d"


def alpha_closed_form(p: float) -> float:
    return (p - np.sqrt(4 * p - 3 * p * p)) / (2 * (1 - p))


class TestReduceSupport:
    def test_identity_when_mass_at_zero(self, geometric):
        d, k, m = reduce_support(geometric, 3)
        assert (d, k, m) == (geometric, 3, 0)

    def test_shift_by_one(self):
        d, k, m = reduce_support(FinitePmf((0.0, 0.6, 0.4)), 2)
        assert k == 1 and m == 1
        assert d.pmf(0) == 0.6 and d.pmf(1) == 0.4

    def test_shift_by_two(self):
        d, k, m = reduce_support(FinitePmf((0.0, 0.0, 0.9, 0.1)), 3)
        assert k == 1 and m == 2
        assert (d.pmf(0), d.pmf(1)) == (0.9, 0.1)

    def test_floor_reaching_premium(self):
        with pytest.raises(ReductionError):
            reduce_support(FinitePmf((0.0, 0.0, 0.5, 0.5)), 2)


class TestBuildCharacteristic:
    def test_geometric_kappa2_coeffs(self):
        # expand s^2 (1 - (1-p)s) - p by hand
        char = build_characteristic(Geometric(0.4), 2)
        np.testing.assert_allclose(char.coeffs, [-0.4, 0.0, 1.0, -0.6], atol=0)

    def test_finite_example(self, double_root_dist):
        char = build_characteristic(double_root_dist, 3)
        np.testing.assert_allclose(char.coeffs, [-0.128, -0.576, -0.264, 1.0 - 0.032], atol=1e-15)

    def test_bernoulli_kappa1_linear(self):
        char = build_characteristic(FinitePmf((0.7, 0.3)), 1)
        # (1-p)(s-1) with p=0.3
        np.testing.assert_allclose(char.coeffs, [-0.7, 0.7], atol=1e-15)

    def test_one_is_always_a_root(self, geometric, double_root_dist):
        for dist, k in ((geometric, 2), (geometric, 5), (double_root_dist, 3)):
            char = build_characteristic(dist, k)
            assert abs(char.eval(1.0)) <= 1e-10 * np.abs(char.coeffs).sum()

    def test_requires_mass_at_zero(self):
        with pytest.raises(ValueError):
            build_characteristic(FinitePmf((0.0, 1.0)), 2)


def _branch_per_law_characteristic(dist, kappa):
    """(coeffs, g) with one branch per law class: the reference that the
    pgf-ratio path of `build_characteristic` matches bit for bit."""
    if isinstance(dist, Geometric):
        coeffs = np.zeros(kappa + 2)
        coeffs[0] = -dist.p
        coeffs[kappa] = 1.0
        coeffs[kappa + 1] = -dist.q
        return coeffs, np.array([1.0, -dist.q])
    pmf = np.asarray(dist.probabilities, dtype=float)
    n = max(kappa, pmf.size - 1)
    coeffs = np.zeros(n + 1)
    coeffs[: pmf.size] = -pmf
    coeffs[kappa] += 1.0
    return coeffs, np.ones(1)


def _assert_matches_branch_per_law(dist, kappa):
    char = build_characteristic(dist, kappa)
    coeffs, g = _branch_per_law_characteristic(dist, kappa)
    assert char.coeffs.tobytes() == coeffs.tobytes()
    assert char.g.tobytes() == g.tobytes()


class TestPgfRatioPath:
    @pytest.mark.parametrize("law", ["bernoulli", "geometric", "double_root_dist", "shifted_dist"])
    @pytest.mark.parametrize("kappa", [2, 3, 5, 50])
    def test_fixture_laws(self, request, law, kappa):
        dist, kappa, _shift = reduce_support(request.getfixturevalue(law), kappa)
        _assert_matches_branch_per_law(dist, kappa)

    @settings(max_examples=200, deadline=None)
    @given(
        head=st.floats(1e-3, 1.0),
        tail=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), max_size=12),
        p=st.floats(0.01, 0.99),
        kappa=st.integers(1, 12),
    )
    def test_sampled_laws(self, head, tail, p, kappa):
        weights = np.array([head, *tail])
        _assert_matches_branch_per_law(FinitePmf(tuple(weights / weights.sum())), kappa)
        _assert_matches_branch_per_law(Geometric(p), kappa)


class TestDeflation:
    def test_quotient_times_factor_restores(self, geometric):
        char = build_characteristic(geometric, 3)
        quot = deflate_at_one(char.coeffs)
        restored = np.polynomial.polynomial.polymul(quot, [-1.0, 1.0])
        np.testing.assert_allclose(restored, char.coeffs, atol=1e-14)


class TestCompanionRoots:
    def test_known_cubic(self):
        # (s-2)(s+3)(s-0.5), lowest first
        coeffs = np.polynomial.polynomial.polyfromroots([2.0, -3.0, 0.5])
        found = np.sort_complex(companion_roots(coeffs))
        np.testing.assert_allclose(found, np.sort_complex(np.array([-3.0, 0.5, 2.0])), atol=1e-12)

    def test_complex_pair_is_exactly_conjugate(self):
        coeffs = np.polynomial.polynomial.polyfromroots([0.3 + 1j, 0.3 - 1j, 4.0]).real
        found = companion_roots(coeffs)
        assert min(abs(found - (0.3 + 1j))) < 1e-12
        assert min(abs(found - 4.0)) < 1e-12
        assert Counter(found) == Counter(found.conj())


def _partition(points: np.ndarray, tol: float) -> list[list[int]]:
    """Greedy transitive clustering of points closer than tol: the reference
    that `charpoly._components` must match group for group."""
    n = points.size
    labels = [-1] * n
    clusters: list[list[int]] = []
    for i in range(n):
        if labels[i] >= 0:
            continue
        group = [i]
        labels[i] = len(clusters)
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k in range(n):
                if labels[k] < 0 and abs(points[j] - points[k]) <= tol:
                    labels[k] = labels[i]
                    group.append(k)
                    frontier.append(k)
        clusters.append(sorted(group))
    return clusters


def _groups(labels: np.ndarray) -> list[list[int]]:
    return [np.flatnonzero(labels == k).tolist() for k in np.unique(labels)]


# gaps between consecutive points of a chain, in units of TOL_CLUSTER: some
# join only at ten times the tolerance, some at a tenth of it, some never
_CHAIN_STEPS = (0.0, 0.05, 0.099, 0.3, 0.7, 0.999, 1.001, 3.0, 9.99, 10.01, 40.0)


@st.composite
def point_sets(draw):
    """Chains of points along random directions (a-b-c can join while |a - c|
    exceeds the tolerance), with conjugates and exact duplicates, shuffled."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        z = draw(st.complex_numbers(max_magnitude=1.0))
        step = TOL_CLUSTER * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
        points.append(z)
        for gap in draw(st.lists(st.sampled_from(_CHAIN_STEPS), max_size=5)):
            z = z + gap * step
            points.append(z)
    if draw(st.booleans()):
        points += [z.conjugate() for z in points]
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    return np.array(draw(st.permutations(points)), dtype=complex)


class TestCluster:
    def test_merges_conjugate_noise_pair(self):
        raw = [-0.3636 + 1e-9j, -0.36360005 - 1e-9j]
        out = cluster_multiplicities(raw)
        assert len(out) == 1
        value, mult = out[0]
        assert mult == 2
        assert value.imag == 0.0

    def test_keeps_distant_conjugates(self):
        raw = [-0.36 + 0.52j, -0.36 - 0.52j]
        out = cluster_multiplicities(raw)
        assert [m for _, m in out] == [1, 1]

    def test_empty(self):
        assert cluster_multiplicities([]) == []

    def test_ambiguous_cluster_detected(self):
        # separation sits inside the factor-10 window around the tolerance
        raw = [0.0 + 0.0j, 3.0 * TOL_CLUSTER + 0.0j]
        with pytest.raises(AmbiguousCluster):
            cluster_multiplicities(raw)

    @settings(max_examples=300, deadline=None)
    @given(points=point_sets())
    @example(points=np.array([0.25 - 0.5j]))
    def test_components_match_greedy_partition(self, points):
        tight, base, loose = (
            _groups(charpoly._components(points, TOL_CLUSTER * f)) for f in (0.1, 1.0, 10.0)
        )
        assert tight == _partition(points, TOL_CLUSTER / 10.0)
        assert base == _partition(points, TOL_CLUSTER)
        assert loose == _partition(points, TOL_CLUSTER * 10.0)
        if tight == loose:
            assert base == tight


def _reduced_characteristic(dist, kappa):
    dist, kappa, _shift = reduce_support(dist, kappa)
    return build_characteristic(dist, kappa)


def _assert_valid_root_set(char, roots):
    """kappa-1 roots by multiplicity, each passing the residual test at every
    derivative order, conjugate-closed bit for bit, and poles outside the disk."""
    assert roots.total_multiplicity == char.kappa - 1
    scale0 = np.abs(char.coeffs).sum()
    for r in roots.roots:
        for order in range(r.multiplicity):
            dcoeffs = np.polynomial.polynomial.polyder(char.coeffs, order)
            scale = max(np.abs(dcoeffs).sum(), scale0)
            assert abs(np.polynomial.polynomial.polyval(r.value, dcoeffs)) <= TOL_ROOT * scale
    pairs = [(r.value, r.multiplicity) for r in roots.roots]
    assert Counter(pairs) == Counter((z.conjugate(), m) for z, m in pairs)
    assert Counter(roots.outside) == Counter(w.conjugate() for w in roots.outside)
    assert all(abs(w) > 1.0 + TOL_BOUNDARY for w in roots.outside)


class TestFindUnitDiskRoots:
    def test_geometric_kappa2_closed_form(self, geometric):
        roots = find_unit_disk_roots(build_characteristic(geometric, 2))
        assert roots.total_multiplicity == 1
        alpha = roots.values[0]
        assert abs(alpha - alpha_closed_form(P)) < 1e-13
        assert -1 < alpha.real < 0 and alpha.imag == 0

    def test_geometric_kappa3_conjugate_pair(self, geometric):
        roots = find_unit_disk_roots(build_characteristic(geometric, 3))
        values = np.sort_complex(roots.values)
        target = np.sort_complex(np.array([-0.368094 + 0.522097j, -0.368094 - 0.522097j]))
        np.testing.assert_allclose(values, target, atol=1e-5)
        assert roots.total_multiplicity == 2
        # conjugate closure
        assert set(np.round(values, 12)) == set(np.round(values.conj(), 12))

    def test_double_root_recovered(self, double_root_dist):
        roots = find_unit_disk_roots(build_characteristic(double_root_dist, 3))
        assert len(roots.roots) == 1
        r = roots.roots[0]
        assert r.multiplicity == 2
        assert abs(r.value - (-4.0 / 11.0)) < 1e-10
        assert r.value.imag == 0.0

    def test_kappa1_no_roots(self, bernoulli):
        roots = find_unit_disk_roots(build_characteristic(bernoulli, 1))
        assert roots.roots == ()

    def test_boundary_root_even_support(self):
        # support {0, 2} at kappa=2 puts -1 on the unit circle
        roots = find_unit_disk_roots(build_characteristic(FinitePmf((0.5, 0.0, 0.5)), 2))
        assert roots.total_multiplicity == 1
        r = roots.roots[0]
        assert abs(r.value - (-1.0)) < 1e-12
        assert r.on_boundary

    def test_no_root_near_one(self, geometric, random_models):
        for dist, kappa, roots, _char in random_models[:50]:
            for r in roots.roots:
                assert abs(r.value - 1.0) > 1e-10

    def test_count_matches_multiplicity(self, random_models):
        for dist, kappa, roots, _char in random_models:
            assert roots.total_multiplicity == kappa - 1

    def test_residuals_small(self, random_models):
        for _dist, _kappa, roots, char in random_models[:80]:
            scale = np.abs(char.coeffs).sum()
            for r in roots.roots:
                assert abs(char.eval(r.value)) <= 1e-10 * scale

    def test_oracle_equivalence_low_degree(self, stress_corpus):
        # Durand-Kerner in mpmath shares nothing with the eigenvalue route;
        # degree 20 bounds its cost (about 0.1 s a model)
        checked = 0
        for dist, kappa, _u_max in stress_corpus:
            char = _reduced_characteristic(dist, kappa)
            if char.degree > 20:
                continue
            roots = find_unit_disk_roots(char)
            ref = np.array(
                [complex(z) for z in mpmath.polyroots(char.coeffs[::-1].tolist(), extraprec=30)]
            )
            in_disk = (np.abs(ref) <= 1.0 + TOL_BOUNDARY) & (np.abs(ref - 1.0) > TOL_ROOT)
            assert np.count_nonzero(in_disk) == roots.total_multiplicity
            for z in (*roots.values, *roots.outside):
                assert min(abs(ref - z)) < 1e-10
            checked += 1
        assert checked >= 60

    def test_outside_roots_are_outside(self, random_models):
        for _dist, _kappa, roots, _char in random_models[:80]:
            for w in roots.outside:
                assert abs(w) > 1.0 + 1e-8

    def test_count_mismatch_reported(self, geometric, monkeypatch):
        char = build_characteristic(geometric, 3)
        # absurd boundary tolerance excludes the genuine interior roots
        monkeypatch.setattr(charpoly, "TOL_BOUNDARY", -0.9)
        with pytest.raises(RootCountMismatch):
            find_unit_disk_roots(char)


class TestLargeKappa:
    def test_stress_corpus(self, stress_corpus):
        for dist, kappa, _u_max in stress_corpus:
            char = _reduced_characteristic(dist, kappa)
            _assert_valid_root_set(char, find_unit_disk_roots(char))

    def test_uniform_0_to_200_kappa_151(self):
        # degree 200 with 150 roots in the disk, the largest kappa tested
        char = build_characteristic(FinitePmf(tuple(np.full(201, 1.0 / 201))), 151)
        roots = find_unit_disk_roots(char)
        _assert_valid_root_set(char, roots)
        assert roots.all_simple
        assert len(roots.roots) == 150 and len(roots.outside) == 49

    @pytest.mark.parametrize("law, order", [("geometric", 0), ("double_root_dist", 1)])
    def test_residual_test_rejects_a_moved_root(self, request, monkeypatch, law, order):
        # every root moves by 1e-6 along the real axis, so pairs stay conjugate;
        # the double root still passes order 0 and fails order 1
        polish = charpoly._newton_polish
        monkeypatch.setattr(charpoly, "_newton_polish", lambda c, z0: polish(c, z0) + 1e-6)
        with pytest.raises(ConvergenceFailure, match=f"order-{order} residual"):
            find_unit_disk_roots(build_characteristic(request.getfixturevalue(law), 3))

    def test_roots_pinned_bit_for_bit(self, stress_corpus):
        # sha256 over every root value, multiplicity, boundary flag and outside
        # pole of the reduced stress corpus, Geometric(0.006) at kappa=166 and
        # the double-root law scaled by d = 2, 3, 4, 6 (repeated and boundary roots)
        models = [(dist, kappa) for dist, kappa, _u_max in stress_corpus]
        models.append((Geometric(0.006), 166))
        for d in (2, 3, 4, 6):
            pmf = np.zeros(3 * d + 1)
            pmf[::d] = (0.128, 0.576, 0.264, 0.032)
            models.append((FinitePmf(tuple(pmf)), 3 * d))
        digest = hashlib.sha256()
        for dist, kappa in models:
            roots = find_unit_disk_roots(_reduced_characteristic(dist, kappa))
            digest.update(roots.values.tobytes())
            digest.update(np.array([r.multiplicity for r in roots.roots], dtype="<i8").tobytes())
            digest.update(np.array([r.on_boundary for r in roots.roots], dtype=bool).tobytes())
            digest.update(np.array(roots.outside, dtype=complex).tobytes())
        assert digest.hexdigest() == ROOT_DIGEST

    def test_pairing_check_rejects_an_unpaired_root(self, geometric, monkeypatch):
        # the upper root of the pair moves by 1e-13: the count and the
        # residual test still pass, the conjugate pairing does not
        polish = charpoly._newton_polish
        shifted = lambda c, z0: polish(c, z0) + (1e-13 if z0.imag > 0 else 0.0)
        monkeypatch.setattr(charpoly, "_newton_polish", shifted)
        with pytest.raises(RootCountMismatch):
            find_unit_disk_roots(build_characteristic(geometric, 3))
