"""Shared fixtures: the four reference models and two seeded random-model corpora."""

from __future__ import annotations

import numpy as np
import pytest

from ruinwalk.charpoly import build_characteristic, find_unit_disk_roots, reduce_support
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import AmbiguousCluster, RootCountMismatch

from reference_values import GEOMETRIC_P


@pytest.fixture(scope="session")
def bernoulli():
    return FinitePmf((0.7, 0.3))


@pytest.fixture(scope="session")
def geometric():
    return Geometric(GEOMETRIC_P)


@pytest.fixture(scope="session")
def double_root_dist():
    return FinitePmf((0.128, 0.576, 0.264, 0.032))


@pytest.fixture(scope="session")
def shifted_dist():
    return FinitePmf((0.0, 0.6, 0.4))


def sample_model(rng: np.random.Generator, *, max_kappa: int = 5, max_support: int = 8):
    """One random net-profit model with simple unit-disk roots, already reduced.

    Returns (dist, kappa, roots, char). Support size <= max_support, premium
    rate <= max_kappa; multiplicity collisions (measure zero, but the cluster
    tolerance can merge extremely close pairs) are rejected and resampled.
    """
    while True:
        kappa = int(rng.integers(1, max_kappa + 1))
        size = int(rng.integers(2, max_support + 1))
        weights = 2.0 / (1.0 + np.arange(size))
        p = rng.dirichlet(weights)
        if p.min() < 1e-6:
            continue
        p = p / p.sum()
        mean = float(np.arange(size) @ p)
        if mean >= kappa - 1e-3:
            continue
        dist = FinitePmf(tuple(p))
        dist, kappa, _shift = reduce_support(dist, kappa)
        char = build_characteristic(dist, kappa)
        try:
            roots = find_unit_disk_roots(char)
        except (AmbiguousCluster, RootCountMismatch):
            continue
        if not roots.all_simple:
            continue
        return dist, kappa, roots, char


@pytest.fixture(scope="session")
def random_models():
    """The fixed 200-model property-test corpus."""
    rng = np.random.default_rng(20260808)
    return [sample_model(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def stress_corpus():
    """The fixed 200-model stress corpus: (dist, kappa, u_max), not reduced.

    kappa in 2..30, support 2..60 and Dirichlet(0.3) weights are redrawn
    together until E X < kappa; 103 models have no claim above kappa.
    """
    rng = np.random.default_rng(20261018)
    models = []
    for _ in range(200):
        while True:
            kappa = int(rng.integers(2, 31))
            size = int(rng.integers(2, 61))
            weights = rng.dirichlet(0.3 * np.ones(size))
            if np.arange(size) @ weights < kappa:
                break
        models.append((FinitePmf(tuple(weights)), kappa, int(rng.integers(10, 121))))
    return models
