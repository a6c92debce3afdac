"""Shared fixtures: small simulated datasets reused across test modules."""

import numpy as np
import pytest

from sgp_hawkes import FitConfig, case1_rates, simulate_thinning
from sgp_hawkes.fitbase import build_caches, build_dataset


@pytest.fixture(scope="session")
def small_case1_seqs():
    return [simulate_thinning(case1_rates(), 100.0, seed=s) for s in range(3)]


@pytest.fixture(scope="session")
def small_config():
    return FitConfig(T=100.0, T_phi=6.0, max_iter=10, hyper_refresh_every=0)


@pytest.fixture(scope="session")
def small_dataset(small_case1_seqs):
    return build_dataset(small_case1_seqs, 6.0)


@pytest.fixture(scope="session")
def small_caches(small_dataset, small_config):
    return build_caches(small_dataset, small_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
