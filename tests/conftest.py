from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from gclab.distributions import Distribution

# One example budget for every property test: modest, so the suite stays
# quick, and derandomized, so a run is reproducible.
settings.register_profile("gclab", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("gclab")


@pytest.fixture(scope="session")
def mixture():
    """Half degree-1, half degree-3; the workhorse supercritical law."""
    return Distribution([(1, 0.5), (3, 0.5)])


@pytest.fixture(scope="session")
def regular3():
    return Distribution([(3, 1.0)])


@pytest.fixture(scope="session")
def critical_mix():
    """E(D(D-2)) = 0 exactly: the critical boundary case."""
    return Distribution([(1, 0.75), (3, 0.25)])


@pytest.fixture(scope="session")
def matching_law():
    return Distribution([(1, 1.0)])


@pytest.fixture(scope="session")
def all_twos():
    return Distribution([(2, 1.0)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
