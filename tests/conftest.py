from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import settings

from gclab.distributions import Distribution

# To report a failing property test, hypothesis's pytest plugin imports its
# patch writer, which imports libcst, which raises a DeprecationWarning
# (mypy_extensions' TypedDict). With warnings as errors that import would end
# the whole session in INTERNALERROR, so it is done once here, warning ignored.
# Without libcst the plugin writes no patch, and neither import happens.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

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
