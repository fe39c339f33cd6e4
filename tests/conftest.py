"""One hypothesis profile for the whole suite: a fixed example count,
derandomized so every run draws the same examples, and no example database.
Plus a fixture for tests of the cyclic garbage collector's state."""

import gc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "gca",
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("gca")


@pytest.fixture
def collector_on():
    """Run the test with the cyclic collector enabled; restore its state after."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()
