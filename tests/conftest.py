"""One hypothesis profile for the whole suite: a fixed example count,
derandomized so every run draws the same examples, and no example database."""

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
