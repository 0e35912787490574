"""Hypothesis runs derandomized, without a deadline or an example database,
so every property test draws the same examples on every run.  The cache of
source constants Hypothesis keeps besides goes under pytest's own cache
directory, so a test run leaves no `.hypothesis/` directory behind."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("gamehedge", derandomize=True, deadline=None, database=None)
settings.load_profile("gamehedge")


def pytest_configure(config):
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
