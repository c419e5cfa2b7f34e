"""Shared test settings: property tests run a fixed, bounded set of examples
so that every run of the suite is deterministic and cheap."""

from hypothesis import settings

settings.register_profile("curvealg", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("curvealg")
