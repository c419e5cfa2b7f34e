"""Shared test settings: property tests run a fixed, bounded set of examples
so that every run of the suite is deterministic and cheap.  Failing examples
are reported as found, not shrunk: shrinking an example through the exact
eliminations can take minutes."""

from hypothesis import Phase, settings

settings.register_profile("curvealg", derandomize=True, deadline=None,
                          max_examples=60, database=None,
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("curvealg")
