"""Test-suite configuration.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, and no per-example deadline applies, so the suite is
deterministic and does not flake on a slow or busy host.
"""

from hypothesis import settings

settings.register_profile("liesym", derandomize=True, deadline=None, database=None)
settings.load_profile("liesym")
