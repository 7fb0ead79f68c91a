"""Test-suite settings: one deterministic, bounded hypothesis profile.

Every property test then draws the same examples on every run, needs no
example database and keeps the suite's running time bounded.
"""

from hypothesis import settings

settings.register_profile(
    "odofock", derandomize=True, deadline=None, max_examples=30, database=None
)
settings.load_profile("odofock")
