"""Suite-wide settings: every Hypothesis test draws the same examples on every run.

``derandomize=True`` derives each test's examples from the test itself, and
``database=None`` keeps no failing examples between runs, so a run's outcome
depends only on the code.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
