"""One hypothesis profile for the whole suite: every ``@given`` test draws the
same examples on every run and keeps no example database, so the suite is
reproducible. Each test keeps its own ``max_examples``; raise it locally, or
load another profile, to search further.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
