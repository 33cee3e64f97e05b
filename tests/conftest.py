"""One hypothesis profile for every property test: no deadline, since a
loaded machine can slow any single example, and derandomized, so that a run
is reproducible. A test's own @settings sets only max_examples."""

from hypothesis import settings

settings.register_profile("splatlab", deadline=None, derandomize=True)
settings.load_profile("splatlab")
