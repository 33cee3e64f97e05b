"""One hypothesis profile for every property test: no deadline, since a
loaded machine can slow any single example, and no example database, so that
no earlier run replays its examples into this one. A test's own @settings
sets only max_examples.

Each property test is seeded from its pytest node id, so a run is
reproducible and a test draws the same examples however its body is edited.
(derandomize would seed it from a digest of its source, so any edit of the
body would draw new ones.)"""

import zlib

from hypothesis import is_hypothesis_test, seed, settings

settings.register_profile("splatlab", deadline=None, database=None)
settings.load_profile("splatlab")


def pytest_collection_modifyitems(items):
    for item in items:
        test = getattr(item, "obj", None)
        if is_hypothesis_test(test):
            seed(zlib.crc32(item.nodeid.encode()))(test)
