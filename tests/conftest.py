"""Settings shared by the tier-1 tests."""

from hypothesis import settings

# Every property test draws the same examples on every run: the examples are
# seeded from a hash of the test, and no example database carries failures
# from one run into the next. A rare input can then not fail one run of
# unchanged code and pass the next.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
