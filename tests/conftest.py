"""Settings shared by every test module."""

from hypothesis import settings

# property tests draw the same examples on every run (derandomized), take
# as long as an exact computation needs and keep no example database, so a
# run depends on nothing but the tree; each test sets its own max_examples
settings.register_profile("exact", derandomize=True, deadline=None, database=None)
settings.load_profile("exact")
