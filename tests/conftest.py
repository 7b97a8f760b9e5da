"""Settings shared by every test module."""

from hypothesis import Phase, settings

# property tests draw the same examples on every run (derandomized), take
# as long as an exact computation needs and keep no example database, so a
# run depends on nothing but the tree; each test sets its own max_examples
settings.register_profile("exact", derandomize=True, deadline=None, database=None)
# the mutant runner (tests/mutants.py) needs a failing example, not a
# minimal one: the exact profile without the shrink phase
settings.register_profile("mutants", settings.get_profile("exact"),
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("exact")
