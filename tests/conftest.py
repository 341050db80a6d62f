"""Every run draws the same hypothesis examples: derandomized, with no example
database carried between runs and no per-example deadline, so a tier-1 result
does not depend on the machine, its load or earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
