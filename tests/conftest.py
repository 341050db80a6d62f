"""Every run draws the same hypothesis examples: derandomized, with no example
database carried between runs, so a tier-1 result does not depend on the
machine or on earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
