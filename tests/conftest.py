"""Every run draws the same hypothesis examples: derandomized, with no example
database carried between runs and no per-example deadline, so a tier-1 result
does not depend on the machine, its load or earlier runs.

A derandomized test seeds its examples from a digest of its own source, so
any edit to it, a comment included, draws a new set of examples: an edit to
``test_contracts.py`` once took it from about 1.5 s to 5 s.  Leave that file
byte-unchanged unless what it checks must change, and keep what it reads:
``PhiKernel.log_energy`` and the layout of ``RateCalculator._ladder``
(targets, beta, g, iterations, log nu^2).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
