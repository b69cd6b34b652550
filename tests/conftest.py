"""One Hypothesis policy for the whole suite.

Every property draws the same examples on every run (``derandomize``),
takes as long as it needs (no ``deadline``), and keeps no example
database (Hypothesis still caches the literals it mines from the package
under ``.hypothesis/constants/``). A test's own ``settings`` set only its
example budget.
"""

from hypothesis import settings

settings.register_profile("gridfreq", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("gridfreq")
