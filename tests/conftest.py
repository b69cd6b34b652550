"""One Hypothesis policy for the whole suite.

Every property draws the same examples on every run (``derandomize``),
takes as long as it needs (no ``deadline``), and keeps no example
database. Hypothesis still caches the literals it mines from the package
under its home directory, so that home is a temporary directory removed
when the run ends: a test run writes no ``.hypothesis/`` into the working
directory. A test's own ``settings`` set only its example budget.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("gridfreq", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("gridfreq")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="gridfreq-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
