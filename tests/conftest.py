import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Tier-1 stays reproducible and quick: a fixed example sequence, no example
# database and a bounded number of examples per property.  Hypothesis still
# caches the constants it finds in the source; that goes to a temporary
# directory, removed at exit, instead of .hypothesis/ in the working tree.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("tier1")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


def random_ab(rng, n, a_lo=0.05, a_hi=3.0, b_lo=0.05, b_hi=3.0):
    """Random (a, b) draws with a > 0, b > 0."""
    a = rng.uniform(a_lo, a_hi, n)
    b = rng.uniform(b_lo, b_hi, n)
    return np.column_stack([a, b])
