import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def run_python(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter that imports this checkout's package.

    The timeout turns a hang into a test failure instead of a stalled suite.
    """
    import sextic_qes

    src_dir = str(Path(sextic_qes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )
