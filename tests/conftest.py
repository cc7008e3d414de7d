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


def mp_eigenpair(m, theta, dps: int = 200) -> tuple:
    """(theta, [A_0..A_N]) in dps-digit mpmath, A_0 = 1: the eigenvalue of m next to theta and its vector.

    m's entries are taken as they are, floats or mpf.  A forward recurrence on
    them, with theta refined by Newton's method on the closure row (the last
    row of M A = theta A).  The recurrence amplifies rounding by up to ~1e80 on
    the blocks tested here, far below 10^dps.
    """
    import mpmath

    with mpmath.workdps(dps):
        d, u, l = ([mpmath.mpf(v) for v in e] for e in (m.diag, m.superdiag, m.subdiag))
        n_cap = m.dim - 1

        def forward(th):
            """A_0..A_N and dA/dtheta from rows 0 .. N-1."""
            a, da = [mpmath.mpf(1)], [mpmath.mpf(0)]
            for n in range(n_cap):
                lo = l[n - 1] if n else 0
                prev, dprev = (a[n - 1], da[n - 1]) if n else (0, 0)
                a.append(((th - d[n]) * a[n] - lo * prev) / u[n])
                da.append((a[n] + (th - d[n]) * da[n] - lo * dprev) / u[n])
            return a, da

        th = mpmath.mpf(theta)
        lo = l[-1] if n_cap else 0
        for _ in range(60):
            a, da = forward(th)
            prev, dprev = (a[-2], da[-2]) if n_cap else (0, 0)
            step = (lo * prev + (d[-1] - th) * a[-1]) / (lo * dprev + (d[-1] - th) * da[-1] - a[-1])
            th -= step
            if abs(step) <= mpmath.mpf(10) ** (-dps // 2) * max(1, abs(th)):
                break
        return th, forward(th)[0]


def mp_coefficients(m, theta: float, dps: int = 200) -> np.ndarray:
    """A_0..A_N (A_0 = 1) of the eigenvalue of the float matrix m next to theta, rounded to floats."""
    return np.array([float(v) for v in mp_eigenpair(m, theta, dps)[1]])


def rounding_bound(n_cap, eps, a, b, x, second=False):
    """The evaluation kernel's rounding of psi (or psi'') over its magnitude sum
    |x|^eps W sum |A_n| t^n (or its counterpart for psi''), to first order in the unit roundoff u.

    Row n of the basis carries n roundings of t = x^2 and n of its running product,
    the product sums N + 1 terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 3.1) and x^eps adds one: gamma_{3N+2+eps}.  psi'' adds 15 for s,
    q and L - 2sM + qP.  W is exp of an argument off by gamma_5 (|a| t/2 + b t^2/4),
    and exp itself is allowed 4 u.  1% covers the gamma's denominators.
    """
    t = x * x
    return 1.01 * (np.finfo(float).eps / 2) * (3 * n_cap + 2 + eps + 15 * second + 5 * (abs(a) * t / 2 + b * t * t / 4) + 4)
