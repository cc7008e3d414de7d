"""Independent references and the checks the benchmark applies to every op.

Nothing here calls the package.  Reduced couplings, reference energies and
support widths are recomputed from the documented formulas, so a wrong
program result cannot also corrupt the reference it is compared with.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

RESIDUAL_TOL = 1e-9   # max relative ODE residual of a certified state
ENERGY_TOL = 1e-9     # |E - E_ref| relative to the block's largest |E_ref| (and 1)
GAMMA_TOL = 1e-9      # relative gamma mismatch of solved couplings
NORM_TOL = 1e-8       # norm_and_inner against the trapezoid rule on the support grid
MATCH_TOL = 1e-5      # oracle agreement per level (the package documents the same target)
SUPPORT_TOL = 1e-16   # |x|^(2N+eps) W(x) at the grid edge, relative to its peak
SUPPORT_POINTS = 1001  # half-line grid [0, L]; psi and the residual have definite parity
MAX_DIGITS = 16.0

# Failures that mean the program returned a wrong answer (or crashed), as
# opposed to missing an accuracy certificate.  Any of these makes the run
# "correct": false.
STRUCTURAL = frozenset({"crashed", "states", "energies", "gamma", "cli_output"})
CHECK_NAMES = (
    "raised", "crashed", "states", "energies", "gamma",
    "ode_residual", "nodes", "norm", "oracle_match", "cli_output",
)


def gamma_of(omega2: float, lam: float, eta: float) -> float:
    """gamma = sqrt(3/eta) * (3 lam^2 / (16 eta) - omega2)."""
    return math.sqrt(3.0 / eta) * (3.0 * lam * lam / (16.0 * eta) - omega2)


def required_gamma(n_cap: int, parity: int) -> float:
    return float(4 * n_cap + 3 + 2 * parity)


def omega2_for(lam: float, eta: float, n_cap: int, parity: int) -> float:
    """The omega2 that puts (lam, eta) on the degree-N, parity-eps constraint."""
    return 3.0 * lam * lam / (16.0 * eta) - required_gamma(n_cap, parity) * math.sqrt(eta / 3.0)


def weight_ab(lam: float, eta: float) -> tuple[float, float]:
    """(a, b) of the weight exp(-a x^2/2 - b x^4/4)."""
    return 0.25 * lam * math.sqrt(3.0 / eta), math.sqrt(eta / 3.0)


def _symmetric_recurrence(a: float, b: float, n_cap: int, parity: int):
    n = np.arange(n_cap + 1, dtype=float)
    diag = a * (4.0 * n + 2.0 * parity + 1.0)
    k = n[:-1]
    sup = (2.0 * k + 1.0 + parity) * (2.0 * k + 2.0 + parity)  # |M[n, n+1]|
    sub = 4.0 * b * (n_cap - k)                                 # |M[n+1, n]|
    return diag, sup, sub


def reference_energies(a: float, b: float, n_cap: int, parity: int) -> np.ndarray:
    """Ascending energies from a dense symmetric eigensolve (numpy LAPACK).

    The recurrence matrix M (M A = 2E A) has off-diagonal products
    4b(N-n)(2n+1+eps)(2n+2+eps) > 0, so it is similar to the symmetric
    tridiagonal matrix with those square roots off the diagonal.
    """
    diag, sup, sub = _symmetric_recurrence(a, b, n_cap, parity)
    t = np.diag(diag)
    off = np.sqrt(sup * sub)
    t += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(t) / 2.0


def reference_coefficients(a: float, b: float, n_cap: int, parity: int) -> list[np.ndarray]:
    """A_0..A_N (A_0 = 1) per state, from the symmetric eigenvectors.

    Rescaling back to M's basis over/underflows at large N, so this serves the
    low-N CLI workload only.
    """
    diag, sup, sub = _symmetric_recurrence(a, b, n_cap, parity)
    t = np.diag(diag)
    off = np.sqrt(sup * sub)
    t += np.diag(off, 1) + np.diag(off, -1)
    _, vecs = np.linalg.eigh(t)
    # M = D T D^-1 with d_{n+1}/d_n = -sqrt(sub_n / sup_n) (M's off-diagonals are negative)
    d = np.concatenate([[1.0], np.cumprod(-np.sqrt(sub / sup))])
    return [d * v / (d[0] * v[0]) for v in vecs.T]


def support_half_width(a: float, b: float, degree: int, tol: float = SUPPORT_TOL) -> float:
    """L beyond the peak of |x|^degree W(x) where it has fallen to tol of its peak."""

    def log_env(x: float) -> float:
        lead = degree * math.log(x) if degree else 0.0
        return lead - 0.5 * a * x * x - 0.25 * b * x**4

    x_peak = math.sqrt(max(0.0, (-a + math.sqrt(a * a + 4.0 * b * degree)) / (2.0 * b)))
    target = (log_env(x_peak) if x_peak > 0 else 0.0) + math.log(tol)
    lo = x_peak
    hi = max(2.0 * x_peak, 1.0)
    while log_env(hi) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_env(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def support_grid(lam: float, eta: float, n_cap: int, parity: int) -> np.ndarray:
    a, b = weight_ab(lam, eta)
    return np.linspace(0.0, support_half_width(a, b, 2 * n_cap + parity), SUPPORT_POINTS)


def relative_residual(x, psi, residual, energy, omega2, lam, eta) -> float:
    """max|psi'' + (2E - V2) psi| / max(|psi''| + |(2E - V2) psi|).

    psi and the residual come from the program's evaluators; psi'' is
    recovered as residual - (2E - V2) psi with V2 = w2 x^2 + lam x^4/2 + eta x^6/3
    built here from the input couplings.
    """
    x2 = x * x
    v2 = omega2 * x2 + 0.5 * lam * x2 * x2 + eta * x2 * x2 * x2 / 3.0
    kin = (2.0 * energy - v2) * psi
    d2 = residual - kin
    den = float(np.max(np.abs(d2) + np.abs(kin)))
    num = float(np.max(np.abs(residual)))
    if not (math.isfinite(num) and math.isfinite(den)) or den == 0.0:
        return math.inf
    return num / den


def trapezoid_norm_sq(x, psi) -> float:
    """Integral of psi^2 over the real line from half-line samples (psi^2 is even)."""
    h = x[1] - x[0]
    sq = psi * psi
    return float(2.0 * h * (np.sum(sq) - 0.5 * sq[0] - 0.5 * sq[-1]))


def digits(rel_err: float) -> float:
    """-log10 of a relative error, clipped to [0, 16]; 0 for NaN or inf."""
    if rel_err == 0.0:
        return MAX_DIGITS
    if not math.isfinite(rel_err):
        return 0.0
    return min(MAX_DIGITS, max(0.0, -math.log10(rel_err)))


@dataclass
class Tally:
    """Outcome of every checked op in one run."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    failures: Counter = field(default_factory=Counter)
    first_pass_digits: list = field(default_factory=list)
    worst_error: float = 0.0

    def record(self, failed_checks: set[str], state_errors: list[float], first_pass: bool) -> None:
        self.attempted += 1
        if failed_checks:
            self.failed += 1
            self.failures.update(failed_checks)
        if failed_checks & STRUCTURAL:
            self.incorrect += 1
        for e in state_errors:
            if not e <= self.worst_error:  # NaN counts as worst
                self.worst_error = e if math.isfinite(e) else math.inf
        if first_pass:
            self.first_pass_digits.extend(digits(e) for e in state_errors)

    @property
    def accuracy_digits(self) -> float:
        d = self.first_pass_digits
        return sum(d) / len(d) if d else 0.0
