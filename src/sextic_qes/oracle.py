"""Independent finite-difference verification of the exact spectra.

Discretizes -psi'' + (w2 x^2 + lam x^4/2 + eta x^6/3) psi = 2E psi with
second-order central differences, Dirichlet walls at +-L, solved on the half
line [0, L] with a Neumann (even) or Dirichlet (odd) condition at the origin.
Eigenvalues from grids h and h/2 are Richardson-extrapolated (the scheme is
O(h^2), so the combination (4 E_fine - E_coarse)/3 cancels the leading error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolationError, VerificationError
from .params import CouplingParams, constraint_gamma, reduce
from .qes_core import QesSpectrum

MATCH_TOL = 1e-5       # grid-limited agreement target after extrapolation
_UNMATCHED_TOL = 1e-2  # beyond this the level is simply absent from the spectrum


@dataclass(frozen=True)
class GridSpec:
    """Symmetric grid on [-L, L] with an odd number of points (x=0 on-grid)."""

    half_width: float
    points: int = 2001

    def __post_init__(self):
        if self.points < 201:
            raise ValueError(f"points must be >= 201, got {self.points}")
        if self.points % 2 == 0:
            raise ValueError(f"points must be odd, got {self.points}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)


@dataclass(frozen=True)
class Match:
    qes_energy: float
    oracle_energy: float
    abs_error: float
    converged: bool


@dataclass(frozen=True)
class OracleReport:
    eigenvalues: list[float]
    richardson_estimate: list[float]
    matches: list[Match] = field(default_factory=list)

    @property
    def all_matched(self) -> bool:
        return all(m.converged for m in self.matches)

    @property
    def max_abs_error(self) -> float:
        return max((m.abs_error for m in self.matches), default=0.0)


def potential_value(p: CouplingParams, x: float | np.ndarray) -> float | np.ndarray:
    """V(x) = w2 x^2/2 + lam x^4/4 + eta x^6/6, for a float or an array of x."""
    x2 = x * x
    return 0.5 * p.omega_sq * x2 + 0.25 * p.lam * x2 * x2 + p.eta * x2 * x2 * x2 / 6.0


def default_grid(p: CouplingParams, e_max: float, points: int = 2001) -> GridSpec:
    """Half-width covering the turning region with a decayed tail.

    Requires both V(L) >= e_max + 25 and a L^2/2 + b L^4/4 >= 40, so the
    asymptotic factor exp(-a x^2/2 - b x^4/4) is ~1e-17 at the wall; the
    potential criterion alone leaves a truncation error above the 1e-5 target.
    """
    target = e_max + 25.0
    half = 1.0
    while potential_value(p, half) < target:
        half *= 1.05
    return GridSpec(half_width=max(half, reduce(p).weight_half_width()), points=points)


def _half_line_eigs(p: CouplingParams, parity: int, half_width: float, m_intervals: int, k: int) -> np.ndarray:
    """Lowest k eigenvalues E of the half-line discretization for one parity."""
    # the only scipy use in the package: LAPACK's selected-eigenvalue solver
    from scipy.linalg import eigh_tridiagonal

    h = half_width / m_intervals
    xs = np.arange(m_intervals) * h
    v2 = 2.0 * potential_value(p, xs)  # operator eigenvalue is 2E
    if parity == 0:
        # Neumann at 0 via mirror ghost point; symmetrized with psi_0 /= sqrt(2)
        diag = 2.0 / h**2 + v2
        off = np.full(m_intervals - 1, -1.0 / h**2)
        off[0] = -math.sqrt(2.0) / h**2
    else:
        diag = 2.0 / h**2 + v2[1:]
        off = np.full(m_intervals - 2, -1.0 / h**2)
    w = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)
    return w / 2.0


def lowest_eigenvalues_detail(
    p: CouplingParams, k: int, grid: GridSpec, parity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coarse, fine, richardson) lowest-k eigenvalues for the given parity."""
    if k > grid.points // 4:
        raise ValueError(f"k={k} too large for {grid.points} grid points")
    m = (grid.points - 1) // 2
    coarse = _half_line_eigs(p, parity, grid.half_width, m, k)
    fine = _half_line_eigs(p, parity, grid.half_width, 2 * m, k)
    rich = (4.0 * fine - coarse) / 3.0
    return coarse, fine, rich


def lowest_eigenvalues(p: CouplingParams, k: int, grid: GridSpec, parity: int) -> np.ndarray:
    """Richardson-extrapolated lowest k eigenvalues of the given parity."""
    return lowest_eigenvalues_detail(p, k, grid, parity)[2]


def verify_qes(
    s: QesSpectrum, p: CouplingParams, grid: GridSpec | None = None
) -> OracleReport:
    """Confirm every exact level appears in the numerical spectrum.

    Raises ConstraintViolationError when p does not satisfy the coupling
    constraint for s.index, and VerificationError when an exact level has no
    numerical counterpart at all (beyond grid tolerance by orders of magnitude).
    """
    g_required = constraint_gamma(s.index)
    g_actual = reduce(p).gamma
    if abs(g_actual - g_required) > 1e-8 * max(1.0, abs(g_required)):
        raise ConstraintViolationError(
            f"couplings give gamma={g_actual:.10g}, constraint requires {g_required:g}"
        )

    energies = [st.energy for st in s.states]
    e_max = max(energies)
    if grid is None:
        grid = default_grid(p, e_max)
    elif potential_value(p, grid.half_width) < e_max + 25.0:
        grid = default_grid(p, e_max, points=grid.points)

    k = len(energies) + 2
    _, fine, rich = lowest_eigenvalues_detail(p, k, grid, s.index.parity)

    matches = []
    used: set[int] = set()
    for e in energies:
        order = np.argsort(np.abs(rich - e))
        i = next((int(j) for j in order if int(j) not in used), None)
        if i is None or abs(rich[i] - e) > _UNMATCHED_TOL * max(1.0, abs(e)):
            raise VerificationError(
                f"exact level E={e:.8f} has no numerical counterpart (parity {s.index.parity})"
            )
        used.add(i)
        err = abs(rich[i] - e)
        matches.append(Match(qes_energy=e, oracle_energy=float(rich[i]), abs_error=err, converged=err < MATCH_TOL))
    return OracleReport(
        eigenvalues=[float(v) for v in fine],
        richardson_estimate=[float(v) for v in rich],
        matches=matches,
    )
