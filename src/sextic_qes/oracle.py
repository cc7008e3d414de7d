"""Independent sinc-collocation verification of the exact spectra.

Discretizes -psi'' + (w2 x^2 + lam x^4/2 + eta x^6/3) psi = 2E psi by sinc
collocation on x_j = j h, |j| <= n, h = L/n (Weideman & Reddy, ACM TOMS 26,
2000), reduced by parity to the half line j = 0..n and solved densely.  The
eigenfunctions are entire and decay like exp(-b x^4/4), so the levels converge
exponentially in n (Trefethen & Weideman, SIAM Rev. 56, 2014); the grid grows
until two sizes agree.  The box [-L, L] is params.psi_half_width at the top
exact level, where even the top state of a block has decayed to 1e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationError
from .params import CouplingParams, check_constraint, potential_v2, psi_half_width, reduce, well_bottom
from .qes_core import QesSpectrum

MATCH_TOL = 1e-5       # agreement target relative to max(1, |E|); the solve converges to ~1e-12
_UNMATCHED_TOL = 1e-2  # beyond this the oracle's level m is not QES level m at all
_CONVERGED = 1e-9      # |E(1.25 n) - E(n)| / max(1, |E|) that ends the refinement


@dataclass(frozen=True)
class GridSpec:
    """Box [-L, L] and the most points (odd, x=0 on-grid) the sinc grid may use."""

    half_width: float
    points: int = 2001

    def __post_init__(self):
        if self.points < 201:
            raise ValueError(f"points must be >= 201, got {self.points}")
        if self.points % 2 == 0:
            raise ValueError(f"points must be odd, got {self.points}")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")


@dataclass(frozen=True)
class Match:
    """An exact level against the oracle's; converged when they agree to MATCH_TOL max(1, |E|)."""

    qes_energy: float
    oracle_energy: float
    abs_error: float
    converged: bool


@dataclass(frozen=True)
class OracleReport:
    """The oracle's lowest levels, each with |E(fine) - E(coarse)|, on the box
    [-half_width, half_width] with `points` (2n + 1) sinc points."""

    eigenvalues: list[float]
    convergence_estimate: list[float]
    half_width: float
    points: int
    matches: list[Match] = field(default_factory=list)

    @property
    def all_matched(self) -> bool:
        return all(m.converged for m in self.matches)

    @property
    def max_abs_error(self) -> float:
        return max((m.abs_error for m in self.matches), default=0.0)


def default_grid(p: CouplingParams, e_max: float, points: int = 2001) -> GridSpec:
    """Box [-L, L] holding every state up to e_max and its tail: L = psi_half_width(p, e_max)."""
    return GridSpec(half_width=psi_half_width(p, e_max), points=points)


def _sinc_matrix(p: CouplingParams, parity: int, half_width: float, n: int) -> np.ndarray:
    """Collocation matrix of -d^2/dx^2 + 2V on x_j = j L/n, |j| <= n, folded by parity.

    -d^2/dx^2 is the Toeplitz matrix T(|i - j|), T(0) = pi^2/(3h^2) and
    T(m) = 2(-1)^m/(m^2 h^2).  Folding psi_{-j} = +-psi_j onto j >= 0 adds
    the Hankel part +-T(i + j); the odd sector drops j = 0, and the even one
    scales row and column 0 by 1/sqrt(2), which keeps the matrix symmetric.
    """
    h = half_width / n
    m = np.arange(-n, 2 * n + 1, dtype=float)
    m[n] = 1.0  # T(0) is set below
    t = 2.0 / (m * m)
    t[(n + 1) % 2 :: 2] *= -1.0  # odd m
    t[n] = math.pi**2 / 3.0
    size, step = n + 1 - parity, t.strides[0]
    # strided views of t[j] = T(j - n): [i, j] = T(|i - j|) and T(i + j + 2 parity)
    toeplitz = np.ndarray((size, size), buffer=t, offset=n * step, strides=(-step, step))
    hankel = np.ndarray((size, size), buffer=t, offset=(n + 2 * parity) * step, strides=(step, step))
    if parity == 0:
        mat = toeplitz + hankel
        mat[0, :] /= math.sqrt(2.0)
        mat[:, 0] /= math.sqrt(2.0)
    else:
        mat = toeplitz - hankel
    mat /= h * h
    x = np.arange(parity, n + 1) * h
    mat.reshape(-1)[:: size + 1] += potential_v2(p, x)  # operator eigenvalue is 2E
    return mat


def _sinc_levels(p: CouplingParams, parity: int, half_width: float, n: int, k: int) -> np.ndarray:
    """Lowest k energies from sinc collocation on x_j = j L/n, |j| <= n."""
    return np.linalg.eigvalsh(_sinc_matrix(p, parity, half_width, n))[:k] / 2.0


def lowest_eigenvalues_detail(
    p: CouplingParams, k: int, grid: GridSpec, parity: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(levels, |levels - coarser levels|, points used) for the lowest k of a parity.

    The half-line grid starts at n = max(40, 2k, 2L sqrt(max(1, -min V2))/pi)
    points, four per wavelength at the bottom of the deepest well, and grows
    by 1.25x until every level moves by at most 1e-9 max(1, |E|).  The rung
    that would pass grid.points on [-L, L] is the cap n = (points - 1)/2
    itself, and the ladder ends there.
    """
    if k > grid.points // 4:
        raise ValueError(f"k={k} too large for {grid.points} grid points")
    half_width = grid.half_width
    n_max = (grid.points - 1) // 2
    depth = -potential_v2(p, math.sqrt(well_bottom(p)))
    n0 = max(40, 2 * k, math.ceil(2.0 * half_width * math.sqrt(max(1.0, depth)) / math.pi))
    n = min(n0, 2 * n_max // 3)
    coarse = _sinc_levels(p, parity, half_width, n, k)
    while True:
        n = min(math.ceil(1.25 * n), n_max)
        fine = _sinc_levels(p, parity, half_width, n, k)
        estimate = np.abs(fine - coarse)
        if n == n_max or np.all(estimate <= _CONVERGED * np.maximum(1.0, np.abs(fine))):
            return fine, estimate, 2 * n + 1
        coarse = fine


def lowest_eigenvalues(p: CouplingParams, k: int, grid: GridSpec, parity: int) -> np.ndarray:
    """Lowest k eigenvalues of the given parity, from the finest grid solved."""
    return lowest_eigenvalues_detail(p, k, grid, parity)[0]


def verify_qes(
    s: QesSpectrum, p: CouplingParams, grid: GridSpec | None = None
) -> OracleReport:
    """Confirm exact level m is the m-th numerical level of its parity, on the box of grid.

    grid=None takes default_grid at the top exact level.  Raises
    ConstraintViolationError when p does not satisfy the coupling constraint
    for s.index, and VerificationError when an exact level has no numerical
    counterpart at all (beyond grid tolerance by orders of magnitude).
    """
    check_constraint(reduce(p), s.index)
    exact = np.array([st.energy for st in s.states])
    if grid is None:
        grid = default_grid(p, float(exact.max()))

    levels, estimate, points = lowest_eigenvalues_detail(p, len(exact), grid, s.index.parity)
    # state m has 2m + eps nodes, so it is the oracle's level m of its parity
    found = levels[[st.label for st in s.states]]
    err = np.abs(found - exact)
    absent = np.flatnonzero(err > _UNMATCHED_TOL * np.maximum(1.0, np.abs(exact)))
    if absent.size:
        raise VerificationError(
            f"exact level E={exact[absent[0]]:.8f} has no numerical counterpart (parity {s.index.parity})"
        )
    return OracleReport(
        eigenvalues=levels.tolist(),
        convergence_estimate=estimate.tolist(),
        half_width=grid.half_width,
        points=points,
        matches=[
            Match(qes_energy=e, oracle_energy=v, abs_error=d, converged=d < MATCH_TOL * max(1.0, abs(e)))
            for e, v, d in zip(exact.tolist(), found.tolist(), err.tolist())
        ],
    )
