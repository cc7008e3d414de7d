"""Parameter algebra for the sextic doubly anharmonic oscillator.

The potential is V(x) = omega2*x^2/2 + lam*x^4/4 + eta*x^6/6 with eta > 0.
Working quantities:

    a = (lam/4) * sqrt(3/eta)
    b = sqrt(eta/3)                  (> 0)
    c = omega2 + sqrt(3*eta) - 3*lam^2/(16*eta)
    gamma = sqrt(3/eta) * (3*lam^2/(16*eta) - omega2)

A polynomial (quasi-exact) solution of degree index N and parity eps exists
iff gamma = 4N + 3 + 2*eps, equivalently c + 2b(2N + eps) = 0.  The module
also holds the potential's geometry: V2 = 2V, the bottom of the well, the
outer turning point and the support of psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import ConstraintViolationError, InvalidCouplingError, NoSolutionError, SolverError

SUPPORT_TOL = 1e-16  # |x|^degree W(x) at the edge of psi's support, relative to its peak


@dataclass(frozen=True)
class CouplingParams:
    """Physical couplings (omega2 may be negative; the x^4/x^6 terms confine)."""

    omega_sq: float
    lam: float
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise InvalidCouplingError(f"eta must be > 0, got {self.eta}")


@dataclass(frozen=True)
class ReducedParams:
    """Derived quantities a, b, c, gamma; b > 0 and c + b*gamma = sqrt(3*eta)."""

    a: float
    b: float
    c: float
    gamma: float

    @property
    def eta(self) -> float:
        return 3.0 * self.b**2

    @property
    def lam(self) -> float:
        return 4.0 * self.a * self.b

    def omega_sq(self) -> float:
        """Coupling omega2 implied by (a, b, gamma)."""
        return self.a**2 - self.gamma * self.b

    def couplings(self) -> CouplingParams:
        """The couplings (a, b, gamma) imply: omega2 = a^2 - gamma b, lam = 4ab, eta = 3b^2."""
        return CouplingParams(self.omega_sq(), self.lam, self.eta)


@dataclass(frozen=True)
class QesIndex:
    """Degree index N (polynomial degree in x^2) and parity eps in {0, 1}."""

    n_cap: int
    parity: int

    def __post_init__(self):
        if self.n_cap < 0:
            raise ValueError(f"N must be >= 0, got {self.n_cap}")
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")


def reduce(p: CouplingParams) -> ReducedParams:
    """Map physical couplings to the reduced quantities (a, b, c, gamma)."""
    s = math.sqrt(3.0 / p.eta)
    a = 0.25 * p.lam * s
    b = math.sqrt(p.eta / 3.0)
    c = p.omega_sq + math.sqrt(3.0 * p.eta) - 3.0 * p.lam**2 / (16.0 * p.eta)
    gamma = s * (3.0 * p.lam**2 / (16.0 * p.eta) - p.omega_sq)
    return ReducedParams(a=a, b=b, c=c, gamma=gamma)


def constraint_gamma(idx: QesIndex) -> float:
    """Required value of gamma for a degree-N, parity-eps polynomial solution."""
    return float(4 * idx.n_cap + 3 + 2 * idx.parity)


def check_constraint(r: ReducedParams, idx: QesIndex) -> None:
    """Raise ConstraintViolationError unless gamma = 4N + 3 + 2 eps.

    The tolerance is 1e-8 max(1, g), or the rounding of gamma itself where
    that is larger: gamma = sqrt(3/eta) (3 lam^2/(16 eta) - omega2) =
    (a^2 - omega2)/b cancels, and on 50,000 blocks solved onto the constraint
    (|lam| <= 3, 1e-6 <= eta <= 1e6, N <= 100) it was off by up to
    2.8 eps (a^2 + |omega2|)/b.
    """
    g = constraint_gamma(idx)
    rounding = 8.0 * np.finfo(float).eps * (r.a * r.a + abs(r.omega_sq())) / r.b
    if abs(r.gamma - g) > max(1e-8 * max(1.0, g), rounding):
        raise ConstraintViolationError(
            f"couplings violate the constraint: gamma={r.gamma:.10g}, "
            f"required {g:g} (N={idx.n_cap}, parity={idx.parity})"
        )


# ---------------------------------------------------------------------------
# geometry of the potential, shared by norms and the oracle


def potential_v2(p: CouplingParams, x):
    """V2(x) = 2V(x) = omega2 x^2 + lam x^4/2 + eta x^6/3, for a float or an array of x."""
    x2 = x * x
    return p.omega_sq * x2 + 0.5 * p.lam * x2 * x2 + p.eta * x2 * x2 * x2 / 3.0


def well_bottom(p: CouplingParams) -> float:
    """t = x^2 >= 0 where V2 is least: 0, or the larger root of dV2/dt = omega2 + lam t + eta t^2.

    The root is taken in the form that does not cancel.
    """
    w2, lam, eta = p.omega_sq, p.lam, p.eta
    d = lam * lam - 4.0 * eta * w2
    if not d > 0.0:
        return 0.0
    s = math.sqrt(d)
    return max(0.0, -2.0 * w2 / (lam + s) if lam > 0.0 else (s - lam) / (2.0 * eta))


def turning_point(p: CouplingParams, energy: float) -> float:
    """t = x^2 of the outer turning point: the largest root of V2 = 2E, a cubic in t (0 if none).

    Newton's steps on V2 - 2E polish the closed form's root while they shrink: its shift
    -b2/3 cancels where t << |b2| (small E, large lam/eta)."""
    b2, b1, b0 = 1.5 * p.lam / p.eta, 3.0 * p.omega_sq / p.eta, -3.0 * (2.0 * energy) / p.eta
    t, step = max(0.0, *_cubic_real_roots(b2, b1, b0)), math.inf
    for _ in range(60):
        slope = p.omega_sq + t * (p.lam + t * p.eta)
        gap = t * (p.omega_sq + t * (0.5 * p.lam + t * p.eta / 3.0)) - 2.0 * energy
        new = gap / slope if t and slope else 0.0
        if not abs(new) < abs(step):
            break
        t, step = t - new, new
    return t


def support_half_width(r: ReducedParams, degree: float) -> float:
    """L beyond the peak of |x|^degree exp(-a x^2/2 - b x^4/4) where it has
    fallen to SUPPORT_TOL of its peak.

    In t = x^2 the log of the envelope, f(t) = (degree/2) ln t - a t/2 - b t^2/4,
    is concave, so Newton's method started right of the crossing
    f(t) = f(t_peak) + ln SUPPORT_TOL decreases monotonically onto it.
    """
    a, b, d = r.a, r.b, degree

    def f(t: float) -> float:
        return (0.5 * d * math.log(t) if d else 0.0) - 0.5 * a * t - 0.25 * b * t * t

    t_peak = (-a + math.sqrt(a * a + 4.0 * b * d)) / (2.0 * b)
    target = (f(t_peak) if t_peak > 0.0 else 0.0) + math.log(SUPPORT_TOL)
    t = max(2.0 * t_peak, 1.0)
    while f(t) > target:
        t *= 2.0
    for _ in range(100):
        step = (f(t) - target) / (0.5 * d / t - 0.5 * a - 0.5 * b * t)
        if not step > 0.0 or t - step == t:
            break
        t -= step
    return math.sqrt(t)


def solve_cubic_trig(p: float, q: float) -> np.ndarray:
    """Three real roots of chi^3 + p*chi + q = 0 via the sine parameterization.

    Requires a positive discriminant -4p^3 - 27q^2 (which forces p < 0).
    Roots are P*sin(theta + 2*pi*k/3), k = 0, 1, 2, with theta = arcsin(Q)/3
    and Q carrying the sign of q so negative q (a < 0) is handled too.
    """
    disc = -4.0 * p**3 - 27.0 * q**2
    if disc <= 0:
        raise SolverError(f"cubic discriminant must be positive, got {disc:.3e}")
    return np.array(_sine_roots(p, q))


def _sine_roots(p: float, q: float) -> list[float]:
    """solve_cubic_trig's three roots as Python floats; the discriminant must be positive."""
    big_p = math.sqrt(-4.0 * p / 3.0)
    big_q = -3.0 * q / (p * big_p)  # = sign(q) * sqrt(-27 q^2 / (4 p^3))
    theta = math.asin(big_q) / 3.0
    return [big_p * math.sin(theta + 2.0 * math.pi * k / 3.0) for k in range(3)]


def _cubic_real_roots(b2: float, b1: float, b0: float) -> list[float]:
    """Real roots of x^3 + b2 x^2 + b1 x + b0 (closed form, no companion matrix)."""
    p = b1 - b2**2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    shift = -b2 / 3.0
    disc = -4.0 * p**3 - 27.0 * q**2
    if disc > 0:
        return [u + shift for u in _sine_roots(p, q)]
    # one real root (Cardano): u^3 is the one of -q/2 +- h that does not cancel, and u v = -p/3
    h = math.sqrt(q**2 / 4.0 + p**3 / 27.0)
    w = -q / 2.0 + math.copysign(h, -q / 2.0)
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    return [u - p / (3.0 * u) + shift if u else shift]


def solve_constraint(
    idx: QesIndex,
    omega_sq: float | None = None,
    lam: float | None = None,
    eta: float | None = None,
) -> list[CouplingParams]:
    """Solve the coupling constraint for the one unspecified coupling.

    Exactly one of omega_sq, lam, eta must be None.  Returns all admissible
    solutions (one for omega2, up to two for lam, at most one for eta),
    sorted by the solved value.
    """
    unknowns = [name for name, v in (("omega_sq", omega_sq), ("lam", lam), ("eta", eta)) if v is None]
    if len(unknowns) != 1:
        raise ValueError(f"exactly one coupling must be unknown, got {unknowns or 'none'}")
    g = constraint_gamma(idx)

    if omega_sq is None:
        # linear: omega2 = 3*lam^2/(16*eta) - gamma*sqrt(eta/3)
        if not eta > 0:
            raise InvalidCouplingError(f"eta must be > 0, got {eta}")
        w = 3.0 * lam**2 / (16.0 * eta) - g * math.sqrt(eta / 3.0)
        return [CouplingParams(w, lam, eta)]

    if lam is None:
        if not eta > 0:
            raise InvalidCouplingError(f"eta must be > 0, got {eta}")
        rhs = 16.0 * eta * (g * math.sqrt(eta / 3.0) + omega_sq) / 3.0
        if rhs < 0:
            raise NoSolutionError(f"no real lam satisfies the constraint (lam^2 = {rhs:.6g} < 0)")
        root = math.sqrt(rhs)
        return [CouplingParams(omega_sq, l, eta) for l in sorted({root, -root})]

    return _solve_eta(omega_sq, lam, g)


# eta is settled by bisection from its cell of this log grid (see _bisect_on_grid)
_ETA_GRID = np.logspace(-12, 12, 2001)


def _solve_eta(omega_sq: float, lam: float, g: float) -> list[CouplingParams]:
    """The constraint as a cubic in u = eta^(-1/2) > 0, solved by Newton's method.

    sqrt(3/eta) (3 lam^2/(16 eta) - omega2) = g becomes
    F(u) = k u^3 - w u - g = 0 with k = 3 sqrt(3) lam^2/16 and w = sqrt(3) omega2.
    With g > 0 and lam != 0, Descartes' rule leaves exactly one positive root.
    F is convex on u > 0 and F(0) = -g < 0, so Newton's method started where
    F > 0 decreases monotonically onto that root.  The start is within a
    factor 2 of it, and k u^3 is formed as c (|lam| u)^2 u, so no step
    cancels or overflows however small lam is (Cardano's formula loses every
    digit as lam -> 0 with omega2 < 0).  With lam = 0 the equation is linear:
    u = -g/w, i.e. eta = 3 omega2^2 / g^2, and only when omega2 < 0.
    Inside [1e-12, 1e12] the root is then settled by _bisect_on_grid.
    """
    c, r, w = 3.0 * math.sqrt(3.0) / 16.0, abs(lam), math.sqrt(3.0) * omega_sq
    if r == 0.0:
        u = -g / w if omega_sq < 0.0 else math.nan
    else:
        # an upper bound on the root: k u^3 + |w| u = g, or k u^3 = w u + g <= 2 max(w u, g)
        u_cubic = (g / c) ** (1.0 / 3.0) / r ** (2.0 / 3.0)
        if w < 0.0:
            u = min(u_cubic, -g / w)
        else:
            u = max(2.0 ** (1.0 / 3.0) * u_cubic, math.sqrt(2.0 * w / c) / r)
        for _ in range(100):
            ru = r * u
            step = (c * ru * ru * u - w * u - g) / (3.0 * c * ru * ru - w)
            if not step > 0.0 or u - step == u:
                break
            u -= step
    eta = 1.0 / (u * u) if u * u > 0.0 else math.inf
    if not 0.0 < eta < math.inf:
        raise NoSolutionError(
            f"no eta > 0 satisfies the constraint for omega2={omega_sq}, lam={lam}, gamma={g}"
        )
    if _ETA_GRID[0] <= eta <= _ETA_GRID[-1]:
        eta = _bisect_on_grid(omega_sq, lam, g, eta)
    return [CouplingParams(omega_sq, lam, eta)]


def _bisect_on_grid(omega_sq: float, lam: float, g: float, eta: float) -> float:
    """The root that bisecting the constraint from its _ETA_GRID bracket gives.

    Near the root the constraint evaluates to rounding noise a few ulp of eta
    wide, so each solver lands on a different float there.  The spectra's
    rounding-level certificates (ODE residuals, nodes set by tiny trailing
    coefficients) move with those ulps, so this keeps the bits the former
    scan-and-bisect solver returned: the same bracket, then the same steps.
    """

    def f(e: float) -> float:  # > 0 below the root, < 0 above it
        return math.sqrt(3.0 / e) * (3.0 * lam**2 / (16.0 * e) - omega_sq) - g

    i = int(np.searchsorted(_ETA_GRID, eta))
    grid = [float(e) for e in _ETA_GRID[max(i - 2, 0) : i + 2]]
    vals = [f(e) for e in grid]
    for (lo, hi), (f_lo, f_hi) in zip(pairwise(grid), pairwise(vals)):
        if f_lo == 0.0:
            return lo
        if f_lo * f_hi < 0.0:
            # stops once lo and hi are adjacent floats, after which more steps change nothing
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                f_mid = f(mid)
                if f_lo * f_mid <= 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            return 0.5 * (lo + hi)
    return grid[-1] if vals[-1] == 0.0 else eta
