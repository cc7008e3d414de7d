"""Eigenfunction evaluation, node counting, inner products, ODE residuals.

An eigenfunction is x^eps * (sum_n A_n x^{2n}) * exp(-a x^2/2 - b x^4/4).
Derivatives are taken analytically (polynomial algebra times the exponential),
never by finite differences; numeric differentiation appears only in tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import WeightMismatchError
from .params import ReducedParams
from .qes_core import QesState


@dataclass(frozen=True)
class Eigenfunction:
    """A QES eigenfunction; b > 0 makes it normalizable."""

    state: QesState
    reduced: ReducedParams
    norm_constant: float | None = None


@dataclass(frozen=True)
class NodeReport:
    """Node count and the non-negative node locations (mirrored at -x)."""

    count: int
    locations: list[float]


def _weight(r: ReducedParams, x: np.ndarray) -> np.ndarray:
    x2 = x * x
    return np.exp(-0.5 * r.a * x2 - 0.25 * r.b * x2 * x2)


def _poly_in_x(f: Eigenfunction) -> np.ndarray:
    """Coefficients of y(x) = x^eps * sum A_n x^{2n} (low-to-high in x)."""
    eps = f.state.parity
    coeffs = f.state.coeffs
    y = np.zeros(2 * (len(coeffs) - 1) + eps + 1)
    y[eps::2] = coeffs
    return y


def eval_psi(f: Eigenfunction, x) -> np.ndarray:
    """psi(x); the polynomial is evaluated by Horner in t = x^2."""
    x = np.asarray(x, dtype=float)
    t = x * x
    poly = npoly.polyval(t, f.state.coeffs)
    pref = x if f.state.parity else 1.0
    return pref * poly * _weight(f.reduced, x)


def psi_second_derivative(f: Eigenfunction, x) -> np.ndarray:
    """psi''(x) from the exact product rule on polynomial times weight."""
    x = np.asarray(x, dtype=float)
    a, b = f.reduced.a, f.reduced.b
    y = _poly_in_x(f)
    yp = npoly.polyder(y)
    ypp = npoly.polyder(yp)
    g = np.array([0.0, a, 0.0, b])  # -(log W)' = a x + b x^3
    q = (
        npoly.polyadd(
            npoly.polysub(ypp, 2.0 * npoly.polymul(g, yp)),
            npoly.polymul(npoly.polysub(npoly.polymul(g, g), np.array([a, 0.0, 3.0 * b])), y),
        )
    )
    return npoly.polyval(x, q) * _weight(f.reduced, x)


def ode_residual(f: Eigenfunction, energy: float, xs) -> np.ndarray:
    """Pointwise residual psi'' + (2E - V2) psi with V2 = w2 x^2 + lam x^4/2 + eta x^6/3.

    The couplings are reconstructed from (a, b, gamma) of the closure-consistent
    reduced parameters: w2 = a^2 - gamma*b, lam = 4ab, eta = 3b^2.
    """
    xs = np.asarray(xs, dtype=float)
    r = f.reduced
    w2 = r.omega_sq()
    lam, eta = r.lam, r.eta
    x2 = xs * xs
    v2 = w2 * x2 + 0.5 * lam * x2 * x2 + eta * x2 * x2 * x2 / 3.0
    return psi_second_derivative(f, xs) + (2.0 * energy - v2) * eval_psi(f, xs)


# ---------------------------------------------------------------------------
# node counting via Sturm sequences on the polynomial in t = x^2


def _sturm_chain(coeffs: np.ndarray) -> list[np.ndarray]:
    p0 = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    chain = [p0, npoly.polyder(p0)]
    while len(chain[-1]) > 1:
        _, rem = npoly.polydiv(chain[-2], chain[-1])
        rem = np.trim_zeros(rem, "b")
        scale = float(np.max(np.abs(chain[-2])))
        if rem.size == 0 or np.max(np.abs(rem)) < 1e-13 * max(1.0, scale):
            warnings.warn("Sturm sequence degenerated: polynomial has a multiple root")
            break
        chain.append(-rem)
    return chain


def _variations_at(chain: list[np.ndarray], t: float) -> int:
    signs = []
    for p in chain:
        v = npoly.polyval(t, p)
        if v != 0.0:
            signs.append(math.copysign(1.0, v))
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _variations_at_inf(chain: list[np.ndarray]) -> int:
    signs = [math.copysign(1.0, p[-1]) for p in chain if p.size]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def count_positive_roots(coeffs: np.ndarray) -> int:
    """Exact number of distinct roots of the t-polynomial on (0, inf)."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(coeffs) <= 1:
        return 0
    chain = _sturm_chain(coeffs)
    return _variations_at(chain, 0.0) - _variations_at_inf(chain)


def _positive_roots(coeffs: np.ndarray) -> list[float]:
    """Isolate and bisect the positive real roots of the t-polynomial."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    total = count_positive_roots(coeffs)
    if total == 0:
        return []
    chain = _sturm_chain(coeffs)
    # Cauchy bound on root magnitudes
    bound = 1.0 + float(np.max(np.abs(coeffs[:-1]))) / abs(coeffs[-1])

    def nroots(lo: float, hi: float) -> int:
        return _variations_at(chain, lo) - _variations_at(chain, hi)

    roots: list[float] = []
    stack = [(0.0, bound)]
    while stack:
        lo, hi = stack.pop()
        n = nroots(lo, hi)
        if n == 0:
            continue
        if n == 1:
            flo = npoly.polyval(lo, coeffs)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = npoly.polyval(mid, coeffs)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                if hi - lo < 1e-14 * max(1.0, hi):
                    break
            roots.append(0.5 * (lo + hi))
            continue
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(roots)


def count_nodes(f: Eigenfunction) -> NodeReport:
    """Nodes of psi on the whole line: 2 per positive t-root, plus x=0 if odd."""
    eps = f.state.parity
    t_roots = _positive_roots(f.state.coeffs)
    locations = [0.0] * eps + [math.sqrt(t) for t in t_roots]
    return NodeReport(count=2 * len(t_roots) + eps, locations=locations)


# ---------------------------------------------------------------------------
# quadrature

_QUAD_NODES = 2001  # trapezoid nodes on the half line
_EXP_UNDERFLOW = 746.0  # exp(-746) is 0.0 in double precision


def integration_cutoff(r: ReducedParams) -> float:
    """Half-width L with a L^2/2 + b L^4/4 = 40, floored at 6.

    The weight is then ~exp(-40) at the cutoff, far below any polynomial
    prefactor at double precision.
    """
    s = (-0.5 * r.a + math.sqrt(0.25 * r.a**2 + 40.0 * r.b)) / (0.5 * r.b)
    return max(6.0, math.sqrt(s))


def _underflow_width(r: ReducedParams) -> float:
    """Half-width beyond which the weight exp(-a x^2/2 - b x^4/4) is 0.0."""
    d = math.sqrt(0.25 * r.a * r.a + _EXP_UNDERFLOW * r.b)
    # the root of b t^2/4 + a t/2 = 746 in t = x^2, in the form that does not cancel
    t = 2.0 * _EXP_UNDERFLOW / (0.5 * r.a + d) if r.a >= 0.0 else (d - 0.5 * r.a) / (0.5 * r.b)
    return math.sqrt(t)


def norm_and_inner(f: Eigenfunction, g: Eigenfunction) -> float:
    """L2 inner product of f and g over the real line (norm^2 when f is g).

    The integrand is smooth, even and decays like exp(-b x^4/2), so the
    trapezoid rule on fixed nodes over [0, cutoff] converges exponentially
    (Trefethen & Weideman, SIAM Rev. 56, 2014); doubling it covers the line.
    The nodes stop where the weight underflows, since psi is exactly 0.0
    beyond: for a narrow weight (large a or b) the floor of 6 on the cutoff
    would otherwise leave the peak between nodes.  Then every width of the
    weight, 1/sqrt(|a| + 3 b x_peak^2) or b^(-1/4) if smaller, holds at least
    50 steps when a >= 0, and at least 16 when a < 0 wherever psi^2 is finite
    (it peaks near exp(a^2/(2b)), which overflows beyond a^2 = 1418 b).
    """
    rf, rg = f.reduced, g.reduced
    if abs(rf.a - rg.a) > 1e-12 * max(1.0, abs(rf.a)) or abs(rf.b - rg.b) > 1e-12 * rf.b:
        raise WeightMismatchError(
            f"eigenfunctions have different weights: (a={rf.a}, b={rf.b}) vs (a={rg.a}, b={rg.b})"
        )
    if (f.state.parity + g.state.parity) % 2 == 1:
        return 0.0  # odd integrand
    half = min(integration_cutoff(rf), _underflow_width(rf))
    xs, h = np.linspace(0.0, half, _QUAD_NODES, retstep=True)
    y = eval_psi(f, xs) * eval_psi(g, xs)
    return float(2.0 * h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def normalized(f: Eigenfunction) -> Eigenfunction:
    """Copy of f with norm_constant set so that norm_constant^2 * <f, f> = 1."""
    n2 = norm_and_inner(f, f)
    return Eigenfunction(state=f.state, reduced=f.reduced, norm_constant=1.0 / math.sqrt(n2))
