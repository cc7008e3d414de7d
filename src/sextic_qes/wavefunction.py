"""Eigenfunction evaluation, node counting, inner products, ODE residuals.

An eigenfunction is x^eps * (sum_n A_n x^{2n}) * exp(-a x^2/2 - b x^4/4).
Derivatives are taken analytically (polynomial algebra times the exponential),
never by finite differences; numeric differentiation appears only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import SolverError, WeightMismatchError
from .params import ReducedParams
from .qes_core import QesState, _cubic_real_roots


@dataclass(frozen=True)
class Eigenfunction:
    """A QES eigenfunction; b > 0 makes it normalizable.

    norm_constant, when set, multiplies psi and its derivatives.
    """

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


def _horner(c: np.ndarray, x, step: int = 1):
    """sum_k c[k] x^k by Horner's rule, bit-identical to npoly.polyval(x, c).

    The same IEEE operations run in the same order, in place on one
    accumulator.  With step=2 the coefficient is added only every second
    degree, counted down from the top; the skipped coefficients must be zero,
    and skipping their + 0.0 can change no more than the sign of a zero.
    """
    acc = c[-1] + x * 0.0
    for i, ck in enumerate(c[-2::-1], 1):
        acc *= x
        if i % step == 0:
            acc += ck
    return acc


def _value(cs: list[float], t: float) -> float:
    """The same Horner sum on Python floats (cs from coeffs.tolist()), for scalar t."""
    high_to_low = reversed(cs)
    acc = next(high_to_low) + t * 0.0
    for c in high_to_low:
        acc = acc * t + c
    return acc


def _derivative(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative, bit-identical to npoly.polyder(c)."""
    if len(c) == 1:
        return c * 0.0
    return c[1:] * np.arange(1, len(c))


def _poly_in_x(f: Eigenfunction) -> np.ndarray:
    """Coefficients of y(x) = x^eps * sum A_n x^{2n} (low-to-high in x)."""
    eps = f.state.parity
    coeffs = f.state.coeffs
    y = np.zeros(2 * (len(coeffs) - 1) + eps + 1)
    y[eps::2] = coeffs
    return y


def _scaled(f: Eigenfunction, y):
    """y times f.norm_constant, when f carries one."""
    return y if f.norm_constant is None else f.norm_constant * y


def _psi_over_weight(f: Eigenfunction, x: np.ndarray):
    """x^eps * sum A_n t^n with t = x^2, by Horner in t (times norm_constant, if set)."""
    poly = _horner(f.state.coeffs, x * x)
    return _scaled(f, x * poly if f.state.parity else poly)


def eval_psi(f: Eigenfunction, x) -> np.ndarray:
    """psi(x); the polynomial is evaluated by Horner in t = x^2."""
    x = np.asarray(x, dtype=float)
    return _psi_over_weight(f, x) * _weight(f.reduced, x)


def _second_derivative_over_weight(f: Eigenfunction, x: np.ndarray):
    """psi''/W, a polynomial in x of the parity of psi, from the product rule
    (times norm_constant, if set)."""
    a, b = f.reduced.a, f.reduced.b
    y = _poly_in_x(f)
    yp = _derivative(y)
    ypp = _derivative(yp)
    g = np.array([0.0, a, 0.0, b])  # -(log W)' = a x + b x^3
    q = (
        npoly.polyadd(
            npoly.polysub(ypp, 2.0 * npoly.polymul(g, yp)),
            npoly.polymul(npoly.polysub(npoly.polymul(g, g), np.array([a, 0.0, 3.0 * b])), y),
        )
    )
    # the degrees of the other parity hold zeros, unless a coefficient is not
    # finite (inf * 0 puts NaN there): then the full sum keeps the NaN
    return _scaled(f, _horner(q, x, step=1 if q[-2::-2].any() else 2))


def psi_second_derivative(f: Eigenfunction, x) -> np.ndarray:
    """psi''(x) from the exact product rule on polynomial times weight."""
    x = np.asarray(x, dtype=float)
    return _second_derivative_over_weight(f, x) * _weight(f.reduced, x)


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
    w = _weight(r, xs)
    psi = _psi_over_weight(f, xs) * w
    return _second_derivative_over_weight(f, xs) * w + (2.0 * energy - v2) * psi


# ---------------------------------------------------------------------------
# node counting by sign changes of the polynomial in t = x^2


def _allowed_region(f: Eigenfunction) -> tuple[float, float]:
    """(x_t, k_max): the outer turning point, where 2E = V2, and sqrt(2E - min V2) on [0, x_t].

    Every node of a bound state lies inside x_t, and by Sturm comparison with
    y'' + k_max^2 y = 0 two nodes are at least pi/k_max apart.
    """
    r, two_e = f.reduced, 2.0 * f.state.energy
    w2, lam, eta = r.omega_sq(), r.lam, r.eta
    # in t = x^2, V2 = w2 t + lam t^2/2 + eta t^3/3
    t_turn = max(0.0, *_cubic_real_roots(1.5 * lam / eta, 3.0 * w2 / eta, -3.0 * two_e / eta))
    # V2 is least at the larger root of dV2/dt = w2 + lam t + eta t^2, in the form that does not cancel
    d = lam * lam - 4.0 * eta * w2
    t_min = 0.0
    if d > 0.0:
        s = math.sqrt(d)
        t_min = -2.0 * w2 / (lam + s) if lam > 0.0 else (s - lam) / (2.0 * eta)
    t_min = min(max(t_min, 0.0), t_turn)
    v_min = min(0.0, t_min * (w2 + t_min * (0.5 * lam + t_min * eta / 3.0)))
    return math.sqrt(t_turn), math.sqrt(max(0.0, two_e - v_min))


def _positive_roots(f: Eigenfunction) -> list[float]:
    """The roots t = x^2 of p(t) = sum A_n t^n inside the turning point, ascending.

    Samples three to a node spacing pi/k_max leave at most one node between
    two of them, even with one sample dropped.  A sample with |p| within
    Horner's rounding bound (N+1) eps sum |A_n| t^n (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 5.1) has no known sign: alone it
    is dropped, as it may be a root; two adjacent ones mean p is rounding noise
    there, and raise SolverError.  Each sign change is bisected until lo and hi
    are adjacent doubles.
    """
    coeffs = f.state.coeffs
    x_t, k_max = _allowed_region(f)
    xs = np.linspace(0.0, x_t, math.ceil(3.0 * x_t * k_max / math.pi) + 1)
    t = xs * xs
    p = _horner(coeffs, t)
    unknown = np.abs(p) <= len(coeffs) * np.finfo(float).eps * _horner(np.abs(coeffs), t)
    noise = np.flatnonzero(unknown[1:] & unknown[:-1])
    if noise.size:
        raise SolverError(
            f"node count failed: rounding hides the sign of psi at x = {float(xs[noise[0]])!r}, "
            f"inside the turning point {x_t!r}"
        )
    t, neg = t[~unknown], np.signbit(p[~unknown])
    cs = coeffs.tolist()
    roots = []
    for i in np.flatnonzero(neg[1:] != neg[:-1]).tolist():
        lo, hi, lo_neg = float(t[i]), float(t[i + 1]), bool(neg[i])
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (_value(cs, mid) < 0.0) == lo_neg:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        roots.append(mid)
    return roots


def count_nodes(f: Eigenfunction) -> NodeReport:
    """Nodes of psi on the whole line: 2 per root t = x^2 inside the turning point, plus x=0 if odd.

    Raises SolverError where rounding hides the sign of psi inside the
    allowed region (seen from N = 25 at a >= 0).
    """
    eps = f.state.parity
    t_roots = _positive_roots(f)
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
    return max(6.0, r.weight_half_width())


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
    psi = eval_psi(f, xs)
    y = psi * psi if g is f else psi * eval_psi(g, xs)
    return float(2.0 * h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def normalized(f: Eigenfunction) -> Eigenfunction:
    """Copy of f with norm_constant set so that it has unit norm.

    The constant multiplies psi in every evaluation; an f that already carries
    one is rescaled from it.
    """
    scale = 1.0 if f.norm_constant is None else f.norm_constant
    n2 = norm_and_inner(f, f)
    return Eigenfunction(state=f.state, reduced=f.reduced, norm_constant=scale / math.sqrt(n2))
