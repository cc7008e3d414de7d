"""Eigenfunction evaluation, node counting, inner products, ODE residuals.

An eigenfunction is x^eps * (sum_n A_n x^{2n}) * exp(-a x^2/2 - b x^4/4).
Derivatives are taken analytically (polynomial algebra in t = x^2 times the
exponential), never by finite differences; numeric differentiation appears only in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError, WeightMismatchError
from .params import CouplingParams, ReducedParams, potential_v2, support_half_width, turning_point, well_bottom
from .qes_core import QesState


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
    """Node count of psi on the whole line."""

    count: int


def _weight(r: ReducedParams, x: np.ndarray) -> np.ndarray:
    x2 = x * x
    return np.exp(-0.5 * r.a * x2 - 0.25 * r.b * x2 * x2)


def _horner(c: np.ndarray, x):
    """sum_k c[k] x^k by Horner's rule in place, with the IEEE operations of numpy's polyval(x, c)."""
    acc = c[-1] + x * 0.0
    for ck in c[-2::-1]:
        acc *= x
        acc += ck
    return acc


def _scaled(f: Eigenfunction, y):
    """y times f.norm_constant, when f carries one."""
    return y if f.norm_constant is None else f.norm_constant * y


def _psi_over_weight(f: Eigenfunction, x: np.ndarray, t: np.ndarray | None = None):
    """x^eps * sum A_n t^n with t = x^2 (formed here unless given), by Horner in t
    (times norm_constant, if set)."""
    poly = _horner(f.state.coeffs, x * x if t is None else t)
    return _scaled(f, x * poly if f.state.parity else poly)


def eval_psi(f: Eigenfunction, x) -> np.ndarray:
    """psi(x); the polynomial is evaluated by Horner in t = x^2."""
    x = np.asarray(x, dtype=float)
    return _psi_over_weight(f, x) * _weight(f.reduced, x)


def _psi_and_d2_over_weight(f: Eigenfunction, x: np.ndarray):
    """(psi/W, psi''/W) from P, M and L, each by Horner in t = x^2 (times norm_constant, if set).

    With P(t) = sum A_n t^n, M = eps P + 2t P', L = (4 eps + 2) P' + 4t P'' and
    s = a + b t, so that -(log W)' = x s, the product rule on x^eps P(t) W gives
    psi''/W = x^eps [L - 2s M + (t s^2 - s - 2bt) P].  s vanishes at the wells of
    a < 0, where the expansion of psi''/W in powers of t would cancel.  psi/W has
    the bits of eval_psi.
    """
    a, b, eps, c = f.reduced.a, f.reduced.b, f.state.parity, f.state.coeffs
    n = np.arange(len(c))
    l_coeffs = np.append(2 * n[1:] * (2 * n[1:] + 2 * eps - 1) * c[1:], 0.0)
    t = x * x
    p, m, l = (_horner(d, t) for d in (c, (2 * n + eps) * c, l_coeffs))
    s = a + b * t
    d2 = l - 2.0 * s * m + (t * s * s - s - 2.0 * b * t) * p
    lead = x if eps else 1.0
    return _scaled(f, lead * p), _scaled(f, lead * d2)


def psi_second_derivative(f: Eigenfunction, x) -> np.ndarray:
    """psi''(x) from the exact product rule on polynomial times weight."""
    x = np.asarray(x, dtype=float)
    return _psi_and_d2_over_weight(f, x)[1] * _weight(f.reduced, x)


def ode_residual(f: Eigenfunction, energy: float, xs) -> np.ndarray:
    """Pointwise residual psi'' + (2E - V2) psi, V2 from the couplings of f's reduced parameters."""
    xs = np.asarray(xs, dtype=float)
    r = f.reduced
    v2 = potential_v2(r.couplings(), xs)
    w = _weight(r, xs)
    psi, d2 = _psi_and_d2_over_weight(f, xs)
    return d2 * w + (2.0 * energy - v2) * (psi * w)


# ---------------------------------------------------------------------------
# node counting by sign changes of the polynomial in t = x^2

_EPS = np.finfo(float).eps


@lru_cache(maxsize=8)
def _geometry(r: ReducedParams) -> tuple[CouplingParams, float]:
    """(couplings, t = x^2 at the bottom of V2) of a block; its states share one
    ReducedParams, so a block builds them once."""
    p = r.couplings()
    return p, well_bottom(p)


def _allowed_region(f: Eigenfunction) -> tuple[float, float]:
    """(x_t, k_max): the outer turning point, where 2E = V2, and sqrt(2E - min V2) on [0, x_t].

    Every node of a bound state lies inside x_t, and by Sturm comparison with
    y'' + k_max^2 y = 0 two nodes are at least pi/k_max apart.
    """
    (p, t_well), energy = _geometry(f.reduced), f.state.energy
    t_turn = turning_point(p, energy)
    v_min = min(0.0, potential_v2(p, math.sqrt(min(t_well, t_turn))))
    return math.sqrt(t_turn), math.sqrt(max(0.0, 2.0 * energy - v_min))


def _samples(stop: float, num: int) -> np.ndarray:
    """np.linspace(0.0, stop, num) bit for bit, for stop = 0 or stop / (num - 1) > 0,
    without linspace's overhead: the same products k * step, and the last node stop."""
    xs = np.arange(num) * (stop / max(num - 1, 1))
    if num > 1:
        xs[-1] = stop
    return xs


def _positive_roots(f: Eigenfunction) -> int:
    """The number of roots t = x^2 of p(t) = sum A_n t^n inside the turning point.

    Samples three to a node spacing pi/k_max leave at most one node between
    two of them, even with one sample dropped.  A sample with |p| within
    Horner's rounding bound (N+1) eps sum |A_n| t^n (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 5.1) has no known sign: alone it
    is dropped, as it may be a root; two adjacent ones mean p is rounding noise
    there, and raise SolverError.  Each sign change of the rest is one root.
    """
    coeffs = f.state.coeffs
    x_t, k_max = _allowed_region(f)
    xs = _samples(x_t, math.ceil(3.0 * x_t * k_max / math.pi) + 1)
    t = xs * xs
    p = _horner(coeffs, t)
    abs_p, abs_c, tol = np.abs(p), np.abs(coeffs), len(coeffs) * _EPS
    # with |A_n| >= 0 and t >= 0 each rounded Horner step is monotone in t, so
    # the bound at the last (largest) t bounds every other sample's bound; in
    # Python floats it takes the IEEE steps it takes on a numpy scalar
    unknown = abs_p <= tol * _horner(abs_c.tolist(), float(t[-1]))
    (near,) = unknown.nonzero()
    if near.size:  # else, the common case, every sample's sign is known and all of them count
        unknown[near] = abs_p[near] <= tol * _horner(abs_c, t[near])
        (noise,) = (unknown[1:] & unknown[:-1]).nonzero()
        if noise.size:
            raise SolverError(
                f"node count failed: rounding hides the sign of psi at x = {float(xs[noise[0]])!r}, "
                f"inside the turning point {x_t!r}"
            )
        p = p[~unknown]
    neg = np.signbit(p)
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def count_nodes(f: Eigenfunction) -> NodeReport:
    """Nodes of psi on the whole line: 2 per root t = x^2 inside the turning point, plus x=0 if odd.

    Raises SolverError where rounding hides the sign of psi inside the
    allowed region (seen from N = 25 at a >= 0).
    """
    return NodeReport(count=2 * _positive_roots(f) + f.state.parity)


# ---------------------------------------------------------------------------
# quadrature

_QUAD_NODES = 2001  # trapezoid nodes on the half line


@lru_cache(maxsize=8)
def _quadrature(a: float, b: float, degree: int) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(xs, xs^2, h, W(xs)): the trapezoid nodes on [0, L], their squares, their
    spacing and the weight on them.

    L is the support at this degree (see norm_and_inner).  A block's states share
    (a, b, 2N + eps), so a block builds them once; the arrays are read-only, as
    every caller shares them.
    """
    r = ReducedParams(a=a, b=b, c=0.0, gamma=0.0)  # c and gamma play no part here
    half = support_half_width(r, degree)
    xs = _samples(half, _QUAD_NODES)
    t, w = xs * xs, _weight(r, xs)
    xs.flags.writeable = t.flags.writeable = w.flags.writeable = False
    return xs, t, half / (_QUAD_NODES - 1), w  # the samples' own spacing


def norm_and_inner(f: Eigenfunction, g: Eigenfunction) -> float:
    """L2 inner product of f and g over the real line (norm^2 when f is g).

    The integrand is smooth, even and decays like exp(-b x^4/2), so the
    trapezoid rule on fixed nodes over [0, L] converges exponentially once
    the nodes cover it (Trefethen & Weideman, SIAM Rev. 56, 2014); doubling
    it covers the line.  L is psi's support: where |x|^(2N + eps) W, at the
    larger degree of f and g, has fallen to 1e-16 of its peak.
    """
    rf, rg = f.reduced, g.reduced
    if abs(rf.a - rg.a) > 1e-12 * max(1.0, abs(rf.a)) or abs(rf.b - rg.b) > 1e-12 * rf.b:
        raise WeightMismatchError(
            f"eigenfunctions have different weights: (a={rf.a}, b={rf.b}) vs (a={rg.a}, b={rg.b})"
        )
    if (f.state.parity + g.state.parity) % 2 == 1:
        return 0.0  # odd integrand
    degree = 2 * max(len(f.state.coeffs), len(g.state.coeffs)) - 2 + f.state.parity  # 2N + eps
    xs, t, h, w = _quadrature(rf.a, rf.b, degree)
    psi = _psi_over_weight(f, xs, t) * w  # eval_psi's bits
    y = psi * psi if g is f else psi * eval_psi(g, xs)
    return float(2.0 * h * (np.add.reduce(y) - 0.5 * (y[0] + y[-1])))


def _finite_norm_sq(f: Eigenfunction) -> float:
    """<f, f>, or SolverError where it is not finite: psi^2 overflows a double near
    the wells of a < 0 once a^2/b exceeds ~1,418, where norm_and_inner returns inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):  # the error below says it instead
        n2 = norm_and_inner(f, f)
    if not math.isfinite(n2):
        r = f.reduced
        raise SolverError(
            f"the norm of state m={f.state.label} is not finite: psi^2 overflows a double "
            f"(a^2/b = {r.a * r.a / r.b:.6g})"
        )
    return n2


def normalized(f: Eigenfunction) -> Eigenfunction:
    """Copy of f with norm_constant set so that it has unit norm.

    The constant multiplies psi in every evaluation; an f that already carries
    one is rescaled from it.  Raises SolverError where the norm is not finite.
    """
    scale = 1.0 if f.norm_constant is None else f.norm_constant
    return Eigenfunction(state=f.state, reduced=f.reduced, norm_constant=scale / math.sqrt(_finite_norm_sq(f)))
