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
from .params import ReducedParams, potential_v2, support_half_width
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
# node counting by Descartes' rule of signs on the A_n


def count_nodes(f: Eigenfunction) -> NodeReport:
    """Nodes of psi on the whole line: 2 per sign change of A_0, ..., A_N, plus x=0 if odd.

    For a state of spectrum every zero of P(t) = sum A_n t^n is real and simple
    (Stieltjes, Acta Math. 6, 1885), so Descartes' rule of signs counts its
    positive zeros t = x^2 exactly; by Newton's inequalities an A_n lost to
    rounding sits between two of opposite sign, and adds one change either way.
    The A_n are running products of nonzero ratios (qes_core._coefficients), so
    one that underflows is a signed zero with the product's sign, which signbit
    reads.  For other coefficients the count is only Descartes' upper bound.
    """
    neg = np.signbit(f.state.coeffs)
    return NodeReport(count=2 * int(np.count_nonzero(neg[1:] != neg[:-1])) + f.state.parity)


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
    xs = np.linspace(0.0, half, _QUAD_NODES)
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
    with np.errstate(over="ignore", invalid="ignore"):  # where W or psi^2 overflows, inf or NaN says so
        xs, t, h, w = _quadrature(rf.a, rf.b, degree)
        psi = _psi_over_weight(f, xs, t) * w  # eval_psi's bits
        y = psi * psi if g is f else psi * eval_psi(g, xs)
        return float(2.0 * h * (np.add.reduce(y) - 0.5 * (y[0] + y[-1])))


def _finite_norm_sq(f: Eigenfunction) -> float:
    """<f, f>, or SolverError where the trapezoid sum is not finite or not certain to one digit.

    It is not finite where psi^2 or W overflows a double at a node; no threshold on a^2/b
    marks that (lambda = -0.921875, eta = 3.7855e-3, N = 11, omega2 solved: m = 0 overflows
    at a^2/b = 1,185).  Horner's rounding bound on psi at the nodes, delta_i = (N+1) eps
    |x_i|^eps sum |A_n| t_i^n W_i (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 5.1), must keep the one on norm^2, 2h sum delta_i (2|psi_i| + delta_i), below norm^2/10."""
    n2 = norm_and_inner(f, f)
    r, st = f.reduced, f.state
    if not math.isfinite(n2):
        raise SolverError(
            f"the norm of state m={st.label} is not finite: psi^2 overflows a double "
            f"(a^2/b = {r.a * r.a / r.b:.6g})"
        )
    xs, t, h, w = _quadrature(r.a, r.b, 2 * len(st.coeffs) - 2 + st.parity)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite refuses too
        abs_p = _horner(np.abs(st.coeffs), t)
        delta = len(st.coeffs) * np.finfo(float).eps * np.abs(_scaled(f, xs * abs_p if st.parity else abs_p)) * w
        bound = 2.0 * h * float(np.add.reduce(delta * (2.0 * np.abs(_psi_over_weight(f, xs, t) * w) + delta)))
    if not bound < 0.1 * n2:
        raise SolverError(
            f"the norm of state m={st.label} is not certain to one digit: the rounding bound "
            f"on norm^2 is {bound / n2:.3g} of it (a^2/b = {r.a * r.a / r.b:.6g})"
        )
    return n2


def normalized(f: Eigenfunction) -> Eigenfunction:
    """Copy of f with norm_constant set so that it has unit norm.

    The constant multiplies psi in every evaluation; an f that already carries
    one is rescaled from it.  Raises SolverError as _finite_norm_sq does.
    """
    scale = 1.0 if f.norm_constant is None else f.norm_constant
    return Eigenfunction(state=f.state, reduced=f.reduced, norm_constant=scale / math.sqrt(_finite_norm_sq(f)))
