"""Eigenfunction evaluation, node counting, inner products, ODE residuals.

An eigenfunction is x^eps * (sum_n A_n x^{2n}) * exp(-a x^2/2 - b x^4/4).  On a grid,
the states of a block share one weighted power basis B[n] = t^n W(x), t = x^2: psi is
x^eps (A @ B), and psi'' follows from one (3, N+1) @ B product by the product rule,
never by finite differences; numeric differentiation appears only in tests.
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
    """A QES eigenfunction; b > 0 makes it normalizable.  norm_constant, when set, multiplies psi."""

    state: QesState
    reduced: ReducedParams
    norm_constant: float | None = None


@dataclass(frozen=True)
class NodeReport:
    """Node count of psi on the whole line."""

    count: int


_BLOCK = 1 << 20  # doubles in the basis of one block of points, at most
_BASIS: list = [None, None]  # the one basis held: its key (the grid's bytes, a, b, rows) and arrays


def _basis(x: np.ndarray, a: float, b: float, rows: int) -> tuple:
    """(B, k, s, q) at the points x for the weight (a, b): B[j] = 2^-k[j] t^n W, n = rows - 1 - j, t = x^2,
    in descending n, so that a coefficient row sums in Horner's order.  Each row is the one below times
    t.  Where that overflows at finite W (the top row shows it), the rows are formed again, each from
    the one below scaled by the least power of two that keeps its finite part finite, which is exact
    (k is None where no row needs it).  Rows are 0 where W is, also where t overflows.  s = a + bt and
    q = ts^2 - s - 2bt serve psi''.  The grid's bytes, not its identity, key the one basis held."""
    key = (x.tobytes(), a, b, rows)
    if _BASIS[0] == key:  # compared, not hashed
        return _BASIS[1]
    _BASIS[:] = None, None  # the old basis goes first
    with np.errstate(over="ignore", invalid="ignore"):  # inf says where W or t^n W overflows
        t = x * x
        w = np.exp(-0.5 * a * t - 0.25 * b * t * t)
        w[np.isinf(t)] = 0.0
        t[w == 0.0] = 0.0
        basis, k, t_exp = np.empty((rows, x.size)), np.zeros(rows, dtype=int), math.frexp(t.max())[1]
        basis[-1] = w
        for j in range(rows - 2, -1, -1):
            np.multiply(basis[j + 1], t, out=basis[j])
        for j in range(rows - 2, -1, -1) if np.isinf(basis[0][w < math.inf]).any() else ():  # again, scaled
            below, k[j] = basis[j + 1], k[j + 1]
            if np.multiply(below, t, out=basis[j]).max() == math.inf:
                e = max(0, math.frexp(below.max(initial=0.0, where=below < math.inf))[1] + t_exp - 1023)
                k[j] += e
                np.multiply(np.ldexp(below, -e), t, out=basis[j])
        s = a + b * t
        q = t * s * s - s - 2.0 * b * t
    basis.flags.writeable = s.flags.writeable = q.flags.writeable = False
    _BASIS[:] = key, (basis, k if k.any() else None, s, q)
    return _BASIS[1]


@lru_cache(maxsize=4)
def _factors(rows: int, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """M's and L's factors in descending n: 2n + eps for n = N..0, 2n (2n + 2 eps - 1) for n = N..1."""
    n = np.arange(rows - 1, -1, -1)
    return 2 * n + eps, (2 * n * (2 * n + 2 * eps - 1))[:-1]


def _products(f: Eigenfunction, x: np.ndarray, sets: list[np.ndarray]) -> np.ndarray:
    """Per set of coefficient rows, its sums against B at the points of x: both rows' of a pair, or
    L - 2sM + qP for the rows of P, M and L; per block of points of at most _BLOCK basis doubles."""
    flat, n = x.reshape(-1), sets[0].shape[1]
    outs = [np.empty((1 if len(rows) == 3 else len(rows), *x.shape)) for rows in sets]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN says where psi overflows
        for lo in range(0, flat.size, step := max(1, _BLOCK // n)):
            basis, k, s, q = _basis(flat[lo : lo + step], f.reduced.a, f.reduced.b, n)
            for y, rows in zip(outs, sets):
                p = (rows if k is None else np.ldexp(rows, k)) @ basis
                y.reshape(len(y), -1)[:, lo : lo + step] = p[2] - 2.0 * s * p[1] + q * p[0] if len(p) == 3 else p
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def _evaluate(f: Eigenfunction, x: np.ndarray, *second: bool) -> list[np.ndarray]:
    """psi and x^eps |A| @ B at x, or psi'' for each True in second (times norm_constant, if set).

    psi = x^eps (A @ B), with |A| as a second row: it scales psi's rounding, and numpy runs a
    two-row product as a matrix product, which adds a point's terms in order of n (a one-row gemv
    adds them in groups).  With P(t) = sum A_n t^n, M = eps P + 2t P', L = (4 eps + 2) P' + 4t P''
    and s = a + bt, so that -(log W)' = xs, the product rule gives psi'' = x^eps W [L - 2sM + qP]
    with q = ts^2 - s - 2bt, and PW, MW, LW from one (3, N+1) @ B product.  s vanishes at the
    wells of a < 0, where psi''/W in powers of t would cancel.
    """
    c, eps = f.state.coeffs[::-1], f.state.parity  # descending n
    m, l = _factors(len(c), eps)
    pml = np.array([c, m * c, np.append(0.0, l * c[:-1])]) if any(second) else None
    out = _products(f, x, [pml if d2 else np.array([c, np.abs(c)]) for d2 in second])
    out = x * out if eps else out
    return list(out if f.norm_constant is None else f.norm_constant * out)


def eval_psi(f: Eigenfunction, x) -> np.ndarray:
    """psi(x); 0.0 where the weight underflows, also where x^2 overflows."""
    return _evaluate(f, np.asarray(x, dtype=float), False)[0].copy()  # not a view that holds |A| @ B


def psi_second_derivative(f: Eigenfunction, x) -> np.ndarray:
    """psi''(x) from the exact product rule on polynomial times weight."""
    return _evaluate(f, np.asarray(x, dtype=float), True)[0]


def ode_residual(f: Eigenfunction, energy: float, xs) -> np.ndarray:
    """Pointwise residual psi'' + (2E - V2) psi, V2 from the couplings of f's reduced parameters."""
    xs = np.asarray(xs, dtype=float)
    d2, psi, _ = _evaluate(f, xs, True, False)
    return d2 + (2.0 * energy - potential_v2(f.reduced.couplings(), xs)) * psi


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
def _quadrature(a: float, b: float, degree: int) -> tuple[np.ndarray, float]:
    """(xs, h): the trapezoid nodes on [0, L] and their spacing; L is the support at this degree
    (see norm_and_inner).  A block's states share them, and their basis; xs is read-only."""
    half = support_half_width(ReducedParams(a=a, b=b, c=0.0, gamma=0.0), degree)  # c and gamma play no part
    xs = np.linspace(0.0, half, _QUAD_NODES)
    xs.flags.writeable = False
    return xs, half / (_QUAD_NODES - 1)  # the samples' own spacing


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
            f"eigenfunctions have different weights: (a={rf.a}, b={rf.b}) vs (a={rg.a}, b={rg.b})")
    if (f.state.parity + g.state.parity) % 2 == 1:
        return 0.0  # odd integrand
    degree = 2 * max(len(f.state.coeffs), len(g.state.coeffs)) - 2 + f.state.parity  # 2N + eps
    xs, h = _quadrature(rf.a, rf.b, degree)
    psi = _evaluate(f, xs, False)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # where W or psi^2 overflows, inf or NaN says so
        y = psi * psi if g is f else psi * _evaluate(g, xs, False)[0]
        return float(2.0 * h * (np.add.reduce(y) - 0.5 * (y[0] + y[-1])))


def _finite_norm_sq(f: Eigenfunction) -> float:
    """<f, f>, or SolverError where the trapezoid sum is not finite or not certain to one digit.

    It is not finite where psi^2 or W overflows a double at a node; no threshold on a^2/b
    marks that (lambda = -0.921875, eta = 3.7855e-3, N = 11, omega2 solved: m = 0 overflows
    at a^2/b = 1,185).  Row n of the basis carries n roundings of its running product from
    W, and the product sums N+1 terms (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 3.1), so each term of psi at node i is within gamma_{2N+1} <= (N+1) eps of exact for
    the node's t and W: delta_i = (N+1) eps |x_i|^eps (|A| @ B)_i.  Its bound on norm^2,
    2h sum delta_i (2|psi_i| + delta_i), must stay below norm^2/10.
    """
    n2 = norm_and_inner(f, f)
    r, st = f.reduced, f.state
    if not math.isfinite(n2):
        raise SolverError(
            f"the norm of state m={st.label} is not finite: psi^2 overflows a double "
            f"(a^2/b = {r.a * r.a / r.b:.6g})"
        )
    xs, h = _quadrature(r.a, r.b, 2 * len(st.coeffs) - 2 + st.parity)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound that is not finite refuses too
        psi, abs_psi = _evaluate(f, xs, False)
        delta = len(st.coeffs) * np.finfo(float).eps * np.abs(abs_psi)
        bound = 2.0 * h * float(np.add.reduce(delta * (2.0 * np.abs(psi) + delta)))
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
