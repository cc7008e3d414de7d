"""Eigenfunction evaluation, node counting, inner products, ODE residuals.

An eigenfunction is x^eps * (sum_n A_n x^{2n}) * exp(-a x^2/2 - b x^4/4).  On a grid,
the states of a block share one weighted power basis B[n] = t^n W(x), t = x^2: psi is
x^eps (A @ B), and psi'' follows from one (3, N+1) @ B product by the product rule,
never by finite differences; numeric differentiation appears only in tests.  The block
(qes_core.QesBlock) holds what its states share: the basis of the last grid evaluated on,
and from its first norm on, its quadrature nodes and every state's psi row and norm there:
251 nodes where every state's trapezoid sum has converged on them, else 2001.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SolverError, WeightMismatchError
from .params import QesIndex, ReducedParams, potential_v2, psi_half_width
from .qes_core import QesBlock, QesState, closure_reduced


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


def _block(f: Eigenfunction) -> tuple[QesBlock, int]:
    """f's block and its state's row there.  A state built by hand, or evaluated with a weight,
    parity or coefficients other than its block's, is a block of one, built on each call."""
    st, r, blk = f.state, f.reduced, f.state.block
    if (blk is not None and (blk.reduced.a, blk.reduced.b, blk.parity) == (r.a, r.b, st.parity)
            and 0 <= st.label < len(blk.coeffs) and blk.coeffs[st.label] is st.coeffs):
        return blk, st.label
    return QesBlock(r, st.parity, (st.coeffs,)), 0


def _basis(x: np.ndarray, a: float, b: float, rows: int) -> tuple:
    """(B, k, t) at the points x for the weight (a, b): B[j] = 2^-k[j] t^n W, n = rows - 1 - j, t = x^2,
    in descending n, so that a coefficient row sums in Horner's order.  Each row is the one below times
    t.  Where that overflows at finite W (the top row shows it), the rows are formed again, each from
    the one below scaled by the least power of two that keeps its finite part finite, which is exact
    (k is None where no row needs it).  Rows are 0 where W is, also where t overflows, and so is t."""
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
    basis.flags.writeable = t.flags.writeable = False
    return basis, k if k.any() else None, t


def _grid(blk: QesBlock, x: np.ndarray, second: bool) -> list:
    """[key, B, k, t, (s, q)]: _basis at x for blk's weight, kept as blk's last grid.  The grid's
    bytes, not its identity, key it.  s = a + bt and q = ts^2 - s - 2bt serve psi'', and are
    formed at its first call with second, else None."""
    key = x.tobytes()
    if blk.grid is None or blk.grid[0] != key:  # compared, not hashed
        blk.grid = None  # the old basis goes first
        blk.grid = [key, *_basis(x, blk.reduced.a, blk.reduced.b, len(blk.coeffs[0])), None]
    if second and blk.grid[4] is None:
        a, b, t = blk.reduced.a, blk.reduced.b, blk.grid[3]
        with np.errstate(over="ignore", invalid="ignore"):
            s = a + b * t
            q = t * s * s - s - 2.0 * b * t
        s.flags.writeable = q.flags.writeable = False
        blk.grid[4] = s, q
    return blk.grid


@lru_cache(maxsize=4)
def _factors(rows: int, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """M's and L's factors in descending n: 2n + eps for n = N..0, 2n (2n + 2 eps - 1) for n = N..1."""
    n = np.arange(rows - 1, -1, -1)
    return 2 * n + eps, (2 * n * (2 * n + 2 * eps - 1))[:-1]


def _products(blk: QesBlock, x: np.ndarray, sets: list[np.ndarray]) -> list[np.ndarray]:
    """Per set of coefficient rows, its sums against blk's basis at the points of x: every row's
    of a stack of pairs (..., 2, N+1), or L - 2sM + qP for the rows (3, N+1) of P, M and L; per
    block of points of at most _BLOCK basis doubles.  A stack runs one matrix product per pair."""
    flat, n = x.reshape(-1), len(blk.coeffs[0])
    pml = [rows.shape[-2] == 3 for rows in sets]
    outs = [np.empty(((1,) if d2 else rows.shape[:-1]) + flat.shape) for rows, d2 in zip(sets, pml)]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN says where psi overflows
        for lo in range(0, flat.size, step := max(1, _BLOCK // n)):
            _, basis, k, _, sq = _grid(blk, flat[lo : lo + step], any(pml))
            for y, rows, d2 in zip(outs, sets, pml):
                rows = rows if k is None else np.ldexp(rows, k)
                if d2:
                    p = rows @ basis
                    y[0, lo : lo + step] = p[2] - 2.0 * sq[0] * p[1] + sq[1] * p[0]
                else:
                    np.matmul(rows, basis, out=y[..., lo : lo + step])
    return [y.reshape(y.shape[:-1] + x.shape) for y in outs]


def _evaluate(f: Eigenfunction, x: np.ndarray, *second: bool) -> list[np.ndarray]:
    """psi and x^eps |A| @ B at x, or psi'' for each True in second (times norm_constant, if set).

    psi = x^eps (A @ B), with |A| as a second row: it scales psi's rounding, and numpy runs a
    two-row product as a matrix product, which adds a point's terms in order of n (a one-row gemv
    adds them in groups).  With P(t) = sum A_n t^n, M = eps P + 2t P', L = (4 eps + 2) P' + 4t P''
    and s = a + bt, so that -(log W)' = xs, the product rule gives psi'' = x^eps W [L - 2sM + qP]
    with q = ts^2 - s - 2bt, and PW, MW, LW from one (3, N+1) @ B product.  s vanishes at the
    wells of a < 0, where psi''/W in powers of t would cancel.
    """
    blk, row = _block(f)
    c, eps = blk.coeffs[row][::-1], blk.parity  # descending n
    m, l = _factors(len(c), eps)
    pml = np.array([c, m * c, np.append(0.0, l * c[:-1])]) if any(second) else None
    outs = _products(blk, x, [pml if d2 else np.array([c, np.abs(c)]) for d2 in second])
    out = outs[0] if len(outs) == 1 else np.concatenate(outs)
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN says where V2 or psi overflows
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

_QUAD_NODES = (251, 2001)  # trapezoid nodes on the half line: first, and where their sum has not converged


def _box(r: ReducedParams, n_cap: int, eps: int) -> float:
    """L, the half width of the norm's nodes, as norm_and_inner says."""
    rc = closure_reduced(r, QesIndex(n_cap, eps))  # M's rows as build_recurrence_matrix forms them, symmetrised
    off = [2.0 * math.sqrt(rc.b * (n_cap - n) * (2 * n + 1 + eps) * (2 * n + 2 + eps)) for n in range(n_cap)] + [0.0]
    two_e = max(rc.a * (4 * n + 2 * eps + 1) + off[n] + off[n - 1] for n in range(n_cap + 1))  # off[-1] pads
    return psi_half_width(rc.couplings(), 0.5 * two_e)  # Gershgorin's discs hold the top 2E


def _quadrature(half: float, nodes: int) -> tuple[np.ndarray, float]:
    """(xs, h): that many trapezoid nodes on [0, half] and their spacing; xs is read-only."""
    xs = np.linspace(0.0, half, nodes)
    xs.flags.writeable = False
    return xs, half / (nodes - 1)  # the samples' own spacing


class _Norms(NamedTuple):
    """A block's norm data: its quadrature nodes and spacing, its states' rows [psi, |A| @ B]
    on them, stacked (x^eps applied to psi only), and each psi's trapezoid norm^2."""

    xs: np.ndarray
    h: float
    rows: np.ndarray
    norm_sq: np.ndarray


def _norms(blk: QesBlock) -> _Norms:
    """blk's norm data, built at its first call by one pass over its states on 251 nodes over
    its box (_QUAD_NODES).  The block keeps them where every state's sum over every second node
    (spacing 2h, the same samples) is within 1e-14 norm^2 plus its rounding bound (_finite_norm_sq)
    of the sum over all: the error of a sum falls like exp(-c/h), so the finer sum's is about the
    square of that gap.  Elsewhere, also where a sum is not finite, the pass runs again on 2001
    nodes, with the bits of one product and one sum per state: the stacked product runs one
    matrix product per state (a product of all the rows at once sums in another order from
    N = 16 on OpenBLAS), and the sum runs along each row."""
    if blk.norms is None:
        c, eps = np.array(blk.coeffs)[:, ::-1], blk.parity  # descending n
        states, terms = c.shape
        half = _box(blk.reduced, terms - 1, eps)
        sets = np.concatenate([c, np.abs(c)], axis=1).reshape(states, 2, terms)  # per state [A, |A|]
        with np.errstate(over="ignore", invalid="ignore"):  # where W or psi^2 overflows, inf or NaN says so
            for nodes in _QUAD_NODES:
                xs, h = _quadrature(half, nodes)
                rows = _products(blk, xs, [sets])[0]
                psi = rows[:, 0]
                if eps:
                    np.multiply(psi, xs, out=psi)
                y = psi * psi
                norm_sq = _trapezoid(h, y)
                gap = np.abs(norm_sq - _trapezoid(2.0 * h, y[:, ::2])) - 1e-14 * norm_sq  # NaN: a sum is not finite
                if (gap <= 0.0).all() or (
                        gap <= _rounding(h, psi, xs * rows[:, 1] if eps else rows[:, 1], terms)).all():
                    break
        rows.flags.writeable = False
        blk.norms = _Norms(xs, h, rows, norm_sq)
    return blk.norms


def _scaled(f: Eigenfunction, psi: np.ndarray) -> np.ndarray:
    """psi times f's norm_constant, if set."""
    return psi if f.norm_constant is None else f.norm_constant * psi


def _trapezoid(h: float, y: np.ndarray) -> np.ndarray:
    """The trapezoid rule on the nodes [0, L] of spacing h for the even integrand y, doubled,
    along y's last axis."""
    return 2.0 * h * (np.add.reduce(y, axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))


def _rounding(h: float, psi: np.ndarray, abs_psi: np.ndarray, terms: int) -> np.ndarray:
    """The rounding bound on psi's trapezoid norm^2 along the last axis, as _finite_norm_sq
    says, from abs_psi = |x|^eps |A| @ B and the number of terms of A."""
    delta = terms * np.finfo(float).eps * np.abs(abs_psi)
    return 2.0 * h * np.add.reduce(delta * (2.0 * np.abs(psi) + delta), axis=-1)


def norm_and_inner(f: Eigenfunction, g: Eigenfunction) -> float:
    """L2 inner product of f and g over the real line (norm^2 when f is g).

    The integrand is smooth, even and decays like exp(-b x^4/2), so the
    trapezoid rule on equispaced nodes over [0, L] converges exponentially once
    the nodes cover it (Trefethen & Weideman, SIAM Rev. 56, 2014); doubling
    it covers the line.  L is psi_half_width at Gershgorin's bound on the top
    energy of the block: it holds the top state.  The block's first norm forms
    every state's psi on its nodes and its norm^2 (_norms: 251 nodes where
    their sum has converged, else 2001); a norm, or an inner product within
    the block, reads them.  States of two blocks are both evaluated on the
    larger of their boxes, at the finer of their spacings.
    """
    rf, rg = f.reduced, g.reduced
    if abs(rf.a - rg.a) > 1e-12 * max(1.0, abs(rf.a)) or abs(rf.b - rg.b) > 1e-12 * rf.b:
        raise WeightMismatchError(
            f"eigenfunctions have different weights: (a={rf.a}, b={rf.b}) vs (a={rg.a}, b={rg.b})")
    if (f.state.parity + g.state.parity) % 2 == 1:
        return 0.0  # odd integrand
    bf, jf = _block(f)
    bg, jg = (bf, jf) if g is f else _block(g)
    n = _norms(bf)
    if bg is bf and jf == jg and f.norm_constant is None and g.norm_constant is None:
        return float(n.norm_sq[jf])
    with np.errstate(over="ignore", invalid="ignore"):  # where W or psi^2 overflows, inf or NaN says so
        if bg is bf:
            h, psi_f, psi_g = n.h, _scaled(f, n.rows[jf, 0]), _scaled(g, n.rows[jg, 0])
        else:
            ng = _norms(bg)
            half = max(n.xs[-1], ng.xs[-1])
            xs, h = _quadrature(half, math.ceil(half / min(n.h, ng.h)) + 1)
            psi_f, psi_g = _evaluate(f, xs, False)[0], _evaluate(g, xs, False)[0]
        return float(_trapezoid(h, psi_f * psi_g))


def _finite_norm_sq(f: Eigenfunction) -> float:
    """<f, f>, or SolverError where the trapezoid sum is not finite or not certain to one digit.

    It is not finite where psi^2 or W overflows a double at a node; no threshold on a^2/b
    marks that (lambda = -0.921875, eta = 3.7855e-3, N = 11, omega2 solved: m = 0 overflows
    at a^2/b = 1,185).  Row n of the basis carries n roundings of its running product from
    W, and the product sums N+1 terms (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, 3.1), so each term of psi at node i is within gamma_{2N+1} <= (N+1) eps of exact for
    the node's t and W: delta_i = (N+1) eps |x_i|^eps (|A| @ B)_i.  Its bound on norm^2,
    2h sum delta_i (2|psi_i| + delta_i), must stay below norm^2/10.  Both come from the rows
    of the block's norm data (_norms).
    """
    r, st = f.reduced, f.state
    blk, m = _block(f)
    n = _norms(blk)
    psi, abs_psi = n.rows[m]
    with np.errstate(over="ignore", invalid="ignore"):  # a norm or bound that is not finite refuses
        psi, abs_psi = _scaled(f, psi), _scaled(f, n.xs * abs_psi if st.parity else abs_psi)
        n2 = float(n.norm_sq[m] if f.norm_constant is None else _trapezoid(n.h, psi * psi))
        bound = float(_rounding(n.h, psi, abs_psi, len(st.coeffs)))
    if not math.isfinite(n2):
        raise SolverError(
            f"the norm of state m={st.label} is not finite: psi^2 overflows a double "
            f"(a^2/b = {r.a * r.a / r.b:.6g})"
        )
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
