"""Recurrence system for the polynomial factor and its exact/numeric solution.

Writing psi(x) = x^eps * sum_n A_n x^{2n} * exp(-a x^2/2 - b x^4/4), the
coefficients obey a three-term recurrence that closes at degree N when
c = -2b(2N + eps).  The recurrence is equivalent to a tridiagonal eigenproblem
M A = 2E A whose off-diagonal product is positive, so all eigenvalues are real.
Every N takes one path: eigvalsh for the energies, a twisted factorization for
A.  The paper's closed forms for N <= 3 (quadratic, cubic, quartic in A_1) stay
as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonEigenvalueError, SolverError
from .params import QesIndex, ReducedParams, _cubic_real_roots, solve_cubic_trig

_PIVOT_RTOL = 1e-8  # |gamma_k| of an eigenvalue, relative to max(1, ||T||)


@dataclass(frozen=True)
class RecurrenceMatrix:
    """Tridiagonal matrix M with M A = 2E A for the coefficient vector A."""

    dim: int
    diag: np.ndarray       # entry n: a(4n + 2*eps + 1)
    superdiag: np.ndarray  # entry n: -(2n+1+eps)(2n+2+eps), couples n -> n+1
    subdiag: np.ndarray    # entry n-1: -4b(N-n+1), couples n -> n-1

    def trace(self) -> float:
        return float(np.sum(self.diag))

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        i = np.arange(self.dim - 1)
        m[i, i + 1] = self.superdiag
        m[i + 1, i] = self.subdiag
        return m


@dataclass(eq=False)
class QesBlock:
    """What the states of one (N, eps) block share: the weight (a, b) of reduced, eps, and
    the coefficient rows, state m's A_0..A_N in coeffs[m].  wavefunction keeps the data it
    evaluates them with here, built at first use, so that it lives as long as the block."""

    reduced: ReducedParams
    parity: int
    coeffs: tuple[np.ndarray, ...]
    norms: object = field(default=None, repr=False)  # the nodes, psi rows and norms, at the first norm
    grid: list | None = field(default=None, repr=False)  # the basis of the last grid evaluated on


@dataclass(frozen=True)
class QesState:
    """One exact eigenpair: energy, coefficients A_0..A_N (A_0 = 1), parity.  A state of
    spectrum refers to its block; one built by hand has none."""

    energy: float
    coeffs: np.ndarray
    parity: int
    expected_nodes: int
    label: int
    block: QesBlock | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class QesSpectrum:
    """All N+1 exact eigenpairs for a given (N, eps), energies ascending."""

    index: QesIndex
    reduced: ReducedParams
    states: list[QesState]


def _spectrum(rc: ReducedParams, idx: QesIndex, energies: list[float], coeffs) -> QesSpectrum:
    """The block of states m with energies[m] and coeffs[m], ascending."""
    block = QesBlock(rc, idx.parity, tuple(coeffs))
    states = [QesState(e, c, idx.parity, expected_nodes=2 * m + idx.parity, label=m, block=block)
              for m, (e, c) in enumerate(zip(energies, block.coeffs))]
    return QesSpectrum(index=idx, reduced=rc, states=states)


def closure_reduced(r: ReducedParams, idx: QesIndex) -> ReducedParams:
    """Reduced parameters with c and gamma forced onto the closure constraint."""
    n, eps = idx.n_cap, idx.parity
    return ReducedParams(
        a=r.a, b=r.b, c=-2.0 * r.b * (2 * n + eps), gamma=float(4 * n + 3 + 2 * eps)
    )


def energy_from_a1(a1: float, a: float, eps: int) -> float:
    """E = a(1+2*eps)/2 - (1+eps)(2+eps) A_1 / 2 (constant-term condition)."""
    return 0.5 * a * (1 + 2 * eps) - 0.5 * (1 + eps) * (2 + eps) * a1


def build_recurrence_matrix(r: ReducedParams, idx: QesIndex) -> RecurrenceMatrix:
    """Assemble M; the closure value of c is imposed regardless of r.c.

    The integer factors are formed in floats, exactly, as they stay far below 2^53.
    """
    n_cap, eps = idx.n_cap, idx.parity
    k = np.arange(1.0 + eps, 2.0 * n_cap + eps, 2.0)  # 2n + 1 + eps
    diag = r.a * np.arange(1.0 + 2 * eps, 4.0 * n_cap + 2 * eps + 2, 4.0)
    sup = -(k * (k + 1.0))
    sub = (-4.0 * r.b) * np.arange(float(n_cap), 0.0, -1.0)
    return RecurrenceMatrix(dim=n_cap + 1, diag=diag, superdiag=sup, subdiag=sub)


def eigenvalues(m: RecurrenceMatrix) -> np.ndarray:
    """Real eigenvalues of M (ascending), via the symmetrized tridiagonal form.

    The off-diagonal product superdiag[n]*subdiag[n] is positive for b > 0, so
    M is diagonally similar to a symmetric tridiagonal matrix and the spectrum
    is exactly real.
    """
    if m.dim == 1:
        return m.diag.copy()
    t = np.zeros((m.dim, m.dim))
    flat = t.ravel()  # eigvalsh reads the diagonal and the lower triangle
    flat[:: m.dim + 1], flat[m.dim :: m.dim + 1] = m.diag, -np.sqrt(m.superdiag * m.subdiag)
    return np.linalg.eigvalsh(t)


class _Twist(NamedTuple):
    """What every twisted pass over one M shares.  The bottom-up pass is the
    top-down one on the reversed matrix, so each array holds both orders."""

    diag: np.ndarray   # (N+1, 2, 1): d_n, then d_{N-n}
    prods: np.ndarray  # (N, 2): u_n l_n, then u_{N-1-n} l_{N-1-n}
    upper: np.ndarray  # (N, 1): u_n
    lower: np.ndarray  # (N, 1): l_n
    rows: np.ndarray   # (N, 1): n


def _twist(m: RecurrenceMatrix) -> _Twist:
    diag, prods = np.empty((m.dim, 2, 1)), np.empty((m.dim - 1, 2))
    diag[:, 0, 0], diag[:, 1, 0] = m.diag, m.diag[::-1]
    np.multiply(m.superdiag, m.subdiag, out=prods[:, 0])
    prods[:, 1] = prods[::-1, 0]
    return _Twist(diag, prods, m.superdiag[:, None], m.subdiag[:, None], np.arange(m.dim - 1)[:, None])


def _twisted_ratios(tw: _Twist, theta: np.ndarray, norm: float):
    """Ratios A_{n+1}/A_n of the null vector of M - theta, each from its stable end.

    Column j belongs to theta[j].  With d, u, l the diagonal, super- and subdiagonal
    of M, q+_n = u_{n-1} l_{n-1} / D+_{n-1} and q-_n = u_n l_n / D-_{n+1} give the
    top-down and bottom-up pivots D+-_n = d_n - theta - q+-_n (one loop over rows:
    the first K columns run top-down, the last K bottom-up on the reversed matrix).
    The twist k minimises |gamma_k| = |D+_k + D-_k - (d_k - theta)|; the ratio is
    -D+_n/u_n below k and -l_n/D-_{n+1} from k on (Fernando, SIAM J. Matrix Anal.
    Appl. 18, 1997).  A pivot that rounds to 0 moves its theta by eps ||T||, within
    theta's rounding.  Returns (ratios (N, K), k (K,), gamma_k (K,)).
    """
    dim, cols = len(tw.diag), len(theta)
    dts = (tw.diag - theta).reshape(dim, 2 * cols)  # d - theta, then reversed
    pivots = dts.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for p_row, piv, piv_next in zip(np.repeat(tw.prods, cols, axis=1), pivots, pivots[1:]):
            piv_next -= p_row / piv
        dt, down, up = dts[:, :cols], pivots[:, :cols], pivots[::-1, cols:]  # D+ and D-
        gamma = down + up - dt
    if not np.isfinite(gamma).all():
        stuck = ~np.isfinite(gamma).all(axis=0)
        return _twisted_ratios(tw, theta + stuck * (np.finfo(float).eps * norm), norm)
    k = np.abs(gamma).argmin(axis=0)
    ratios = np.where(tw.rows < k, down[:-1] / tw.upper, tw.lower / up[1:])
    return -ratios, k, gamma[k, np.arange(cols)]


def _coefficients(m: RecurrenceMatrix, theta: np.ndarray, refine: bool) -> np.ndarray:
    """Row j holds A_0..A_N (A_0 = 1) of the eigenvalue theta[j] of M.

    Raises NonEigenvalueError, naming the first failing theta, when
    |gamma_k| > 1e-8 max(1, ||T||), T the symmetrised M: 1/|gamma_k| =
    |[(T - theta)^-1]_kk| <= 1/dist(theta, spectrum), so a small gamma_k puts
    theta that close to an eigenvalue.  ||T|| is bounded by max|d| + 2 max sqrt(u l).
    With refine, one Rayleigh step theta + gamma_k/||z||^2, z = D^-1 A scaled to
    z_k = 1 and summed in logs, steers the vector: the ratios are formed again
    where it moved theta.
    """
    tw = _twist(m)
    norm = float(np.abs(m.diag).max()) + 2.0 * math.sqrt(tw.prods[:, 0].max(initial=0.0))
    ratios, k, gamma = _twisted_ratios(tw, theta, norm)
    (bad,) = (np.abs(gamma) > _PIVOT_RTOL * max(1.0, norm)).nonzero()
    if bad.size:
        j = bad[0]
        raise NonEigenvalueError(f"E={theta[j] / 2.0} is not an eigenvalue (twist pivot {gamma[j]:.3e})")
    if refine:
        log_z = np.zeros((m.dim, len(theta)))  # z_{n+1}/z_n = (A_{n+1}/A_n) sqrt(u_n/l_n)
        np.cumsum(np.log(np.abs(ratios) * np.sqrt(m.superdiag / m.subdiag)[:, None]), axis=0, out=log_z[1:])
        shifted = theta + gamma / np.exp(2.0 * (log_z - log_z[k, np.arange(len(theta))])).sum(axis=0)
        moved = shifted != theta
        if moved.any():
            ratios[:, moved] = _twisted_ratios(tw, shifted[moved], norm)[0]
    coeffs = np.ones((len(theta), m.dim))
    with np.errstate(over="ignore", invalid="ignore"):  # an A_n that overflows a double is not finite
        np.cumprod(ratios.T, axis=1, out=coeffs[:, 1:])
    return coeffs


def coefficients_from_energy(energy: float, r: ReducedParams, idx: QesIndex) -> np.ndarray:
    """Coefficients A_0..A_N of the eigenvalue 2E of M, by the twisted recurrence.

    Raises NonEigenvalueError when 2E is not within 1e-8 max(1, ||T||) of an
    eigenvalue of the recurrence system.
    """
    return _coefficients(build_recurrence_matrix(r, idx), np.array([2.0 * energy]), refine=False)[0]


def solve_quartic_real(p: float, q: float, r: float) -> np.ndarray:
    """Four real roots of chi^4 + p*chi^2 + q*chi + r = 0, ascending.

    Ferrari resolvent-cubic factorization into two quadratics, followed by one
    Newton polish per root.  Raises SolverError if the roots are not all real
    (which signals an input outside the admissible regime, not a solver bug).
    """
    if abs(q) < 1e-14 * max(1.0, abs(p)) ** 1.5:
        # biquadratic: s^2 + p s + r = 0 in s = chi^2
        d = p * p - 4.0 * r
        if d < 0:
            raise SolverError("complex roots: biquadratic discriminant < 0")
        s1 = 0.5 * (-p + math.sqrt(d))
        s2 = 0.5 * (-p - math.sqrt(d))
        if s1 < 0 or s2 < 0:
            if min(s1, s2) < -1e-12 * max(1.0, abs(p)):
                raise SolverError("complex roots: negative chi^2 in biquadratic")
            s1, s2 = max(s1, 0.0), max(s2, 0.0)
        roots = np.array([math.sqrt(s1), -math.sqrt(s1), math.sqrt(s2), -math.sqrt(s2)])
    else:
        res_roots = _cubic_real_roots(p, p * p / 4.0 - r, -q * q / 8.0)
        m = max(res_roots)
        if m <= 0:
            raise SolverError("complex roots: resolvent cubic has no positive root")
        k = math.sqrt(2.0 * m)
        c1 = 0.5 * p + m + q / (2.0 * k)
        c2 = 0.5 * p + m - q / (2.0 * k)
        roots = []
        for sgn, c in ((1.0, c1), (-1.0, c2)):
            d = k * k - 4.0 * c
            if d < 0:
                if d < -1e-10 * max(1.0, k * k):
                    raise SolverError("complex roots: quadratic factor discriminant < 0")
                d = 0.0
            sd = math.sqrt(d)
            roots.append(0.5 * (sgn * k + sd))
            roots.append(0.5 * (sgn * k - sd))
        roots = np.array(roots)

    for i, x in enumerate(roots):
        d = (4.0 * x * x + 2.0 * p) * x + q
        if d != 0.0:
            roots[i] = x - (((x * x + p) * x + q) * x + r) / d
    return np.sort(roots)


def _closed_form_a1(r: ReducedParams, idx: QesIndex) -> np.ndarray:
    """All A_1 values for N <= 3 from the paper-grade closed forms."""
    a, b, n_cap, eps = r.a, r.b, idx.n_cap, idx.parity

    if n_cap == 0:
        return np.array([0.0])

    if n_cap == 1:
        if eps == 0:
            s = math.sqrt(a * a + 2.0 * b)
            return np.array([-a + s, -a - s])
        s = math.sqrt(a * a + 6.0 * b)
        return np.array([(-a + s) / 3.0, (-a - s) / 3.0])

    if n_cap == 2:
        # reduced cubic in chi with A_1 = chi - 2a (even) or 3 A_1 = chi - 2a (odd)
        p = -4.0 * (a * a + (4.0 if eps == 0 else 8.0) * b)
        q = 16.0 * a * b
        chi = solve_cubic_trig(p, q)
        return (chi - 2.0 * a) / (1.0 if eps == 0 else 3.0)

    if n_cap == 3:
        if eps == 0:
            p = -10.0 * (a * a + 6.0 * b)
            q = 96.0 * a * b
            rr = 9.0 * (a**4 + 12.0 * a * a * b + 20.0 * b * b)
            return solve_quartic_real(p, q, rr) - 3.0 * a  # A_1 = chi - 3a
        # odd: monic quartic in w = 3 A_1; depress by w = chi - 3a
        c2 = 44.0 * a * a - 100.0 * b
        c1 = 24.0 * a * (2.0 * a * a - 21.0 * b)
        c0 = -108.0 * b * (4.0 * a * a - 7.0 * b)
        # depress w^4 + 12a w^3 + c2 w^2 + c1 w + c0 with w = chi - 3a
        s = 3.0 * a
        p = c2 - 6.0 * s * s
        q = c1 - 2.0 * c2 * s + 8.0 * s**3
        rr = c0 - c1 * s + c2 * s * s - 3.0 * s**4
        chi = solve_quartic_real(p, q, rr)
        return (chi - 3.0 * a) / 3.0

    raise SolverError(f"closed forms exist only for N <= 3, got N={n_cap}")


def _rational_coeffs(a1: float, r: ReducedParams, idx: QesIndex) -> np.ndarray:
    """A_0..A_N via the rational back-substitution formulas (N <= 3)."""
    a, b, n_cap, eps = r.a, r.b, idx.n_cap, idx.parity
    coeffs = np.empty(n_cap + 1)
    coeffs[0] = 1.0
    if n_cap >= 1:
        coeffs[1] = a1
    w = a1 if eps == 0 else 3.0 * a1
    if n_cap == 2:
        den = w + 4.0 * a
        if abs(den) < 1e-12 * max(1.0, abs(w), abs(a)):
            raise SolverError("near-singular denominator in A_2 back-substitution")
        coeffs[2] = 2.0 * b * a1 / den
    elif n_cap == 3:
        den2 = (w + 4.0 * a) * (w + 6.0 * a) - (30.0 if eps == 0 else 42.0) * b
        den3 = w + 6.0 * a
        if abs(den2) < 1e-12 or abs(den3) < 1e-12:
            raise SolverError("near-singular denominator in A_2/A_3 back-substitution")
        coeffs[2] = 4.0 * b * a1 * (w + 6.0 * a) / den2
        coeffs[3] = 2.0 * b * coeffs[2] / den3
    return coeffs


def spectrum_closed_form(r: ReducedParams, idx: QesIndex) -> QesSpectrum:
    """Exact spectrum for N <= 3 from the paper's closed forms; a cross-check of spectrum.

    Coefficients come from the rational back-substitution formulas; if one of
    their denominators is near-singular the twisted recurrence is used for
    that state instead.
    """
    if idx.n_cap > 3:
        raise SolverError(f"closed forms exist only for N <= 3, got N={idx.n_cap}")
    rc = closure_reduced(r, idx)
    a1_values = _closed_form_a1(rc, idx)
    pairs = sorted(((float(energy_from_a1(a1, rc.a, idx.parity)), float(a1)) for a1 in a1_values),
                   key=lambda t: t[0])
    coeffs = []
    for e, a1 in pairs:
        try:
            coeffs.append(_rational_coeffs(a1, rc, idx))
        except SolverError:
            coeffs.append(coefficients_from_energy(e, rc, idx))
    return _spectrum(rc, idx, [e for e, _ in pairs], coeffs)


def spectrum(r: ReducedParams, idx: QesIndex) -> QesSpectrum:
    """All N+1 eigenpairs: E = theta/2 from eigvalsh of the symmetrised M, and A
    from the twisted recurrence at theta, steered by one Rayleigh step."""
    rc = closure_reduced(r, idx)
    m = build_recurrence_matrix(rc, idx)
    theta = eigenvalues(m)
    return _spectrum(rc, idx, (theta / 2.0).tolist(), _coefficients(m, theta, refine=True))
