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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class QesState:
    """One exact eigenpair: energy, coefficients A_0..A_N (A_0 = 1), parity."""

    energy: float
    coeffs: np.ndarray
    parity: int
    expected_nodes: int
    label: int


@dataclass(frozen=True)
class QesSpectrum:
    """All N+1 exact eigenpairs for a given (N, eps), energies ascending."""

    index: QesIndex
    reduced: ReducedParams
    states: list[QesState]


def _state(energy: float, coeffs: np.ndarray, idx: QesIndex, label: int) -> QesState:
    return QesState(energy, coeffs, idx.parity, expected_nodes=2 * label + idx.parity, label=label)


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
    """Assemble M; the closure value of c is imposed regardless of r.c."""
    n_cap, eps = idx.n_cap, idx.parity
    a, b = r.a, r.b
    n = np.arange(n_cap + 1)
    diag = a * (4 * n + 2 * eps + 1)
    sup = -((2 * n[:-1] + 1 + eps) * (2 * n[:-1] + 2 + eps)).astype(float)
    sub = -4.0 * b * (n_cap - n[1:] + 1)
    return RecurrenceMatrix(dim=n_cap + 1, diag=diag, superdiag=sup, subdiag=sub)


def eigenvalues(m: RecurrenceMatrix) -> np.ndarray:
    """Real eigenvalues of M (ascending), via the symmetrized tridiagonal form.

    The off-diagonal product superdiag[n]*subdiag[n] is positive for b > 0, so
    M is diagonally similar to a symmetric tridiagonal matrix and the spectrum
    is exactly real.
    """
    if m.dim == 1:
        return m.diag.copy()
    t = np.diag(m.diag)
    i = np.arange(m.dim - 1)
    t[i + 1, i] = -np.sqrt(m.superdiag * m.subdiag)  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(t)


def _twisted_ratios(m: RecurrenceMatrix, theta: np.ndarray, norm: float):
    """Ratios A_{n+1}/A_n of the null vector of M - theta, each from its stable end.

    Column j belongs to theta[j].  With d, u, l the diagonal, super- and subdiagonal
    of M, q+_n = u_{n-1} l_{n-1} / D+_{n-1} and q-_n = u_n l_n / D-_{n+1} give the
    top-down and bottom-up pivots D+-_n = d_n - theta - q+-_n (one loop: bottom-up
    is top-down on the reversed matrix).  The twist k minimises |gamma_k| = |D+_k +
    D-_k - (d_k - theta)|; the ratio is -D+_n/u_n below k and -l_n/D-_{n+1} from k
    on (Fernando, SIAM J. Matrix Anal. Appl. 18, 1997).  A pivot that rounds to 0
    moves its theta by eps ||T||, within theta's rounding.  Returns (ratios (N, K),
    k (K,), gamma_k (K,)).
    """
    u, l, cols = m.superdiag[:, None], m.subdiag[:, None], np.arange(len(theta))
    dt = m.diag[:, None] - theta
    dts = np.array([dt, dt[::-1]]).swapaxes(0, 1)  # (N+1, 2, K): top-down, then bottom-up
    prods = np.array([u * l, (u * l)[::-1]]).swapaxes(0, 1)
    q = np.zeros((m.dim, 2, len(theta)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for p_row, d_row, q_row, q_next in zip(prods, dts, q, q[1:]):
            np.divide(p_row, d_row - q_row, out=q_next)
        down, up = dt - q[:, 0], dt - q[::-1, 1]  # D+ and D-
        gamma = down + up - dt
    if not np.isfinite(gamma).all():
        stuck = ~np.isfinite(gamma).all(axis=0)
        return _twisted_ratios(m, theta + stuck * (np.finfo(float).eps * norm), norm)
    k = np.abs(gamma).argmin(axis=0)
    ratios = np.where(np.arange(m.dim - 1)[:, None] < k, down[:-1] / u, l / up[1:])
    return -ratios, k, gamma[k, cols]


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
    norm = float(np.max(np.abs(m.diag)) + 2.0 * np.sqrt(np.max(m.superdiag * m.subdiag, initial=0.0)))
    ratios, k, gamma = _twisted_ratios(m, theta, norm)
    bad = np.flatnonzero(np.abs(gamma) > _PIVOT_RTOL * max(1.0, norm))
    if bad.size:
        j = bad[0]
        raise NonEigenvalueError(f"E={theta[j] / 2.0} is not an eigenvalue (twist pivot {gamma[j]:.3e})")
    if refine:
        log_z = np.zeros((m.dim, len(theta)))  # z_{n+1}/z_n = (A_{n+1}/A_n) sqrt(u_n/l_n)
        np.cumsum(np.log(np.abs(ratios) * np.sqrt(m.superdiag / m.subdiag)[:, None]), axis=0, out=log_z[1:])
        shifted = theta + gamma / np.exp(2.0 * (log_z - log_z[k, np.arange(len(theta))])).sum(axis=0)
        moved = shifted != theta
        if moved.any():
            ratios[:, moved] = _twisted_ratios(m, shifted[moved], norm)[0]
    coeffs = np.ones((len(theta), m.dim))
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

    def quartic(x: float) -> float:
        return ((x * x + p) * x + q) * x + r

    def dquartic(x: float) -> float:
        return (4.0 * x * x + 2.0 * p) * x + q

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
        d = dquartic(x)
        if d != 0.0:
            roots[i] = x - quartic(x) / d
    return np.sort(roots)


def _closed_form_a1(r: ReducedParams, idx: QesIndex) -> np.ndarray:
    """All A_1 values for N <= 3 from the paper-grade closed forms."""
    a, b = r.a, r.b
    n_cap, eps = idx.n_cap, idx.parity

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
            w = solve_quartic_real(p, q, rr) - 3.0 * a  # A_1 = chi - 3a
            return w
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
    a, b = r.a, r.b
    n_cap, eps = idx.n_cap, idx.parity
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
    pairs = sorted(
        ((float(energy_from_a1(a1, rc.a, idx.parity)), float(a1)) for a1 in a1_values),
        key=lambda t: t[0],
    )
    states = []
    for m, (e, a1) in enumerate(pairs):
        try:
            coeffs = _rational_coeffs(a1, rc, idx)
        except SolverError:
            coeffs = coefficients_from_energy(e, rc, idx)
        states.append(_state(e, coeffs, idx, m))
    return QesSpectrum(index=idx, reduced=rc, states=states)


def spectrum(r: ReducedParams, idx: QesIndex) -> QesSpectrum:
    """All N+1 eigenpairs: E = theta/2 from eigvalsh of the symmetrised M, and A
    from the twisted recurrence at theta, steered by one Rayleigh step."""
    rc = closure_reduced(r, idx)
    m = build_recurrence_matrix(rc, idx)
    theta = eigenvalues(m)
    coeffs = _coefficients(m, theta, refine=True)
    states = [_state(float(t / 2.0), c, idx, j) for j, (t, c) in enumerate(zip(theta, coeffs))]
    return QesSpectrum(index=idx, reduced=rc, states=states)
