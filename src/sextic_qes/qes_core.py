"""Recurrence system for the polynomial factor and its exact/numeric solution.

Writing psi(x) = x^eps * sum_n A_n x^{2n} * exp(-a x^2/2 - b x^4/4), the
coefficients obey a three-term recurrence that closes at degree N when
c = -2b(2N + eps).  The recurrence is equivalent to a tridiagonal eigenproblem
M A = 2E A whose off-diagonal product is positive, so all eigenvalues are real.
Closed forms exist for N <= 3 (quadratic, cubic, quartic in A_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonEigenvalueError, SolverError
from .params import QesIndex, ReducedParams, _cubic_real_roots, solve_cubic_trig

_EIG_RTOL = 1e-10
_ROW_RTOL = 1e-8


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


def _forward_recurrence(energies: np.ndarray, rc: ReducedParams, idx: QesIndex) -> np.ndarray:
    """Row k holds A_0..A_N for energies[k], validated on the closure row.

    The recurrence runs once for all energies, one column (degree) per step.
    Raises NonEigenvalueError, naming the first failing energy, when the
    closure row does not vanish, i.e. that energy is not an eigenvalue of the
    recurrence system.
    """
    n_cap, eps = idx.n_cap, idx.parity
    a, b, c = rc.a, rc.b, rc.c
    two_e = 2.0 * energies

    coeffs = np.empty((len(energies), n_cap + 1))
    coeffs[:, 0] = 1.0
    if n_cap == 0:
        res = two_e - a * (1 + 2 * eps)
        bad = np.flatnonzero(np.abs(res) > _ROW_RTOL * max(1.0, abs(a)))
        if bad.size:
            k = bad[0]
            raise NonEigenvalueError(f"E={float(energies[k])} is not an eigenvalue (residual {res[k]:.3e})")
        return coeffs

    coeffs[:, 1] = (a * (1 + 2 * eps) - two_e) / ((1 + eps) * (2 + eps))
    for n in range(1, n_cap):
        coeffs[:, n + 1] = (
            (c + 2 * b * (2 * n - 2 + eps)) * coeffs[:, n - 1]
            - (two_e - a - 2 * a * (2 * n + eps)) * coeffs[:, n]
        ) / ((2 * n + 1 + eps) * (2 * n + 2 + eps))

    # closure row n = N, with A_{N+1} = 0
    diag = two_e - a - 2 * a * (2 * n_cap + eps)
    off = c + 2 * b * (2 * n_cap - 2 + eps)
    res = diag * coeffs[:, n_cap] - off * coeffs[:, n_cap - 1]
    # fmax, like max(1.0, v), ignores a NaN v
    scale = np.fmax(1.0, np.max(np.abs(coeffs), axis=1)) * np.fmax(1.0, np.abs(diag) + abs(off))
    bad = np.flatnonzero(np.abs(res) > _ROW_RTOL * scale)
    if bad.size:
        k = bad[0]
        raise NonEigenvalueError(
            f"E={float(energies[k])} is not an eigenvalue (closure residual {res[k]:.3e})"
        )
    return coeffs


def coefficients_from_energy(
    energy: float, r: ReducedParams, idx: QesIndex
) -> np.ndarray:
    """Coefficients A_0..A_N by forward recurrence, validated on the last row.

    Raises NonEigenvalueError when the closure row does not vanish, i.e. the
    supplied energy is not an eigenvalue of the recurrence system.
    """
    return _forward_recurrence(np.array([energy]), closure_reduced(r, idx), idx)[0]


def _make_spectrum(energies: np.ndarray, r: ReducedParams, idx: QesIndex) -> QesSpectrum:
    rc = closure_reduced(r, idx)
    energies = np.sort(energies)
    coeffs = _forward_recurrence(energies, rc, idx)
    states = [
        QesState(
            energy=float(e),
            coeffs=coeffs[m],
            parity=idx.parity,
            expected_nodes=2 * m + idx.parity,
            label=m,
        )
        for m, e in enumerate(energies)
    ]
    return QesSpectrum(index=idx, reduced=rc, states=states)


def spectrum_general(r: ReducedParams, idx: QesIndex) -> QesSpectrum:
    """All N+1 eigenpairs for any N via the symmetrized tridiagonal eigensolve."""
    m = build_recurrence_matrix(r, idx)
    return _make_spectrum(eigenvalues(m) / 2.0, r, idx)


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
    """Exact spectrum for N <= 3; same content as spectrum_general.

    Coefficients come from the rational back-substitution formulas; if one of
    their denominators is near-singular the forward recurrence is used for
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
        states.append(
            QesState(
                energy=e,
                coeffs=coeffs,
                parity=idx.parity,
                expected_nodes=2 * m + idx.parity,
                label=m,
            )
        )
    return QesSpectrum(index=idx, reduced=rc, states=states)


def spectrum(r: ReducedParams, idx: QesIndex, force_general: bool = False) -> QesSpectrum:
    """Closed form when available (N <= 3), general eigensolve otherwise."""
    if force_general or idx.n_cap > 3:
        return spectrum_general(r, idx)
    try:
        return spectrum_closed_form(r, idx)
    except SolverError:
        return spectrum_general(r, idx)
