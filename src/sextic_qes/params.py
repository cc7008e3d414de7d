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
outer turning point and the box that holds psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, InvalidCouplingError, NoSolutionError, SolverError


@dataclass(frozen=True)
class CouplingParams:
    """Physical couplings (omega2 may be negative; the x^4/x^6 terms confine)."""

    omega_sq: float
    lam: float
    eta: float

    def __post_init__(self):
        _check_couplings(self.omega_sq, self.lam, self.eta)


def _check_couplings(omega_sq: float | None, lam: float | None, eta: float | None) -> None:
    """Raise InvalidCouplingError unless every given coupling (not None) is finite and eta > 0."""
    if bad := [f"{k}={v}" for k, v in (("omega2", omega_sq), ("lambda", lam), ("eta", eta))
               if v is not None and not math.isfinite(v)]:
        raise InvalidCouplingError(f"couplings must be finite, got {', '.join(bad)}")
    if eta is not None and not eta > 0:
        raise InvalidCouplingError(f"eta must be > 0, got {eta}")


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
    """Map physical couplings to the reduced quantities (a, b, c, gamma).

    InvalidCouplingError where one of them overflows a double."""
    s = math.sqrt(3.0 / p.eta)
    a = 0.25 * p.lam * s
    b = math.sqrt(p.eta / 3.0)
    q = 3.0 * _square(p.lam) / (16.0 * p.eta)
    c = p.omega_sq + math.sqrt(3.0 * p.eta) - q
    gamma = s * (q - p.omega_sq)
    if not (math.isfinite(a) and math.isfinite(c) and math.isfinite(gamma)):
        raise _out_of_range(p, f"a={a:.6g}, c={c:.6g}, gamma={gamma:.6g} overflow a double")
    return ReducedParams(a=a, b=b, c=c, gamma=gamma)


def _square(x: float) -> float:
    """x**2, or inf where that overflows: Python's float ** raises there, where * rounds to inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _out_of_range(p: CouplingParams, why: str) -> InvalidCouplingError:
    return InvalidCouplingError(f"couplings out of range: omega2={p.omega_sq}, lambda={p.lam}, eta={p.eta}: {why}")


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
    rounding = 8.0 * math.ulp(1.0) * (r.a * r.a + abs(r.omega_sq())) / r.b  # inf, silently, where it overflows
    if not abs(r.gamma - g) <= max(1e-8 * max(1.0, g), rounding):  # a NaN gamma refuses too
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

    The closed form solves it in u = t 2^-k, 2^k near its coefficients' scale, so that no power
    of one leaves the doubles.  Its shift -b2/3 cancels where t << |b2|, so Newton's steps polish
    its root (missed at a double root or from a start where V2 overflows); where V2 rises on
    t > 0 and E > 0 they also reach the one root from t = 0.  Where E > 0, or V2 has an outer
    well (dV2/dt = 0 at some u > 0, found in u, where lam^2 cannot underflow), and no root where
    V2 rises is found so far, the steps start again from Hong's bound on the cubic's positive
    roots in u (J. Symb. Comput. 25, 1998), right of the largest, and go only where V2 rises: at
    a double root, the outer well's bottom, rounding puts the closed form's root on either side
    and would step past it."""
    b2, b1, b0 = 1.5 * p.lam / p.eta, 3.0 * p.omega_sq / p.eta, -3.0 * (2.0 * energy) / p.eta
    k = math.frexp(max(abs(b2), math.sqrt(abs(b1)), abs(b0) ** (1.0 / 3.0)))[1]
    cs = (1.0, math.ldexp(b2, -k), math.ldexp(b1, -2 * k), math.ldexp(b0, -3 * k))  # u^3 + ..., each below 1
    try:
        roots = _cubic_real_roots(*cs[1:])
        t = math.ldexp(max(0.0, *roots), k)
    except (OverflowError, ValueError):  # float ** overflows; rounding puts sqrt's argument below 0
        t = math.nan
    t = _root_from(p, energy, t) if t else 0.0  # 0: no root t > 0, or the shift cancelled it
    t = _root_from(p, energy, 0.0) if energy > 0.0 and not t > 0.0 and well_bottom(p) == 0.0 else t
    well = cs[1] * cs[1] > 3.0 * cs[2] and min(cs[1:3]) < 0.0  # dV2/du = 0 at some u > 0
    if not (t > 0.0 and _rise(p, t) > 0.0) and (energy > 0.0 or well):
        hi = max((min(2.0 * (-cs[i] / cs[j]) ** (1.0 / (i - j)) for j in range(i) if cs[j] > 0.0)
                  for i in range(1, 4) if cs[i] < 0.0), default=2.0)
        found = _root_from(p, energy, math.ldexp(hi, k), rising=True)
        t = found if found > 0.0 else t
    if not (t > 0.0 or t == 0.0 and energy <= 0.0):
        raise _out_of_range(p, f"the turning point at E={energy:.6g} is not resolved in double precision")
    return t


def _rise(p: CouplingParams, t: float) -> float:
    """dV2/dt at t = x^2."""
    return p.omega_sq + t * (p.lam + t * p.eta)


def _root_from(p: CouplingParams, energy: float, t: float, rising: bool = False) -> float:
    """t after Newton's steps on V2 - 2E while they shrink, and if rising, while V2 rises where
    they land; nan where they end off a root by 1e-8 of V2's terms."""
    step = math.inf
    for _ in range(60):
        gap = t * (p.omega_sq + t * (0.5 * p.lam + t * p.eta / 3.0)) - 2.0 * energy
        new = gap / slope if (slope := _rise(p, t)) else 0.0
        if not abs(new) < abs(step) or rising and not _rise(p, t - new) > 0.0:
            break
        t, step = t - new, new
    size = t * (abs(p.omega_sq) + t * (0.5 * abs(p.lam) + t * p.eta / 3.0)) + 2.0 * abs(energy)
    return t if t >= 0.0 and abs(gap) <= 1e-8 * size < math.inf else math.nan


def psi_half_width(p: CouplingParams, energy: float) -> float:
    """L beyond which every state at or below this energy has decayed to 1e-16 of its amplitude.

    Past the outer turning point x_t psi decays like exp(-int sqrt(V2 - 2E) dx) (WKB; Bender & Orszag,
    Advanced Mathematical Methods, 1978, ch. 10), to 1e-16 at L = x_t + (3 ln 1e16 / (2 sqrt(V2'(x_t))))^(2/3)
    with V2 on its tangent at x_t.  Past x_t V2'' = 2q + 4t q' > 0 (q = dV2/dt > 0, rising): V2 is above it."""
    t = turning_point(p, energy)
    slope = 2.0 * math.sqrt(t) * _rise(p, t)  # V2'(x_t)
    if not slope > 0.0:
        raise _out_of_range(p, f"the turning point at E={energy:.6g} is not resolved in double precision")
    return math.sqrt(t) + (1.5 * math.log(1e16) / math.sqrt(slope)) ** (2.0 / 3.0)


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
    sorted by the solved value.  InvalidCouplingError where the solve
    overflows a double.
    """
    unknowns = [name for name, v in (("omega_sq", omega_sq), ("lam", lam), ("eta", eta)) if v is None]
    if len(unknowns) != 1:
        raise ValueError(f"exactly one coupling must be unknown, got {unknowns or 'none'}")
    _check_couplings(omega_sq, lam, eta)
    g = constraint_gamma(idx)

    if omega_sq is None:
        # linear: omega2 = 3*lam^2/(16*eta) - gamma*sqrt(eta/3)
        w = 3.0 * _square(lam) / (16.0 * eta) - g * math.sqrt(eta / 3.0)
        if not math.isfinite(w):
            raise InvalidCouplingError(
                f"the omega2 solved from lambda={lam}, eta={eta} is not finite: "
                "3 lambda^2/(16 eta) overflows a double"
            )
        return [CouplingParams(w, lam, eta)]

    if lam is None:
        rhs = 16.0 * eta * (g * math.sqrt(eta / 3.0) + omega_sq) / 3.0
        if rhs == math.inf:
            raise InvalidCouplingError(f"the lambda solved from omega2={omega_sq}, eta={eta} is not finite")
        if rhs < 0:
            raise NoSolutionError(f"no real lam satisfies the constraint (lam^2 = {rhs:.6g} < 0)")
        root = math.sqrt(rhs)
        return [CouplingParams(omega_sq, l, eta) for l in sorted({root, -root})]

    return _solve_eta(omega_sq, lam, g)


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
            if not math.isfinite(step):  # F' > 0 on the way, so c (ru)^2 u has overflowed
                raise InvalidCouplingError(
                    f"couplings out of range: solving for eta at omega2={omega_sq}, lambda={lam} "
                    "overflows a double"
                )
            if not step > 0.0 or u - step == u:
                break
            u -= step
    eta = 1.0 / (u * u) if u * u > 0.0 else math.inf
    if not 0.0 < eta < math.inf:
        raise NoSolutionError(f"no eta > 0 satisfies the constraint for omega2={omega_sq}, lam={lam}, gamma={g}")
    return [CouplingParams(omega_sq, lam, eta)]
