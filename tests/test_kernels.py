"""The evaluation kernel, psi'' and the coefficients against references.

psi and psi'' are held to the kernel's rounding bound against 50-digit mpmath
on the same float A_n, and a Hypothesis property holds psi to it against a
frozen copy of the former Horner evaluation.  Frozen copies of the former
numpy.polynomial-based functions pin the recurrence matrix, NaN-aware, at large
N, both parities and both signs of a; node counts equal the former Sturm
counts.  A frozen copy of the per-state norm, from before a block shared its
quadrature, pins its bits; node counts equal those of the former sampled count
wherever that returned, and the node law where it raised; frozen copies of
spectrum and coefficients_from_energy, from before a matrix's twisted passes
shared their arrays, pin the energies and coefficients.  The coefficients are
held to an mpmath reference eigenvector of the same float matrix, and turning
points to mpmath roots of the same float cubic.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sextic_qes import (
    CouplingParams,
    Eigenfunction,
    QesIndex,
    ReducedParams,
    RecurrenceMatrix,
    coefficients_from_energy,
    default_grid,
    reduce,
    solve_constraint,
    spectrum,
)
from sextic_qes.errors import NonEigenvalueError, QesError, SolverError
from sextic_qes.params import (
    potential_v2,
    solve_cubic_trig,
    support_half_width,
    turning_point,
    well_bottom,
)
from sextic_qes.qes_core import build_recurrence_matrix, closure_reduced
from sextic_qes.wavefunction import (
    count_nodes,
    eval_psi,
    norm_and_inner,
    ode_residual,
    psi_second_derivative,
)

from conftest import mp_coefficients, rounding_bound

def same(x, y) -> bool:
    return type(x) is type(y) and np.array_equal(x, y, equal_nan=True)


def identical(x, y) -> bool:
    """Same type and values, NaN in the same places and zeros of the same sign."""
    nan_x, nan_y = np.isnan(x), np.isnan(y)
    return (
        same(x, y)
        and np.array_equal(nan_x, nan_y)
        and np.array_equal(np.signbit(x)[~nan_x], np.signbit(y)[~nan_y])
    )


# ---------------------------------------------------------------------------
# frozen copies of the former functions


def _former_cutoff(r):
    """Half-width where the weight fell to exp(-40), floored at 6: the former quadrature box."""
    return max(6.0, math.sqrt((-0.5 * r.a + math.sqrt(0.25 * r.a**2 + 40.0 * r.b)) / (0.5 * r.b)))


def _former_eval_psi(f, x):
    x = np.asarray(x, dtype=float)
    t = x * x
    poly = npoly.polyval(t, f.state.coeffs)
    pref = x if f.state.parity else 1.0
    x2 = x * x
    return pref * poly * np.exp(-0.5 * f.reduced.a * x2 - 0.25 * f.reduced.b * x2 * x2)


def _former_sturm_chain(coeffs):
    p0 = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    chain = [p0, npoly.polyder(p0)]
    while len(chain[-1]) > 1:
        _, rem = npoly.polydiv(chain[-2], chain[-1])
        rem = np.trim_zeros(rem, "b")
        scale = float(np.max(np.abs(chain[-2])))
        if rem.size == 0 or np.max(np.abs(rem)) < 1e-13 * max(1.0, scale):
            break
        chain.append(-rem)
    return chain


def _former_variations_at(chain, t):
    signs = [math.copysign(1.0, v) for v in (npoly.polyval(t, p) for p in chain) if v != 0.0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _former_variations_at_inf(chain):
    signs = [math.copysign(1.0, p[-1]) for p in chain if p.size]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _former_count_positive_roots(coeffs):
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(coeffs) <= 1:
        return 0
    chain = _former_sturm_chain(coeffs)
    return _former_variations_at(chain, 0.0) - _former_variations_at_inf(chain)


def _former_positive_roots(coeffs):
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if _former_count_positive_roots(coeffs) == 0:
        return []
    chain = _former_sturm_chain(coeffs)
    bound = 1.0 + float(np.max(np.abs(coeffs[:-1]))) / abs(coeffs[-1])
    roots = []
    stack = [(0.0, bound)]
    while stack:
        lo, hi = stack.pop()
        n = _former_variations_at(chain, lo) - _former_variations_at(chain, hi)
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


def _former_count_nodes(f):
    return 2 * len(_former_positive_roots(f.state.coeffs)) + f.state.parity


def _former_dense(r, idx):
    n_cap, eps, a, b = idx.n_cap, idx.parity, r.a, r.b
    m = np.diag([a * (4 * n + 2 * eps + 1) for n in range(n_cap + 1)])
    for n in range(n_cap):
        m[n, n + 1] = -float((2 * n + 1 + eps) * (2 * n + 2 + eps))
        m[n + 1, n] = -4.0 * b * (n_cap - (n + 1) + 1)
    return m


# ---------------------------------------------------------------------------
# the package against the frozen copies

WEIGHTS = [(1.25, 0.1), (-1.5, 0.35)]  # a > 0 and a < 0


def blocks(ns):
    for n in ns:
        for eps in (0, 1):
            for a, b in WEIGHTS:
                idx = QesIndex(n, eps)
                yield idx, spectrum(ReducedParams(a=a, b=b, c=0.0, gamma=0.0), idx)


def sampled(states):
    """About five states per block, the top one included: the former code is slow at large N."""
    return states[:: max(1, len(states) // 5)] + states[-1:]


def _mp_psi(f, xs):
    """(psi, psi'') at xs in 50-digit mpmath, from f's own floats, and their magnitude
    sums |x|^eps W sum |A_n| t^n and |x|^eps W sum |q|_k t^k, where psi''/W =
    x^eps sum_k q_k t^k and |q|_k sums the magnitudes of q_k's terms."""
    a, b, eps = f.reduced.a, f.reduced.b, f.state.parity
    with mpmath.workdps(50):
        c = [mpmath.mpf(0)] * 3 + [mpmath.mpf(float(v)) for v in f.state.coeffs] + [mpmath.mpf(0)] * 4
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        q, q_abs = [], []
        for k in range(len(f.state.coeffs) + 3):
            terms = [
                (2 * k + 1 + eps) * (2 * k + 2 + eps) * c[k + 4],
                -a * (4 * k + 2 * eps + 1) * c[k + 3],
                a * a * c[k + 2],
                -b * (4 * k + 2 * eps - 1) * c[k + 2],
                2 * a * b * c[k + 1],
                b * b * c[k],
            ]
            q.append(sum(terms))
            q_abs.append(sum(abs(v) for v in terms))
        out = []
        for x in xs:
            x = mpmath.mpf(float(x))
            t = x * x
            lead, w = x**eps, mpmath.exp(-a * t / 2 - b * t * t / 4)
            out.append([
                float(lead * w * mpmath.polyval(c[3:][::-1], t)),
                float(abs(lead) * w * mpmath.polyval([abs(v) for v in c[3:]][::-1], t)),
                float(lead * w * mpmath.polyval(q[::-1], t)),
                float(abs(lead) * w * mpmath.polyval(q_abs[::-1], t)),
            ])
    return np.array(out).T


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 20, 50, 100])
def test_evaluation_keeps_former_bits(n):
    # psi and psi'' are within the kernel's rounding bound of 50-digit values on the
    # same floats, on a whole grid and at single points; the residual keeps the bits
    # of psi'' + (2E - V2) psi.  1e-300 allows for subnormal basis entries.
    for idx, s in blocks([n]):
        a, b = s.reduced.a, s.reduced.b
        cut = _former_cutoff(s.reduced)
        xs = np.linspace(-cut, cut, 301)
        at = np.concatenate([xs[::20], [0.0, -0.7, 1.9]])
        for state in sampled(s.states):
            f = Eigenfunction(state=state, reduced=s.reduced)
            psi, d2 = eval_psi(f, xs), psi_second_derivative(f, xs)
            v2 = potential_v2(s.reduced.couplings(), xs)
            assert same(ode_residual(f, state.energy, xs), d2 + (2.0 * state.energy - v2) * psi)
            single = np.array([eval_psi(f, x) for x in at[-3:]])
            exact, scale, exact_d2, scale_d2 = _mp_psi(f, at)
            bound, bound_d2 = (rounding_bound(n, idx.parity, a, b, at, d2) for d2 in (False, True))
            for got in (np.concatenate([psi[::20], single]), eval_psi(f, at)):
                assert np.all(np.abs(got - exact) <= bound * scale + 1e-300), (idx, state.label)
            got_d2 = np.concatenate([d2[::20], psi_second_derivative(f, at[-3:])])
            assert np.all(np.abs(got_d2 - exact_d2) <= bound_d2 * scale_d2 + 1e-300), (idx, state.label)


@given(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0), st.integers(0, 100), st.integers(0, 1))
@settings(max_examples=30)
@example(0.5, math.log10(0.03), 100, 0)
@example(-1.2, math.log10(0.003), 1, 0)  # W overflows near the wells
def test_psi_is_within_the_bound_of_the_former_horner_psi(lam, log_eta, n, eps):
    # both are within the bound of the exact psi wherever the former one is finite and so is
    # the magnitude sum |x|^eps W sum |A_n| t^n, as every term the kernel forms then is.  Beyond
    # psi's support, out to where W underflows, t^N W overflows and the basis rescales rows, and
    # where W is subnormal each row of the basis adds an absolute rounding of up to 2^-1075
    idx = QesIndex(n, eps)
    try:
        s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=10.0**log_eta)[0]), idx)
    except QesError:
        return  # no spectrum at these couplings
    r = s.reduced
    half = support_half_width(r, 2 * n + eps)
    xs = np.concatenate([np.linspace(-half, 1.2 * half, 241), half * np.geomspace(1.5, 1e3, 40)])
    for state in sampled(s.states):
        f = Eigenfunction(state=state, reduced=r)
        g = Eigenfunction(state=replace(state, coeffs=np.abs(state.coeffs)), reduced=r)
        with np.errstate(all="ignore"):
            former, scale = _former_eval_psi(f, xs), np.abs(_former_eval_psi(g, xs))
            w = np.exp(-0.5 * r.a * xs * xs - 0.25 * r.b * xs**4)
            ok = np.isfinite(former) & np.isfinite(scale)
            underflow = (n + 2) * 2.0**-1074 * np.where(w > 0.0, scale / w, 0.0)
            bound = 2.0 * rounding_bound(n, eps, r.a, r.b, xs) * scale + underflow + 1e-300
            psi = eval_psi(f, xs)
            err = np.abs(psi - former)
        assert np.all(np.isfinite(psi[ok])), state.label
        assert np.all(err[ok] <= bound[ok]), state.label


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12])  # the former code takes ~1 s at N = 14
def test_node_counts_keep_former_bits(n):
    for _, s in blocks([n]):
        for state in s.states:
            f = Eigenfunction(state=state, reduced=s.reduced)
            assert count_nodes(f).count == _former_count_nodes(f)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 20, 50, 100])
def test_recurrence_keeps_former_bits(n):
    for idx, s in blocks([n]):
        assert same(build_recurrence_matrix(s.reduced, idx).dense(), _former_dense(s.reduced, idx))


# (lambda, eta, N, eps): a^2/b from 15.6 to 92,400, a of both signs; the
# former forward recurrence was off by up to 1e80 relative on these, and
# exited 4 on (-3, 1e-3, 20, 0)
REFERENCE_BLOCKS = [
    (1.0, 1e-3, 10, 0), (0.5, 0.03, 40, 0), (0.5, 0.03, 60, 1), (0.5, 0.03, 100, 0),
    (-1.0, 0.01, 30, 1), (-1.5, 3e-3, 40, 0), (-3.0, 1e-3, 20, 0), (0.5, 0.03, 3, 0),
]


@pytest.mark.parametrize("lam, eta, n, eps", REFERENCE_BLOCKS)
def test_coefficients_match_the_mpmath_eigenvector(lam, eta, n, eps):
    idx = QesIndex(n, eps)
    s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx)
    m = build_recurrence_matrix(s.reduced, idx)
    for state in sampled(s.states) if n >= 40 else s.states:  # 10-100 ms per state from N = 40
        ref = mp_coefficients(m, 2.0 * state.energy)
        assert np.max(np.abs(state.coeffs / ref - 1.0)) <= 1e-10, state.label


@pytest.mark.parametrize("e_max", [9.2, 1e3])  # the support's width binds, then the potential's
def test_default_grid_box_is_turning_point_or_support(e_max):
    # L is the larger of the outer turning point at e_max + 25 and 1.2x the
    # width of the degree-(gamma - 3)/2 envelope (2N + eps on the constraint)
    binds = 0
    for omega_sq, lam, eta in [(0.3, 0.5, 0.03), (2.0, -1.0, 0.2), (-3.0, 0.1, 1e-3)]:
        p = CouplingParams(omega_sq=omega_sq, lam=lam, eta=eta)
        r = reduce(p)
        turn = math.sqrt(turning_point(p, e_max + 25.0))
        support = 1.2 * support_half_width(r, max(0.0, 0.5 * (r.gamma - 3.0)))
        half = default_grid(p, e_max).half_width
        assert half == max(turn, support)
        if turn > support:
            binds += 1
            assert potential_v2(p, half) == pytest.approx(2.0 * (e_max + 25.0), rel=1e-12)
    assert binds == (e_max == 1e3)


def test_self_norm_keeps_former_bits():
    _, s = next(blocks([3]))
    f = Eigenfunction(state=s.states[1], reduced=s.reduced)
    g = Eigenfunction(state=s.states[1], reduced=s.reduced)  # equal, but not f itself
    assert norm_and_inner(f, f) == norm_and_inner(f, g)


# ---------------------------------------------------------------------------
# the per-state norm and node count against their former, per-state copies


def _former_norm_and_inner(f, g):
    """norm_and_inner as it was before the quadrature was shared: its own grid and weight per call."""
    if (f.state.parity + g.state.parity) % 2 == 1:
        return 0.0
    degree = max(2 * len(e.state.coeffs) - 2 + e.state.parity for e in (f, g))
    half = support_half_width(f.reduced, degree)
    xs = np.linspace(0.0, half, 2001)
    h = half / 2000
    psi = eval_psi(f, xs)
    y = psi * psi if g is f else psi * eval_psi(g, xs)
    return float(2.0 * h * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def _former_cubic_real_roots(b2, b1, b0):
    p = b1 - b2**2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    shift = -b2 / 3.0
    if -4.0 * p**3 - 27.0 * q**2 > 0:
        return [u + shift for u in solve_cubic_trig(p, q)]  # numpy scalars
    h = math.sqrt(q**2 / 4.0 + p**3 / 27.0)
    w = -q / 2.0 + math.copysign(h, -q / 2.0)
    u = math.copysign(abs(w) ** (1.0 / 3.0), w)
    return [u - p / (3.0 * u) + shift if u else shift]


def _former_node_count(f):
    """count_nodes as it was: linspace samples and Horner's bound at every sample."""
    p, energy, coeffs = f.reduced.couplings(), f.state.energy, f.state.coeffs
    b2, b1, b0 = 1.5 * p.lam / p.eta, 3.0 * p.omega_sq / p.eta, -3.0 * (2.0 * energy) / p.eta
    t_turn = max(0.0, *_former_cubic_real_roots(b2, b1, b0))
    t_min = min(well_bottom(p), t_turn)
    v_min = min(0.0, potential_v2(p, math.sqrt(t_min)))
    x_t, k_max = math.sqrt(t_turn), math.sqrt(max(0.0, 2.0 * energy - v_min))
    xs = np.linspace(0.0, x_t, math.ceil(3.0 * x_t * k_max / math.pi) + 1)
    t = xs * xs
    poly = npoly.polyval(t, coeffs)
    unknown = np.abs(poly) <= len(coeffs) * np.finfo(float).eps * npoly.polyval(t, np.abs(coeffs))
    noise = np.flatnonzero(unknown[1:] & unknown[:-1])
    if noise.size:
        raise SolverError(
            f"node count failed: rounding hides the sign of psi at x = {float(xs[noise[0]])!r}, "
            f"inside the turning point {x_t!r}"
        )
    neg = np.signbit(poly[~unknown])
    return 2 * int(np.count_nonzero(neg[1:] != neg[:-1])) + f.state.parity


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QesError as exc:
        return f"{type(exc).__name__}: {exc}"


def seeded_blocks():
    """Blocks on the constraint (omega2 solved): three seeded couplings per (N <= 12, eps)
    in the box lam in [-1, 1.5], log10 eta in [-2.5, 0]; (0.5, 0.03) and (-1, 0.01) at
    N = 20, 40 and 100; and the deep wells of lam = -0.921875, where the former node count raised."""
    rng = np.random.default_rng(18)
    cells = [(n, eps, lam, 10.0**log_eta)
             for n in range(13) for eps in (0, 1)
             for lam, log_eta in zip(rng.uniform(-1.0, 1.5, 3), rng.uniform(-2.5, 0.0, 3))]
    cells += [(n, eps, lam, eta) for n in (20, 40, 100) for eps in (0, 1) for lam, eta in ((0.5, 0.03), (-1.0, 0.01))]
    cells += [(11, 0, -0.921875, 3.7855e-3), (11, 1, -0.921875, 3.7855e-3), (12, 0, -0.921875, 5.4247e-3)]
    for n, eps, lam, eta in cells:
        idx = QesIndex(n, eps)
        yield spectrum(reduce(solve_constraint(idx, lam=float(lam), eta=float(eta))[0]), idx)


def test_node_counts_and_norms_keep_their_per_state_bits():
    # where rounding hid psi's sign from the former count, it raised; the signs
    # of the A_n are still known there, and the count is the node law
    raised = formerly_raised = 0
    for s in seeded_blocks():
        for st in s.states:
            f = Eigenfunction(state=st, reduced=s.reduced)
            g = Eigenfunction(state=st, reduced=s.reduced)  # equal, but not f itself
            count = _outcome(lambda: count_nodes(f).count)
            former = _outcome(_former_node_count, f)
            assert count == (2 * st.label + st.parity if isinstance(former, str) else former), (s.index, st.label)
            raised += isinstance(count, str)
            formerly_raised += isinstance(former, str)
            with np.errstate(all="ignore"):
                assert same(norm_and_inner(f, f), _former_norm_and_inner(f, f))
                assert same(norm_and_inner(f, g), _former_norm_and_inner(f, g))
    assert raised == 0
    assert formerly_raised >= 6  # top states of the deep wells, of N = 20 at a < 0 and of N = 40


def test_inner_products_of_different_degree_keep_their_bits():
    # the support is the larger degree's: the first call's grid must not be reused for it
    for lam, eta in ((0.5, 0.03), (-0.6, 0.05)):
        for eps in (0, 1):
            specs = [spectrum(reduce(solve_constraint(QesIndex(n, eps), lam=lam, eta=eta)[0]), QesIndex(n, eps))
                     for n in (3, 5, 8)]
            fs = [Eigenfunction(state=st, reduced=s.reduced) for s in specs for st in s.states]
            for f in fs[::2]:
                for g in fs[1::3]:
                    assert same(norm_and_inner(f, g), _former_norm_and_inner(f, g))


def _mp_turning_point(p, energy):
    """The largest real root t >= 0 of V2(t) = 2E in 60-digit mpmath, on the same floats, and
    the rounding bound on its float value: 2 ulp, and the rounding of V2 - 2E in Horner's
    form, 8 u (|omega2| t + |lam| t^2/2 + eta t^3/3 + 2|E|), over the slope V2'(t)."""
    with mpmath.workdps(60):
        w2, lam, eta, e2 = (mpmath.mpf(v) for v in (p.omega_sq, p.lam, p.eta, 2.0 * energy))
        roots = mpmath.polyroots([eta / 3, lam / 2, w2, -e2], maxsteps=200, extraprec=200)
        t = max([mpmath.mpf(0)] + [r.real for r in roots if abs(r.imag) <= 1e-30 * abs(r)])
        noise = 4 * np.finfo(float).eps * (abs(w2) * t + abs(lam) * t * t / 2 + eta * t**3 / 3 + abs(e2))
        slope = abs(w2 + lam * t + eta * t * t)
        return float(t), 2 * math.ulp(float(t)) + (float(noise / slope) if t > 0 else 0.0)


def test_turning_points_are_python_floats():
    # the closed-form roots no longer come back as numpy scalars, and Newton's steps keep them floats
    for lam, eta, energy in ((0.5, 0.03, 4.2), (-1.0, 0.01, -3.0), (-1.0, 0.01, 30.0), (2.0, 1e-3, 0.5)):
        p = CouplingParams(omega_sq=-0.4, lam=lam, eta=eta)
        t = turning_point(p, energy)
        assert type(t) is float
        ref, bound = _mp_turning_point(p, energy)
        assert abs(t - ref) <= bound


# ---------------------------------------------------------------------------
# the spectrum against its former copy, whose twisted passes built their own arrays


def _former_recurrence(r, idx):
    """build_recurrence_matrix as it was: the factors in integers."""
    n_cap, eps = idx.n_cap, idx.parity
    n = np.arange(n_cap + 1)
    diag = r.a * (4 * n + 2 * eps + 1)
    sup = -((2 * n[:-1] + 1 + eps) * (2 * n[:-1] + 2 + eps)).astype(float)
    sub = -4.0 * r.b * (n_cap - n[1:] + 1)
    return RecurrenceMatrix(dim=n_cap + 1, diag=diag, superdiag=sup, subdiag=sub)


def _former_eigenvalues(m):
    if m.dim == 1:
        return m.diag.copy()
    t = np.diag(m.diag)
    i = np.arange(m.dim - 1)
    t[i + 1, i] = -np.sqrt(m.superdiag * m.subdiag)
    return np.linalg.eigvalsh(t)


def _former_twisted_ratios(m, theta, norm):
    """Both passes stacked as (N+1, 2, K), every array built again on each call."""
    u, l, cols = m.superdiag[:, None], m.subdiag[:, None], np.arange(len(theta))
    dt = m.diag[:, None] - theta
    dts = np.array([dt, dt[::-1]]).swapaxes(0, 1)
    prods = np.array([u * l, (u * l)[::-1]]).swapaxes(0, 1)
    q = np.zeros((m.dim, 2, len(theta)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for p_row, d_row, q_row, q_next in zip(prods, dts, q, q[1:]):
            np.divide(p_row, d_row - q_row, out=q_next)
        down, up = dt - q[:, 0], dt - q[::-1, 1]
        gamma = down + up - dt
    if not np.isfinite(gamma).all():
        stuck = ~np.isfinite(gamma).all(axis=0)
        return _former_twisted_ratios(m, theta + stuck * (np.finfo(float).eps * norm), norm)
    k = np.abs(gamma).argmin(axis=0)
    ratios = np.where(np.arange(m.dim - 1)[:, None] < k, down[:-1] / u, l / up[1:])
    return -ratios, k, gamma[k, cols]


def _former_coefficients(m, theta, refine):
    norm = float(np.max(np.abs(m.diag)) + 2.0 * np.sqrt(np.max(m.superdiag * m.subdiag, initial=0.0)))
    ratios, k, gamma = _former_twisted_ratios(m, theta, norm)
    bad = np.flatnonzero(np.abs(gamma) > 1e-8 * max(1.0, norm))
    if bad.size:
        j = bad[0]
        raise NonEigenvalueError(f"E={theta[j] / 2.0} is not an eigenvalue (twist pivot {gamma[j]:.3e})")
    if refine:
        log_z = np.zeros((m.dim, len(theta)))
        np.cumsum(np.log(np.abs(ratios) * np.sqrt(m.superdiag / m.subdiag)[:, None]), axis=0, out=log_z[1:])
        shifted = theta + gamma / np.exp(2.0 * (log_z - log_z[k, np.arange(len(theta))])).sum(axis=0)
        moved = shifted != theta
        if moved.any():
            ratios[:, moved] = _former_twisted_ratios(m, shifted[moved], norm)[0]
    coeffs = np.ones((len(theta), m.dim))
    np.cumprod(ratios.T, axis=1, out=coeffs[:, 1:])
    return coeffs


def _former_spectrum(r, idx):
    """(energies, coefficient rows) as spectrum computed them."""
    m = _former_recurrence(closure_reduced(r, idx), idx)
    theta = _former_eigenvalues(m)
    return [float(t / 2.0) for t in theta], _former_coefficients(m, theta, refine=True)


def _former_coefficients_from_energy(energy, r, idx):
    return _former_coefficients(_former_recurrence(r, idx), np.array([2.0 * energy]), refine=False)[0]


def test_spectra_and_coefficients_keep_their_bits():
    for s in seeded_blocks():
        energies, coeffs = _former_spectrum(s.reduced, s.index)
        assert [st.energy for st in s.states] == energies and all(type(st.energy) is float for st in s.states)
        for st, row in zip(s.states, coeffs):
            assert identical(st.coeffs, row), (s.index, st.label)
            for e in (st.energy, st.energy * (1 + 1e-6)):  # an eigenvalue, and an energy that is none
                got = _outcome(coefficients_from_energy, e, s.reduced, s.index)
                want = _outcome(_former_coefficients_from_energy, e, s.reduced, s.index)
                assert identical(got, want) if isinstance(got, np.ndarray) else got == want


def test_turning_points_match_mpmath_on_every_state():
    # within the rounding of V2 - 2E near the root; the closed form alone was up to
    # 2,151 ulp off on these states, where its shift -b2/3 cancels
    for s in seeded_blocks():
        p = s.reduced.couplings()
        for st in sampled(s.states):
            t = turning_point(p, st.energy)
            ref, bound = _mp_turning_point(p, st.energy)
            assert type(t) is float
            assert abs(t - ref) <= bound, (s.index, st.label)
