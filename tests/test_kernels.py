"""The Horner kernel, psi'' and the coefficients against references.

Hypothesis checks the Horner kernel against numpy.polynomial directly.
Frozen copies of the former numpy.polynomial-based functions pin psi and the
recurrence matrix, NaN-aware, at large N, both parities and both signs of a;
node counts equal the former Sturm counts.  psi'' is held to Horner's
rounding bound against mpmath, and the coefficients to an mpmath reference
eigenvector of the same float matrix.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sextic_qes import (
    CouplingParams,
    Eigenfunction,
    QesIndex,
    ReducedParams,
    default_grid,
    reduce,
    solve_constraint,
    spectrum,
)
from sextic_qes.params import potential_v2, support_half_width, turning_point
from sextic_qes.qes_core import build_recurrence_matrix
from sextic_qes.wavefunction import (
    _horner,
    _psi_and_d2_over_weight,
    count_nodes,
    eval_psi,
    norm_and_inner,
    ode_residual,
    psi_second_derivative,
)

from conftest import mp_coefficients

floats = st.floats(width=64)  # NaN and +-inf included: the kernels must match there too
coeff_lists = st.lists(floats, min_size=1, max_size=220)


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


specials = [math.inf, -math.inf, math.nan, -0.0]


# ---------------------------------------------------------------------------
# the kernels against numpy.polynomial


@given(coeff_lists, st.one_of(floats, st.lists(floats, min_size=1, max_size=8)))
@example([-0.0], -2.0)
@example([2.0], specials)
@example([1.0, 3.0], specials)
def test_horner_is_polyval(cs, x):
    c, x = np.array(cs), np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        assert identical(_horner(c, x), npoly.polyval(x, c))


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


def _mp_second_derivative_over_weight(f, xs):
    """psi''/W = x^eps sum_k q_k t^k at xs in mpmath, from f's own floats, and
    sum_k |q|_k t^k |x|^eps, where |q|_k sums the magnitudes of q_k's terms."""
    a, b, eps = f.reduced.a, f.reduced.b, f.state.parity
    with mpmath.workdps(40):
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
        values, bounds = [], []
        for x in xs:
            x = mpmath.mpf(float(x))
            lead = x**eps
            values.append(float(lead * mpmath.polyval(q[::-1], x * x)))
            bounds.append(float(abs(lead) * mpmath.polyval(q_abs[::-1], x * x)))
    return np.array(values), np.array(bounds)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 20, 50, 100])
def test_evaluation_keeps_former_bits(n):
    # psi keeps the former bits; psi''/W stays within (N+9) eps sum |q|_k t^k |x|^eps
    # of its exact value, Horner's rounding bound on its expansion in powers of t;
    # the residual is psi'' + (2E - V2) psi
    for idx, s in blocks([n]):
        cut = _former_cutoff(s.reduced)
        xs = np.linspace(-cut, cut, 301)
        for state in sampled(s.states):
            f = Eigenfunction(state=state, reduced=s.reduced)
            with np.errstate(all="ignore"):
                psi = eval_psi(f, xs)
                assert same(psi, _former_eval_psi(f, xs))
                for x in (0.0, -0.7, 1.9):
                    assert same(eval_psi(f, x), _former_eval_psi(f, x))
                v2 = potential_v2(s.reduced.couplings(), xs)
                assert same(
                    ode_residual(f, state.energy, xs),
                    psi_second_derivative(f, xs) + (2.0 * state.energy - v2) * psi,
                )
            at = np.concatenate([xs[::20], [0.0, -0.7, 1.9]])
            exact, bound = _mp_second_derivative_over_weight(f, at)
            error = np.abs(_psi_and_d2_over_weight(f, at)[1] - exact)
            assert np.all(error <= (n + 9) * np.finfo(float).eps * bound), (idx, state.label)
            assert same(psi * psi, _former_eval_psi(f, xs) * _former_eval_psi(f, xs))


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
