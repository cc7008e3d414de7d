import gc
import math
import warnings
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from sextic_qes import (
    Eigenfunction,
    QesIndex,
    QesError,
    ReducedParams,
    SolverError,
    WeightMismatchError,
    count_nodes,
    reduce,
    solve_constraint,
    spectrum,
    eval_psi,
    norm_and_inner,
    normalized,
    ode_residual,
    spectrum_closed_form,
)
from sextic_qes.qes_core import QesState, closure_reduced
from sextic_qes.params import potential_v2
from sextic_qes import wavefunction
from sextic_qes.wavefunction import _QUAD_NODES, _basis, _box, _quadrature, psi_second_derivative

from conftest import random_ab, rounding_bound, run_python


def reduced(a, b, idx):
    return closure_reduced(ReducedParams(a=a, b=b, c=0.0, gamma=0.0), idx)


def eigenfunctions(a, b, n, eps):
    idx = QesIndex(n, eps)
    s = spectrum(ReducedParams(a=a, b=b, c=0.0, gamma=0.0), idx)
    return [Eigenfunction(state=st, reduced=s.reduced) for st in s.states], s


# ---------------------------------------------------------------------------
# evaluation


def test_eval_at_origin_ground_n0():
    st = QesState(energy=0.6, coeffs=np.array([1.0]), parity=0, expected_nodes=0, label=0)
    f = Eigenfunction(state=st, reduced=reduced(1.2, 0.7, QesIndex(0, 0)))
    assert eval_psi(f, 0.0) == pytest.approx(1.0)


def test_eval_n1_odd_ground_formula(rng):
    # psi_1(x) = x (1 + (sqrt(a^2+6b) - a)/3 x^2) * weight
    for a, b in random_ab(rng, 10):
        funcs, _ = eigenfunctions(a, b, 1, 1)
        f = funcs[0]
        a1 = (math.sqrt(a * a + 6 * b) - a) / 3.0
        for x in (0.3, 1.1, 2.4):
            expect = x * (1 + a1 * x * x) * math.exp(-0.5 * a * x * x - 0.25 * b * x**4)
            assert float(eval_psi(f, x)) == pytest.approx(expect, rel=1e-10)


def test_eval_table1_ground_at_1():
    funcs, s = eigenfunctions(1.25, 0.1, 3, 0)
    c = s.states[0].coeffs
    expect = (1 + c[1] + c[2] + c[3]) * math.exp(-5.0 / 8.0 - 1.0 / 40.0)
    assert float(eval_psi(funcs[0], 1.0)) == pytest.approx(expect, rel=1e-12)
    # against the printed table digits
    approx = (1 + 0.264080 + 0.021656 + 0.000558) * math.exp(-5.0 / 8.0 - 1.0 / 40.0)
    assert float(eval_psi(funcs[0], 1.0)) == pytest.approx(approx, abs=1e-5)


def test_parity_symmetry(rng):
    for a, b in random_ab(rng, 5):
        for n in range(4):
            for eps in (0, 1):
                funcs, _ = eigenfunctions(a, b, n, eps)
                xs = rng.uniform(-3, 3, 20)
                for f in funcs:
                    left = eval_psi(f, -xs)
                    right = (-1.0) ** eps * eval_psi(f, xs)
                    assert np.allclose(left, right, rtol=1e-14, atol=1e-300)


def test_decay_at_infinity():
    funcs, _ = eigenfunctions(0.5, 0.3, 2, 0)
    assert abs(float(eval_psi(funcs[0], 50.0))) == 0.0  # underflows cleanly


# ---------------------------------------------------------------------------
# derivatives and residuals


def test_analytic_second_derivative_vs_finite_differences(rng):
    h = 1e-4
    for a, b in random_ab(rng, 5):
        funcs, _ = eigenfunctions(a, b, 3, 0)
        xs = np.linspace(-3, 3, 25)
        for f in funcs:
            exact = psi_second_derivative(f, xs)
            d2 = (eval_psi(f, xs + h) - 2 * eval_psi(f, xs) + eval_psi(f, xs - h)) / h**2
            d2_half = (
                eval_psi(f, xs + h / 2) - 2 * eval_psi(f, xs) + eval_psi(f, xs - h / 2)
            ) / (h / 2) ** 2
            rich = (4 * d2_half - d2) / 3  # cancel the O(h^2) term
            scale = np.max(np.abs(exact)) + 1.0
            assert np.allclose(rich, exact, atol=1e-6 * scale)


def test_ode_residual_exact_states(rng):
    xs = np.linspace(-6, 6, 200)
    for a, b in random_ab(rng, 5):
        for n in range(4):
            for eps in (0, 1):
                idx = QesIndex(n, eps)
                s = spectrum(ReducedParams(a, b, 0.0, 0.0), idx)
                for st in s.states:
                    f = Eigenfunction(state=st, reduced=s.reduced)
                    res = ode_residual(f, st.energy, xs)
                    scale = np.max(np.abs(eval_psi(f, xs))) * (1 + abs(st.energy))
                    assert np.max(np.abs(res)) < 1e-9 * max(1.0, scale)


def test_ode_residual_detects_perturbation():
    funcs, s = eigenfunctions(1.25, 0.1, 3, 0)
    st = s.states[0]
    bad = QesState(
        energy=st.energy,
        coeffs=st.coeffs + np.array([0.0, 1e-3, 0.0, 0.0]),
        parity=0,
        expected_nodes=0,
        label=0,
    )
    f = Eigenfunction(state=bad, reduced=s.reduced)
    res = float(ode_residual(f, st.energy, [1.0])[0])
    weight = math.exp(-5.0 / 8.0 - 1.0 / 40.0)
    assert abs(res) > 1e-4 * weight  # order 1e-3 * weight, clearly nonzero


def test_n0_flessas_residual_is_zero():
    funcs, s = eigenfunctions(0.9, 0.4, 0, 0)
    res = ode_residual(funcs[0], s.states[0].energy, np.linspace(-4, 4, 50))
    assert np.max(np.abs(res)) < 1e-12


# ---------------------------------------------------------------------------
# nodes


def test_node_counts_table1():
    funcs, _ = eigenfunctions(1.25, 0.1, 3, 0)
    assert [count_nodes(f).count for f in funcs] == [0, 2, 4, 6]


def test_node_counts_table2():
    funcs, _ = eigenfunctions(1.25, 0.1, 3, 1)
    assert [count_nodes(f).count for f in funcs] == [1, 3, 5, 7]
    # m=3 state: 7 sign changes on a fine grid, brute force
    f = funcs[3]
    xs = np.linspace(-8, 8, 200000)  # even count so x=0 is not a grid point
    vals = eval_psi(f, xs)
    sign_changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
    assert sign_changes == 7


def test_n2_second_excited_has_4_nodes(rng):
    for a, b in random_ab(rng, 10):
        funcs, _ = eigenfunctions(a, b, 2, 0)
        assert count_nodes(funcs[2]).count == 4


def test_node_ordering_law(rng):
    for a, b in random_ab(rng, 8):
        for n in range(5):
            for eps in (0, 1):
                funcs, _ = eigenfunctions(a, b, n, eps)
                counts = [count_nodes(f).count for f in funcs]
                assert counts == [2 * m + eps for m in range(n + 1)]


def support_grid(r, degree, points=2001):
    """Half-line grid out to where |x|^degree W(x) has fallen below 1e-16 of its peak."""

    def log_env(x):
        return degree * math.log(x) - 0.5 * r.a * x * x - 0.25 * r.b * x**4

    x_peak = math.sqrt(max(0.0, (-r.a + math.sqrt(r.a * r.a + 4.0 * r.b * degree)) / (2.0 * r.b)))
    top = log_env(x_peak) if x_peak > 0.0 else 0.0
    half = max(2.0 * x_peak, 1.0)
    while log_env(half) > top + math.log(1e-16):
        half *= 1.25
    return np.linspace(0.0, half, points)


def block(lam, eta, n, eps):
    idx = QesIndex(n, eps)
    s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx)
    return [Eigenfunction(state=st, reduced=s.reduced) for st in s.states]


@given(
    st.floats(-1.5, 1.5),
    st.floats(-3.0, 0.5),
    st.integers(0, 16),
    st.integers(0, 1),
)
@example(0.25, -3.0, 9, 0)  # Sturm counted a sign change of the float polynomial at x = 14.6
def test_resolved_states_obey_the_node_law(lam, log_eta, n, eps):
    try:
        funcs = block(lam, 10.0**log_eta, n, eps)
    except QesError:
        return  # no spectrum at these couplings: nothing to count
    xs = support_grid(funcs[0].reduced, 2 * n + eps)
    for m, f in enumerate(funcs):
        with np.errstate(all="ignore"):
            if not _ode_certificate(f, xs) <= 1e-9:
                continue  # rounding limits the coefficients, not the count
        assert count_nodes(f).count == 2 * m + eps


@pytest.mark.parametrize("lam, eta", [(0.0, 0.1), (1.5, 1.0), (0.5, 0.03)])
def test_large_n_counts_obey_the_node_law_or_raise(lam, eta):
    # from N ~ 25 rounding hides the sign of the top states' psi, which made the
    # former sampled count raise, but not the signs of their A_n; Sturm sequences
    # printed wrong counts here (at the first two couplings)
    for n in (28, 30, 40):
        for eps in (0, 1):
            for m, f in enumerate(block(lam, eta, n, eps)):
                assert count_nodes(f).count == 2 * m + eps


@pytest.mark.parametrize("lam, eta, n, eps", [(-1.0, 0.01, 8, 1), (-0.5, 0.01, 12, 0), (0.5, 0.03, 20, 0), (0.0, 1.0, 6, 0)])
def test_node_counts_are_the_positive_zeros_of_the_polynomial(lam, eta, n, eps):
    # Descartes' rule is exact because every zero of P is real: check both at
    # 50 digits on the float A_n, by Durand-Kerner seeded from numpy.roots.  In
    # the lam = 0 block the middle state's odd A_n are rounding noise of either sign
    funcs = block(lam, eta, n, eps)
    for f in funcs if n <= 12 else funcs[::4] + funcs[-1:]:  # ~60 ms per state at N = 20
        c = f.state.coeffs[::-1].tolist()
        seeds = [complex(t) * (1 + 1e-3j) for t in np.roots(c)]
        with mpmath.workdps(50):
            zeros = mpmath.polyroots(c, maxsteps=30, extraprec=50, roots_init=seeds)
            assert all(abs(mpmath.im(t)) <= 1e-40 * abs(t) for t in zeros), f.state.label
            positive = sum(mpmath.re(t) > 0 for t in zeros)
        assert count_nodes(f).count == 2 * positive + eps == 2 * f.state.label + eps


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.5, 0.5),
    st.integers(0, 100),
    st.integers(0, 1),
    st.sampled_from(["omega2", "eta"]),
)
@settings(max_examples=40)
@example(-1.5, -4.0, 98, 1, "omega2")  # A_98 underflows to 0.0 for m = 84 ... 98
@example(3.0, -3.5, 90, 0, "omega2")  # eta = 3.1623e-4: A_90 underflows to 0.0 for m = 0 ... 4
def test_counts_obey_the_node_law_even_where_the_top_coefficient_underflows(lam, log_eta, n, eps, solve):
    # an underflowed A_n is a signed zero that keeps the sign of its running product
    idx = QesIndex(n, eps)
    try:
        p = solve_constraint(idx, lam=lam, eta=10.0**log_eta)[0]
        if solve == "eta":
            p = solve_constraint(idx, omega_sq=p.omega_sq, lam=lam)[0]
        s = spectrum(reduce(p), idx)
    except QesError:
        return  # no spectrum at these couplings: nothing to count
    for m, state in enumerate(s.states):
        assert count_nodes(Eigenfunction(state=state, reduced=s.reduced)).count == 2 * m + eps


# ---------------------------------------------------------------------------
# quadrature


@given(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0), st.integers(0, 100), st.integers(0, 1))
def test_cutoff_bound(lam, log_eta, n, eps):
    # the norm's box, psi_half_width at the top level, is wide for low blocks, whose
    # tangent at x_t is shallow, but at most a tenth of the trapezoid rule's nodes lie
    # where the weight underflows (6.4% at lambda = 2.5, eta = 1, N = 0, on a 13 x 13 grid
    # of this box at N = 0 to 100).  The envelope rule's box ended before W underflowed
    idx = QesIndex(n, eps)
    r = reduce(solve_constraint(idx, lam=lam, eta=10.0**log_eta)[0])
    xs, _ = _quadrature(_box(r, n, eps), _QUAD_NODES[0])
    with np.errstate(over="ignore"):  # W is inf near the wells once a^2 > 2836 b, and psi^2 is anyway
        assert np.mean(_basis(xs, r.a, r.b, 1)[0][0] == 0.0) <= 0.1  # W


def test_even_odd_inner_product_zero():
    fe, _ = eigenfunctions(1.0, 0.5, 1, 0)
    fo, _ = eigenfunctions(1.0, 0.5, 1, 1)
    assert norm_and_inner(fe[0], fo[0]) == 0.0


def test_pure_quartic_weight_norm_gamma_form():
    # a=0, N=0: norm^2 = int exp(-b x^4 / 2) dx = Gamma(1/4) / (2 (b/2)^{1/4})
    b = 0.8
    st = QesState(energy=0.0, coeffs=np.array([1.0]), parity=0, expected_nodes=0, label=0)
    f = Eigenfunction(state=st, reduced=reduced(0.0, b, QesIndex(0, 0)))
    exact = gamma_fn(0.25) / (2.0 * (b / 2.0) ** 0.25)
    assert norm_and_inner(f, f) == pytest.approx(exact, rel=1e-10)
    # and against an independent quadrature of the bare integrand
    check, _ = quad(lambda x: math.exp(-0.5 * b * x**4), -np.inf, np.inf)
    assert norm_and_inner(f, f) == pytest.approx(check, rel=1e-9)


def _psi_long(f, x):
    """psi at a float x in long double from f's own floats: a quad integrand whose rounding
    is far below the kernel's, which a call per point sums in an order of its own."""
    x, (a, b) = np.longdouble(x), (np.longdouble(v) for v in (f.reduced.a, f.reduced.b))
    t = x * x
    poly = npoly.polyval(t, f.state.coeffs.astype(np.longdouble))
    return float(x**f.state.parity * poly * np.exp(-a * t / 2 - b * t * t / 4))


def _ode_certificate(f, xs):
    """max|psi'' + (2E - V2) psi| relative to max(|psi''| + |(2E - V2) psi|)."""
    r = f.reduced
    x2 = xs * xs
    v2 = r.omega_sq() * x2 + 0.5 * r.lam * x2 * x2 + r.eta * x2**3 / 3.0
    kin = (2.0 * f.state.energy - v2) * eval_psi(f, xs)
    d2 = psi_second_derivative(f, xs)
    return np.max(np.abs(d2 + kin)) / np.max(np.abs(d2) + np.abs(kin))


@pytest.mark.parametrize(
    "a, b, ns, n_certified",
    [(1.25, 0.1, range(13), 180), (-1.5, 0.3, range(13), 180), (0.0, 0.1, [20], 32)],
    ids=["1.25-0.1", "-1.5-0.3", "0.0-0.1-N20"],  # of 182, 182 and 42 states: 182, 181, 32 pass
)
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")  # a reference quad cannot deliver fails
def test_trapezoid_norm_matches_adaptive_quadrature(a, b, ns, n_certified):
    # every state whose ODE residual certifies it (rel <= 1e-9); the states
    # left out are limited by monomial cancellation, not by the quadrature.
    # At N = 20 a box blind to the degree cut the top states' tails (5e-10).
    checked = 0
    for n in ns:
        for eps in (0, 1):
            funcs, s = eigenfunctions(a, b, n, eps)
            cut = _box(s.reduced, n, eps)  # the norm's box
            for f in funcs:
                if _ode_certificate(f, np.linspace(0.0, cut, 1001)) > 1e-9:
                    continue
                half, _ = quad(
                    lambda x: _psi_long(f, x) ** 2, 0.0, 2.0 * cut,
                    epsabs=0.0, epsrel=1e-12, limit=500,
                )
                assert norm_and_inner(f, f) == pytest.approx(2.0 * half, rel=1e-10)
                checked += 1
    assert checked >= n_certified


@pytest.mark.parametrize(
    "a, b, n_certified",
    [(1e6, 0.1, 6), (1.0, 1e20, 180), (-20.0, 0.35, 60), (-1e4, 1e5, 12)],
)
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_trapezoid_norm_resolves_narrow_weights(a, b, n_certified):
    # a weight far narrower than the cutoff's floor of 6 (large a or b), and
    # a < 0 with a^2/b = 1,143 and 1,000, where psi^2 peaks near
    # P(t)^2 exp(a^2/2b) = P(t)^2 exp(571) and exp(500); it overflows a double
    # past exp(709.8), so where that happens depends on the A_n, not on a^2/b
    # alone.  Of 182 states each, 182, 182, 110 and 110 are certified.
    x_peak = math.sqrt(max(0.0, -a / b))
    width = min(1.0 / math.sqrt(abs(a) + 3.0 * b * x_peak**2), b**-0.25)
    checked = 0
    for n in range(13):
        for eps in (0, 1):
            funcs, _ = eigenfunctions(a, b, n, eps)
            lo, hi = max(0.0, x_peak - 60.0 * width), x_peak + 60.0 * width
            for f in funcs:
                if _ode_certificate(f, np.linspace(lo, hi, 4001)) > 1e-9:
                    continue
                half, _ = quad(
                    lambda x: _psi_long(f, x) ** 2, lo, hi,
                    points=[x_peak] if x_peak > 0.0 else None,
                    epsabs=0.0, epsrel=1e-12, limit=1000,
                )
                assert norm_and_inner(f, f) == pytest.approx(2.0 * half, rel=1e-10)
                checked += 1
    assert checked >= n_certified


def test_orthogonality_within_spectrum(rng):
    for a, b in random_ab(rng, 3):
        for n in (2, 3):
            for eps in (0, 1):
                funcs, _ = eigenfunctions(a, b, n, eps)
                norm_funcs = [normalized(f) for f in funcs]
                for i in range(len(funcs)):
                    for j in range(i + 1, len(funcs)):
                        ip = norm_and_inner(funcs[i], funcs[j])
                        ni = norm_funcs[i].norm_constant
                        nj = norm_funcs[j].norm_constant
                        assert abs(ip * ni * nj) < 1e-8


def test_weight_mismatch_rejected():
    f1, _ = eigenfunctions(1.0, 0.5, 0, 0)
    f2, _ = eigenfunctions(1.1, 0.5, 0, 0)
    with pytest.raises(WeightMismatchError):
        norm_and_inner(f1[0], f2[0])


def test_a_certified_norm_is_one_product_with_norm_and_inners_bits(monkeypatch):
    # the norm and its rounding bound come from the rows of one [A, |A|] @ B product per state,
    # formed in the block's one pass on the nodes: _finite_norm_sq forms none of its own
    idx = QesIndex(20, 1)
    s = spectrum(reduce(solve_constraint(idx, lam=0.5, eta=0.03)[0]), idx)
    funcs = [Eigenfunction(state=st, reduced=s.reduced) for st in s.states[:12]]  # certain to one digit
    expect = [norm_and_inner(f, f) for f in funcs]
    calls, products = [], wavefunction._products
    monkeypatch.setattr(wavefunction, "_products", lambda *args: calls.append(1) or products(*args))
    assert [wavefunction._finite_norm_sq(f) for f in funcs] == expect
    assert calls == []


def test_normalized_eigenfunction_evaluates_normalized():
    # lambda = 0.5, eta = 0.03, N = 3: <f, f> = 2.64 at m = 1 before scaling
    idx = QesIndex(3, 0)
    s = spectrum(reduce(solve_constraint(idx, lam=0.5, eta=0.03)[0]), idx)
    f1 = Eigenfunction(state=s.states[1], reduced=s.reduced)
    assert norm_and_inner(f1, f1) == pytest.approx(2.6355, rel=1e-4)
    xs = np.linspace(-6.0, 6.0, 241)
    ulps = 4 * np.finfo(float).eps  # k (P W) against (k P) W
    for st in s.states:
        f = Eigenfunction(state=st, reduced=s.reduced)
        g = normalized(f)
        k = g.norm_constant
        assert norm_and_inner(g, g) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(eval_psi(g, xs), k * eval_psi(f, xs), rtol=ulps, atol=0)
        np.testing.assert_allclose(
            psi_second_derivative(g, xs), k * psi_second_derivative(f, xs), rtol=ulps, atol=0
        )
        assert normalized(g).norm_constant == pytest.approx(k, rel=1e-12)


def test_node_count_fails_instead_of_hanging():
    # at N = 40 rounding hides the sign of state 37's psi inside its turning
    # point: Sturm sequences looped forever there, and the sampled count raised;
    # the subprocess turns a hang into a failure
    code = """
from sextic_qes import Eigenfunction, QesIndex, count_nodes, reduce, solve_constraint, spectrum

idx = QesIndex(40, 0)
s = spectrum(reduce(solve_constraint(idx, lam=0.5, eta=0.03)[0]), idx)
print(count_nodes(Eigenfunction(state=s.states[37], reduced=s.reduced)).count)
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "74\n"


# ---------------------------------------------------------------------------
# the quadrature a block's states share


def test_shared_quadrature_is_read_only_and_bounded():
    # the block holds its nodes, their basis and its states' rows, read-only, and no longer
    # than the block lives: no cache keyed by the couplings holds them past their spectrum
    idx = QesIndex(3, 0)
    s = spectrum(reduced(1.25, 0.1, idx), idx)
    f = Eigenfunction(state=s.states[1], reduced=s.reduced)
    norm_and_inner(f, f)
    block = s.states[0].block
    assert all(st.block is block for st in s.states)
    data = block.norms
    assert data.h == data.xs[-1] / (len(data.xs) - 1)
    _, basis, k, t, sq = block.grid
    assert k is None and sq is None  # no row rescaled; s and q wait for psi''
    assert data.xs[0] == 0.0 and basis[-1, 0] == 1.0  # W(0)
    for arr in (data.xs, basis, t, *data.rows):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    held = weakref.ref(block)
    del s, f, block, data, basis, t
    gc.collect()
    assert held() is None


def test_norms_do_not_depend_on_the_order_of_calls():
    def blocks():  # each call builds its blocks afresh, so that each order forms their norm data
        out = []
        for lam, eta, n, eps in ((0.5, 0.03, 6, 0), (-0.8, 0.01, 9, 1)):
            idx = QesIndex(n, eps)
            s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx)
            out.append([Eigenfunction(state=st, reduced=s.reduced) for st in s.states])
        return out

    in_order = [[norm_and_inner(f, f) for f in fs] for fs in blocks()]
    backwards = [[norm_and_inner(f, f) for f in fs[::-1]][::-1] for fs in blocks()]
    interleaved, fresh = [[], []], blocks()
    for f, g in zip(*fresh):  # the first block has the fewer states
        interleaved[0].append(norm_and_inner(f, f))
        interleaved[1].append(norm_and_inner(g, g))
    interleaved[1] += [norm_and_inner(g, g) for g in fresh[1][len(fresh[0]):]]
    for got in (backwards, interleaved):
        assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in in_order]


def test_each_block_forms_its_norm_data_once(monkeypatch):
    # one pass per block: one box, and one _products call on 251 nodes, or two where the block
    # falls back to 2,001, for all its states' norms, inner products and certified norms; two
    # spectra of one block form theirs apart
    blocks = [(0.3, 0.05, QesIndex(4, 1))] * 2 + [(-1.0, 0.005623, QesIndex(1, 0))]  # the last falls back
    specs = [spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx) for lam, eta, idx in blocks]
    calls = []
    for name in ("_products", "_box"):
        inner = getattr(wavefunction, name)
        monkeypatch.setattr(wavefunction, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    norms = []
    for s in specs:
        funcs = [Eigenfunction(state=st, reduced=s.reduced) for st in s.states]
        norms.append([norm_and_inner(f, f) for f in funcs])
        for f in funcs:
            for g in funcs:
                norm_and_inner(f, g)
            wavefunction._finite_norm_sq(f)
            normalized(f)
    assert calls == ["_box", "_products"] * 2 + ["_box", "_products", "_products"]
    assert [len(s.states[0].block.norms.xs) for s in specs] == [251, 251, 2001]
    assert norms[0] == norms[1] and specs[0].states[0].block is not specs[1].states[0].block


def test_a_mutated_grid_misses_the_cached_basis():
    # the grid's bytes key the block's basis, so an array changed in place gets its own
    funcs, _ = eigenfunctions(0.8, 0.3, 6, 1)
    block = funcs[2].state.block
    xs = np.linspace(-3.0, 3.0, 101)
    eval_psi(funcs[2], xs)
    before = block.grid[1]
    eval_psi(funcs[3], xs)
    assert block.grid[1] is before  # the block's states share it
    xs *= 1.5
    psi = eval_psi(funcs[2], xs)
    assert block.grid[1] is not before
    block.grid = None
    assert psi.tobytes() == eval_psi(funcs[2], xs.copy()).tobytes()


def test_a_state_built_by_hand_is_a_block_of_one():
    # a QesState from its five fields evaluates and takes its norm on the path of the
    # spectrum's states, with the same bits, and holds no block of its own
    idx = QesIndex(5, 1)
    s = spectrum(reduce(solve_constraint(idx, lam=0.5, eta=0.03)[0]), idx)
    xs = np.linspace(-4.0, 4.0, 81)
    for st in s.states:
        by_hand = QesState(energy=st.energy, coeffs=st.coeffs.copy(), parity=st.parity,
                           expected_nodes=st.expected_nodes, label=st.label)
        f, g = Eigenfunction(state=st, reduced=s.reduced), Eigenfunction(state=by_hand, reduced=s.reduced)
        assert g.state.block is None
        assert eval_psi(g, xs).tobytes() == eval_psi(f, xs).tobytes()
        assert ode_residual(g, st.energy, xs).tobytes() == ode_residual(f, st.energy, xs).tobytes()
        assert norm_and_inner(g, g) == norm_and_inner(f, f) == norm_and_inner(f, g)
        assert wavefunction._finite_norm_sq(g) == wavefunction._finite_norm_sq(f)
        assert normalized(g).norm_constant == normalized(f).norm_constant
    # a state whose coefficients differ from its block's row is not read from the block
    st = s.states[2]
    other = replace(st, coeffs=-st.coeffs)
    assert other.block is st.block
    f, g = Eigenfunction(state=st, reduced=s.reduced), Eigenfunction(state=other, reduced=s.reduced)
    assert eval_psi(g, xs).tobytes() == (-eval_psi(f, xs)).tobytes()
    assert norm_and_inner(g, f) == -norm_and_inner(f, f)


# a frozen copy of the per-state norm path that the block's one pass replaced: each state's
# [A, |A|] @ B product on its block's nodes, with a basis built for it


def _former_basis(x, a, b, rows):
    with np.errstate(over="ignore", invalid="ignore"):
        t = x * x
        w = np.exp(-0.5 * a * t - 0.25 * b * t * t)
        w[np.isinf(t)] = 0.0
        t[w == 0.0] = 0.0
        basis, k, t_exp = np.empty((rows, x.size)), np.zeros(rows, dtype=int), math.frexp(t.max())[1]
        basis[-1] = w
        for j in range(rows - 2, -1, -1):
            np.multiply(basis[j + 1], t, out=basis[j])
        for j in range(rows - 2, -1, -1) if np.isinf(basis[0][w < math.inf]).any() else ():
            below, k[j] = basis[j + 1], k[j + 1]
            if np.multiply(below, t, out=basis[j]).max() == math.inf:
                e = max(0, math.frexp(below.max(initial=0.0, where=below < math.inf))[1] + t_exp - 1023)
                k[j] += e
                np.multiply(np.ldexp(below, -e), t, out=basis[j])
    return basis, (k if k.any() else None)


def _former_rows(f, xs, basis, k):
    c = f.state.coeffs[::-1]
    rows = np.array([c, np.abs(c)])
    with np.errstate(over="ignore", invalid="ignore"):
        out = (rows if k is None else np.ldexp(rows, k)) @ basis
        out = xs * out if f.state.parity else out
        return out if f.norm_constant is None else f.norm_constant * out


def _former_trapezoid(h, psi, phi):
    with np.errstate(over="ignore", invalid="ignore"):
        y = psi * phi
        return float(2.0 * h * (np.add.reduce(y) - 0.5 * (y[0] + y[-1])))


def _former_finite_norm_sq(f, h, psi, abs_psi):
    """The certified norm^2 as _finite_norm_sq formed it, or its error message."""
    r, st = f.reduced, f.state
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = _former_trapezoid(h, psi, psi)
        delta = len(st.coeffs) * np.finfo(float).eps * np.abs(abs_psi)
        bound = 2.0 * h * float(np.add.reduce(delta * (2.0 * np.abs(psi) + delta)))
    if not math.isfinite(n2):
        return f"the norm of state m={st.label} is not finite: psi^2 overflows a double (a^2/b = {r.a * r.a / r.b:.6g})"
    if not bound < 0.1 * n2:
        return (f"the norm of state m={st.label} is not certain to one digit: the rounding bound "
                f"on norm^2 is {bound / n2:.3g} of it (a^2/b = {r.a * r.a / r.b:.6g})")
    return n2


def _certified_or_message(f):
    try:
        return wavefunction._finite_norm_sq(f)
    except SolverError as exc:
        return str(exc)


def _bits(v):
    return v if isinstance(v, str) else np.float64(v).tobytes()


def _former_bound(h, psi, abs_psi, phi, abs_phi, terms):
    """The rounding bound on the trapezoid sum of psi phi, from the rows |x|^eps |A| @ B: 2h sum
    (d_psi |phi| + d_phi |psi| + d_psi d_phi), d = terms eps |x|^eps |A| @ B (_finite_norm_sq's, at phi = psi)."""
    d_psi, d_phi = (terms * np.finfo(float).eps * np.abs(v) for v in (abs_psi, abs_phi))
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * h * float(np.add.reduce(d_psi * np.abs(phi) + d_phi * np.abs(psi) + d_psi * d_phi))


def test_block_norms_keep_the_per_state_bits():
    # norms, certified norms (or their refusals), normalized's constant and inner products within
    # a block that falls back to 2,001 nodes equal the former per-state path's, bit for bit, also
    # where the basis rescales its rows and where a product of all the rows at once would sum in
    # another order.  On a block that keeps 251 nodes each is within 1e-13 int |psi phi| plus both
    # paths' rounding bounds of the former, and a refusal is of the same kind
    rescaled, grids = 0, []
    for n in [*range(13), 16, 20, 40, 100]:
        for lam in (-1.0, -0.5, 0.5, 1.5):
            for eta in (0.003, 0.03, 1.0):
                for eps in (0, 1):
                    idx = QesIndex(n, eps)
                    s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx)
                    xs, h = _quadrature(_box(s.reduced, n, eps), _QUAD_NODES[-1])
                    basis, k = _former_basis(xs, s.reduced.a, s.reduced.b, n + 1)
                    rescaled += k is not None
                    funcs = [Eigenfunction(state=st, reduced=s.reduced) for st in s.states]
                    rows = [_former_rows(f, xs, basis, k) for f in funcs]
                    with np.errstate(all="ignore"):  # the raw norm of a state whose psi^2 overflows
                        norm_and_inner(funcs[0], funcs[0])
                        data = s.states[0].block.norms
                        ours = [(psi, data.xs * abs_psi if eps else abs_psi) for psi, abs_psi in data.rows]
                    grids.append(len(data.xs))

                    def agree(got, want, i, j, scale=1.0):
                        if len(data.xs) == _QUAD_NODES[-1]:
                            return _bits(got) == _bits(want)
                        if isinstance(got, str) or isinstance(want, str):
                            return str(got).split(":")[0] == str(want).split(":")[0]  # the kind, not the ratio
                        size = 1e-13 * _former_trapezoid(h, np.abs(rows[i][0]), np.abs(rows[j][0]))
                        bounds = (_former_bound(h, *rows[i], *rows[j], n + 1)
                                  + _former_bound(data.h, *ours[i], *ours[j], n + 1))
                        return abs(got - want) <= scale * scale * (size + bounds)

                    for m, (f, (psi, abs_psi)) in enumerate(zip(funcs, rows)):
                        where = (n, lam, eta, eps, m)
                        with np.errstate(all="ignore"):
                            assert agree(norm_and_inner(f, f), _former_trapezoid(h, psi, psi), m, m), where
                            for j in (m - 1, 0):
                                want = _former_trapezoid(h, psi, rows[j][0])
                                assert agree(norm_and_inner(f, funcs[j]), want, m, j), where
                        want, got = _former_finite_norm_sq(f, h, psi, abs_psi), _certified_or_message(f)
                        assert agree(got, want, m, m), where
                        if isinstance(got, str):
                            continue
                        g = normalized(f)
                        assert _bits(g.norm_constant) == _bits(1.0 / math.sqrt(got)), where
                        g_psi, g_abs = _former_rows(g, xs, basis, k)  # the constant scales the rows
                        c = g.norm_constant
                        assert agree(norm_and_inner(g, g), _former_trapezoid(h, g_psi, g_psi), m, m, c), where
                        want = _former_finite_norm_sq(g, h, g_psi, g_abs)
                        assert agree(_certified_or_message(g), want, m, m, c), where
    assert rescaled == 4  # N = 40 and 100 at lambda = -1, eta = 0.003, both parities
    assert 0 < grids.count(_QUAD_NODES[-1]) < grids.count(_QUAD_NODES[0]), grids  # both paths ran


def test_a_block_whose_sums_have_not_converged_keeps_the_former_bits():
    # lambda = -1, eta = 0.005623, N = 1, even: a^2/b = 770, and a sum on 251 nodes is not within
    # 1e-14 norm^2 of its every-second-node sum, so the block takes 2,001 nodes and the former bits
    idx = QesIndex(1, 0)
    s = spectrum(reduce(solve_constraint(idx, lam=-1.0, eta=0.005623)[0]), idx)
    xs, h = _quadrature(_box(s.reduced, 1, 0), 2001)
    basis, k = _former_basis(xs, s.reduced.a, s.reduced.b, 2)
    funcs = [Eigenfunction(state=st, reduced=s.reduced) for st in s.states]
    rows = [_former_rows(f, xs, basis, k) for f in funcs]
    assert [norm_and_inner(f, f) for f in funcs] == [_former_trapezoid(h, psi, psi) for psi, _ in rows]
    assert norm_and_inner(funcs[1], funcs[0]) == _former_trapezoid(h, rows[1][0], rows[0][0])
    assert [_certified_or_message(f) for f in funcs] == [_former_finite_norm_sq(f, h, *r) for f, r in zip(funcs, rows)]
    assert s.states[0].block.norms.xs.tobytes() == xs.tobytes()


def test_products_run_in_blocks_of_points(monkeypatch):
    # no basis holds more than _BLOCK doubles; the blocks' sums are within the rounding bound
    funcs, s = eigenfunctions(-0.7, 0.2, 9, 0)
    xs = np.linspace(-4.0, 4.0, 103)
    whole = [eval_psi(f, xs) for f in funcs]
    built = []
    inner = wavefunction._basis
    monkeypatch.setattr(wavefunction, "_BLOCK", 10 * 7)
    monkeypatch.setattr(wavefunction, "_basis", lambda *args: built.append(inner(*args)[0].size) or inner(*args))
    scale = rounding_bound(9, 0, s.reduced.a, s.reduced.b, xs)
    for f, psi in zip(funcs, whole):
        g = Eigenfunction(state=replace(f.state, coeffs=np.abs(f.state.coeffs)), reduced=f.reduced)
        abs_psi = eval_psi(g, xs)
        assert np.all(np.abs(eval_psi(f, xs) - psi) <= 2.0 * scale * abs_psi)
    assert max(built) <= 10 * 7 and len(built) == 2 * len(funcs) * math.ceil(103 / 7)


def test_cached_block_data_is_read_only():
    xs, _ = _quadrature(_box(reduced(-0.6, 0.2, QesIndex(4, 1)), 4, 1), _QUAD_NODES[0])
    basis, k, t = _basis(xs, -0.6, 0.2, 5)
    assert np.array_equal(basis[-2], basis[-1] * (xs * xs)) and k is None  # t W, no row rescaled
    funcs, _ = eigenfunctions(-0.6, 0.2, 4, 1)
    psi_second_derivative(funcs[0], xs)  # s and q join the block's grid
    _, _, _, _, (s, q) = funcs[0].state.block.grid
    for arr in (xs, basis, t, s, q):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_norm_and_inner_overflows_without_warnings():
    # lambda = -1.2, eta = 0.003: a = -9.5 and a^2/b = 2846, so W itself overflows
    # on the quadrature nodes, out to the end of the support, and the trapezoid
    # sum is inf - inf; numpy warned "overflow encountered" on the way
    idx = QesIndex(1, 0)
    s = spectrum(reduce(solve_constraint(idx, lam=-1.2, eta=0.003)[0]), idx)
    f = Eigenfunction(state=s.states[0], reduced=s.reduced)  # its block builds its basis below
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(norm_and_inner(f, f))


@pytest.mark.parametrize("lam, eta, n, xs", [
    (-1.2, 0.003, 1, [16.0, 17.0, 18.0]),  # a = -9.5, a^2/b = 2846: psi overflows near the wells
    (0.5, 0.03, 3, [1e80, 1e200]),  # the paper block: W underflows to 0 where V2 overflows
])
def test_ode_residual_overflows_without_warnings(lam, eta, n, xs):
    # the repo's error::RuntimeWarning filter fails this test on any overflow warning
    idx = QesIndex(n, 0)
    s = spectrum(reduce(solve_constraint(idx, lam=lam, eta=eta)[0]), idx)
    f, e = Eigenfunction(state=s.states[0], reduced=s.reduced), s.states[0].energy
    res = ode_residual(f, e, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        v2 = potential_v2(s.reduced.couplings(), np.asarray(xs))
        expect = psi_second_derivative(f, xs) + (2.0 * e - v2) * eval_psi(f, xs)
    np.testing.assert_array_equal(res, expect)  # bit for bit, NaN where it is NaN
    assert not np.isfinite(res).any()


def test_normalized_raises_where_the_norm_overflows():
    # lambda = -1, eta = 0.003: a = -7.9, a^2/b = 1976, and psi^2 peaks near exp(a^2/(2b)) = e^988
    idx = QesIndex(0, 0)
    s = spectrum(reduce(solve_constraint(idx, lam=-1.0, eta=0.003)[0]), idx)
    f = Eigenfunction(state=s.states[0], reduced=s.reduced)
    with np.errstate(all="ignore"):
        assert not math.isfinite(norm_and_inner(f, f))  # kept: the raw value, as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(SolverError, match=r"norm of state m=0 is not finite.*a\^2/b = 1976\.42"):
            normalized(f)
