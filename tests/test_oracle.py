import dataclasses
import math

import mpmath
import numpy as np
import pytest
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sextic_qes import (
    ConstraintViolationError,
    CouplingParams,
    GridSpec,
    QesIndex,
    VerificationError,
    default_grid,
    lowest_eigenvalues,
    reduce,
    solve_constraint,
    spectrum,
    verify_qes,
)
from sextic_qes.oracle import (
    _UNMATCHED_TOL,
    MATCH_TOL,
    Match,
    _sinc_levels,
    _sinc_matrix,
)
from sextic_qes.params import psi_half_width, turning_point

from conftest import mp_eigenpair

TABLE1 = CouplingParams(0.0625, 0.5, 0.03)
TABLE2 = CouplingParams(-0.1375, 0.5, 0.03)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width=5.0, points=200)
    with pytest.raises(ValueError):
        GridSpec(half_width=5.0, points=199)
    with pytest.raises(ValueError):
        GridSpec(half_width=-1.0, points=201)


def test_default_grid_covers_turning_region():
    g = default_grid(TABLE1, e_max=9.2)
    assert g.half_width == psi_half_width(TABLE1, 9.2) > math.sqrt(turning_point(TABLE1, 9.2))


@settings(max_examples=25)
@given(
    lam=st.floats(-3.0, 3.0),
    log10_eta=st.floats(-3.5, 0.5),
    n_cap=st.integers(0, 100),
    parity=st.integers(0, 1),
)
@example(lam=0.5, log10_eta=math.log10(0.03), n_cap=100, parity=0)
@example(lam=-1.5, log10_eta=math.log10(3e-3), n_cap=100, parity=0)  # a^2/b = 4,450
@example(lam=-3.0, log10_eta=-3.5, n_cap=1, parity=0)  # a^2/b = 520,000: a low top level in deep wells
def test_psi_half_width_errs_on_the_safe_side(lam, log10_eta, n_cap, parity):
    # the WKB decay from the top state's turning point to L, int sqrt(V2 - 2E), in
    # 30 digits on the float couplings: the tangent at x_t must not overestimate it
    idx = QesIndex(n_cap, parity)
    p = solve_constraint(idx, lam=lam, eta=10.0**log10_eta)[0]
    e_max = spectrum(reduce(p), idx).states[-1].energy
    half = psi_half_width(p, e_max)
    with mpmath.workdps(30):
        w2, lam_mp, eta_mp, two_e = (mpmath.mpf(v) for v in (p.omega_sq, p.lam, p.eta, 2.0 * e_max))

        def kappa(x):
            x2 = x * x
            return mpmath.sqrt(max(0, x2 * (w2 + x2 * (lam_mp / 2 + x2 * eta_mp / 3)) - two_e))

        decay = mpmath.quad(kappa, [math.sqrt(turning_point(p, e_max)), half])
        assert decay >= mpmath.log(mpmath.mpf(10) ** 16), (float(decay), half)


def test_top_state_norm_beyond_psi_half_width_in_a_45_digit_shot():
    # (0.5, 0.03), N = 40, even: psi'' = (V2 - 2E) psi from psi(0) = 1, psi'(0) = 0 at the
    # exact E of the block's float (a, b), out to L = 7.9312 (x_t = 6.2318).  It holds psi to
    # the decaying solution only from ~45 digits: at 40 the growing one, seeded by the shot's
    # own truncation, is 1e-21 at L.  Past L psi decays faster than exp(-kappa(L) (x - L)), so
    # at most psi(L)^2/(2 kappa(L)) of norm^2/2 lies there; norm^2/2 is the exact polynomial's
    idx = QesIndex(40, 0)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    s = spectrum(reduce(p), idx)
    half = psi_half_width(p, s.states[-1].energy)
    with mpmath.workdps(45):
        a, b = mpmath.mpf(s.reduced.a), mpmath.mpf(s.reduced.b)
        k = range(idx.n_cap + 1)
        block = SimpleNamespace(dim=len(k), diag=[a * (4 * n + 1) for n in k],
                                superdiag=[-(2 * n + 1) * (2 * n + 2) for n in k[:-1]],
                                subdiag=[-4 * b * (idx.n_cap - n) for n in k[:-1]])
        two_e, coeffs = mp_eigenpair(block, 2.0 * s.states[-1].energy, dps=45)
        w2, lam, eta = a * a - 163 * b, 4 * a * b, 3 * b * b  # gamma = 4N + 3 exactly

        def gap(x):
            x2 = x * x
            return x2 * (w2 + x2 * (lam / 2 + x2 * eta / 3)) - two_e

        def exact(x):
            t = x * x
            return mpmath.polyval(coeffs[::-1], t) * mpmath.exp(-a * t / 2 - b * t * t / 4)

        x_end = mpmath.mpf(half)
        psi, dpsi = mpmath.odefun(lambda x, y: [y[1], gap(x) * y[0]], 0, [mpmath.mpf(1), mpmath.mpf(0)])(x_end)
        kappa = mpmath.sqrt(gap(x_end))
        assert -1.1 * kappa < dpsi / psi < -kappa  # the decaying solution: psi'/psi ~ -kappa - kappa'/(2 kappa)
        assert abs(psi / exact(x_end) - 1) < 1e-3
        with mpmath.workdps(20):
            half_norm_sq = mpmath.quad(lambda x: exact(x) ** 2, mpmath.linspace(0, x_end, 9))
        assert psi**2 / (2 * kappa) <= 1e-30 * half_norm_sq


def test_harmonic_limit():
    # lam=0, eta -> 0, omega2=1: the equation reduces to the unit harmonic
    # oscillator with V = x^2/2, whose levels are n + 1/2
    p = CouplingParams(1.0, 0.0, 1e-10)
    g = GridSpec(half_width=10.0, points=2001)
    even = lowest_eigenvalues(p, 3, g, parity=0)
    odd = lowest_eigenvalues(p, 3, g, parity=1)
    assert even == pytest.approx([0.5, 2.5, 4.5], abs=1e-6)
    assert odd == pytest.approx([1.5, 3.5, 5.5], abs=1e-6)


def test_table1_energies_rediscovered():
    g = default_grid(TABLE1, e_max=9.2)
    vals = lowest_eigenvalues(TABLE1, 4, g, parity=0)
    assert vals == pytest.approx([0.360920, 2.512128, 5.524957, 9.101994], abs=1e-6)


def test_table2_energies_with_corrected_omega():
    # adjudicates the caption: gamma=17 forces omega2=-0.1375, and only then do
    # the odd exact energies appear in the numerical spectrum
    g = default_grid(TABLE2, e_max=10.7)
    vals = lowest_eigenvalues(TABLE2, 4, g, parity=1)
    assert vals == pytest.approx([1.144540, 3.708044, 6.947903, 10.699513], abs=1e-6)


@pytest.mark.parametrize("p, parity, n_cap", [(TABLE1, 0, 3), (TABLE2, 1, 3)], ids=["table1", "table2"])
def test_spectral_convergence(p, parity, n_cap):
    # sinc collocation converges exponentially: each 1.5x refinement cuts the
    # error by >= 100x until it reaches the rounding floor
    exact = [state.energy for state in spectrum(reduce(p), QesIndex(n_cap, parity)).states]
    half_width = default_grid(p, max(exact)).half_width
    n = 12
    err = np.max(np.abs(_sinc_levels(p, parity, half_width, n, len(exact)) - exact))
    while err > 1e-12:
        assert n < 200, f"still {err:.2e} at n={n}"
        n = math.ceil(1.5 * n)
        finer = np.max(np.abs(_sinc_levels(p, parity, half_width, n, len(exact)) - exact))
        assert finer <= max(err / 100.0, 1e-12), (n, err, finer)
        err = finer


def test_parity_sectors_disjoint():
    g = default_grid(TABLE1, e_max=11.0)
    even = lowest_eigenvalues(TABLE1, 4, g, parity=0)
    odd = lowest_eigenvalues(TABLE1, 4, g, parity=1)
    for e in even:
        assert np.min(np.abs(odd - e)) > 1e-3


def test_verify_table1():
    idx = QesIndex(3, 0)
    s = spectrum(reduce(TABLE1), idx)
    report = verify_qes(s, TABLE1)
    assert len(report.matches) == 4
    assert report.all_matched
    assert report.max_abs_error < 1e-5


def test_verify_rejects_wrong_omega():
    idx = QesIndex(3, 0)
    s = spectrum(reduce(TABLE1), idx)
    with pytest.raises(ConstraintViolationError):
        verify_qes(s, CouplingParams(0.1, 0.5, 0.03))


def test_verify_flessas_ground_state():
    idx = QesIndex(0, 0)
    p = solve_constraint(idx, lam=0.8, eta=0.5)[0]
    s = spectrum(reduce(p), idx)
    report = verify_qes(s, p)
    assert report.all_matched


def test_verify_random_constrained_couplings(rng):
    for _ in range(3):
        idx = QesIndex(int(rng.integers(0, 4)), int(rng.integers(0, 2)))
        lam = rng.uniform(0.1, 1.0)
        eta = rng.uniform(0.05, 0.5)
        p = solve_constraint(idx, lam=lam, eta=eta)[0]
        s = spectrum(reduce(p), idx)
        assert verify_qes(s, p).all_matched


def test_verify_n5_beyond_closed_forms():
    idx = QesIndex(5, 0)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    s = spectrum(reduce(p), idx)
    report = verify_qes(s, p)
    assert len(report.matches) == 6
    assert report.all_matched


def test_report_carries_convergence_and_box():
    idx = QesIndex(3, 0)
    s = spectrum(reduce(TABLE1), idx)
    report = verify_qes(s, TABLE1)
    grid = default_grid(TABLE1, max(state.energy for state in s.states))
    k = len(s.states)  # the oracle solves for the matched levels only
    assert report.half_width == grid.half_width
    assert report.points % 2 == 1 and 2 * 40 + 1 <= report.points <= grid.points
    assert len(report.eigenvalues) == len(report.convergence_estimate) == k
    for e, estimate in zip(report.eigenvalues, report.convergence_estimate):
        assert estimate <= 1e-9 * max(1.0, abs(e))
    assert report.eigenvalues == lowest_eigenvalues(TABLE1, k, grid, parity=0).tolist()
    for m in report.matches:
        assert m.oracle_energy in report.eigenvalues  # the finest grid's level


def test_verify_uses_the_box_it_is_given():
    # x_t = 0.9188 < 3 < 10.8319, the default box; a box short of the default used to be replaced by it
    idx = QesIndex(0, 0)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    s = spectrum(reduce(p), idx)
    grid = GridSpec(3.0)
    assert grid.half_width < default_grid(p, s.states[0].energy).half_width
    report = verify_qes(s, p, grid)
    assert report.half_width == 3.0
    assert report.eigenvalues == lowest_eigenvalues(p, 1, grid, parity=0).tolist()


def _former_sinc_matrix(p: CouplingParams, parity: int, half_width: float, n: int) -> np.ndarray:
    """The collocation matrix as assembled before strided views, frozen."""
    from numpy.lib.stride_tricks import sliding_window_view

    h = half_width / n
    m = np.abs(np.arange(-n, 2 * n + 1, dtype=float))
    t = np.where(m % 2 == 0, 2.0, -2.0) / np.maximum(m, 1.0) ** 2
    t[n] = math.pi**2 / 3.0
    toeplitz = sliding_window_view(t[: 2 * n + 1], n + 1)[::-1]
    hankel = sliding_window_view(t[n:], n + 1)
    if parity == 0:
        mat = toeplitz + hankel
        mat[0, :] /= math.sqrt(2.0)
        mat[:, 0] /= math.sqrt(2.0)
    else:
        mat = (toeplitz - hankel)[1:, 1:]
    mat /= h * h
    x = np.arange(parity, n + 1) * h
    x2 = x * x
    potential = 0.5 * p.omega_sq * x2 + 0.25 * p.lam * x2 * x2 + p.eta * x2 * x2 * x2 / 6.0
    mat[np.diag_indices_from(mat)] += 2.0 * potential
    return mat


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("n", [40, 50, 63, 285, 1000])
def test_sinc_matrix_keeps_former_bits(n, parity):
    half_width = default_grid(TABLE1, 9.2).half_width
    got = _sinc_matrix(TABLE1, parity, half_width, n)
    want = _former_sinc_matrix(TABLE1, parity, half_width, n)
    assert got.shape == want.shape == (n + 1 - parity,) * 2
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _former_matches(s, levels: np.ndarray) -> list[Match]:
    """The nearest-unused matching loop that label matching replaced, frozen."""
    matches, used = [], set()
    for e in (st.energy for st in s.states):
        order = np.argsort(np.abs(levels - e))
        i = next((int(j) for j in order if int(j) not in used), None)
        if i is None or abs(levels[i] - e) > _UNMATCHED_TOL * max(1.0, abs(e)):
            raise VerificationError(f"exact level E={e:.8f} has no numerical counterpart")
        used.add(i)
        err = abs(levels[i] - e)
        converged = err < MATCH_TOL * max(1.0, abs(e))
        matches.append(Match(qes_energy=e, oracle_energy=float(levels[i]), abs_error=err, converged=converged))
    return matches


def test_label_match_equals_former_nearest_unused():
    # fed the report's own levels, the nearest-unused search gives the same
    # records as state m -> level m, over the benchmark's coupling box
    rng = np.random.default_rng(14)
    for _ in range(200):
        idx = QesIndex(int(rng.integers(0, 21)), int(rng.integers(0, 2)))
        p = solve_constraint(idx, lam=rng.uniform(-1.5, 1.5), eta=10.0 ** rng.uniform(-3.0, 0.5))[0]
        s = spectrum(reduce(p), idx)
        report = verify_qes(s, p)
        assert report.matches == _former_matches(s, np.array(report.eigenvalues)), (p, idx)


def _with_energy(s, m: int, energy: float):
    states = list(s.states)
    states[m] = dataclasses.replace(states[m], energy=energy)
    return dataclasses.replace(s, states=states)


def test_wrong_level_is_a_mismatch_then_absent():
    s = spectrum(reduce(TABLE1), QesIndex(3, 0))
    e = s.states[1].energy
    report = verify_qes(_with_energy(s, 1, e * (1.0 + 1e-3)), TABLE1)
    assert [m.converged for m in report.matches] == [True, False, True, True]
    assert not report.all_matched
    assert report.max_abs_error == pytest.approx(1e-3 * e, rel=1e-6)
    with pytest.raises(VerificationError, match=r"exact level E=.* has no numerical counterpart \(parity 0\)"):
        verify_qes(_with_energy(s, 1, e * (1.0 + 2.0 * _UNMATCHED_TOL)), TABLE1)


@pytest.mark.parametrize("n_cap, parity", [(40, 0), (40, 1), (45, 0), (45, 1)])
def test_cap_rung_is_solved_when_the_cap_binds(n_cap, parity):
    # the ladder that would pass 201 points ends on the cap itself: one rung
    # short of it (167 points) the top levels of N = 45 were off by 9.9e-7
    idx = QesIndex(n_cap, parity)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    s = spectrum(reduce(p), idx)
    grid = default_grid(p, max(st.energy for st in s.states), points=201)
    assert verify_qes(s, p).points > grid.points  # uncapped, the ladder goes past 201
    report = verify_qes(s, p, grid)
    assert report.points == grid.points
    exact = _recurrence_levels(p, n_cap, parity)
    assert np.max(np.abs(np.array([m.oracle_energy for m in report.matches]) - exact)) <= 1e-12


def _recurrence_levels(p: CouplingParams, n_cap: int, parity: int) -> np.ndarray:
    """Exact levels from a dense eigvalsh of the symmetrised recurrence.

    M A = 2E A has diagonal a (4n + 2 eps + 1) and off-diagonal products
    4b (N - n)(2n + 1 + eps)(2n + 2 + eps) > 0, so it is similar to the
    symmetric tridiagonal matrix with their square roots off the diagonal.
    """
    r = reduce(p)
    n = np.arange(n_cap + 1, dtype=float)
    k = n[:-1]
    t = np.diag(r.a * (4.0 * n + 2.0 * parity + 1.0))
    off = np.sqrt(4.0 * r.b * (n_cap - k) * (2.0 * k + 1.0 + parity) * (2.0 * k + 2.0 + parity))
    t += np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(t) / 2.0


def _oracle_against_recurrence(p: CouplingParams, idx: QesIndex):
    """(report, [(oracle level, its convergence estimate, exact level)])."""
    report = verify_qes(spectrum(reduce(p), idx), p)
    exact = _recurrence_levels(p, idx.n_cap, idx.parity)
    matched = sorted(report.matches, key=lambda m: m.qes_energy)
    rows = []
    for m, e in zip(matched, exact):
        i = report.eigenvalues.index(m.oracle_energy)
        rows.append((m.oracle_energy, report.convergence_estimate[i], e))
    return report, rows


@pytest.mark.parametrize(
    "n_cap, parity", [(20, 0), (20, 1), (40, 0), (40, 1), (60, 0), (60, 1), (100, 0)]
)
def test_default_grid_matches_every_level_at_large_n(n_cap, parity):
    # the box follows the degree 2N + eps: a box from the bare weight's
    # width cut off the top states from N = 16 (errors up to 0.17 at N = 40)
    idx = QesIndex(n_cap, parity)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    report, rows = _oracle_against_recurrence(p, idx)
    assert report.all_matched and len(rows) == n_cap + 1
    for got, _, e in rows:
        assert abs(got - e) <= 1e-9 * max(1.0, abs(e))


@given(
    lam=st.floats(-1.5, 1.5),
    log10_eta=st.floats(-3.0, 0.5),
    n_cap=st.integers(0, 20),
    parity=st.integers(0, 1),
)
@example(lam=-1.0, log10_eta=-2.5, n_cap=20, parity=1)  # a^2/b ~ 1,830: a deep double well
@example(lam=-1.0, log10_eta=-2.5, n_cap=20, parity=0)
def test_every_level_within_its_convergence_estimate(lam, log10_eta, n_cap, parity):
    idx = QesIndex(n_cap, parity)
    p = solve_constraint(idx, lam=lam, eta=10.0**log10_eta)[0]
    report, rows = _oracle_against_recurrence(p, idx)
    assert report.all_matched
    for got, estimate, e in rows:
        assert abs(got - e) <= estimate + 1e-11 * max(1.0, abs(e))
