import math

import numpy as np
import pytest

from sextic_qes import (
    NonEigenvalueError,
    QesIndex,
    ReducedParams,
    SolverError,
    build_recurrence_matrix,
    coefficients_from_energy,
    solve_cubic_trig,
    solve_quartic_real,
    spectrum,
    spectrum_closed_form,
)
from sextic_qes.qes_core import _twist, _twisted_ratios, closure_reduced, eigenvalues

from conftest import random_ab


def reduced(a, b):
    # c and gamma are overwritten by the closure inside the solvers
    return ReducedParams(a=a, b=b, c=0.0, gamma=0.0)


# ---------------------------------------------------------------------------
# recurrence matrix


def test_matrix_n0_gives_half_a():
    m = build_recurrence_matrix(reduced(1.25, 0.1), QesIndex(0, 0))
    assert m.dim == 1
    assert m.diag[0] == pytest.approx(1.25)


def test_matrix_n1_even_roots():
    a, b = 0.7, 0.4
    m = build_recurrence_matrix(reduced(a, b), QesIndex(1, 0))
    assert np.allclose(m.diag, [a, 5 * a])
    assert np.allclose(m.superdiag, [-2.0])
    assert np.allclose(m.subdiag, [-4 * b])
    w = np.sort(np.linalg.eigvals(m.dense()).real) / 2
    expect = [1.5 * a - math.sqrt(a * a + 2 * b), 1.5 * a + math.sqrt(a * a + 2 * b)]
    assert np.allclose(w, expect, rtol=1e-12)


def test_matrix_signs_and_symmetrizability(rng):
    for _ in range(30):
        a = rng.uniform(-2, 2)
        b = rng.uniform(0.05, 3)
        idx = QesIndex(int(rng.integers(1, 8)), int(rng.integers(0, 2)))
        m = build_recurrence_matrix(reduced(a, b), idx)
        assert np.all(m.superdiag < 0)
        assert np.all(m.subdiag < 0)
        assert np.all(m.superdiag * m.subdiag > 0)
        # all eigenvalues real
        w = np.linalg.eigvals(m.dense())
        assert np.max(np.abs(w.imag)) < 1e-12 * max(1.0, np.max(np.abs(w.real)))


def test_n1_degenerate_symmetric_case():
    s = spectrum(reduced(0.0, 1.0), QesIndex(1, 0))
    assert [st.energy for st in s.states] == pytest.approx([-math.sqrt(2), math.sqrt(2)])


# ---------------------------------------------------------------------------
# general spectrum


def test_spectrum_general_table1_energies():
    s = spectrum(reduced(1.25, 0.1), QesIndex(3, 0))
    assert [st.energy for st in s.states] == pytest.approx(
        [0.360920, 2.512128, 5.524957, 9.101994], abs=1e-6
    )


def test_spectrum_general_table2_energies():
    s = spectrum(reduced(1.25, 0.1), QesIndex(3, 1))
    assert [st.energy for st in s.states] == pytest.approx(
        [1.144540, 3.708044, 6.947903, 10.699513], abs=1e-6
    )


def test_trace_rule(rng):
    for a, b in random_ab(rng, 20):
        for n in range(7):
            for eps in (0, 1):
                idx = QesIndex(n, eps)
                s = spectrum(reduced(a, b), idx)
                m = build_recurrence_matrix(reduced(a, b), idx)
                assert sum(st.energy for st in s.states) == pytest.approx(
                    0.5 * m.trace(), rel=1e-10, abs=1e-10
                )


def test_energy_coefficient_consistency(rng):
    for a, b in random_ab(rng, 10):
        for n in range(1, 6):
            for eps in (0, 1):
                s = spectrum(reduced(a, b), QesIndex(n, eps))
                for st in s.states:
                    e = 0.5 * a * (1 + 2 * eps) - 0.5 * (1 + eps) * (2 + eps) * st.coeffs[1]
                    assert st.energy == pytest.approx(e, rel=1e-10, abs=1e-10)


def test_states_count_and_normalization(rng):
    for a, b in random_ab(rng, 5):
        for n in range(5):
            s = spectrum(reduced(a, b), QesIndex(n, 0))
            assert len(s.states) == n + 1
            for st in s.states:
                assert st.coeffs[0] == 1.0


# ---------------------------------------------------------------------------
# coefficients from energy


def test_coefficients_table1_row0():
    c = coefficients_from_energy(0.36092046884063844, reduced(1.25, 0.1), QesIndex(3, 0))
    assert c == pytest.approx([1, 0.264080, 0.021656, 0.000558], abs=1e-6)


def test_coefficients_table2_row0():
    c = coefficients_from_energy(1.1445398648750809, reduced(1.25, 0.1), QesIndex(3, 1))
    assert c == pytest.approx([1, 0.243487, 0.018657, 0.000453], abs=1e-6)


def test_coefficients_n0():
    c = coefficients_from_energy(0.5 * 1.7, reduced(1.7, 0.3), QesIndex(0, 0))
    assert c.tolist() == [1.0]


def test_coefficients_rejects_non_eigenvalue():
    with pytest.raises(NonEigenvalueError):
        coefficients_from_energy(1.0, reduced(1.25, 0.1), QesIndex(3, 0))


def test_coefficients_at_an_eigenvalue_are_the_spectrum_coefficients(rng):
    # spectrum also steers its vector by a Rayleigh step; below N = 7 that moves
    # A by less than 1e-12 of its largest entry
    for a, b in np.vstack([random_ab(rng, 6), random_ab(rng, 6) * [-1, 1]]):
        for n in range(7):
            for eps in (0, 1):
                idx = QesIndex(n, eps)
                for st in spectrum(reduced(a, b), idx).states:
                    c = coefficients_from_energy(st.energy, reduced(a, b), idx)
                    assert np.max(np.abs(c - st.coeffs)) <= 1e-12 * np.max(np.abs(st.coeffs))


@pytest.mark.parametrize("a, b", [(1.25, 0.1), (-1.5, 0.35)])
def test_coefficients_reject_an_energy_off_by_1e_minus_6(a, b):
    for n in (0, 1, 2, 3, 7, 12):
        for eps in (0, 1):
            idx = QesIndex(n, eps)
            for st in spectrum(reduced(a, b), idx).states:
                with pytest.raises(NonEigenvalueError):
                    coefficients_from_energy(st.energy * (1 + 1e-6), reduced(a, b), idx)


def test_twisted_pivot_bounds_the_distance_to_the_spectrum(rng):
    # 1/|gamma_k| = |[(T - theta)^-1]_kk| <= 1/dist(theta, spectrum of T)
    for a, b in np.vstack([random_ab(rng, 5), random_ab(rng, 5) * [-1, 1]]):
        for n in (0, 1, 4, 12, 30):
            m = build_recurrence_matrix(reduced(a, b), QesIndex(n, int(rng.integers(0, 2))))
            levels = eigenvalues(m)
            theta = rng.uniform(levels[0] - 1.0, levels[-1] + 1.0, 50)
            gamma = _twisted_ratios(_twist(m), theta, np.max(np.abs(levels)))[2]  # ||T|| = max |level|
            dist = np.min(np.abs(theta[:, None] - levels), axis=1)
            assert np.all(np.abs(gamma) >= dist * (1 - 1e-9))


def test_coefficients_through_a_zero_pivot():
    # a = 0 zeroes the diagonal, so theta = 0 makes D+_0 and D-_2 exactly 0:
    # A_1 = 0 and A_2 = -l_0/u_1 = -2b/3
    b = 0.49
    c = coefficients_from_energy(0.0, reduced(0.0, b), QesIndex(2, 0))
    assert c == pytest.approx([1.0, 0.0, -2.0 * b / 3.0], rel=1e-15, abs=1e-15)


def test_coefficients_match_rational_backsubstitution(rng):
    # A_2 = 2b A_1/(A_1 + 4a) for N=2 even
    for a, b in random_ab(rng, 20):
        s = spectrum_closed_form(reduced(a, b), QesIndex(2, 0))
        for st in s.states:
            a1 = st.coeffs[1]
            assert st.coeffs[2] == pytest.approx(2 * b * a1 / (a1 + 4 * a), rel=1e-9)
            fwd = coefficients_from_energy(st.energy, reduced(a, b), QesIndex(2, 0))
            assert st.coeffs == pytest.approx(fwd, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# cubic / quartic solvers


def test_cubic_trivial():
    roots = solve_cubic_trig(-3.0, 0.0)
    assert sorted(roots) == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)])


def test_cubic_residuals_and_vieta(rng):
    for a, b in random_ab(rng, 50):
        p = -4 * (a * a + 4 * b)
        q = 16 * a * b
        roots = solve_cubic_trig(p, q)
        for x in roots:
            assert abs(x**3 + p * x + q) < 1e-12 * max(1.0, abs(x) ** 3)
        assert sum(roots) == pytest.approx(0.0, abs=1e-10)


def test_cubic_negative_q(rng):
    # a < 0 makes q negative; the sign-aware theta still parameterizes the roots
    for _ in range(50):
        a = rng.uniform(-3, -0.05)
        b = rng.uniform(0.05, 3)
        p = -4 * (a * a + 4 * b)
        q = 16 * a * b
        roots = solve_cubic_trig(p, q)
        for x in roots:
            assert abs(x**3 + p * x + q) < 1e-12 * max(1.0, abs(x) ** 3)


def test_cubic_rejects_nonpositive_discriminant():
    with pytest.raises(SolverError):
        solve_cubic_trig(1.0, 1.0)


def test_quartic_even_roots_table1():
    a, b = 1.25, 0.1
    p = -10 * (a * a + 6 * b)
    q = 96 * a * b
    r = 9 * (a**4 + 12 * a * a * b + 20 * b * b)
    w = np.sort(solve_quartic_real(p, q, r) - 3 * a)[::-1]
    assert w == pytest.approx([0.264080, -1.887128, -4.899957, -8.476994], abs=1e-6)
    assert np.sum(w) == pytest.approx(-12 * a, rel=1e-10)


def test_quartic_residuals_and_vieta(rng):
    for a, b in random_ab(rng, 50):
        p = -10 * (a * a + 6 * b)
        q = 96 * a * b
        r = 9 * (a**4 + 12 * a * a * b + 20 * b * b)
        roots = solve_quartic_real(p, q, r)
        for x in roots:
            assert abs(((x * x + p) * x + q) * x + r) < 1e-10 * max(1.0, abs(x) ** 4)
        assert np.sum(roots) == pytest.approx(0.0, abs=1e-9)
        s2 = sum(roots[i] * roots[j] for i in range(4) for j in range(i + 1, 4))
        assert s2 == pytest.approx(p, rel=1e-8)


def test_quartic_rejects_complex_regime():
    with pytest.raises(SolverError):
        solve_quartic_real(2.0, 1.0, 5.0)


# ---------------------------------------------------------------------------
# closed form vs general


def test_closed_form_matches_general(rng):
    for a, b in random_ab(rng, 40):
        for n in range(4):
            for eps in (0, 1):
                idx = QesIndex(n, eps)
                cf = spectrum_closed_form(reduced(a, b), idx)
                gen = spectrum(reduced(a, b), idx)
                for s1, s2 in zip(cf.states, gen.states):
                    assert s1.energy == pytest.approx(s2.energy, rel=1e-10, abs=1e-10)
                    assert s1.coeffs == pytest.approx(s2.coeffs, rel=1e-9, abs=1e-10)


def test_closed_form_negative_a(rng):
    # lam < 0 flips the sign of a; closed forms must stay valid
    for _ in range(30):
        a = rng.uniform(-3, -0.05)
        b = rng.uniform(0.05, 3)
        for n in range(4):
            for eps in (0, 1):
                idx = QesIndex(n, eps)
                cf = spectrum_closed_form(reduced(a, b), idx)
                gen = spectrum(reduced(a, b), idx)
                for s1, s2 in zip(cf.states, gen.states):
                    assert s1.energy == pytest.approx(s2.energy, rel=1e-9, abs=1e-9)


def test_closed_form_rejects_n_above_3():
    with pytest.raises(SolverError):
        spectrum_closed_form(reduced(1.0, 1.0), QesIndex(4, 0))


def test_closed_form_a_zero_n2():
    # q = 16ab = 0 zeroes Q; chi = (0, +4 sqrt(b), -4 sqrt(b))
    b = 0.49
    s = spectrum_closed_form(reduced(0.0, b), QesIndex(2, 0))
    a1 = sorted(st.coeffs[1] for st in s.states)
    root = 4 * math.sqrt(b)
    assert a1 == pytest.approx([-root, 0.0, root], abs=1e-12)


def test_n1_odd_energies_at_a1_b1():
    s = spectrum_closed_form(reduced(1.0, 1.0), QesIndex(1, 1))
    assert [st.energy for st in s.states] == pytest.approx(
        [2.5 - math.sqrt(7), 2.5 + math.sqrt(7)]
    )


def test_ground_state_positivity(rng):
    # lowest even state has all positive coefficients when a > 0
    for a, b in random_ab(rng, 20):
        for n in range(1, 4):
            s = spectrum_closed_form(reduced(a, b), QesIndex(n, 0))
            assert np.all(s.states[0].coeffs > 0)


def test_table_sign_patterns():
    for eps in (0, 1):
        s = spectrum_closed_form(reduced(1.25, 0.1), QesIndex(3, eps))
        signs = [np.sign(st.coeffs[1:]).tolist() for st in s.states]
        assert signs[0] == [1, 1, 1]
        assert signs[1] == [-1, -1, -1]
        assert signs[2] == [-1, 1, 1]
        assert signs[3] == [-1, 1, -1]


def test_closure_reduced_values():
    rc = closure_reduced(reduced(1.25, 0.1), QesIndex(3, 0))
    assert rc.c == pytest.approx(-1.2)
    assert rc.gamma == 15.0
    assert rc.omega_sq() == pytest.approx(0.0625)
    assert rc.lam == pytest.approx(0.5)
    assert rc.eta == pytest.approx(0.03)
