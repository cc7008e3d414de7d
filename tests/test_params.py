import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sextic_qes import (
    ConstraintViolationError,
    CouplingParams,
    InvalidCouplingError,
    NoSolutionError,
    QesIndex,
    constraint_gamma,
    reduce,
    solve_constraint,
)
from sextic_qes.params import _cubic_real_roots, check_constraint, turning_point


def test_reduce_paper_values():
    r = reduce(CouplingParams(0.0625, 0.5, 0.03))
    assert r.a == pytest.approx(1.25, abs=1e-14)
    assert r.b == pytest.approx(0.10, abs=1e-14)
    # derived by hand; also forced by closure c = -12b at gamma = 15
    assert r.c == pytest.approx(-1.2, rel=1e-12)
    assert r.gamma == pytest.approx(15.0, rel=1e-12)


def test_reduce_trivial_lambda_zero():
    r = reduce(CouplingParams(0.0, 0.0, 3.0))
    assert r.a == 0.0
    assert r.b == pytest.approx(1.0)
    assert r.c == pytest.approx(3.0)
    # omega2 = 0 and lam = 0 zero both terms of gamma; the identity
    # c + b*gamma = sqrt(3*eta) then forces gamma = 0
    assert r.gamma == 0.0


def test_reduce_rejects_nonpositive_eta():
    with pytest.raises(InvalidCouplingError):
        CouplingParams(1.0, 1.0, 0.0)
    with pytest.raises(InvalidCouplingError):
        CouplingParams(1.0, 1.0, -0.1)


def test_constraint_gamma_values():
    assert constraint_gamma(QesIndex(0, 0)) == 3
    assert constraint_gamma(QesIndex(2, 1)) == 13
    assert constraint_gamma(QesIndex(3, 1)) == 17
    assert constraint_gamma(QesIndex(3, 0)) == 15


def test_identity_c_plus_b_gamma(rng):
    # c + b*gamma = sqrt(3*eta) for any couplings
    for _ in range(200):
        p = CouplingParams(rng.normal(0, 3), rng.normal(0, 3), rng.uniform(1e-3, 10))
        r = reduce(p)
        lhs = r.c + r.b * r.gamma
        assert lhs == pytest.approx(math.sqrt(3 * p.eta), rel=1e-12)


def test_closure_equivalence(rng):
    # gamma = 4N+3+2eps  <=>  c + 2b(2N+eps) = 0
    for _ in range(100):
        idx = QesIndex(int(rng.integers(0, 6)), int(rng.integers(0, 2)))
        lam = rng.normal(0, 2)
        eta = rng.uniform(1e-3, 5)
        p = solve_constraint(idx, lam=lam, eta=eta)[0]
        r = reduce(p)
        assert r.gamma == pytest.approx(constraint_gamma(idx), rel=1e-12)
        assert abs(r.c + 2 * r.b * (2 * idx.n_cap + idx.parity)) < 1e-12 * max(1.0, abs(r.c))


def test_solve_omega2_table1():
    p = solve_constraint(QesIndex(3, 0), lam=0.5, eta=0.03)[0]
    assert p.omega_sq == pytest.approx(0.0625, rel=1e-10)


def test_solve_omega2_table2_corrected():
    # constraint-consistent omega2 for the odd N=3 block: 1.5625 - 17/10
    p = solve_constraint(QesIndex(3, 1), lam=0.5, eta=0.03)[0]
    assert p.omega_sq == pytest.approx(-0.1375, rel=1e-10)


def test_solve_omega2_trivial():
    p = solve_constraint(QesIndex(0, 0), lam=0.0, eta=3.0)[0]
    assert p.omega_sq == pytest.approx(-3.0, rel=1e-10)


def test_round_trip_all_unknowns(rng):
    for _ in range(30):
        idx = QesIndex(int(rng.integers(0, 5)), int(rng.integers(0, 2)))
        lam = rng.uniform(0.05, 2)
        eta = rng.uniform(0.01, 5)
        p = solve_constraint(idx, lam=lam, eta=eta)[0]

        got = solve_constraint(idx, lam=p.lam, eta=p.eta)[0]
        assert got.omega_sq == pytest.approx(p.omega_sq, rel=1e-10, abs=1e-12)

        lams = [s.lam for s in solve_constraint(idx, omega_sq=p.omega_sq, eta=p.eta)]
        assert any(l == pytest.approx(p.lam, rel=1e-10) for l in lams)

        etas = [s.eta for s in solve_constraint(idx, omega_sq=p.omega_sq, lam=p.lam)]
        assert any(e == pytest.approx(p.eta, rel=1e-8) for e in etas)


def test_solve_eta_no_solution():
    # lam = 0 and omega2 >= 0 makes gamma <= 0 for every eta > 0
    for omega_sq in (2.0, 0.0):
        with pytest.raises(NoSolutionError):
            solve_constraint(QesIndex(1, 0), omega_sq=omega_sq, lam=0.0)


@pytest.mark.parametrize("omega_sq", [-2.0, -1e-20])
def test_solve_eta_lambda_zero(omega_sq):
    # lam = 0 leaves sqrt(3/eta) * (-omega2) = gamma: eta = 3 omega2^2 / gamma^2
    idx = QesIndex(2, 1)
    (p,) = solve_constraint(idx, omega_sq=omega_sq, lam=0.0)
    assert p.eta == pytest.approx(3.0 * omega_sq**2 / 13.0**2, rel=1e-15)
    assert reduce(p).gamma == pytest.approx(13.0, rel=1e-14)


def _scan_and_bisect_eta(omega_sq, lam, g):
    """The former eta solver: sign changes on a log grid, 200 bisection steps each."""

    def f(eta):
        return math.sqrt(3.0 / eta) * (3.0 * lam**2 / (16.0 * eta) - omega_sq) - g

    grid = np.logspace(-12, 12, 2001)
    vals = [f(e) for e in grid]
    roots = [float(e) for e, v in zip(grid, vals) if v == 0.0]
    for lo, hi, v0, v1 in zip(grid, grid[1:], vals, vals[1:]):
        if v0 * v1 < 0:
            lo, hi = float(lo), float(hi)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


def test_solve_eta_keeps_former_bits(rng):
    # near the root the constraint is rounding noise a few ulp wide; inside the
    # former grid's range the solve returns exactly the float it used to
    grid = np.logspace(-12, 12, 2001)
    for k in range(60):
        idx = QesIndex(int(rng.integers(0, 13)), int(rng.integers(0, 2)))
        eta = grid[rng.integers(1, 2000)] if k % 4 == 0 else 10.0 ** rng.uniform(-11.9, 11.9)
        lam = rng.uniform(-3.0, 3.0) * eta ** rng.choice([0.0, 0.5, 0.75, 1.0])
        omega_sq = solve_constraint(idx, lam=lam, eta=eta)[0].omega_sq
        expect = _scan_and_bisect_eta(omega_sq, lam, constraint_gamma(idx))
        got = [p.eta for p in solve_constraint(idx, omega_sq=omega_sq, lam=lam)]
        assert got == expect


@pytest.mark.parametrize("lam", [1e-20, 1e-60, -1e-200])
def test_solve_eta_tiny_lambda(lam):
    # omega2 < 0 and lam -> 0: Cardano's u + v would cancel to 0 here
    idx = QesIndex(0, 0)
    (p,) = solve_constraint(idx, omega_sq=-1.0, lam=lam)
    assert p.eta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert reduce(p).gamma == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("eta", [1e-30, 1e-3, 1e6])
@pytest.mark.parametrize("scale", [-1.3, 0.4, 2.5])
def test_solve_eta_round_trip_extreme(eta, scale):
    # lam ~ eta^(3/4) keeps 3 lam^2/(16 eta) and gamma sqrt(eta/3) comparable,
    # so omega2 carries every digit of eta
    idx = QesIndex(4, 1)
    lam = scale * eta**0.75
    p = solve_constraint(idx, lam=lam, eta=eta)[0]
    (q,) = solve_constraint(idx, omega_sq=p.omega_sq, lam=lam)
    assert q.eta == pytest.approx(eta, rel=1e-12)
    assert reduce(q).gamma == pytest.approx(constraint_gamma(idx), rel=1e-12)


def test_solve_requires_exactly_one_unknown():
    with pytest.raises(ValueError):
        solve_constraint(QesIndex(1, 0), omega_sq=1.0, lam=1.0, eta=1.0)
    with pytest.raises(ValueError):
        solve_constraint(QesIndex(1, 0), lam=1.0)


def test_qes_index_validation():
    with pytest.raises(ValueError):
        QesIndex(-1, 0)
    with pytest.raises(ValueError):
        QesIndex(2, 2)


@given(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0), st.integers(0, 100), st.integers(0, 1))
@example(2.9663546915999577, math.log10(1.2655601725453689e-06), 2, 1)  # gamma off by 1.3e-7
def test_solved_couplings_pass_the_constraint_check(lam, log_eta, n, eps):
    # gamma cancels at small eta, so its rounding can pass 1e-8 max(1, g)
    idx = QesIndex(n, eps)
    p = solve_constraint(idx, lam=lam, eta=10.0**log_eta)[0]
    check_constraint(reduce(p), idx)
    check_constraint(reduce(solve_constraint(idx, omega_sq=p.omega_sq, lam=lam)[0]), idx)


def test_constraint_check_keeps_its_bound_where_gamma_rounds_finely():
    idx = QesIndex(3, 0)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    b = math.sqrt(0.03 / 3.0)
    for off, ok in ((0.5e-8, True), (2e-8, False)):  # times max(1, g) = 15, moved through omega2
        r = reduce(CouplingParams(p.omega_sq - off * 15.0 * b, 0.5, 0.03))
        if ok:
            check_constraint(r, idx)
        else:
            with pytest.raises(ConstraintViolationError):
                check_constraint(r, idx)


def test_one_real_root_branch_keeps_every_digit(rng):
    # the Cardano branch of the turning point's cubic against mpmath on the same
    # float coefficients: -q/2 +- h must not cancel.  The three-root branch is
    # left out: there, and in this one, adding the shift -b2/3 cancels where the
    # root is much smaller than it (small E, large lam/eta).
    samples = [(7.69, -1.24, 1.84e5, 1e6 + 25)]  # -q/2 - h cancelled to 0.0: 6.8e-7 off
    samples += zip(rng.uniform(-30, 30, 100), rng.uniform(-3, 3, 100), 10.0 ** rng.uniform(-6, 6, 100),
                   rng.uniform(0, 1e6, 100))
    checked = 0
    for omega_sq, lam, eta, energy in samples:
        b = (1.5 * lam / eta, 3.0 * omega_sq / eta, -3.0 * (2.0 * energy) / eta)  # as turning_point
        roots = _cubic_real_roots(*b)
        if len(roots) == 1:
            with mpmath.workdps(30):
                ref = max(r.real for r in mpmath.polyroots([1, *b], extraprec=100) if abs(r.imag) < 1e-20 * abs(r))
                assert float(abs(roots[0] - ref) / abs(ref)) <= 8 * np.finfo(float).eps, (omega_sq, lam, eta, energy)
            checked += 1
    assert checked > 75


def test_turning_point_where_cardano_cancelled():
    t = turning_point(CouplingParams(7.69, -1.24, 1.84e5), 1e6 + 25)
    assert abs(t - 3.19482279640092603) <= math.ulp(3.19482279640092603)  # the 60-digit root


@pytest.mark.parametrize(
    "omega_sq, lam, eta, energy",
    [(0.23140, 2.7904, 1.7652e-6, 2.0512e-3), (24.885, -0.018059, 7.0099e-6, 0.018163)],
)
def test_turning_point_where_the_shift_cancels(omega_sq, lam, eta, energy):
    # small E and large lam/eta put the root far below the closed form's shift -b2/3,
    # which cancelled: 3.4e-2 and 9.0e-10 relative off before Newton's steps
    t = turning_point(CouplingParams(omega_sq, lam, eta), energy)
    with mpmath.workdps(60):
        cubic = [mpmath.mpf(eta) / 3, mpmath.mpf(lam) / 2, mpmath.mpf(omega_sq), -2 * mpmath.mpf(energy)]
        ref = float(max(r.real for r in mpmath.polyroots(cubic, extraprec=200) if abs(r.imag) < 1e-30 * abs(r)))
    assert abs(t - ref) <= 4 * math.ulp(ref)
