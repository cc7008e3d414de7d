import math
from dataclasses import replace

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
from sextic_qes.params import _cubic_real_roots, check_constraint, psi_half_width, turning_point


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


@pytest.mark.parametrize("name, couplings", [
    ("omega2", (math.nan, 0.5, 0.03)), ("lambda", (0.0625, -math.inf, 0.03)), ("eta", (0.0625, 0.5, math.inf)),
])
def test_non_finite_couplings_are_refused(name, couplings):
    with pytest.raises(InvalidCouplingError, match=f"must be finite, got {name}="):
        CouplingParams(*couplings)
    given = dict(zip(("omega_sq", "lam", "eta"), couplings))
    for unknown in (k for k, v in given.items() if math.isfinite(v)):  # the non-finite one is given
        with pytest.raises(InvalidCouplingError, match=f"got {name}="):
            solve_constraint(QesIndex(3, 0), **{**given, unknown: None})
    # a NaN gamma fails the constraint check, whatever made it
    r = reduce(CouplingParams(0.0625, 0.5, 0.03))
    with pytest.raises(ConstraintViolationError):
        check_constraint(replace(r, gamma=math.nan), QesIndex(3, 0))


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


def _mp_eta_root(omega_sq, lam, g, eta_start):
    """The root eta* of the constraint at 60 digits for these float couplings, and its condition kappa.

    F(u) = c r^2 u^3 - w u - g with u = eta^(-1/2), r = |lam|, c = 3 sqrt(3)/16, w = sqrt(3) omega2;
    kappa = (c r^2 u^3 + |w| u + g) / (u |F'(u)|) at the root.
    """
    with mpmath.workdps(60):
        c, r = 3 * mpmath.sqrt(3) / 16, mpmath.mpf(abs(lam))
        w, g = mpmath.sqrt(3) * mpmath.mpf(omega_sq), mpmath.mpf(g)
        u = 1 / mpmath.sqrt(mpmath.mpf(eta_start))
        for _ in range(40):  # F is convex on u > 0 and u starts near its one positive root
            u -= (c * r * r * u**3 - w * u - g) / (3 * c * r * r * u * u - w)
        kappa = (c * r * r * u**3 + abs(w) * u + g) / (u * abs(3 * c * r * r * u * u - w))
        return 1 / (u * u), kappa


def test_solve_eta_is_within_its_condition_of_the_mpmath_root(rng):
    # Newton's last steps are rounding noise: F(u) is formed to within eps of its terms'
    # magnitudes, which moves u by eps kappa u, so eta = u^-2 is within 2 eps (1 + kappa) eta*
    eps = np.finfo(float).eps
    for k in range(400):
        idx = QesIndex(int(rng.integers(0, 101)), k % 2)
        eta = (1e-12, 1e12)[k // 10] if k < 20 else 10.0 ** rng.uniform(-12.0, 12.0)  # the ends, then inside
        scale = (None, 0.0, 0.5, 0.75, 1.0)[k // 2 % 5]  # lam = 0, or lam ~ eta^scale
        lam = 0.0 if scale is None else rng.uniform(-3.0, 3.0) * eta**scale
        omega_sq = solve_constraint(idx, lam=lam, eta=eta)[0].omega_sq
        (p,) = solve_constraint(idx, omega_sq=omega_sq, lam=lam)
        eta_ref, kappa = _mp_eta_root(omega_sq, lam, constraint_gamma(idx), eta)
        assert abs(p.eta - eta_ref) <= 2 * eps * (1 + kappa) * eta_ref, (idx, omega_sq, lam)


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


@pytest.mark.parametrize("omega_sq, eta", [(-1.7320508075688774e109, 1e218), (-1.7320508075688774e-109, 1e-218)])
def test_turning_point_where_a_power_of_the_cubics_coefficients_left_the_doubles(omega_sq, eta):
    # lambda = 0, E = 0 (the block N = 0 of lambda = 0, eta = 1e218): t = sqrt(-3 omega2/eta).
    # p^3 underflowed to 0 in the closed form, which returned its shift 0, and Newton's
    # steps do not start from t = 0; or p^3 overflowed, and the turning point refused
    t = turning_point(CouplingParams(omega_sq, 0.0, eta), 0.0)
    with mpmath.workdps(30):
        ref = float(mpmath.sqrt(-3 * mpmath.mpf(omega_sq) / mpmath.mpf(eta)))
    assert abs(t - ref) <= 4 * math.ulp(ref)


@pytest.mark.parametrize(
    "omega_sq, lam, eta, energy",
    [(1.8750000000000001e304, 1e153, 10.0, 2.053959590644373e152), (1.875e199, 1e100, 1.0, 1.0825317547305482e100)],
)
def test_turning_point_where_the_closed_form_loses_a_root_far_below_b2(omega_sq, lam, eta, energy):
    # the top states of N = 0, odd, at lambda = 1e153, eta = 10 and of N = 1, even, at lambda = 1e100,
    # eta = 1: t = 2E/omega2 << b2 = 1.5 lambda/eta.  The closed form's rounding of the first, scaled up,
    # is 5.8e135, where V2 overflows, and the second's is 0; V2 rises on t > 0, so the steps from 0 reach t
    t = turning_point(CouplingParams(omega_sq, lam, eta), energy)
    with mpmath.workdps(60):
        w2, lam_mp, eta_mp, e2 = (mpmath.mpf(v) for v in (omega_sq, lam, eta, 2.0 * energy))
        ref = float(mpmath.findroot(lambda s: s * (w2 + s * (lam_mp / 2 + s * eta_mp / 3)) - e2, e2 / w2))
    assert abs(t - ref) <= 2 * math.ulp(ref)


@pytest.mark.parametrize(
    "omega_sq, lam, eta, energy",
    [
        (1.875e-26, -1e-75, 1e-125, -6.846531968814576e-14),
        (1.875e-101, -1e-200, 1e-300, -2.1650635094610966e-51),
        (0.18750000000000003, -1e-100, 1e-200, -0.21650635094610968),
    ],
)
def test_turning_point_at_the_outer_wells_bottom(omega_sq, lam, eta, energy):
    # the boxes of verify at lambda = -1e-75, eta = 1e-125 and of spectrum at lambda = -1e-200,
    # eta = 1e-300 and at lambda = -1e-100, eta = 1e-200, N = 0: E lies at the outer well's bottom
    # to rounding.  The closed form lost the double root of the first two (60 digits put E just
    # below the bottom; lambda^2 underflows in well_bottom for the second), and put the third's
    # left of the bottom, where V2 falls.  Steps from the right that stop where V2 still rises
    # end near the bottom, to the square root of V2's rounding, as at any double root
    p = CouplingParams(omega_sq, lam, eta)
    t = turning_point(p, energy)
    with mpmath.workdps(60):
        w2, lam_mp, eta_mp = (mpmath.mpf(v) for v in (omega_sq, lam, eta))
        bottom = float((-lam_mp + mpmath.sqrt(lam_mp**2 - 4 * eta_mp * w2)) / (2 * eta_mp))
    assert abs(t - bottom) <= 4.0 * math.sqrt(np.finfo(float).eps) * bottom
    assert omega_sq + t * (lam + t * eta) > 0.0  # V2 rises at t, so psi's box is finite
    assert math.sqrt(t) <= psi_half_width(p, energy) < math.inf  # the tail is below x_t's ulp


def test_turning_point_where_the_shift_cancels_beside_a_shallow_well():
    # verify at lambda = 1e-200, eta = 1e-300, N = 0: omega2 < 0 makes a well at t ~ 1.7e50 that
    # lambda^2 hides from well_bottom, so the steps from t = 0 fell; E > 0, and the root is 1e-25
    # of the closed form's shift
    p, energy = CouplingParams(-1.7320508075688775e-150, 1e-200, 1e-300), 2.1650635094610966e-51
    t = turning_point(p, energy)
    with mpmath.workdps(60):
        cubic = [mpmath.mpf(p.eta) / 3, mpmath.mpf(p.lam) / 2, mpmath.mpf(p.omega_sq), -2 * mpmath.mpf(energy)]
        ref = float(max(r.real for r in mpmath.polyroots(cubic, maxsteps=2000, extraprec=2000)))
    assert abs(t - ref) <= 4 * math.ulp(ref)
