"""Randomized invariant checks. Each property encodes an identity that must
hold for every parameter draw, not just the frozen reference points."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udwsim.correlators import scenario_correlator, wightman_local
from udwsim.kinematics import (TrajectoryScenario, four_velocity,
                               minkowski_interval, worldline_event)
from udwsim.quadrature import epsilon_extrapolate
from udwsim.response import planck_rate
from udwsim.superposition import ControlState, phase_envelope

kappas = st.floats(0.2, 4.0)
taus = st.floats(-3.0, 3.0)
epsilons = st.floats(1e-3, 1e-2)


@st.composite
def scenarios(draw):
    family = draw(st.sampled_from(("SingleAccel", "Parallel", "AntiParallel",
                                   "Differing", "ThermalInertialPair")))
    kappa1 = draw(kappas)
    if family == "Differing":
        return TrajectoryScenario(family, kappa1=kappa1, kappa2=draw(kappas))
    if family == "SingleAccel":
        return TrajectoryScenario(family, kappa1=kappa1)
    return TrajectoryScenario(family, kappa1=kappa1,
                              L=draw(st.floats(0.1, 3.0)))


@settings(max_examples=60, deadline=None)
@given(scenarios(), taus)
def test_four_velocity_is_unit_timelike(scenario, tau):
    for branch in range(1, scenario.branch_count + 1):
        u = four_velocity(scenario, branch, tau)
        # sinh^2 - cosh^2 cancels at scale cosh^2 * ulp, so the achievable
        # accuracy degrades with the Lorentz factor
        tol = 1e-13 * max(1.0, u.t * u.t)
        assert u.minkowski_norm() == pytest.approx(-1.0, abs=tol)


@settings(max_examples=60, deadline=None)
@given(scenarios(), taus)
def test_branch_null_coordinates_match_worldline_and_velocity(scenario, tau):
    # u = -z_c - a and v = z_c + b are t - z and t + z of the worldline, and
    # their tau-derivatives -a' and b' are u^t - u^z and u^t + u^z
    for index, branch in enumerate(scenario.branches, start=1):
        a, b, da, db = (float(x) for x in branch.null(tau))
        e = worldline_event(scenario, index, tau)
        vel = four_velocity(scenario, index, tau)
        scale = max(1.0, abs(e.t) + abs(e.z))
        assert -branch.z_c - a == pytest.approx(e.t - e.z, abs=1e-13 * scale)
        assert branch.z_c + b == pytest.approx(e.t + e.z, abs=1e-13 * scale)
        # u^t - u^z cancels at scale u^t * ulp
        assert -da == pytest.approx(vel.t - vel.z, abs=1e-13 * vel.t)
        assert db == pytest.approx(vel.t + vel.z, abs=1e-13 * vel.t)
        # and both against the closed-form hyperbola or static line
        k = scenario.branch_kappa(index)
        t_exact = math.sinh(k * tau) / k if k else tau
        z_exact = branch.z_c + (branch.direction * math.cosh(k * tau) / k if k else 0.0)
        assert e.t == pytest.approx(t_exact, rel=1e-12, abs=1e-13 * scale)
        assert e.z == pytest.approx(z_exact, rel=1e-12, abs=1e-13 * scale)
        assert vel.t == pytest.approx(math.cosh(k * tau), rel=1e-13)
        # the inverses undo a and b
        assert float(branch.a_inv(a)) == pytest.approx(tau, abs=1e-12 * scale)
        assert float(branch.b_inv(b)) == pytest.approx(tau, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(scenarios(), taus, taus, epsilons)
def test_wightman_hermiticity(scenario, tau1, tau2, eps):
    n = scenario.branch_count
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w_ij = complex(scenario_correlator(scenario, i, j)(tau1, tau2, eps))
            w_ji = complex(scenario_correlator(scenario, j, i)(tau2, tau1, eps))
            assert abs(w_ij - w_ji.conjugate()) <= 1e-10 * abs(w_ij)


@settings(max_examples=60, deadline=None)
@given(kappas, taus, taus, epsilons)
def test_parallel_cross_at_zero_separation_is_local(kappa, p, s, eps):
    sc = TrajectoryScenario("Parallel", kappa1=kappa, L=0.0)
    cross = scenario_correlator(sc, 1, 2)((p + s) / 2.0, (p - s) / 2.0, eps)
    local = wightman_local(kappa, s, eps)
    assert abs(cross - local) <= 1e-10 * abs(local)


@settings(max_examples=60, deadline=None)
@given(kappas, taus, taus, epsilons)
def test_differing_equal_accelerations_reduce_to_local(kappa, tau1, tau2, eps):
    sc = TrajectoryScenario("Differing", kappa1=kappa, kappa2=kappa)
    cross = scenario_correlator(sc, 1, 2)(tau1, tau2, eps)
    local = wightman_local(kappa, tau1 - tau2, eps)
    assert abs(cross - local) <= 1e-8 * abs(local)


@settings(max_examples=60, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_control_phase_gauge_invariance(offset, delta):
    shifted = ControlState(2, (offset, offset + delta))
    reference = ControlState(2, (0.0, delta))
    assert phase_envelope(shifted) == pytest.approx(
        phase_envelope(reference), abs=1e-12)
    assert 0.0 <= phase_envelope(shifted) <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_linear_extrapolation_is_exact_on_affine_data(intercept, slope):
    ladder = (1e-2, 5e-3, 2.5e-3)
    limit, err = epsilon_extrapolate(
        [(e, intercept + slope * e) for e in ladder])
    scale = max(1.0, abs(intercept), abs(slope) * ladder[0])
    assert abs(limit - intercept) <= 1e-12 * scale
    assert err <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.05, 3.0))
def test_planck_rate_detailed_balance(kappa, omega):
    ratio = planck_rate(kappa, omega) / planck_rate(kappa, -omega)
    assert ratio == pytest.approx(math.exp(-2.0 * math.pi * omega / kappa),
                                  rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(kappas, taus, taus)
def test_single_branch_interval_matches_hyperbolic_form(kappa, tau1, tau2):
    assume(abs(tau1 - tau2) > 0.1)
    sc = TrajectoryScenario("SingleAccel", kappa1=kappa)
    e1 = worldline_event(sc, 1, tau1)
    e2 = worldline_event(sc, 1, tau2)
    got = minkowski_interval(e1, e2)
    assert got == minkowski_interval(e2, e1)
    expected = -(2.0 / kappa) ** 2 * math.sinh(kappa * (tau1 - tau2) / 2.0) ** 2
    # the coordinate-difference form subtracts squares of size dt^2, so its
    # rounding floor scales with them; the sinh form is the conditioned one
    dt, dz = e1.t - e2.t, e1.z - e2.z
    tol = 1e-13 * (dt * dt + dz * dz) + 1e-12 * abs(expected)
    assert got == pytest.approx(expected, abs=tol)
