"""Acceptance criteria, one test and one PASS/FAIL line per criterion.

Criterion 4 checks the closed forms where they promise 2 percent. They keep
the leading saddle term of the windowed integral on the shifted contour,
whose relative error is about 3/(2 (sigma omega)^2): 9.4 percent at
sigma omega = 4 (measured worst 8.84 percent over the criterion's points),
3.29 at 6.7, 2.30 at 8 and 1.48 at 10. The 2 percent clause is therefore
taken at sigma omega = 10, against the regulator-free evaluation on the
shifted contour, which resolves probabilities near 1e-47 there to ~1e-15
relative. At sigma omega = 4 that evaluation is first checked against the
real-axis quadrature within their summed error bars.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, REF_PARAMS
from udwsim import response
from udwsim.closed_form import (DetectorParams, p_antiparallel, p_differing,
                                p_local, p_parallel)
from udwsim.correlators import scenario_correlator
from udwsim.kinematics import TrajectoryScenario, four_velocity
from udwsim.quadrature import QuadratureConfig, default_schedule, epsilon_extrapolate
from udwsim.response import (excitation_probability_contour,
                             excitation_probability_quadrature, kms_check,
                             planck_rate, transition_rate)
from udwsim.superposition import (ControlState, conditional_density_matrix,
                                  phase_envelope, visibility_scan)


def unit(omega, sigma=1.0):
    """Unit-coupling params; rates and probabilities are exactly quadratic
    in lambda at this order, so lambda = 1 reads off the per-lambda^2 value."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return DetectorParams(omega=omega, lambda_coupling=1.0, sigma=sigma)


def report(ok, label, detail):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_single_branch_rate_is_planckian():
    # transition_rate returns planck_rate itself for this stationary pair, so
    # the check integrates the local correlator on the regulator ladder
    sc = TrajectoryScenario("SingleAccel", kappa1=1.0)
    sched, quad = default_schedule(1.0), QuadratureConfig()
    worst = 0.0
    for q in (0.25, 0.5, 1.0, 2.0, 3.0):
        for sign in (1.0, -1.0):
            vals, _ = response._rate_pair_integral(sc, 1, 1, 0.0, sign * q,
                                                   sched.epsilons, quad)
            rate, _ = epsilon_extrapolate(tuple(zip(sched.epsilons, 2.0 * vals.real)),
                                          sched.extrapolation)
            ref = planck_rate(1.0, sign * q)
            worst = max(worst, abs(rate - ref) / ref)
    report(worst <= 0.01, "criterion 1",
           "eps-ladder integral of the single-branch correlator matches the "
           f"thermal form for |omega|/kappa in [0.25, 3], both signs; worst rel "
           f"dev {worst:.2e} (tol 1e-2)")


def test_criterion_2_far_separation_halves_the_rate():
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=1e6)
    res = transition_rate(sc, unit(1.0), 0.0)
    ref = 0.5 * planck_rate(1.0, 1.0)
    rel = abs(res.value - ref) / ref
    report(rel <= 0.01, "criterion 2",
           "separation L = 1e6 decouples the branches and halves the "
           f"single-branch rate; rel dev {rel:.2e} (tol 1e-2)")


def test_criterion_3_closed_form_limit_identities():
    kappa, sigma, beta = 1.0, 0.05, 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = DetectorParams(omega=beta / (kappa * sigma**2),
                                lambda_coupling=0.01, sigma=sigma)
        loc = p_local(params, kappa).probability
        far = 1e6 * sigma
        lam, omega = params.lambda_coupling, params.omega
        zeta = (kappa * sigma * lam) ** 2 * math.exp(
            -(sigma * omega) ** 2) / (16.0 * math.pi)
        kappa2 = 2.0
        loc2 = p_local(params, kappa2).probability
        residual = (lam / (2.0 * sigma * omega)) ** 2 * math.exp(
            -(sigma * omega) ** 2) / (8.0 * math.pi)
        identities = [
            p_parallel(params, kappa, 0.0).probability / loc,
            p_parallel(params, kappa, far).probability / (0.5 * loc),
            p_antiparallel(params, kappa, 0.0).probability
            / (0.5 * loc + zeta / (2.0 * (1.0 - math.cos(beta)))),
            p_antiparallel(params, kappa, far).probability / (0.5 * loc),
            p_differing(params, kappa, kappa).probability / loc,
            p_differing(params, 1e-9, kappa2).probability
            / (0.25 * loc2 + residual),
        ]
    worst = max(abs(r - 1.0) for r in identities)
    report(worst <= 1e-10, "criterion 3",
           f"{len(identities)} algebraic limit identities across the four "
           f"families; worst rel dev {worst:.2e} (tol 1e-10)")


def test_criterion_4_closed_form_vs_quadrature_window():
    sigma, beta = 0.05, 0.2
    grid = [(family, kappa_L) for family in ("Parallel", "AntiParallel")
            for kappa_L in (0.0, 0.5, 1.0, 2.0)]

    def point(family, kappa_sigma, kappa_L):
        kappa = kappa_sigma / sigma
        params = unit(beta / (kappa * sigma**2), sigma)
        L = kappa_L / kappa
        fn = p_parallel if family == "Parallel" else p_antiparallel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            closed = fn(params, kappa, L).probability
        return TrajectoryScenario(family, kappa1=kappa, L=L), params, closed

    def quadrature(family, kappa_sigma, kappa_L):
        scenario, params, closed = point(family, kappa_sigma, kappa_L)
        quad = excitation_probability_quadrature(scenario, params)
        return quad, abs(quad.value - closed) / abs(quad.value)

    # (a) saddle ordering against the quadrature: smaller kappa sigma is
    # more accurate
    quads = {key: quadrature(key[0], 0.05, key[1]) for key in grid}
    rel_small = quads[("Parallel", 0.0)][1]
    rel_large = quadrature("Parallel", 0.2, 0.0)[1]
    ordering_ok = rel_small < rel_large

    # (b) at sigma omega = 4 the shifted-contour value agrees with the
    # real-axis quadrature within their summed error bars
    gaps, bars, devs_at_4 = [], [], []
    for family, kappa_L in grid:
        quad = quads[(family, kappa_L)][0]
        scenario, params, closed = point(family, 0.05, kappa_L)
        contour = excitation_probability_contour(scenario, params)
        gaps.append(abs(contour.value - quad.value) / contour.value)
        bars.append((contour.error_estimate + quad.error_estimate) / contour.value)
        devs_at_4.append(abs(closed - contour.value) / contour.value)
    agree_ok = all(g <= b for g, b in zip(gaps, bars))

    # (c) the 2% clause, at sigma omega = 10
    worst = 0.0
    for family, kappa_L in grid:
        scenario, params, closed = point(family, 0.02, kappa_L)
        contour = excitation_probability_contour(scenario, params).value
        worst = max(worst, abs(closed - contour) / contour)
    quant_ok = worst <= 0.02

    report(ordering_ok and agree_ok and quant_ok, "criterion 4",
           f"saddle ordering {'holds' if ordering_ok else 'BROKEN'} "
           f"(closed-vs-quadrature rel dev {rel_small:.3f} at kappa sigma = "
           f"0.05 < {rel_large:.3f} at 0.2); at sigma omega = 4 the "
           f"shifted-contour value {'agrees' if agree_ok else 'DISAGREES'} "
           "with the quadrature within the summed error bars (worst rel gap "
           f"{max(gaps):.1e}) and the closed forms deviate by up to "
           f"{max(devs_at_4):.1%} (3/(2 (sigma omega)^2) = {1.5 / 4.0**2:.1%}); "
           f"worst closed-vs-contour rel dev {worst:.2%} at kappa sigma = 0.02 "
           "(sigma omega = 10) over both families at kappa L in [0, 2], "
           "against the 2% tolerance")


def test_criterion_5_detailed_balance_and_its_violation():
    far = TrajectoryScenario("Parallel", kappa1=1.0, L=1e6)
    near = TrajectoryScenario("Parallel", kappa1=1.0, L=0.5)

    def rate_at(scenario, tau):
        return lambda omega: transition_rate(scenario, unit(omega), tau)

    rep_far = kms_check(rate_at(far, 1.0), 1.0, 1.0, 0.01)
    rep_near = kms_check(rate_at(near, 1.0), 1.0, 1.0, 0.01)
    ok = rep_far.satisfied and not rep_near.satisfied
    report(ok, "criterion 5",
           f"detailed balance holds at far separation (dev "
           f"{rep_far.deviation:.1e} <= 1e-2) and is violated at "
           f"kappa L = 0.5, kappa tau = 1 (dev {rep_near.deviation:.1e})")


def test_criterion_6_thermal_pair_rate_is_stationary():
    sc = TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0)
    vals = [transition_rate(sc, unit(1.0), kt).value
            for kt in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    report(spread <= 0.01, "criterion 6",
           "static pair in a thermal bath responds time-independently over "
           f"kappa tau in [-2, 2]; spread/mean {spread:.1e} (tol 1e-2)")


def test_criterion_7_transient_signatures():
    # (a) the emission rate turns on when the partner crosses the past
    # horizon, at kappa tau = -ln(1 / kappa L) = -1.609 for kappa L = 0.2
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=0.2)
    taus = np.arange(-4.0, 0.0001, 0.2)
    vals = [transition_rate(sc, unit(-1.0), float(t)).value for t in taus]
    onset, running, jump = None, 0.0, 0.0
    for k in range(len(vals) - 1):
        slope = abs(vals[k + 1] - vals[k]) / 0.2
        if k > 0 and running > 0.0 and slope > 5.0 * running:
            onset = 0.5 * float(taus[k] + taus[k + 1])
            jump = slope / running
            break
        running = max(running, slope)
    onset_ok = onset is not None and 1.2 <= abs(onset) <= 2.0

    # (b) differing accelerations make the instantaneous rate go negative
    dsc = TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5)
    neg = transition_rate(dsc, unit(0.5), 1.0)
    neg_ok = neg.value < 0.0 and abs(neg.value) > 3.0 * neg.error_estimate

    # (c) antiparallel geometry tells +L from -L
    plus = transition_rate(
        TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5), unit(1.0), 0.0)
    minus = transition_rate(
        TrajectoryScenario("AntiParallel", kappa1=1.0, L=-0.5), unit(1.0), 0.0)
    gap = abs(plus.value - minus.value)
    sign_ok = gap > 3.0 * (plus.error_estimate + minus.error_estimate)

    onset_str = "none" if onset is None else f"{onset:.2f}"
    report(onset_ok and neg_ok and sign_ok, "criterion 7",
           f"(a) emission onset at kappa tau = {onset_str} brackets the "
           f"horizon crossing -1.609 (slope jump x{jump:.0f}); "
           f"(b) differing-acceleration rate {neg.value:.2e} is negative "
           "beyond 3x its error; (c) antiparallel rates at +-L differ by "
           f"{gap / min(plus.value, minus.value):.0%} of the smaller, "
           "beyond 3x the combined error")


def test_criterion_8_superposition_consistency(parallel_unit_sep_integrals):
    scenario, integrals = parallel_unit_sep_integrals
    dm_even = conditional_density_matrix(integrals, ControlState(2, (0.0, 0.0)),
                                         REF_PARAMS)
    direct = excitation_probability_quadrature(scenario, REF_PARAMS).value
    rel_even = abs(dm_even.p_excited_unnormalized - direct) / direct

    dm_odd = conditional_density_matrix(
        integrals, ControlState(2, (0.0, math.pi)), REF_PARAMS)

    grid = [2.0 * math.pi * k / 24 for k in range(24)]
    amp1 = visibility_scan(integrals, REF_PARAMS, grid)["amplitude"]
    doubled = DetectorParams(omega=REF_PARAMS.omega,
                             lambda_coupling=2.0 * REF_PARAMS.lambda_coupling,
                             sigma=REF_PARAMS.sigma)
    amp2 = visibility_scan(integrals, doubled, grid)["amplitude"]
    ratio = amp2 / amp1

    ok = (rel_even <= 1e-10 and dm_odd.p_ground_unnormalized == 0.0
          and abs(ratio - 4.0) <= 0.2)
    report(ok, "criterion 8",
           "equal-phase conditional excitation equals the direct quadrature "
           f"(rel dev {rel_even:.1e}); opposite-phase ground population is "
           "exactly 0; doubling the coupling scales the visibility "
           f"amplitude by {ratio:.3f} (expected 4.0 +- 0.2)")


def test_criterion_9_randomized_invariants():
    rng = np.random.default_rng(20260814)
    t0 = time.time()
    cases = 0
    families = ("SingleAccel", "Parallel", "AntiParallel", "Differing",
                "ThermalInertialPair")
    for k in range(120):
        family = families[k % len(families)]
        kappa1 = rng.uniform(0.2, 4.0)
        if family == "Differing":
            sc = TrajectoryScenario(family, kappa1=kappa1,
                                    kappa2=rng.uniform(0.2, 4.0))
        elif family == "SingleAccel":
            sc = TrajectoryScenario(family, kappa1=kappa1)
        else:
            sc = TrajectoryScenario(family, kappa1=kappa1,
                                    L=rng.uniform(0.1, 3.0))
        t1, t2 = rng.uniform(-3.0, 3.0, size=2)
        eps = rng.uniform(1e-3, 1e-2)
        n = sc.branch_count
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                w_ij = complex(scenario_correlator(sc, i, j)(t1, t2, eps))
                w_ji = complex(scenario_correlator(sc, j, i)(t2, t1, eps))
                assert abs(w_ij - w_ji.conjugate()) <= 1e-10 * abs(w_ij)
                cases += 1
        for b in range(1, n + 1):
            u = four_velocity(sc, b, float(t1))
            # cancellation floor grows with the Lorentz factor squared
            tol = 1e-13 * max(1.0, u.t * u.t)
            assert u.minkowski_norm() == pytest.approx(-1.0, abs=tol)
            cases += 1
    for _ in range(60):
        kappa = rng.uniform(0.2, 5.0)
        omega = rng.uniform(0.05, 3.0)
        ratio = planck_rate(kappa, omega) / planck_rate(kappa, -omega)
        assert ratio == pytest.approx(
            math.exp(-2.0 * math.pi * omega / kappa), rel=1e-12)
        cases += 1
    for _ in range(40):
        a, d = rng.uniform(-8.0, 8.0, size=2)
        assert phase_envelope(ControlState(2, (a, a + d))) == pytest.approx(
            phase_envelope(ControlState(2, (0.0, d))), abs=1e-12)
        cases += 1
    elapsed = time.time() - t0
    report(cases >= 200 and elapsed < 120.0, "criterion 9",
           f"{cases} randomized invariant checks (correlator hermiticity, "
           "unit four-velocity, detailed balance, phase gauge) in "
           f"{elapsed:.1f}s (needs >= 200 within 120 s)")
