"""Conditional detector state for superposed trajectories.

The heavy windowed integrals come from session fixtures (see conftest);
most checks here are exact algebraic identities of the assembly, which hold
to machine precision independent of quadrature accuracy.
"""

import math

import numpy as np
import pytest

from udwsim import (
    ControlState,
    DetectorDensityMatrix,
    DetectorParams,
    TrajectoryScenario,
    WightmanIntegrals,
    compute_wightman_integrals,
    conditional_density_matrix,
    excitation_probability_contour,
    excitation_probability_quadrature,
    phase_envelope,
    visibility_scan,
)

from conftest import REF_PARAMS
from udwsim import response, superposition
from udwsim.correlators import stationary_form
from udwsim.response import _defaults
from udwsim.superposition import _wightman_integrals


def _ladder(scenario, params):
    """compute_wightman_integrals with every non-stationary pair on the
    regulator ladder, at the library's default schedule."""
    return _wightman_integrals(scenario, params, *_defaults(scenario, None, None), False)


def test_probability_and_i12_are_bit_identical_to_their_pins():
    # float.hex of what the 2-D engine gives with the Gauss-Kronrod 15 panel
    # rule, panels at most sigma and 0.5/kappa_max wide, and each cut a boost
    # of the p = 0 cut on its inner mesh, on the same numpy build (see
    # RATE_PINS in test_response.py); I_12 and its bar are the regulator
    # ladder's, which compute_wightman_integrals keeps outside the contour's
    # domain
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=1.0)
    p = excitation_probability_quadrature(sc, REF_PARAMS)
    assert (p.value.hex(), p.error_estimate.hex()) == ("0x1.0dbffb9a055c6p-46",
                                                      "0x1.cadb1dd4e5305p-64")
    integrals = _ladder(sc, REF_PARAMS)
    # the equal-phase excitation from the ladder's integrals is the ladder's
    # direct probability
    dm = conditional_density_matrix(integrals, ControlState(2), REF_PARAMS)
    assert abs(dm.p_excited_unnormalized - p.value) <= 1e-10 * p.value
    i12 = integrals.full_grid[(1, 2)]
    assert (i12.real.hex(), i12.imag.hex()) == ("0x1.5487bbfc1b0c5p-35", "0x0.0p+0")
    assert integrals.error_estimate.hex() == "0x1.18103aa7d4000p-49"
    # the pins of the engine that evaluated the correlator afresh on every
    # cut: the boosted cuts moved both by 1.2e-6 of their bars
    cut_p, cut_bar = float.fromhex("0x1.0dbffb99fcb1dp-46"), float.fromhex("0x1.cadb6396e5305p-64")
    cut_i12, cut_err = float.fromhex("0x1.5487bbfbc66a0p-35"), float.fromhex("0x1.1810653ba8000p-49")
    assert abs(p.value - cut_p) <= 1e-5 * cut_bar
    assert abs(i12.real - cut_i12) <= 1e-5 * cut_err
    # the pins of the same rule with outer panels at most sigma/2 wide: the
    # wider panels moved both by 2.9e-7 of their bars (8.6e-7 now)
    half_p, half_bar = float.fromhex("0x1.0dbffb99fee3ep-46"), float.fromhex("0x1.cadb506be5305p-64")
    half_i12, half_err = float.fromhex("0x1.5487bbfbdbda9p-35"), float.fromhex("0x1.18105988fc000p-49")
    assert abs(p.value - half_p) <= half_bar
    assert abs(i12.real - half_i12) <= half_err
    # the pins of Gauss-Legendre 15 panels with a separate Gauss-Legendre 7
    # estimate: the rule moved both by 1.7e-6 of their bars (2.6e-6 now)
    old_p, old_bar = float.fromhex("0x1.0dbffb99f1f85p-46"), float.fromhex("0x1.cadb2faba5305p-64")
    old_i12, old_err = float.fromhex("0x1.5487bbfb5dad7p-35"), float.fromhex("0x1.1810458b94000p-49")
    assert abs(p.value - old_p) <= 1e-5 * old_bar
    assert abs(i12.real - old_i12) <= 1e-5 * old_err


def test_control_state_canonicalizes_global_phase():
    c = ControlState(2, (0.3, 1.4))
    assert c.phases == pytest.approx((0.0, 1.1))
    c = ControlState(3, (1.0, 1.0, 2.0))
    assert c.phases == pytest.approx((0.0, 0.0, 1.0))


def test_control_state_defaults_and_validation():
    assert ControlState(2).phases == (0.0, 0.0)
    with pytest.raises(ValueError):
        ControlState(0)
    with pytest.raises(ValueError):
        ControlState(2, (0.1,))
    with pytest.raises(ValueError):
        ControlState(2, (0.0, math.inf))


def test_phase_envelope():
    assert phase_envelope(ControlState(1)) == pytest.approx(1.0)
    assert phase_envelope(ControlState(2)) == pytest.approx(1.0)
    for dphi in (0.0, 0.8, math.pi, 4.5):
        env = phase_envelope(ControlState(2, (0.0, dphi)))
        assert env == pytest.approx((1.0 + math.cos(dphi)) / 2.0, abs=1e-14)


def test_wightman_integrals_coverage_validation():
    full = {(1, 1): 1.0 + 0j}
    with pytest.raises(ValueError):
        WightmanIntegrals(branch_count=2, full_grid=full, time_ordered={1: 0j, 2: 0j})
    with pytest.raises(ValueError):
        WightmanIntegrals(branch_count=1, full_grid={(1, 1): 0j}, time_ordered={})


def test_density_matrix_derived_fields():
    dm = DetectorDensityMatrix(p_ground_unnormalized=0.75, p_excited_unnormalized=0.25)
    assert dm.norm == 1.0
    assert dm.p_excited_conditional == 0.25
    zero = DetectorDensityMatrix(p_ground_unnormalized=0.0, p_excited_unnormalized=0.0)
    assert math.isnan(zero.p_excited_conditional)


def test_branch_count_mismatch_rejected():
    ints = WightmanIntegrals(branch_count=1, full_grid={(1, 1): 0j},
                             time_ordered={1: 0j})
    with pytest.raises(ValueError):
        conditional_density_matrix(ints, ControlState(2), REF_PARAMS)


# --- identities on real integrals ----------------------------------------------

def test_integrals_conjugate_symmetry(parallel_unit_sep_integrals):
    _, ints = parallel_unit_sep_integrals
    assert ints.branch_count == 2
    for i in (1, 2):
        for j in (1, 2):
            assert ints.full_grid[(i, j)] == ints.full_grid[(j, i)].conjugate()
    # diagonal full-plane entries are real and non-negative
    for i in (1, 2):
        d = ints.full_grid[(i, i)]
        assert d.imag == 0.0
        assert d.real >= 0.0
    assert ints.error_estimate < 1e-10


def test_single_branch_norm_is_exactly_one(parallel_unit_sep_integrals):
    # N = 1: the T and I contributions cancel in the norm identically
    _, ints = parallel_unit_sep_integrals
    one = WightmanIntegrals(branch_count=1,
                            full_grid={(1, 1): ints.full_grid[(1, 1)]},
                            time_ordered={1: ints.time_ordered[1]})
    dm = conditional_density_matrix(one, ControlState(1), REF_PARAMS)
    assert dm.norm == 1.0
    assert dm.p_excited_unnormalized > 0


def test_norms_of_complementary_measurements_sum_to_one(parallel_unit_sep_integrals):
    # measuring dphi and dphi + pi splits the control state space
    _, ints = parallel_unit_sep_integrals
    for dphi in (0.0, 0.7, 2.2):
        a = conditional_density_matrix(ints, ControlState(2, (0.0, dphi)), REF_PARAMS)
        b = conditional_density_matrix(ints, ControlState(2, (0.0, dphi + math.pi)),
                                       REF_PARAMS)
        assert a.norm + b.norm == pytest.approx(1.0, abs=1e-14)


def test_antisymmetric_phase_zeroes_ground_population(parallel_unit_sep_integrals):
    _, ints = parallel_unit_sep_integrals
    dm = conditional_density_matrix(ints, ControlState(2, (0.0, math.pi)), REF_PARAMS)
    assert dm.p_ground_unnormalized == 0.0
    assert dm.p_excited_unnormalized > 0
    # conditioned on this (rare) outcome the detector is certainly excited
    assert dm.p_excited_conditional == 1.0


def test_gauge_invariance_is_exact(parallel_unit_sep_integrals):
    _, ints = parallel_unit_sep_integrals
    # the phase differences are equal in binary: 1.375 - 0.25 == 1.125 exactly
    a = conditional_density_matrix(ints, ControlState(2, (0.0, 1.125)), REF_PARAMS)
    b = conditional_density_matrix(ints, ControlState(2, (0.25, 1.375)), REF_PARAMS)
    assert a.p_ground_unnormalized == b.p_ground_unnormalized
    assert a.p_excited_unnormalized == b.p_excited_unnormalized


def test_populations_positive_across_phases(parallel_unit_sep_integrals):
    _, ints = parallel_unit_sep_integrals
    for dphi in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        dm = conditional_density_matrix(ints, ControlState(2, (0.0, dphi)), REF_PARAMS)
        assert dm.p_excited_unnormalized >= 0.0
        assert dm.p_ground_unnormalized >= 0.0
        assert 0.0 <= dm.p_excited_conditional <= 1.0


def test_symmetric_phase_matches_plain_average(parallel_unit_sep_integrals):
    # dphi = 0: p_excited = (lambda^2/4) Re sum_ij I_ji
    _, ints = parallel_unit_sep_integrals
    dm = conditional_density_matrix(ints, ControlState(2), REF_PARAMS)
    lam2 = REF_PARAMS.lambda_coupling**2
    expected = lam2 / 4.0 * sum(ints.full_grid.values()).real
    assert dm.p_excited_unnormalized == pytest.approx(expected, rel=1e-14)


def test_coupling_scaling_of_populations(parallel_unit_sep_integrals):
    # integrals are coupling-independent; populations scale with lambda^2
    _, ints = parallel_unit_sep_integrals
    stronger = DetectorParams(omega=80.0, lambda_coupling=0.02, sigma=0.05)
    a = conditional_density_matrix(ints, ControlState(2, (0.0, 0.9)), REF_PARAMS)
    b = conditional_density_matrix(ints, ControlState(2, (0.0, 0.9)), stronger)
    assert b.p_excited_unnormalized == pytest.approx(4.0 * a.p_excited_unnormalized,
                                                     rel=1e-12)


def test_differing_time_ordered_branch_difference(differing_integrals):
    # T_i is exact from the local spectra; Im T_i is relative to an inertial
    # detector in the vacuum, and the branch difference is the physical part.
    # The contour gives the same values, and the fine quadratic ladder of the
    # regulated integrals -1.750116e-3 +- 3.1e-8
    _, _, ints = differing_integrals
    t1, t2 = ints.time_ordered[1], ints.time_ordered[2]
    diff = t1 - t2
    assert abs(diff.imag) < 0.1
    assert diff.imag == pytest.approx(-1.7501239e-3, rel=1e-6)
    assert t1.real == pytest.approx(2.8745338e-4, rel=1e-6)
    assert t2.real == pytest.approx(1.0491160e-4, rel=1e-6)


def test_single_branch_integrals_take_no_ladder():
    # the local pair is exact from its spectrum: I_11 = 2 Re T_1 to the bit,
    # and Im T_1 is the finite part relative to the inertial vacuum, where
    # the regulated integral gave about -0.26 at eps = 2.5e-3
    ints = compute_wightman_integrals(TrajectoryScenario("SingleAccel", kappa1=1.0),
                                      REF_PARAMS)
    t = ints.time_ordered[1]
    assert ints.full_grid[(1, 1)] == complex(2.0 * t.real, 0.0)
    assert abs(t.imag) < 1e-5
    assert 0 < ints.error_estimate < 1e-9 * abs(t)


def test_differing_norm_stays_near_envelope(differing_integrals):
    _, par, ints = differing_integrals
    for dphi in (0.0, 1.3, math.pi):
        dm = conditional_density_matrix(ints, ControlState(2, (0.0, dphi)), par)
        env = phase_envelope(ControlState(2, (0.0, dphi)))
        assert dm.norm == pytest.approx(env, abs=1e-4)


def test_differing_exact_identities(differing_integrals):
    # trace and gauge identities hold for asymmetric branches too
    _, par, ints = differing_integrals
    a = conditional_density_matrix(ints, ControlState(2, (0.0, 0.8)), par)
    b = conditional_density_matrix(ints, ControlState(2, (0.0, 0.8 + math.pi)), par)
    assert a.norm + b.norm == pytest.approx(1.0, abs=1e-14)
    c = conditional_density_matrix(ints, ControlState(2, (0.5, 1.3)), par)
    assert c.p_ground_unnormalized == a.p_ground_unnormalized
    assert c.p_excited_unnormalized == a.p_excited_unnormalized


# --- cross pairs on the shifted contour -----------------------------------------

# the three sigma = 0.05, omega = 80 pairs, the Differing fixture and the
# CLI's default visibility point; measured gap/bar 0.35, 0.19, 0.39, 0.33, 0.34
CONTOUR_GATE = {
    "parallel_kl1": (("Parallel", {"kappa1": 1.0, "L": 1.0}), REF_PARAMS),
    "antiparallel_kl05": (("AntiParallel", {"kappa1": 1.0, "L": 0.5}), REF_PARAMS),
    "differing_r05": (("Differing", {"kappa1": 1.0, "kappa2": 0.5}), REF_PARAMS),
    "differing_fixture": (("Differing", {"kappa1": 1.0, "kappa2": 0.5}),
                          DetectorParams(omega=2.0, lambda_coupling=0.01, sigma=1.0)),
    "cli_default": (("Parallel", {"kappa1": 1.0, "L": 1.0}),
                    DetectorParams(omega=1.0, lambda_coupling=0.01, sigma=1.0)),
}


@pytest.mark.parametrize("point", sorted(CONTOUR_GATE))
def test_contour_i12_lies_inside_the_ladder_bar(point):
    (family, kwargs), params = CONTOUR_GATE[point]
    sc = TrajectoryScenario(family, **kwargs)
    ints, ladder = compute_wightman_integrals(sc, params), _ladder(sc, params)
    i12 = ints.full_grid[(1, 2)]
    assert abs(i12 - ladder.full_grid[(1, 2)]) <= ladder.error_estimate
    assert ints.full_grid[(2, 1)] == i12.conjugate()
    assert (ints.cross_pair_methods, ladder.cross_pair_methods) == (("contour",), ("ladder",))
    # the stationary entries are the same spectral integrals, bit for bit
    assert ints.time_ordered == ladder.time_ordered
    assert [ints.full_grid[(i, i)] for i in (1, 2)] == [ladder.full_grid[(i, i)]
                                                        for i in (1, 2)]
    assert 0.0 < ints.error_estimate < ladder.error_estimate


def test_contour_pair_map_sums_to_the_contour_probability():
    # excitation_probability_contour is the per-pair map summed in row-major
    # order, bit for bit; the pairs' I_ij sum to it up to rounding
    sc = TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5)
    p = excitation_probability_contour(sc, REF_PARAMS)
    terms = list(response._pair_map(sc, lambda i, j: response._contour_terms(
        sc, REF_PARAMS, i, j), window=True).values())
    fine, coarse, size = (sum(t[k] for t in terms) for k in range(3))
    pref = (2.0 * (REF_PARAMS.lambda_coupling * REF_PARAMS.sigma / 2) ** 2
            * math.exp(-(REF_PARAMS.sigma * REF_PARAMS.omega) ** 2))
    assert p.value == pref * fine.real
    assert p.error_estimate == pref * response._contour_bar(fine, coarse, size)
    pairs = response._pair_map(sc, lambda i, j: response.contour_pair_integral(
        sc, REF_PARAMS, i, j), window=True).values()
    lam2 = REF_PARAMS.lambda_coupling**2
    assert lam2 / 4.0 * sum(v for v, _ in pairs).real == pytest.approx(p.value, rel=1e-14)
    assert all(e <= 1e-4 * abs(v) for v, e in pairs)


@pytest.mark.parametrize("omega", [-2.0, 3.5], ids=["emission", "beta_past_pi"])
def test_outside_the_contour_domain_the_state_is_the_ladder(omega):
    # omega < 0, or beta = kappa sigma^2 omega >= pi: the shifted contour
    # would cross correlator poles, and every cross pair keeps the ladder
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=1.0)
    params = DetectorParams(omega=omega, lambda_coupling=0.01, sigma=1.0)
    assert not response.in_contour_domain(sc, params)
    ints = compute_wightman_integrals(sc, params)
    assert ints == _ladder(sc, params)
    assert ints.cross_pair_methods == ("ladder",)


@pytest.mark.parametrize("omega", [0.3, 0.5, 3.0])
def test_a_contour_pair_that_misses_its_tolerance_takes_the_ladder(omega):
    # Parallel kappa L = 1, sigma = 1, inside the contour's domain: at
    # sigma omega = 0.3 and 0.5 a correlator pole near the contour, and at
    # beta = 3 near pi, leave the 64- against 32-node change above 1e-4 of
    # I_12 itself (2.5e-3, 1.6e-4 and 2.2e-2), so I_12 is the ladder's, as
    # it is outside the domain
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=1.0)
    params = DetectorParams(omega=omega, lambda_coupling=0.01, sigma=1.0)
    assert response.in_contour_domain(sc, params)
    value, bar = response.contour_pair_integral(sc, params, 1, 2)
    assert bar > 1e-4 * abs(value)
    ints = compute_wightman_integrals(sc, params)
    assert ints == _ladder(sc, params)
    assert ints.cross_pair_methods == ("ladder",)
    assert math.isfinite(ints.full_grid[(1, 2)].real)


@pytest.mark.parametrize("kwargs, omega, methods", [
    ({"family": "Differing", "kappa1": 1.0, "kappa2": 0.5}, 2.0, ("contour",)),
    ({"family": "Differing", "kappa1": 1.0, "kappa2": 0.5}, -1.0, ("ladder",)),
    ({"family": "Parallel", "kappa1": 1.0, "L": 1.0}, 0.3, ("ladder",))],
    ids=["differing_contour", "differing_emission", "parallel_contour_miss"])
def test_each_representative_pair_takes_exactly_one_method(monkeypatch, kwargs, omega,
                                                           methods):
    # one pass over the representative pairs: a stationary pair is one
    # spectral integral; inside the contour's domain another pair is one
    # contour sum, kept where it meets the tolerance; every other pair is one
    # ladder integral (its restart levels, level > 0, are not counted apart)
    sc = TrajectoryScenario(**kwargs)
    params = DetectorParams(omega=omega, lambda_coupling=0.01, sigma=1.0)
    quad = _defaults(sc, None, None)[1]
    calls = []

    def counted(method, fn, at):
        # at: where (i, j) sits in fn's arguments
        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            if kw.get("level", 0) == 0:
                calls.append((method, tuple(args[at:at + 2]), out))
            return out
        return wrapper

    monkeypatch.setattr(superposition, "_spectral_pair_integral",
                        counted("spectral", superposition._spectral_pair_integral, 1))
    monkeypatch.setattr(superposition, "contour_pair_integral",
                        counted("contour", superposition.contour_pair_integral, 2))
    monkeypatch.setattr(response, "_halfplane_pair_integral",
                        counted("ladder", response._halfplane_pair_integral, 1))
    ints = compute_wightman_integrals(sc, params)
    assert ints.cross_pair_methods == methods
    reps = set(response._representatives(sc, True).values())
    spectral = [pair for m, pair, _ in calls if m == "spectral"]
    ladder = [pair for m, pair, _ in calls if m == "ladder"]
    contour = {pair: response._within_tol(*out, quad) for m, pair, out in calls
               if m == "contour"}
    assert len(contour) == len([m for m, _, _ in calls if m == "contour"])
    assert set(spectral) == {pair for pair in reps if stationary_form(sc, *pair) is not None}
    if response.in_contour_domain(sc, params):
        assert set(contour) == reps - set(spectral)
    else:
        assert contour == {}
    # each representative pair is integrated once, by exactly one method
    kept = [pair for pair, ok in contour.items() if ok]
    assert sorted(spectral + kept + ladder) == sorted(reps)


# --- visibility ----------------------------------------------------------------

def test_visibility_scan_mean_and_amplitude(parallel_unit_sep_integrals):
    _, ints = parallel_unit_sep_integrals
    grid = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    v = visibility_scan(ints, REF_PARAMS, grid)
    # raw norm averages to 1/2 over a full period
    assert v["mean"] == pytest.approx(0.5, abs=1e-12)
    assert v["amplitude"] > 0
    # residual rides at order lambda^2 on top of the envelope
    assert v["amplitude"] < 1e-12


def test_visibility_amplitude_scales_with_coupling(parallel_unit_sep_integrals):
    # exactly lambda^2 in exact arithmetic; the envelope subtraction costs
    # a few tenths of a percent at double precision
    _, ints = parallel_unit_sep_integrals
    grid = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    stronger = DetectorParams(omega=80.0, lambda_coupling=0.02, sigma=0.05)
    a = visibility_scan(ints, REF_PARAMS, grid)
    b = visibility_scan(ints, stronger, grid)
    assert b["amplitude"] / a["amplitude"] == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("grid", [
    np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False), [0.0, 2.0, 4.0],
    [0.0, 1.0, 2.0, 3.0]], ids=["24", "3", "4"])
def test_visibility_amplitude_is_the_fitted_first_harmonic(differing_integrals, grid):
    # the closed form (lambda^2/2)|I_12 - T_2 - conj T_1| against a
    # least-squares first-harmonic fit of norm - envelope on the grid; the
    # fit carries the rounding of the O(1) envelope subtraction, about 1e-16
    # of the lambda^2 = 1e-4 residual scale
    _, params, ints = differing_integrals
    resid = []
    for dphi in grid:
        control = ControlState(2, (0.0, dphi))
        resid.append(conditional_density_matrix(ints, control, params).norm
                     - phase_envelope(control))
    design = np.column_stack([np.ones(len(grid)), np.cos(grid), np.sin(grid)])
    coef, *_ = np.linalg.lstsq(design, np.array(resid), rcond=None)
    amplitude = visibility_scan(ints, params, grid)["amplitude"]
    assert amplitude == pytest.approx(math.hypot(coef[1], coef[2]), rel=1e-8)


def test_visibility_scan_validation():
    one = WightmanIntegrals(branch_count=1, full_grid={(1, 1): 0j},
                            time_ordered={1: 0j})
    with pytest.raises(ValueError):
        visibility_scan(one, REF_PARAMS, [0.0, 1.0, 2.0])
