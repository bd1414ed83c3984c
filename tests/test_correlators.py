"""Regularized Wightman functions: worked values, symmetries, factorizations.

Frozen reference numbers were computed from the unfactored interval
expression 1/(4 pi^2 [(dx - i eps u)^2 - (dt - i eps u_t)^2]) evaluated
independently of the factored implementations under test.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from udwsim import (
    HyperbolicRangeError,
    TrajectoryScenario,
    denominator_factors,
    lightcone_roots,
    pair_spectrum,
    planck_rate,
    scenario_correlator,
    wightman_local,
    wightman_schlicht,
    wightman_thermal_cross,
    wightman_thermal_local,
)
from udwsim.correlators import _max_abs, _max_abs_scaled, cut_correlator, stationary_form
from udwsim.quadrature import cluster_mesh, panel_nodes, sign_change_roots
from udwsim.response import _rate_cut, _rate_cut_roots

PI2_4 = 4.0 * math.pi**2
PI2_16 = 16.0 * math.pi**2


def test_coincidence_value():
    # W(s=0) = +1/(16 pi^2 eps^2), independent of kappa
    w = wightman_local(1.0, 0.0, 1e-2)
    assert complex(w) == pytest.approx(63.32573977646111 + 0.0j, rel=1e-12)
    w = wightman_local(7.0, 0.0, 1e-2)
    assert complex(w) == pytest.approx(63.32573977646111 + 0.0j, rel=1e-12)
    assert complex(w).real == pytest.approx(1.0 / (PI2_16 * 1e-4), rel=1e-13)


def test_local_value_at_finite_separation():
    # s = 1, kappa = 1, eps = 1e-3: dominated by -1/(16 pi^2 sinh^2(1/2))
    w = complex(wightman_local(1.0, 1.0, 1e-3))
    ideal = -1.0 / (PI2_16 * math.sinh(0.5) ** 2)
    assert w.real == pytest.approx(ideal, rel=5e-5)
    assert w.imag < 0  # positive-frequency prescription for s > 0


def cross(family, i=1, j=2, **kw):
    return scenario_correlator(TrajectoryScenario(family, **kw), i, j)


def test_parallel_cross_worked_value():
    # p = s = 0, L = 1, eps = 0.01: W = 1/(4 pi^2 (L^2 + 4 eps^2))
    w = complex(cross("Parallel", kappa1=1.0, L=1.0)(0.0, 0.0, 1e-2))
    assert w == pytest.approx(0.025320167843447067 + 0.0j, rel=1e-12)
    assert w.real == pytest.approx(1.0 / (PI2_4 * (1.0 + 4e-4)), rel=1e-13)
    # operator-ordering swap is a symmetry at the closest-approach point
    w21 = complex(cross("Parallel", 2, 1, kappa1=1.0, L=1.0)(0.0, 0.0, 1e-2))
    assert w21 == pytest.approx(w, rel=1e-12)


def test_antiparallel_coincident_apex():
    # L = 0, tau1 = tau2 = 0: branches touch; coincidence value
    w = complex(cross("AntiParallel", kappa1=1.0, L=0.0)(0.0, 0.0, 1e-3))
    assert w == pytest.approx(6332.573977646111 + 0.0j, rel=1e-12)


def test_differing_cross_worked_value():
    # kappa values 1 and 1/2 at tau1 = tau2 = 0 sit a distance 1 apart
    w = complex(cross("Differing", kappa1=1.0, kappa2=0.5)(0.0, 0.0, 1e-2))
    assert w == pytest.approx(0.025320167843447067 + 0.0j, rel=1e-12)


def test_differing_reduces_to_local():
    # equal accelerations: cross correlator degenerates to the local one
    k = 1.3
    for t1, t2 in ((0.4, -0.2), (1.0, 0.9), (-2.0, 1.0)):
        wd = complex(cross("Differing", kappa1=k, kappa2=k)(t1, t2, 1e-3))
        wl = complex(wightman_local(k, t1 - t2, 1e-3))
        assert wd == pytest.approx(wl, rel=1e-10)


def test_thermal_cross_worked_value():
    # kappa = 1, L = 1, s' = 0: W -> kappa coth(kappa L / 2) / (8 pi^2 L)
    exact = 2.0 * (1.0 / math.tanh(0.5)) / PI2_16
    w0 = complex(wightman_thermal_cross(1.0, 1.0, 0.0, 1e-8))
    assert w0.real == pytest.approx(exact, rel=1e-9)
    w = complex(wightman_thermal_cross(1.0, 1.0, 0.0, 1e-2))
    assert w.real == pytest.approx(exact, rel=1e-3)
    assert abs(w.imag) < 1e-4
    assert exact == pytest.approx(0.027406790153359725, rel=1e-12)


def test_thermal_cross_needs_separation():
    with pytest.raises(ValueError):
        wightman_thermal_cross(1.0, 0.0, 0.5, 1e-3)


def test_thermal_local_is_small_separation_limit_of_cross():
    k, s, eps = 1.0, 0.3, 1e-3
    wl = complex(wightman_thermal_local(k, s, eps))
    wc = complex(wightman_thermal_cross(k, 1e-7, s, eps))
    assert wc == pytest.approx(wl, rel=1e-6)


def test_thermal_local_periodicity_in_imaginary_time():
    # KMS: W(s - i beta) = W(-s) with beta = 2 pi / kappa, eps -> 0
    k = 2.0
    beta = 2.0 * math.pi / k
    s = 0.7
    eps = 1e-9
    w_shift = complex(wightman_thermal_local(k, s - 1j * beta, eps))
    w_ref = complex(wightman_thermal_local(k, -s, eps))
    assert w_shift == pytest.approx(w_ref, rel=1e-6)


def test_branch_index_validation():
    sc = TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5)
    for i, j in ((1, 3), (0, 1)):
        with pytest.raises(ValueError):
            scenario_correlator(sc, i, j)
        with pytest.raises(ValueError):
            denominator_factors(sc, i, j)
    # a single branch has no cross pair
    with pytest.raises(ValueError):
        scenario_correlator(TrajectoryScenario("SingleAccel"), 1, 2)


def test_hyperbolic_argument_guard():
    with pytest.raises(ValueError, match="out of range"):
        wightman_local(1.0, 800.0, 1e-3)
    with pytest.raises(ValueError, match="out of range"):
        # p = 800, s = 0
        cross("Parallel", kappa1=1.0, L=1.0)(400.0, 400.0, 1e-3)


# --- the cut form: W^{ij}((p + s)/2, (p - s)/2) on fixed nodes s --------------

CUT_LADDER = (1e-2, 5e-3, 2.5e-3)
CUT_PAIRS = [
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), (1, 2)),
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), (2, 1)),
    (TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5), (1, 2)),
    (TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5), (2, 1)),
    (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (1, 2)),
    (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (2, 1)),
]


def rounding_condition(row_i, row_j, tau1, tau2, eps):
    """How much the rounding of the null data is amplified in W: each
    factor's terms (each row's a or b, its rounding of tau times kappa
    |tau| in the exponential, and the centre offset) over the factor's
    modulus, summed over both factors."""
    ai, bi, dai, dbi = row_i.null(tau1)
    aj, bj, daj, dbj = row_j.null(tau2)
    wi, wj = 1.0 + row_i.kappa * np.abs(tau1), 1.0 + row_j.kappa * np.abs(tau2)
    dz = row_j.z_c - row_i.z_c
    x = dz + (aj - ai) + 1j * eps * (dai + daj)
    y = (bi - bj) - dz - 1j * eps * (dbi + dbj)
    return ((np.abs(ai) * wi + np.abs(aj) * wj + abs(dz)) / np.abs(x)
            + (np.abs(bi) * wi + np.abs(bj) * wj + abs(dz)) / np.abs(y))


@pytest.mark.parametrize("sc, pair", CUT_PAIRS)
def test_cut_form_matches_the_correlator_on_the_same_nodes(sc, pair):
    # both forms round the null data differently: on every rung and node
    # the gap is within 8 eps_mach times the rounding condition of W, which
    # is below 1e-13 of |W| off the lightcone and grows near it, where du or
    # dv cancels down to eps (up to 3e-13 of |W| on these nodes); p = 690
    # puts kappa |tau1| at 349.5, next to the hyperbolic guard
    row_i, row_j = sc.branch(pair[0]), sc.branch(pair[1])
    s = panel_nodes(cluster_mesh(0.0, 9.0, [0.0, 0.37, 1.9], scale=3e-4, cap=0.05))
    eps = np.reshape(CUT_LADDER, (-1, 1))
    cut = cut_correlator(sc, *pair, s, CUT_LADDER)
    corr = scenario_correlator(sc, *pair)
    for p in (-4.0, -0.6, 0.0, 0.05, 1.3, 690.0):
        tau1, tau2 = (p + s) / 2.0, (p - s) / 2.0
        want, got = corr(tau1, tau2, CUT_LADDER), cut(p)
        assert got.shape == want.shape == (len(CUT_LADDER), len(s))
        gap = np.abs(got - want)
        cond = rounding_condition(row_i, row_j, tau1, tau2, eps)
        assert np.all(gap <= 8.0 * np.finfo(float).eps * cond * np.abs(want))
        calm = cond <= 50.0
        assert np.all(gap[calm] <= 1e-13 * np.abs(want[calm]))
        assert abs(p) > 100.0 or np.mean(calm) > 0.5


@pytest.mark.parametrize("sc, pair", CUT_PAIRS[::2])
def test_cut_form_guard_refuses_where_the_correlator_does(sc, pair):
    # the cut form takes its guard bounds from the extreme nodes: it raises
    # HyperbolicRangeError at exactly the cuts where the correlator raises
    s = panel_nodes(cluster_mesh(0.0, 9.0, [0.0], scale=3e-4, cap=0.05))
    cut = cut_correlator(sc, *pair, s, 1e-3)
    corr = scenario_correlator(sc, *pair)
    # kappa1 max|tau1| = 350 at p = 700 - s_max; step across it by ulps
    p0 = 700.0 - float(s.max())
    outcomes = []
    for p in (p0 + k * math.ulp(p0) for k in range(-3, 4)):
        raised = []
        for f in (lambda: cut(p), lambda: corr((p + s) / 2.0, (p - s) / 2.0, 1e-3)):
            try:
                f()
                raised.append(False)
            except HyperbolicRangeError:
                raised.append(True)
        assert raised[0] == raised[1]
        outcomes.append(raised[0])
    assert not outcomes[0] and outcomes[-1]


@pytest.mark.parametrize("sc, pair", [
    (TrajectoryScenario("SingleAccel", kappa1=1.0), (1, 1)),
    (TrajectoryScenario("Parallel", kappa1=1.0, L=0.0), (1, 2)),
    (TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0), (1, 2)),
    (TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0), (2, 2)),
])
def test_cut_form_of_a_stationary_pair_is_its_correlator_of_s(sc, pair):
    # evaluated once, on the p = 0 cut, and returned for every p
    s = panel_nodes(cluster_mesh(0.0, 3.0, [0.0], scale=3e-4, cap=0.05))
    cut = cut_correlator(sc, *pair, s, CUT_LADDER)
    corr = scenario_correlator(sc, *pair)
    w = cut(0.0)
    assert np.array_equal(w, corr(s / 2.0, -s / 2.0, CUT_LADDER))
    for p in (-2.0, 0.7):
        assert cut(p) is w
        want = corr((p + s) / 2.0, (p - s) / 2.0, CUT_LADDER)
        assert np.all(np.abs(w - want) <= 1e-12 * np.abs(want))


# stationary_form of every branch pair, in row-major order: (kappa, L) of a
# pair whose correlator depends on tau1 - tau2 only, None otherwise
STATIONARY_FORMS = {
    "single": (TrajectoryScenario("SingleAccel", kappa1=1.5), [(1.5, 0.0)]),
    "parallel_l0": (TrajectoryScenario("Parallel", kappa1=1.0, L=0.0), [(1.0, 0.0)] * 4),
    "parallel_kl1": (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0),
                     [(1.0, 0.0), None, None, (1.0, 0.0)]),
    "antiparallel": (TrajectoryScenario("AntiParallel", kappa1=1.0, L=1.0),
                     [(1.0, 0.0), None, None, (1.0, 0.0)]),
    "differing_r1": (TrajectoryScenario("Differing", kappa1=2.0, kappa2=2.0), [(2.0, 0.0)] * 4),
    "differing_r05": (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5),
                      [(1.0, 0.0), None, None, (0.5, 0.0)]),
    "bath_l0": (TrajectoryScenario("ThermalInertialPair", kappa1=2.0, L=0.0), [(2.0, 0.0)] * 4),
    "bath_l1": (TrajectoryScenario("ThermalInertialPair", kappa1=2.0, L=1.0),
                [(2.0, 0.0), (2.0, 1.0), (2.0, -1.0), (2.0, 0.0)]),
}


@pytest.mark.parametrize("name", list(STATIONARY_FORMS))
def test_stationary_form_flags_exactly_the_pairs_of_s_alone(name):
    # a pair is flagged exactly when its correlator is invariant under a
    # common shift of both proper times (to rounding), pair_spectrum accepts
    # it, and cut_correlator returns one array for every cut p
    sc, forms = STATIONARY_FORMS[name]
    n = range(1, sc.branch_count + 1)
    assert [stationary_form(sc, i, j) for i in n for j in n] == forms
    t1, t2 = np.array([-0.8, -0.2, 0.3, 1.1]), np.array([0.5, -1.0, 0.9, 0.2])
    s = np.linspace(0.1, 3.0, 9)
    for (i, j), form in zip([(i, j) for i in n for j in n], forms):
        corr = scenario_correlator(sc, i, j)
        w = corr(t1, t2, 1e-2)
        shifted = corr(t1 + 0.7, t2 + 0.7, 1e-2)
        invariant = bool(np.all(np.abs(shifted - w) <= 1e-12 * np.abs(w)))
        try:
            pair_spectrum(sc, i, j, 0.5)
            accepted = True
        except ValueError:
            accepted = False
        cut = cut_correlator(sc, i, j, s, 1e-2)
        one_array = cut(0.0) is cut(0.9)
        assert (invariant, accepted, one_array) == (form is not None,) * 3, (i, j)


def test_cross_correlator_decay():
    # correlations die off once the branches recede many 1/kappa
    # Parallel at p = 0, s = 30; AntiParallel at p = 30, s = 0
    w = complex(cross("Parallel", kappa1=1.0, L=0.5)(15.0, -15.0, 1e-3))
    assert abs(w) < 1e-12
    w = complex(cross("AntiParallel", kappa1=1.0, L=0.5)(15.0, 15.0, 1e-3))
    assert abs(w) < 1e-12


def test_vectorized_over_time_arguments():
    s = np.linspace(-2.0, 2.0, 7)
    w = wightman_local(1.0, s, 1e-3)
    assert w.shape == (7,)
    w = cross("Parallel", 2, 1, kappa1=1.0, L=1.0)(s, np.zeros_like(s), 1e-3)  # p = s
    assert w.shape == (7,)


def test_complex_arguments_at_zero_regulator():
    # points on a shifted contour keep their imaginary part
    s = np.array([0.3 - 0.2j, -1.0 - 0.2j])
    sh = np.array([np.sinh(0.7 * z / 2.0) / 0.7 for z in s])
    ideal = -1.0 / (PI2_16 * sh * sh)
    np.testing.assert_allclose(wightman_local(0.7, s, 0.0), ideal, rtol=1e-14)
    p = np.array([0.5, -2.0])
    t1, t2 = (p + s) / 2.0, (p - s) / 2.0
    np.testing.assert_allclose(cross("Parallel", kappa1=0.7, L=0.0)(t1, t2, 0.0),
                               ideal, rtol=1e-13)
    cp = np.cosh(0.7 * p / 2.0)
    A = 0.4 - 2.0 / 0.7
    d = ((-2.0 * cp * np.exp(-0.7 * s / 2.0) / 0.7 - A)
         * (2.0 * cp * np.exp(0.7 * s / 2.0) / 0.7 + A))
    np.testing.assert_allclose(cross("AntiParallel", kappa1=0.7, L=0.4)(t1, t2, 0.0),
                               -1.0 / (PI2_4 * d), rtol=1e-14)
    # Differing: the null-coordinate factors, and the Schwarz reflection
    # W^{21}(tau1, tau2) = conj W^{12}(conj tau2, conj tau1) off the real axis
    k1, k2 = 1.0, 0.5
    d = ((np.exp(-k2 * t2) / k2 - np.exp(-k1 * t1) / k1)
         * (np.exp(k1 * t1) / k1 - np.exp(k2 * t2) / k2))
    w12 = cross("Differing", kappa1=k1, kappa2=k2)
    np.testing.assert_allclose(w12(t1, t2, 0.0), -1.0 / (PI2_4 * d), rtol=1e-14)
    w21 = cross("Differing", 2, 1, kappa1=k1, kappa2=k2)
    np.testing.assert_allclose(w21(t1, t2, 0.0),
                               np.conj(w12(np.conj(t2), np.conj(t1), 0.0)), rtol=1e-14)


FAMILY_SCENARIOS = [
    TrajectoryScenario("Parallel", kappa1=1.0, L=0.7),
    TrajectoryScenario("AntiParallel", kappa1=1.2, L=0.4),
    TrajectoryScenario("AntiParallel", kappa1=1.0, L=-0.6),
    TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5),
    TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=2.0),
]


@pytest.mark.parametrize("sc", FAMILY_SCENARIOS, ids=lambda s: s.family + str(s.L))
def test_hermiticity_of_correlator_matrix(sc):
    # W^{ij}(t1, t2) = conj(W^{ji}(t2, t1)); eps belongs to the operator ordering
    eps = 1e-3
    taus = (-1.1, -0.3, 0.0, 0.8, 1.9)
    for i in (1, 2):
        for j in (1, 2):
            wij = scenario_correlator(sc, i, j)
            wji = scenario_correlator(sc, j, i)
            for t1 in taus:
                for t2 in taus:
                    a = complex(wij(t1, t2, eps))
                    b = complex(wji(t2, t1, eps))
                    assert a == pytest.approx(b.conjugate(), rel=1e-12)


@pytest.mark.parametrize("sc", FAMILY_SCENARIOS[:4], ids=lambda s: s.family + str(s.L))
def test_specialized_forms_match_generic_interval_expression(sc):
    # the factored family forms are exact rewrites of the event-built Q
    eps = 1e-3
    for i in (1, 2):
        for j in (1, 2):
            w = scenario_correlator(sc, i, j)
            for t1, t2 in ((0.0, 0.0), (0.5, -0.4), (-1.0, 1.3), (2.0, 1.9)):
                a = complex(w(t1, t2, eps))
                b = complex(wightman_schlicht(sc, i, j, t1, t2, eps))
                assert a == pytest.approx(b, rel=1e-9)


def test_schlicht_rejects_thermal_family():
    sc = TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0)
    with pytest.raises(ValueError):
        wightman_schlicht(sc, 1, 2, 0.0, 0.0, 1e-3)


def test_regulator_cauchy_convergence():
    # pointwise values settle linearly in eps away from the lightcone
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=0.5)
    w = scenario_correlator(sc, 1, 2)
    vals = [complex(w(0.3, -0.2, e)) for e in (4e-3, 2e-3, 1e-3)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 / d1 <= 0.6


def test_denominator_factor_roots_match_null_geometry():
    # receiving branch 2 at tau = 0: W^{21}(0, -s) poles solve e^{-ks} = 1 - kL
    k, L = 1.0, 0.5
    sc = TrajectoryScenario("Parallel", kappa1=k, L=L)
    factors = denominator_factors(sc, 2, 1)
    assert len(factors) == 2
    s_star = -math.log(1.0 - k * L)

    roots = []
    for g in factors:
        roots += sign_change_roots(lambda s: g(np.zeros_like(s), -np.asarray(s)),
                                   1e-3, 10.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(s_star, rel=1e-9)


def test_denominator_factors_reproduce_correlator():
    # W = -1/(4 pi^2 g1 g2) at eps -> 0, away from the factors' zeros
    cases = [
        (TrajectoryScenario("Parallel", kappa1=1.0, L=0.7), (1, 2)),
        (TrajectoryScenario("Parallel", kappa1=1.0, L=0.7), (2, 1)),
        (TrajectoryScenario("AntiParallel", kappa1=1.1, L=0.4), (1, 2)),
        (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (1, 2)),
    ]
    for sc, (i, j) in cases:
        gs = denominator_factors(sc, i, j)
        assert len(gs) == 2
        w = scenario_correlator(sc, i, j)
        for t1, t2 in ((0.3, -0.2), (1.0, 0.5)):
            denom = float(gs[0](t1, t2)) * float(gs[1](t1, t2))
            approx = -1.0 / (PI2_4 * denom)
            assert complex(w(t1, t2, 1e-9)) == pytest.approx(approx, rel=1e-6)


def test_diagonal_has_no_denominator_factors():
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=0.7)
    assert denominator_factors(sc, 1, 1) == []
    assert denominator_factors(sc, 2, 2) == []


# --- closed-form lightcone roots on the p-cuts --------------------------------

ROOT_CASES = [
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), (1, 2)),
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), (2, 1)),
    (TrajectoryScenario("Parallel", kappa1=2.5, L=0.3), (2, 1)),
    (TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5), (1, 2)),   # A < 0
    (TrajectoryScenario("AntiParallel", kappa1=4.0, L=-0.2), (2, 1)),  # A < 0
    (TrajectoryScenario("AntiParallel", kappa1=1.0, L=2.5), (1, 2)),   # A >= 0
    (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (1, 2)),
    (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (2, 1)),
    (TrajectoryScenario("Differing", kappa1=0.7, kappa2=2.0), (2, 1)),
    (TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0), (1, 2)),
    (TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0), (2, 1)),
]


@pytest.mark.parametrize("sc, pair", ROOT_CASES)
def test_lightcone_roots_match_sign_change_scan(sc, pair):
    # on every cut p = tau1 + tau2 of the diamond |p| + s <= 2T, s >= 0, the
    # closed-form roots in [0, 2T - |p|] are the scan's, for three windows
    found = 0
    for T2 in (1.4, 5.0, 20.0):
        p = np.linspace(-T2, T2, 43)[1:-1]
        roots = lightcone_roots(sc, *pair, p)
        assert roots.shape[1:] == p.shape
        for idx, pk in enumerate(p):
            s_hi = T2 - abs(pk)
            closed = sorted(r for r in roots[:, idx] if 0.0 <= r <= s_hi)
            scanned = []
            for g in denominator_factors(sc, *pair):
                scanned += sign_change_roots(
                    lambda s: g((pk + s) / 2.0, (pk - s) / 2.0), 0.0, s_hi)
            assert len(closed) == len(scanned)
            assert closed == pytest.approx(sorted(scanned), abs=1e-12)
            found += len(closed)
    if sc.family == "AntiParallel" and sc.L - 2.0 / sc.kappa1 >= 0:
        assert found == 0
    else:
        assert found > 0


@pytest.mark.parametrize("sc, pair", ROOT_CASES)
def test_rate_cut_roots_match_sign_change_scan(sc, pair):
    # on the rate cuts tau1 = tau, tau2 = tau - s, s in [0, s_max], for
    # kappa tau on a grid in [-4, 4] that misses the horizon crossings (where
    # a factor tends to exactly 0 as s -> inf and the scan finds rounding
    # noise), the closed-form roots are the scan's
    s_max = _rate_cut(sc)
    found = 0
    for tau in np.linspace(-4.0, 4.0, 40) / sc.kappa1:
        closed = _rate_cut_roots(sc, *pair, tau, s_max)
        scanned = []
        for g in denominator_factors(sc, *pair):
            scanned += sign_change_roots(lambda s: g(tau, tau - s), 0.0, s_max)
        assert len(closed) == len(scanned)
        assert sorted(closed) == pytest.approx(sorted(scanned), abs=1e-12)
        found += len(closed)
    if sc.family == "AntiParallel" and sc.L - 2.0 / sc.kappa1 >= 0:
        assert found == 0
    else:
        assert found > 0


def test_lightcone_roots_are_finite_far_out_on_the_cut():
    # e^{kappa |p|/2} overflows float64 here; the roots do not
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=1.0)
    p = np.array([-2000.0, 2000.0])
    for pair in ((1, 2), (2, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = lightcone_roots(sc, *pair, p)
            anti = lightcone_roots(TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5),
                                   *pair, p)
        assert np.all(np.isfinite(roots)) and np.all(np.isfinite(anti))
        # sinh(s/2) = +-e^{+-p/2}/2: |s| -> |p| on the growing factor
        assert np.max(np.abs(roots)) == pytest.approx(2000.0, rel=1e-12)


def test_diagonal_pairs_have_no_lightcone_roots():
    sc = TrajectoryScenario("Parallel", kappa1=1.0, L=0.7)
    assert lightcone_roots(sc, 1, 1, np.zeros(5)).shape == (0, 5)


# --- closed-form spectra of the stationary pairs ------------------------------

def _exact_spectrum(kappa, E, L):
    """E/(2 pi (e^{2 pi E/kappa} - 1)) sin(EL)/(EL) at 50 digits, from the
    float inputs as given; L = 0 is the Planck form alone."""
    with mp.workdps(50):
        k, e, l = mp.mpf(kappa), mp.mpf(E), mp.mpf(L)
        planck = k / (4 * mp.pi**2) if e == 0 else e / (2 * mp.pi * mp.expm1(2 * mp.pi * e / k))
        x = e * l
        return planck * (mp.sin(x) / x if x != 0 else 1)


def _spectrum_samples(n):
    """(kappa, E, L): |2 pi E/kappa| up to 40, gaps near zero, and EL near
    multiples of pi, where sin(EL) is small and the rounding of EL dominates."""
    rng = np.random.default_rng(7)
    out = []
    for k in range(n):
        kappa = float(10.0 ** rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(-40.0, 40.0))
        if k % 10 == 0:
            x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -4.0))
        if k % 50 == 0:
            x = 0.0
        E = x * kappa / (2.0 * math.pi)
        if k % 2 == 0 and E != 0.0:
            n_pi = int(rng.integers(1, 60))
            L = abs((n_pi * math.pi + float(rng.uniform(-1.0, 1.0)) * 1e-6) / E)
        else:
            L = float(10.0 ** rng.uniform(-3.0, 3.0))
        out.append((kappa, E, L))
    return out


def test_pair_spectrum_rounding_bound_holds_against_mpmath():
    samples = _spectrum_samples(1200)
    assert max(abs(2.0 * math.pi * E / k) for k, E, _ in samples) > 39.0
    for kappa, E, L in samples:
        single = TrajectoryScenario("SingleAccel", kappa1=kappa)
        bath = TrajectoryScenario("ThermalInertialPair", kappa1=kappa, L=L)
        for sc, pair, dist in ((single, (1, 1), 0.0), (bath, (1, 1), 0.0),
                               (bath, (1, 2), L)):
            F, bound = pair_spectrum(sc, *pair, E)
            exact = _exact_spectrum(kappa, E, dist)
            assert bound > 0
            assert abs(F - exact) <= bound, (sc.family, pair, kappa, E, L)


@pytest.mark.parametrize("sc, pair", [
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), (1, 2)),
    (TrajectoryScenario("AntiParallel", kappa1=1.0, L=0.5), (1, 2)),
    (TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5), (1, 2)),
])
def test_pair_spectrum_refuses_non_stationary_pairs(sc, pair):
    with pytest.raises(ValueError, match="no closed-form spectrum"):
        pair_spectrum(sc, *pair, 1.0)


def test_pair_spectrum_reads_the_rows():
    # identical rows give the local form; the bath's cross pair at L = 0 too
    par0 = TrajectoryScenario("Parallel", kappa1=2.0, L=0.0)
    assert pair_spectrum(par0, 1, 2, 0.3) == pair_spectrum(par0, 1, 1, 0.3)
    th0 = TrajectoryScenario("ThermalInertialPair", kappa1=2.0)
    assert pair_spectrum(th0, 1, 2, 0.3)[0] == planck_rate(2.0, 0.3)
    # the bath's cross pair is even in L and is the Planck form at E = 0
    th = TrajectoryScenario("ThermalInertialPair", kappa1=2.0, L=1.5)
    assert pair_spectrum(th, 1, 2, 0.3) == pair_spectrum(th, 2, 1, 0.3)
    assert pair_spectrum(th, 1, 2, 0.0)[0] == planck_rate(2.0, 0.0)


def test_pair_spectrum_over_an_array_equals_scalar_calls():
    # every branch of the Planck form: the series near 0, expm1, the log
    # form past x = 700, and the emission side
    E = np.array([-300.0, -1.0, -1e-8, 0.0, 1e-8, 0.7, 250.0, 400.0])
    for sc, pair in ((TrajectoryScenario("SingleAccel", kappa1=2.0), (1, 1)),
                     (TrajectoryScenario("ThermalInertialPair", kappa1=2.0, L=1.5), (1, 2))):
        F, bound = pair_spectrum(sc, *pair, E)
        assert F.shape == bound.shape == E.shape
        for k, e in enumerate(E):
            assert (F[k], bound[k]) == pair_spectrum(sc, *pair, float(e))
    np.testing.assert_array_equal(planck_rate(2.0, E), [planck_rate(2.0, e) for e in E])


def test_guard_bound_for_real_times_reads_only_the_extreme_times():
    # kappa max(|min tau|, |max tau|) is max |kappa tau| to the last bit: the
    # times of a 2-D cut p = 0.4 and random times of both signs, several kappa
    s = panel_nodes(np.linspace(0.0, 3.0, 41))
    rng = np.random.default_rng(7)
    times = [(0.4 + s) / 2.0, (0.4 - s) / 2.0, rng.uniform(-9.0, 4.0, 500),
             np.array([-0.0]), np.array(2.5)]
    for kappa in (0.0, 0.37, 1.0, 3.1, 20.0):
        for tau in times:
            assert _max_abs_scaled(kappa, tau) == _max_abs(kappa * tau)
    # complex (contour) times keep the modulus; nan and empty are unchanged
    z = np.array([0.3 - 2.0j, -1.0 + 0.5j])
    assert _max_abs_scaled(0.7, z) == _max_abs(0.7 * z)
    assert _max_abs_scaled(0.7, np.array([])) == 0.0
    assert math.isnan(_max_abs_scaled(0.7, np.array([1.0, np.nan])))
    # a nan time passes the guard, however far out the others are
    with np.errstate(invalid="ignore"):
        w = cross("Parallel", kappa1=1.0, L=1.0)(np.array([np.nan, 400.0]), 0.0, 1e-3)
    assert np.isnan(w[0])


@pytest.mark.parametrize("kappa1, kappa2", [(0.7, 0.7), (1.0, 0.3)])
def test_cross_guard_switches_at_its_bound(kappa1, kappa2):
    # the first time past 350/kappa raises and the one before it does not,
    # at either end of a real time array and on either branch
    W = scenario_correlator(TrajectoryScenario("Differing", kappa1=kappa1, kappa2=kappa2), 1, 2)

    def at(branch, t):
        times = np.array([0.3, -1.0, t])
        return W(times, 0.2, 1e-3) if branch == 1 else W(0.2, times, 1e-3)

    for branch, kappa in ((1, kappa1), (2, kappa2)):
        over = 350.0 / kappa
        while kappa * over <= 350.0:
            over = np.nextafter(over, math.inf)
        under = np.nextafter(over, -math.inf)
        for sign in (1.0, -1.0):
            at(branch, sign * under)
            with pytest.raises(HyperbolicRangeError):
                at(branch, sign * over)
