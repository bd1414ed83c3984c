"""Saddle-point excitation probabilities: values, limits, refusals.

Reference point used throughout: kappa = 1, sigma = 0.05, omega = 80
(so kappa sigma = 0.05, sigma omega = 4, beta = 0.2), lambda = 0.01.
"""

import math
import warnings

import pytest

from udwsim import (
    ClosedFormResult,
    DetectorParams,
    SingularParameterError,
    TrajectoryScenario,
    ValidityError,
    excitation_probability_contour,
    p_antiparallel,
    p_differing,
    p_local,
    p_parallel,
    xi_prefactor,
    zeta_prefactor,
)

REF = DetectorParams(omega=80.0, lambda_coupling=0.01, sigma=0.05)


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(omega=math.nan, lambda_coupling=0.01, sigma=0.05)
    with pytest.raises(ValueError):
        DetectorParams(omega=1.0, lambda_coupling=0.01, sigma=0.0)
    with pytest.raises(ValueError):
        DetectorParams(omega=1.0, lambda_coupling=-0.01, sigma=0.05)
    with pytest.warns(UserWarning, match="perturbation theory"):
        DetectorParams(omega=1.0, lambda_coupling=0.5, sigma=0.05)
    # omega < 0 is a valid detector (emission); closed forms refuse it later
    DetectorParams(omega=-1.0, lambda_coupling=0.01, sigma=0.05)


def test_prefactors():
    xi = xi_prefactor(REF, 1.0)
    assert xi == pytest.approx(1.1194080830175114e-15, rel=1e-13)
    assert xi == pytest.approx(
        (1.0 * 0.05 * 0.01) ** 2 * math.exp(-16.0) / (8.0 * math.pi), rel=1e-14)
    assert zeta_prefactor(REF, 1.0) == pytest.approx(0.5 * xi, rel=1e-15)


def test_p_local_reference_value():
    r = p_local(REF, 1.0)
    assert r.probability == pytest.approx(2.836134225096332e-14, rel=1e-13)
    assert r.probability == pytest.approx(
        xi_prefactor(REF, 1.0) / math.sin(0.2) ** 2, rel=1e-14)


def test_p_local_scaling_in_coupling():
    weak = p_local(REF, 1.0).probability
    strong = p_local(DetectorParams(80.0, 0.03, 0.05), 1.0).probability
    assert strong == pytest.approx(9.0 * weak, rel=1e-12)


def test_p_local_zero_coupling():
    r = p_local(DetectorParams(80.0, 0.0, 0.05), 1.0)
    assert r.probability == 0.0


def test_parallel_reference_value():
    r = p_parallel(REF, 1.0, 1.0)
    assert r.probability == pytest.approx(1.6114222106538013e-14, rel=1e-13)


def test_parallel_coincident_equals_local():
    # L = 0: interference term equals half the local one, restoring p_local
    loc = p_local(REF, 1.0).probability
    par = p_parallel(REF, 1.0, 0.0).probability
    assert par == pytest.approx(loc, rel=1e-14)


def test_parallel_far_separation_halves():
    loc = p_local(REF, 1.0).probability
    far = p_parallel(REF, 1.0, 1e6).probability
    assert far == pytest.approx(loc / 2.0, rel=1e-10)


def test_parallel_monotone_in_separation():
    vals = [p_parallel(REF, 1.0, L).probability for L in (0.0, 0.5, 1.0, 2.0, 10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_antiparallel_coincident_apex():
    # L = 0: interference denominator is 2(1 - cos beta)
    r = p_antiparallel(REF, 1.0, 0.0)
    expected = (p_local(REF, 1.0).probability / 2.0
                + zeta_prefactor(REF, 1.0) / (2.0 * (1.0 - math.cos(0.2))))
    assert r.probability == pytest.approx(expected, rel=1e-13)


def test_antiparallel_at_wedge_boundary():
    # kappa L = 2: denominator collapses to 1, p = loc/2 + zeta
    r = p_antiparallel(REF, 1.0, 2.0)
    expected = p_local(REF, 1.0).probability / 2.0 + zeta_prefactor(REF, 1.0)
    assert r.probability == pytest.approx(expected, rel=1e-14)
    assert r.probability == pytest.approx(1.4740375166990416e-14, rel=1e-13)


def test_antiparallel_asymmetric_in_separation_sign():
    plus = p_antiparallel(REF, 1.0, 0.5).probability
    minus = p_antiparallel(REF, 1.0, -0.5).probability
    # ratio comparison: approx's absolute floor would swallow 1e-14 values
    assert abs(plus / minus - 1.0) > 1e-3
    # the interference denominator minimum sits at small positive kappa L
    assert plus > minus


def test_closed_forms_and_contour_are_invariant_under_rescaling():
    # kappa -> c kappa (kappa2 too), L -> L/c, sigma -> sigma/c, omega -> c omega
    # keeps every dimensionless group; c = 0.25 and 4 are exact in binary. The
    # base point has kappa L = 2.2, beta = 0.6, sigma omega = 4
    lam = 0.01

    def values(c):
        p = DetectorParams(omega=c * 80.0 / 3.0, lambda_coupling=lam, sigma=0.15 / c)
        k, k2, L = c * 1.0, c * 0.5, 2.2 / c
        scenarios = [TrajectoryScenario("AntiParallel", kappa1=k, L=L),
                     TrajectoryScenario("Parallel", kappa1=k, L=L),
                     TrajectoryScenario("Differing", kappa1=k, kappa2=k2)]
        return ([p_local(p, k).probability, p_parallel(p, k, L).probability,
                 p_antiparallel(p, k, L).probability,
                 p_differing(p, k, k2).probability]
                + [excitation_probability_contour(sc, p).value for sc in scenarios])

    ref = values(1.0)
    for c in (0.25, 4.0):
        assert values(c) == pytest.approx(ref, rel=1e-12)
    # AntiParallel per lambda^2: the closed form sits 6.3% above the contour,
    # inside the 3 / (2 (sigma omega)^2) = 9.4% saddle error
    closed, contour = ref[2] / lam**2, ref[4] / lam**2
    assert closed == pytest.approx(2.008673e-10, rel=1e-6)
    assert contour == pytest.approx(1.889201e-10, rel=1e-6)
    assert abs(closed / contour - 1.0) < 3.0 / (2.0 * 4.0**2)


def test_differing_equal_accelerations_reduce_to_local():
    loc = p_local(REF, 1.0).probability
    d = p_differing(REF, 1.0, 1.0)
    assert d.probability == pytest.approx(loc, rel=1e-12)


def test_differing_vanishing_first_acceleration():
    # kappa1 -> 0: half the local term survives at kappa2 plus the static
    # branch's own Gaussian-window response
    d = p_differing(REF, 1e-9, 2.0).probability
    lim = (p_local(REF, 2.0).probability / 4.0
           + (0.01 / (2.0 * 0.05 * 80.0)) ** 2 * math.exp(-16.0) / (8.0 * math.pi))
    assert d == pytest.approx(lim, rel=1e-10)


def test_differing_series_switchover_is_smooth():
    # the kappa^2/sin^2 term switches to a series below kappa*sigma = 1e-4
    lo = p_differing(REF, 0.99e-4 / 0.05, 1.0).probability
    hi = p_differing(REF, 1.01e-4 / 0.05, 1.0).probability
    assert lo == pytest.approx(hi, rel=1e-6)


def test_differing_validation():
    with pytest.raises(ValueError):
        p_differing(REF, -1.0, 1.0)
    with pytest.raises(ValueError):
        p_differing(REF, 1.0, 0.0)


def test_closed_forms_refuse_emission():
    p = DetectorParams(omega=-80.0, lambda_coupling=0.01, sigma=0.05)
    for call in (lambda: p_local(p, 1.0),
                 lambda: p_parallel(p, 1.0, 1.0),
                 lambda: p_antiparallel(p, 1.0, 1.0),
                 lambda: p_differing(p, 1.0, 2.0)):
        with pytest.raises(ValidityError, match="negative_gap"):
            call()


def test_closed_forms_refuse_beta_beyond_pi():
    p = DetectorParams(omega=4.0, lambda_coupling=0.01, sigma=1.0)
    with pytest.raises(ValidityError, match="beta_bound"):
        p_local(p, 1.0)


def test_beta_near_pi_warns():
    p = DetectorParams(omega=3.05, lambda_coupling=0.01, sigma=1.0)
    with pytest.warns(UserWarning, match="approaches pi"):
        r = p_local(p, 1.0)
    assert math.isfinite(r.probability)


@pytest.mark.parametrize("sigma_omega, beta, gap", [
    (4.0, 1.5, 0.067), (4.0, 2.5, 0.80), (10.0, 1.5, 0.0113), (10.0, 2.5, 0.174)])
def test_saddle_gap_grows_with_beta(sigma_omega, beta, gap):
    # the module docstring's table: p_local against the full shifted-contour
    # integral it is the leading saddle term of, to 2 digits
    p = DetectorParams(omega=sigma_omega / REF.sigma, lambda_coupling=0.01, sigma=REF.sigma)
    kappa = beta / (p.sigma**2 * p.omega)
    exact = excitation_probability_contour(TrajectoryScenario("SingleAccel", kappa1=kappa), p)
    assert p_local(p, kappa).probability / exact.value - 1.0 == pytest.approx(gap, rel=1e-2)


def test_kappa_validation():
    with pytest.raises(ValueError):
        p_local(REF, 0.0)
    with pytest.raises(ValueError):
        p_local(REF, -2.0)
    with pytest.raises(ValueError):
        p_local(REF, math.inf)


def test_result_rejects_negative_probability():
    with pytest.raises(ValueError):
        ClosedFormResult(-1e-20)


def test_probabilities_scale_invariant():
    # physics depends on the dimensionless groups: rescaling
    # (kappa, omega, L, sigma) -> (c kappa, c omega, L/c, sigma/c) is neutral
    c = 3.7
    scaled = DetectorParams(omega=REF.omega * c, lambda_coupling=0.01,
                            sigma=REF.sigma / c)
    assert p_parallel(scaled, c, 1.0 / c).probability == pytest.approx(
        p_parallel(REF, 1.0, 1.0).probability, rel=1e-12)
    assert p_antiparallel(scaled, c, 0.5 / c).probability == pytest.approx(
        p_antiparallel(REF, 1.0, 0.5).probability, rel=1e-12)
