"""The beta bound: the one validity rule of the closed forms and the contour."""

import math
import warnings

import pytest

from udwsim import (
    DetectorParams,
    ValidityError,
    beta_bound_violation,
    beta_parameter,
    p_antiparallel,
    p_local,
    zeta_prefactor,
)


def par(omega=1.0, sigma=0.1, lam=0.01):
    return DetectorParams(omega=omega, lambda_coupling=lam, sigma=sigma)


def names(violation):
    return [] if violation is None else [violation.split(" ", 1)[0]]


def test_beta_parameter():
    assert beta_parameter(par(omega=2.0, sigma=0.5), 3.0) == pytest.approx(1.5)
    assert beta_parameter(par(omega=-1.0), 1.0) < 0


def test_beta_bound_ok():
    p = par(omega=1.0, sigma=0.1)
    assert beta_bound_violation(p, 1.0) is None
    assert beta_parameter(p, 1.0) == pytest.approx(0.01)


def test_beta_bound_violated():
    p = par(omega=4.0, sigma=1.0)
    r = beta_bound_violation(p, 1.0)
    assert names(r) == ["beta_bound"]
    assert beta_parameter(p, 1.0) == pytest.approx(4.0)
    assert "pi" in r


def test_beta_bound_exactly_pi_is_violated():
    r = beta_bound_violation(par(omega=math.pi, sigma=1.0), 1.0)
    assert names(r) == ["beta_bound"]


def test_negative_gap_reported_separately():
    r = beta_bound_violation(par(omega=-2.0), 1.0)
    assert names(r) == ["negative_gap_closed_form"]
    r = beta_bound_violation(par(omega=0.0), 1.0)
    assert names(r) == ["negative_gap_closed_form"]


# --- antiparallel points near and past kappa L = 2 ---------------------------
# Below beta = pi the shifted contour crosses no antiparallel pole
# (excitation_probability_contour), so p_antiparallel is held to the beta
# bound alone, as p_parallel is.

def test_pole_check_ok_for_small_separation():
    # kL/2 < 1, on either side of the apex
    for L in (0.2, -0.5):
        assert p_antiparallel(par(omega=1.0, sigma=0.4), 1.0, L).probability > 0


def test_pole_check_hard_violation():
    # the one hard violation is beta >= pi, at every kappa L
    p = par(omega=3.2, sigma=1.0)
    for L in (0.2, 2.06, 3.0):
        with pytest.raises(ValidityError, match="beta_bound") as exc:
            p_antiparallel(p, 1.0, L)
        assert str(exc.value) == ("closed form outside its validity regime: "
                                  + beta_bound_violation(p, 1.0))


def test_pole_check_far_side_ok():
    # past kappa L = 2, with a tiny beta and with 2 beta > pi
    assert p_antiparallel(par(omega=0.001, sigma=1.0), 1.0, 3.0).probability > 0
    assert p_antiparallel(par(omega=2.8, sigma=1.0), 1.0, 2.06).probability > 0


def test_pole_check_exactly_at_divergence():
    # kappa L = 2 exactly: the closed form is regular, its interference
    # denominator being 1
    p = par(omega=2.8, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = p_antiparallel(p, 1.0, 2.0)
    expected = p_local(p, 1.0).probability / 2.0 + zeta_prefactor(p, 1.0)
    assert r.probability == pytest.approx(expected, rel=1e-14)


def test_pole_check_window_boundary():
    # across kappa L = 2 the closed form neither refuses nor warns
    p = par(omega=0.28, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for L in (1.949, 1.96, 2.0, 2.04, 2.051):
            assert p_antiparallel(p, 1.0, L).probability > 0


def test_pole_check_zero_beta():
    # beta <= 0 is emission, refused as a negative gap
    with pytest.raises(ValidityError, match="negative_gap"):
        p_antiparallel(par(omega=-1.0), 1.0, 2.5)


def test_pole_check_scales_with_kappa():
    # the rule depends on beta alone, so kappa -> c kappa, L -> L/c,
    # sigma -> sigma/c, omega -> c omega leaves verdict and value unchanged
    p = par(omega=1.4, sigma=1.0)  # beta = 2.8 at kappa = 2
    ref = p_antiparallel(p, 2.0, 1.03).probability
    for c in (0.25, 4.0):
        q = par(omega=1.4 * c, sigma=1.0 / c)
        assert beta_bound_violation(q, 2.0 * c) == beta_bound_violation(p, 2.0)
        assert beta_parameter(q, 2.0 * c) == beta_parameter(p, 2.0)
        assert p_antiparallel(q, 2.0 * c, 1.03 / c).probability == pytest.approx(
            ref, rel=1e-12)


def test_probability_sweep_parameters_are_valid():
    # the probability-map regime: kappa sigma = 0.05, sigma Omega = 4
    p = DetectorParams(omega=80.0, lambda_coupling=0.01, sigma=0.05)
    assert beta_bound_violation(p, 1.0) is None
    for kL in (0.0, 0.2, 0.5, 0.9, 1.0, 1.5, 1.9):
        assert p_antiparallel(p, 1.0, kL).probability > 0
