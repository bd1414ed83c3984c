"""Exact references, computed with mpmath and independent of udwsim.

planck_rate: the transition rate of one uniformly accelerated detector,
    omega / (2 pi (e^{2 pi omega / kappa} - 1)), per lambda^2.

single_branch_probability: the excitation probability of one uniformly
accelerated detector with Gaussian switching exp(-tau^2 / 2 sigma^2), per
lambda^2, from the regulator-free form of the response (Louko & Satz,
gr-qc/0606067):

    P = P_in(x) + 2 sigma sqrt(pi) int_0^inf e^{-s^2/4 sigma^2} cos(omega s) dW(s) ds,
    P_in(x) = (e^{-x^2} - sqrt(pi) x erfc x) / 4 pi,   x = sigma omega,
    dW(s) = (1 - (y / sinh y)^2) / (4 pi^2 s^2),       y = kappa s / 2,

where dW is the accelerated minus the inertial correlator, both at eps = 0.
dW is smooth and even, but its direct form cancels catastrophically near
s = 0, so it switches to its Taylor series there.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30
# below this |y| the series kappa^2/(48 pi^2) (1 - y^2/5) is exact to ~y^4
_SERIES_Y = mp.mpf("1e-6")
# the Gaussian e^{-s^2/4 sigma^2} is below e^{-144} beyond 24 sigma
_CUT_SIGMAS = 24
# quadrature subintervals per oscillation period of cos(omega s)
_PER_PERIOD = 4


def planck_rate(kappa: float, omega: float, digits: int = DIGITS) -> float:
    with mp.workdps(digits):
        k, w = mp.mpf(kappa), mp.mpf(omega)
        if w == 0:
            return float(k / (4 * mp.pi**2))
        return float(w / (2 * mp.pi * mp.expm1(2 * mp.pi * w / k)))


def inertial_probability(sigma: float, omega: float, digits: int = DIGITS) -> float:
    """P_in: the kappa -> 0 limit of single_branch_probability."""
    with mp.workdps(digits):
        return float(_p_inertial(mp.mpf(sigma) * mp.mpf(omega)))


def _p_inertial(x):
    return (mp.exp(-x * x) - mp.sqrt(mp.pi) * x * mp.erfc(x)) / (4 * mp.pi)


def _delta_w(s, kappa):
    y = kappa * s / 2
    if abs(y) < _SERIES_Y:
        return kappa**2 / (48 * mp.pi**2) * (1 - y * y / 5)
    return (1 - (y / mp.sinh(y)) ** 2) / (4 * mp.pi**2 * s * s)


def single_branch_probability(kappa: float, sigma: float, omega: float,
                              digits: int = DIGITS) -> float:
    with mp.workdps(digits):
        k, sg, w = mp.mpf(kappa), mp.mpf(sigma), mp.mpf(omega)
        s_max = _CUT_SIGMAS * sg
        n = max(8, int(mp.ceil(s_max * abs(w) / (2 * mp.pi) * _PER_PERIOD)))
        nodes = [s_max * i / n for i in range(n + 1)]
        inv4s2 = 1 / (4 * sg * sg)
        tail = mp.quad(lambda s: mp.exp(-s * s * inv4s2) * mp.cos(w * s) * _delta_w(s, k),
                       nodes, method="gauss-legendre")
        return float(_p_inertial(sg * w) + 2 * sg * mp.sqrt(mp.pi) * tail)
