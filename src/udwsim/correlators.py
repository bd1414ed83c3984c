"""Regularized Wightman two-point functions along the trajectory branches.

All correlators take a smearing regulator eps > 0; physical values are
obtained by the response layer, which integrates first and then removes the
regulator by extrapolation. Functions are vectorized over their time
arguments (numpy broadcasting) and return complex values. eps may be a
ladder of m values, taken as a column of shape (m, 1): against 1-D time
arrays it gives one row per value, and the eps-free geometry is computed
once. The local, parallel, antiparallel and thermal forms also accept
complex proper-time differences with eps = 0: off the real axis the
lightcone poles are not met, so the regulator is not needed there (see
excitation_probability_contour).

Conventions: metric (-,+,+,+); the massless-field vacuum Wightman function
along worldlines x_i, x_j is

    W(tau1, tau2) = 1 / (4 pi^2 Q),
    Q = |dx - i eps (u_i + u_j)|_space^2 - (dt - i eps (u_i + u_j)_t)^2,

where u are the 4-velocities (point-detector limit of a rigidly smeared
detector). The specialized per-family forms below are algebraically exact
rewrites of this along the corresponding worldline pairs, with one critical
numerical difference: denominators are kept in factored
difference-of-exponentials form. The textbook grouping psi^2 - phi^2 loses
all 16 float64 digits once kappa(|p| + |s|) exceeds ~35 (cosh^2 - sinh^2
cancellation), which sits squarely inside the rate-map parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import TrajectoryScenario, four_velocity, worldline_event

_PI2_4 = 4.0 * math.pi**2
_PI2_16 = 16.0 * math.pi**2

# float64 overflows near exp(709); hyperbolic magnitudes are useless noise far
# earlier, so fail loudly instead of saturating
_MAX_HYP_ARG = 350.0


@dataclass(frozen=True)
class Regulator:
    """Smearing scale eps > 0 (time units)."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0) or not math.isfinite(self.epsilon):
            raise ValueError("regulator epsilon must be positive and finite")


def _eps_of(reg):
    if isinstance(reg, Regulator):
        return reg.epsilon
    eps = np.asarray(reg, dtype=float)  # a ladder becomes a column (m, 1)
    return eps.reshape(-1, 1) if eps.ndim else float(eps)


def _times(x):
    """Time arguments as a float array, or a complex one when given complex
    values (points on a shifted integration contour, evaluated at eps = 0)."""
    x = np.asarray(x)
    return x if x.dtype.kind == "c" else x.astype(float, copy=False)


def _guard_hyp(*args):
    m = max(float(np.max(np.abs(a))) if np.size(a) else 0.0 for a in args)
    if m > _MAX_HYP_ARG:
        raise ValueError(
            f"hyperbolic argument {m:.3g} out of range (|arg| <= {_MAX_HYP_ARG}); "
            "correlator magnitudes are negligible long before this scale"
        )


def wightman_local(kappa: float, s, reg):
    """Same-branch correlator of a uniformly accelerated worldline.

    W(s) = -(1/16 pi^2) / (sinh(ks/2)/k - i eps cosh(ks/2))^2, a function of
    the proper-time difference s only.
    """
    eps = _eps_of(reg)
    s = _times(s)
    _guard_hyp(kappa * s / 2.0)
    u = np.sinh(kappa * s / 2.0) / kappa - 1j * eps * np.cosh(kappa * s / 2.0)
    return (-1.0 / _PI2_16) / (u * u)


def _u_of(kappa, s, eps):
    return np.sinh(kappa * s / 2.0) / kappa - 1j * eps * np.cosh(kappa * s / 2.0)


def _direction_sign(direction) -> float:
    d = str(direction)
    if d == "12":
        return +1.0
    if d == "21":
        return -1.0
    raise ValueError(f"direction must be 12 or 21, got {direction!r}")


def wightman_parallel_cross(kappa: float, L: float, p, s, reg, direction):
    """Cross-branch correlator for parallel accelerations, in (p, s) variables.

    p = tau1 + tau2, s = tau1 - tau2. Equal to
    -1/(4 pi^2 (psi^2 - (phi + X)^2)) with X = +L for direction 12 and -L for
    21, psi = 2 cosh(kp/2) u, phi = 2 sinh(kp/2) u; evaluated via the exact
    factorization (2 e^{-kp/2} u - X)(2 e^{kp/2} u + X).
    """
    eps = _eps_of(reg)
    X = _direction_sign(direction) * L
    p = _times(p)
    s = _times(s)
    _guard_hyp(kappa * p / 2.0, kappa * s / 2.0, kappa * (np.abs(p) + np.abs(s)) / 2.0)
    u = _u_of(kappa, s, eps)
    d = (2.0 * np.exp(-kappa * p / 2.0) * u - X) * (2.0 * np.exp(kappa * p / 2.0) * u + X)
    return -1.0 / (_PI2_4 * d)


def wightman_antiparallel_cross(kappa: float, L: float, p, s, reg):
    """Cross-branch correlator for antiparallel accelerations (direction-symmetric).

    Equal to -1/(4 pi^2 (psi^2 - (phi - 2/k + L)^2)) with
    psi = 2 cosh(kp/2)(sinh(ks/2)/k - i eps cosh(ks/2)),
    phi = 2 cosh(kp/2)(cosh(ks/2)/k - i eps sinh(ks/2)),
    in factored form.
    """
    eps = _eps_of(reg)
    p = _times(p)
    s = _times(s)
    _guard_hyp(kappa * p / 2.0, kappa * s / 2.0, kappa * (np.abs(p) + np.abs(s)) / 2.0)
    cp = np.cosh(kappa * p / 2.0)
    A = L - 2.0 / kappa
    # psi - phi = -2 cp e^{-ks/2} (1/k + i eps); psi + phi = 2 cp e^{+ks/2} (1/k - i eps)
    f1 = -2.0 * cp * np.exp(-kappa * s / 2.0) * (1.0 / kappa + 1j * eps) - A
    f2 = 2.0 * cp * np.exp(kappa * s / 2.0) * (1.0 / kappa - 1j * eps) + A
    return -1.0 / (_PI2_4 * f1 * f2)


def _differing_12(kappa1, kappa2, tau1, tau2, eps):
    # branch 1 (kappa1) at tau1, branch 2 (kappa2) at tau2
    a1 = kappa1 * tau1
    a2 = kappa2 * tau2
    _guard_hyp(a1, a2, (np.abs(a1) + np.abs(a2)) / 2.0)
    ap = (a1 + a2) / 2.0
    cm = np.cosh((a1 - a2) / 2.0)
    diff_m = np.exp(-a2) / kappa2 - np.exp(-a1) / kappa1  # (dz - dt) with sign flipped
    diff_p = np.exp(a1) / kappa1 - np.exp(a2) / kappa2    # dz + dt
    f1 = diff_m - 2j * eps * cm * np.exp(-ap)
    f2 = diff_p - 2j * eps * cm * np.exp(ap)
    return -1.0 / (_PI2_4 * f1 * f2)


def wightman_differing_cross(kappa1: float, kappa2: float, tau1, tau2, reg, direction):
    """Cross-branch correlator for differing accelerations sharing a horizon.

    direction 12 places branch 1 (kappa1) at tau1 and branch 2 (kappa2) at
    tau2; direction 21 is the operator-ordering swap, obtained from the
    hermiticity identity W^{21}(tau1, tau2) = conj(W^{12}(tau2, tau1)).
    """
    eps = _eps_of(reg)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    d = str(direction)
    if d == "12":
        return _differing_12(kappa1, kappa2, tau1, tau2, eps)
    if d == "21":
        return np.conj(_differing_12(kappa1, kappa2, tau2, tau1, eps))
    raise ValueError(f"direction must be 12 or 21, got {direction!r}")


def wightman_thermal_cross(kappa: float, L: float, s_prime, reg):
    """Cross correlator of two static detectors in a bath at T = kappa/2pi.

    W = kappa (coth(kappa(L - s')/2) + coth(kappa(L + s')/2)) / (16 pi^2 L)
    with s' = (tau1 - tau2) - i eps. Stationary: depends only on s'.
    """
    if L == 0:
        raise ValueError("thermal cross correlator needs L != 0 (1/L prefactor); "
                         "use wightman_thermal_local for the coincident-point limit")
    eps = _eps_of(reg)
    sp = np.asarray(s_prime, dtype=complex)
    sp = sp - 1j * eps
    # no overflow guard: coth saturates to +-1 at large |Re z|
    z1 = kappa * (L - sp) / 2.0
    z2 = kappa * (L + sp) / 2.0
    return kappa * (1.0 / np.tanh(z1) + 1.0 / np.tanh(z2)) / (_PI2_16 * L)


def wightman_thermal_local(kappa: float, s, reg):
    """Same-detector correlator in the thermal bath: the L -> 0 limit of the
    cross form, W = -(kappa^2/16 pi^2) / sinh^2(kappa (s - i eps)/2)."""
    eps = _eps_of(reg)
    s = np.asarray(s, dtype=complex) - 1j * eps
    _guard_hyp(kappa * np.abs(s.real) / 2.0)
    sh = np.sinh(kappa * s / 2.0)
    return -(kappa**2 / _PI2_16) / (sh * sh)


def wightman_schlicht(scenario: TrajectoryScenario, i: int, j: int, tau1, tau2, reg):
    """Generic regularized vacuum Wightman function along two branches.

    Evaluates 1/(4 pi^2 Q) with Q the squared complex separation
    (dx - i eps (u_i + u_j))^2 built directly from worldline_event and
    four_velocity. Reference implementation used to cross-check the
    specialized forms; scalar arguments only. Not defined for
    ThermalInertialPair (the bath state is not the vacuum).
    """
    if scenario.family == "ThermalInertialPair":
        raise ValueError("wightman_schlicht evaluates the vacuum state; "
                         "ThermalInertialPair uses the thermal correlators")
    eps = _eps_of(reg)
    e1 = worldline_event(scenario, i, float(tau1))
    e2 = worldline_event(scenario, j, float(tau2))
    u1 = four_velocity(scenario, i, float(tau1))
    u2 = four_velocity(scenario, j, float(tau2))
    dt = (e1.t - e2.t) - 1j * eps * (u1.t + u2.t)
    dx = (e1.x - e2.x) - 1j * eps * (u1.x + u2.x)
    dy = (e1.y - e2.y) - 1j * eps * (u1.y + u2.y)
    dz = (e1.z - e2.z) - 1j * eps * (u1.z + u2.z)
    q = dx * dx + dy * dy + dz * dz - dt * dt
    return 1.0 / (_PI2_4 * q)


def scenario_correlator(scenario: TrajectoryScenario, i: int, j: int):
    """Vectorized W^{ij}(tau1, tau2, eps) callable for the integration engine.

    Dispatches to the specialized family forms; (i, j) ordering follows the
    operator ordering <Phi_i(tau1) Phi_j(tau2)>.
    """
    scenario._check_branch(i)
    scenario._check_branch(j)
    fam = scenario.family
    if i == j:
        if fam == "ThermalInertialPair":
            k = scenario.kappa1
            return lambda t1, t2, eps: wightman_thermal_local(k, np.asarray(t1) - np.asarray(t2), eps)
        k = scenario.branch_kappa(i)
        return lambda t1, t2, eps: wightman_local(k, np.asarray(t1) - np.asarray(t2), eps)
    if fam == "Parallel":
        k, L = scenario.kappa1, scenario.L
        direction = "12" if (i, j) == (1, 2) else "21"
        return lambda t1, t2, eps: wightman_parallel_cross(
            k, L, np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2),
            eps, direction)
    if fam == "AntiParallel":
        k, L = scenario.kappa1, scenario.L
        return lambda t1, t2, eps: wightman_antiparallel_cross(
            k, L, np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2), eps)
    if fam == "Differing":
        k1, k2 = scenario.kappa1, scenario.kappa2
        direction = "12" if (i, j) == (1, 2) else "21"
        return lambda t1, t2, eps: wightman_differing_cross(k1, k2, t1, t2, eps, direction)
    if fam == "ThermalInertialPair":
        k, L = scenario.kappa1, scenario.L
        return lambda t1, t2, eps: wightman_thermal_cross(
            k, L, np.asarray(t1) - np.asarray(t2), eps)
    raise ValueError(f"no cross correlator for family {fam!r}")  # SingleAccel i != j


def denominator_factors(scenario: TrajectoryScenario, i: int, j: int):
    """Real eps = 0 factors of the W^{ij} denominator, as vectorized callables
    g(tau1, tau2). Their zeros are the lightcone crossings where the regulated
    integrand peaks with width ~eps; the integration meshes cluster there.
    The coincidence zero at tau1 = tau2 is always clustered separately, so
    diagonal correlators contribute no factors here.
    """
    scenario._check_branch(i)
    scenario._check_branch(j)
    if i == j:
        return []
    fam = scenario.family
    if fam == "Parallel":
        k, L = scenario.kappa1, scenario.L
        X = L if (i, j) == (1, 2) else -L

        def g1(t1, t2):
            p, s = np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2)
            return 2.0 * np.exp(-k * p / 2.0) * np.sinh(k * s / 2.0) / k - X

        def g2(t1, t2):
            p, s = np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2)
            return 2.0 * np.exp(k * p / 2.0) * np.sinh(k * s / 2.0) / k + X

        return [g1, g2]
    if fam == "AntiParallel":
        k, L = scenario.kappa1, scenario.L
        A = L - 2.0 / k

        def g1(t1, t2):
            p, s = np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2)
            return -2.0 * np.cosh(k * p / 2.0) * np.exp(-k * s / 2.0) / k - A

        def g2(t1, t2):
            p, s = np.asarray(t1) + np.asarray(t2), np.asarray(t1) - np.asarray(t2)
            return 2.0 * np.cosh(k * p / 2.0) * np.exp(k * s / 2.0) / k + A

        return [g1, g2]
    if fam == "Differing":
        k1, k2 = scenario.kappa1, scenario.kappa2
        swap = (i, j) == (2, 1)

        def g1(t1, t2):
            ta, tb = (t2, t1) if swap else (t1, t2)
            return np.exp(-k2 * np.asarray(tb)) / k2 - np.exp(-k1 * np.asarray(ta)) / k1

        def g2(t1, t2):
            ta, tb = (t2, t1) if swap else (t1, t2)
            return np.exp(k1 * np.asarray(ta)) / k1 - np.exp(k2 * np.asarray(tb)) / k2

        return [g1, g2]
    if fam == "ThermalInertialPair":
        L = scenario.L

        def g1(t1, t2):
            return L - (np.asarray(t1) - np.asarray(t2))

        def g2(t1, t2):
            return L + (np.asarray(t1) - np.asarray(t2))

        return [g1, g2]
    raise ValueError(f"no cross correlator for family {fam!r}")


def _asinh_exp(a):
    """asinh(e^a), in a form that does not overflow at large a."""
    pos = np.maximum(a, 0.0)
    return np.where(a > 0.0, pos + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * pos))),
                    np.arcsinh(np.exp(np.minimum(a, 0.0))))


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def lightcone_roots(scenario: TrajectoryScenario, i: int, j: int, p) -> np.ndarray:
    """Real zeros in s of the denominator_factors of W^{ij} on the cuts
    p = tau1 + tau2, s = tau1 - tau2, in closed form.

    Vectorized over p: returns an array of shape (m, *p.shape), one row per
    factor that has a real zero (m = 0 for diagonal pairs and for AntiParallel
    with L >= 2/kappa). Rows are not restricted to any s interval.
    """
    scenario._check_branch(i)
    scenario._check_branch(j)
    p = np.asarray(p, dtype=float)
    if i == j:
        return np.empty((0,) + p.shape)
    fam = scenario.family
    if fam == "Parallel":
        k = scenario.kappa1
        X = scenario.L if (i, j) == (1, 2) else -scenario.L
        if X == 0.0:
            return np.zeros((2,) + p.shape)
        # sinh(ks/2) = kX e^{+-kp/2}/2, with the exponential kept in log form
        c = math.log(k * abs(X) / 2.0)
        sgn = math.copysign(2.0 / k, X)
        return np.stack([sgn * _asinh_exp(c + k * p / 2.0),
                         -sgn * _asinh_exp(c - k * p / 2.0)])
    if fam == "AntiParallel":
        k = scenario.kappa1
        A = scenario.L - 2.0 / k
        if not A < 0.0:
            return np.empty((0,) + p.shape)
        # e^{-+ks/2} = -kA / (2 cosh(kp/2))
        s = (2.0 / k) * (math.log(-k * A / 2.0) - _log_cosh(k * p / 2.0))
        return np.stack([-s, s])
    if fam == "Differing":
        k1, k2 = scenario.kappa1, scenario.kappa2
        sgn = 1.0 if (i, j) == (1, 2) else -1.0
        drift = (k2 - k1) * p
        shift = 2.0 * math.log(k2 / k1)
        return sgn * np.stack([shift + drift, -shift + drift]) / (k1 + k2)
    if fam == "ThermalInertialPair":
        L = scenario.L
        return np.stack([np.full(p.shape, L), np.full(p.shape, -L)])
    raise ValueError(f"no cross correlator for family {fam!r}")
