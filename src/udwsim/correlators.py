"""Regularized Wightman two-point functions along the trajectory branches.

All correlators take a smearing regulator eps > 0; physical values are
obtained by the response layer, which integrates first and then removes the
regulator by extrapolation. Functions are vectorized over their time
arguments (numpy broadcasting) and return complex values. eps may be a
ladder of m values, taken as a column of shape (m, 1): against 1-D time
arrays it gives one row per value, and the eps-free geometry is computed
once. The local and vacuum cross forms also accept complex proper times
with eps = 0: off the real axis the lightcone poles are not met, so the
regulator is not needed there (see excitation_probability_contour).

Conventions: metric (-,+,+,+); the massless-field vacuum Wightman function
along worldlines x_i, x_j is Schlicht's

    W(tau1, tau2) = 1 / (4 pi^2 Q),
    Q = |dx - i eps (u_i + u_j)|_space^2 - (dt - i eps (u_i + u_j)_t)^2,

where u are the 4-velocities (point-detector limit of a rigidly smeared
detector). In the null coordinates u = t - z, v = t + z of the family table
(kinematics) Q factors as -(du - i eps U)(dv - i eps V), so one factored form
serves every vacuum cross pair of every family, and its eps = 0 factors du,
dv are the lightcone crossings. wightman_schlicht builds Q from the events
and 4-velocities instead and cross-checks it. The factored form keeps the
Rindler-centre offsets apart from the differences of exponentials; the
textbook grouping psi^2 - phi^2 loses all 16 float64 digits once
kappa(|p| + |s|) exceeds ~35 (cosh^2 - sinh^2 cancellation), which sits
squarely inside the rate-map parameter range. Same-branch pairs keep
wightman_local, a function of s alone: as s -> 0 the differences of
exponentials would cancel.

An integration engine that evaluates many cuts of fixed p = tau1 + tau2 on
one set of nodes in s = tau1 - tau2 takes cut_correlator: every such cut is
the p = 0 cut with both rows shifted in proper time by p/2, a boost about
each Rindler centre (Branch.shift), so the rows' null data on the nodes are
computed once and each cut only rescales them.

lightcone_roots solves du = 0 and dv = 0 on the cuts of fixed p from the
rows alone. stationary_form decides, once for every layer, which branch
pairs have a correlator of s = tau1 - tau2 alone, and with what kappa and
distance L; pair_spectrum gives their Fourier transform F_ij(E) in closed
form from those two numbers, with a bound on its rounding. The only family
name compared here is the bath's, in scenario_correlator and
wightman_schlicht, which selects the field's state, not a geometry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HyperbolicRangeError
from .kinematics import TrajectoryScenario, four_velocity, worldline_event

_PI2_4 = 4.0 * math.pi**2
_PI2_16 = 16.0 * math.pi**2

# float64 overflows near exp(709); hyperbolic magnitudes are useless noise far
# earlier, so fail loudly instead of saturating
_MAX_HYP_ARG = 350.0


def _eps_of(reg):
    """eps as a float, or a ladder as a column (m, 1)."""
    eps = np.asarray(reg, dtype=float)
    return eps.reshape(-1, 1) if eps.ndim else float(eps)


def _times(x):
    """Time arguments as a float array, or a complex one when given complex
    values (points on a shifted integration contour, evaluated at eps = 0)."""
    x = np.asarray(x)
    return x if x.dtype.kind == "c" else x.astype(float, copy=False)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def _max_abs_scaled(kappa: float, tau) -> float:
    """_max_abs(kappa * tau) with no temporaries for real times: rounding a
    product is monotone in |tau|, so the extreme times give the same number.
    Complex (contour) times take every modulus."""
    if tau.dtype.kind == "c" or not tau.size:
        return _max_abs(kappa * tau)
    return abs(kappa) * max(abs(float(tau.min())), abs(float(tau.max())))


def _guard_hyp(*bounds):
    """Refuse hyperbolic arguments whose largest |arg|, one bound per
    argument array, exceeds _MAX_HYP_ARG; a nan bound passes."""
    m = max(bounds)
    if m > _MAX_HYP_ARG:
        raise HyperbolicRangeError(
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
    _guard_hyp(_max_abs(kappa * s / 2.0))
    u = np.sinh(kappa * s / 2.0) / kappa - 1j * eps * np.cosh(kappa * s / 2.0)
    return (-1.0 / _PI2_16) / (u * u)


def _null_gaps(row_i, row_j, tau1, tau2):
    """(du, dv, a_i' + a_j', b_i' + b_j') of branches row_i at tau1 and row_j
    at tau2, with du = u_i - u_j and dv = v_i - v_j. The centre offset
    z_cj - z_ci is kept apart from a_j - a_i and b_i - b_j, so that the 1/kappa
    inside the Rindler centres never cancels against them."""
    ai, bi, dai, dbi = row_i.null(tau1)
    aj, bj, daj, dbj = row_j.null(tau2)
    dz = row_j.z_c - row_i.z_c
    return dz + (aj - ai), (bi - bj) - dz, dai + daj, dbi + dbj


def _vacuum_cross(row_i, row_j, tau1, tau2, reg):
    """Vacuum correlator <Phi_i(tau1) Phi_j(tau2)> of two branches,

        W = -1 / (4 pi^2 (du + i eps (a_i' + a_j')) (dv - i eps (b_i' + b_j'))):

    Schlicht's 1/(4 pi^2 (dx - i eps (u_i + u_j))^2) in the null coordinates,
    where the squared separation factors as -du dv. Accepts complex times at
    eps = 0, where W^{ji}(tau1, tau2) = conj W^{ij}(conj tau2, conj tau1)."""
    eps = _eps_of(reg)
    tau1, tau2 = _times(tau1), _times(tau2)
    _guard_hyp(_max_abs_scaled(row_i.kappa, tau1), _max_abs_scaled(row_j.kappa, tau2))
    du, dv, da, db = _null_gaps(row_i, row_j, tau1, tau2)
    return -1.0 / (_PI2_4 * (du + 1j * eps * da) * (dv - 1j * eps * db))


def _vacuum_cut(row_i, row_j, s, reg):
    """_vacuum_cross on the cuts of fixed p: a callable of a real p giving
    W((p + s)/2, (p - s)/2) on the fixed real nodes s. Every cut is the p = 0
    cut with both rows shifted by p/2 (Branch.shift), so the rows' null data
    at +-s/2 are computed once, with the i eps terms of each rung combined:
    U_i = a_i - i eps a_i', U_j = a_j + i eps a_j', and V likewise from b, so
    that du + i eps da = dz + (U_j - U_i) and dv - i eps db = (V_i - V_j) - dz
    at p = 0. A cut scales each U and V by its row's c_a or c_b and adds o_a
    or o_b; dividing the first factor by c_a and the second by c_b of row i
    leaves their product, as c_a c_b = 1. The centre offset dz is still added
    to the difference of the rows' terms. _guard_hyp refuses a cut on the
    same bounds as _vacuum_cross on its (tau1, tau2)."""
    eps = _eps_of(reg)
    half = s / 2.0
    lo, hi = float(s.min()), float(s.max())

    def rung_rows(x, dx, sign):
        # x + sign i eps dx, one row per rung
        out = np.empty(np.shape(eps)[:1] + x.shape, dtype=complex)
        out.real = x
        np.multiply(sign * eps, dx, out=out.imag)
        return out

    # a row the guard refuses at every cut may overflow here: the first cut raises
    with np.errstate(over="ignore"):
        ai, bi, dai, dbi = row_i.null(half)
        aj, bj, daj, dbj = row_j.null(-half)
        ui, vi = rung_rows(ai, dai, -1.0), rung_rows(bi, dbi, -1.0)
        uj, vj = rung_rows(aj, daj, 1.0), rung_rows(bj, dbj, 1.0)
    dz = row_j.z_c - row_i.z_c

    def at(p):
        # the extreme nodes give the extreme (p +- s)/2, rounded as _vacuum_cross rounds them
        _guard_hyp(row_i.kappa * max(abs((p + lo) / 2.0), abs((p + hi) / 2.0)),
                   row_j.kappa * max(abs((p - hi) / 2.0), abs((p - lo) / 2.0)))
        cai, oai, cbi, obi = row_i.shift(p / 2.0)
        caj, oaj, cbj, obj = row_j.shift(p / 2.0)
        x = (caj / cai) * uj
        x -= ui
        x += (dz + oaj - oai) / cai
        y = (cbj / cbi) * vj
        np.subtract(vi, y, out=y)
        y += (obi - obj - dz) / cbi
        x *= y
        return np.divide(-1.0 / _PI2_4, x, out=x)

    return at


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
    _guard_hyp(_max_abs(kappa * np.abs(s.real) / 2.0))
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
    """Vectorized W^{ij}(tau1, tau2, eps) callable for the integration engine;
    (i, j) ordering follows the operator ordering <Phi_i(tau1) Phi_j(tau2)>.

    Three cases: a local pair (wightman_local, or wightman_thermal_local in the
    bath for identical rows, so also for the cross pair at L = 0), the thermal
    bath's cross pair, and the vacuum cross correlator of two rows of the
    family table.
    """
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    k = scenario.kappa1
    if scenario.family == "ThermalInertialPair":
        if row_i == row_j:
            return lambda t1, t2, eps: wightman_thermal_local(
                k, np.asarray(t1) - np.asarray(t2), eps)
        L = scenario.L
        return lambda t1, t2, eps: wightman_thermal_cross(
            k, L, np.asarray(t1) - np.asarray(t2), eps)
    if i == j:
        return lambda t1, t2, eps: wightman_local(
            row_i.kappa, np.asarray(t1) - np.asarray(t2), eps)
    return lambda t1, t2, eps: _vacuum_cross(row_i, row_j, t1, t2, eps)


def cut_correlator(scenario: TrajectoryScenario, i: int, j: int, s, reg):
    """W^{ij}((p + s)/2, (p - s)/2, reg) on fixed real nodes s, as a callable
    of the cut p = tau1 + tau2 (a real float): the form of scenario_correlator
    for an integration engine that evaluates many cuts on one set of nodes.
    A stationary pair (stationary_form) has a correlator of s alone: it is
    evaluated once, and every cut returns that array. Any other pair is a
    vacuum cross pair, as the bath's rows are static, and takes _vacuum_cut,
    whose every call returns a new array."""
    s = np.asarray(s, dtype=float)
    if stationary_form(scenario, i, j) is not None:
        w = scenario_correlator(scenario, i, j)(s / 2.0, -s / 2.0, reg)
        return lambda p: w
    return _vacuum_cut(scenario.branch(i), scenario.branch(j), s, reg)


def stationary_form(scenario: TrajectoryScenario, i: int, j: int):
    """(kappa, L) of a branch pair whose correlator depends on
    s = tau1 - tau2 only, None for any other pair: identical rows (every
    local pair) give the row's kappa and L = 0; two static rows, which only
    the bath has, give the bath's kappa1 and their distance
    L = z_ci - z_cj. Every method that treats a stationary pair apart reads
    it here."""
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    if row_i.kappa == row_j.kappa == 0.0:
        return scenario.kappa1, row_i.z_c - row_j.z_c
    return (row_i.kappa, 0.0) if row_i == row_j else None


def planck_rate(kappa: float, omega):
    """Transition rate of a single uniformly accelerated detector (lambda = 1):
    the Planck spectrum omega / (2 pi (e^{2 pi omega / kappa} - 1)) at the
    Unruh temperature kappa / 2 pi. Continuous through omega = 0 (series).
    Vectorized over omega; a float for a scalar omega."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    w = np.asarray(omega, dtype=float)
    x = 2.0 * math.pi * w / kappa
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # past x = 700 in log form, so that no factor underflows first
        out = np.where(x > 700.0, np.exp(np.log(w / (2.0 * math.pi)) - x),
                       w / (2.0 * math.pi * np.expm1(x)))
    out = np.where(np.abs(w) / kappa < 1e-6,
                   kappa / (4.0 * math.pi**2) * (1.0 - x / 2.0 + x * x / 12.0), out)
    return out if out.ndim else float(out)


def pair_spectrum(scenario: TrajectoryScenario, i: int, j: int, E):
    """(F, bound): the spectrum F_ij(E) = int ds e^{-iEs} W^{ij}(s) of a pair
    whose correlator depends on s = tau1 - tau2 only, in closed form, and a
    bound on the rounding error of the float F; vectorized over E, floats
    for a scalar E. 2 Re int_0^inf of the same integrand is F, so such a
    pair adds lambda^2 F(omega)/N^2 to a rate.

    - identical accelerated rows: the Planck form planck_rate at the row's
      kappa (Takagi, Prog. Theor. Phys. Suppl. 88 (1986) 1);
    - rows in the thermal bath: the Planck form at kappa1, times
      sin(EL)/(EL) for two rows a distance L apart (Louko & Satz,
      gr-qc/0606067), which is 1 at E = 0.

    With x = 2 pi E/kappa, the bound is 4 (1 + |x|) eps_mach |F|: the
    rounding of x is amplified by |x| in e^x. Two rows apart add
    4 eps_mach times the Planck factor, since the rounding of EL is an
    absolute error of sin(EL)/(EL); an underflowed F adds the smallest
    subnormal. Raises ValueError for a pair that is not stationary
    (stationary_form).
    """
    form = stationary_form(scenario, i, j)
    if form is None:
        raise ValueError(f"branch pair ({i},{j}) of {scenario.family} has no "
                         "closed-form spectrum")
    kappa, L = form
    planck, E = planck_rate(kappa, E), np.asarray(E, dtype=float)
    F, floor, eps = planck, math.ulp(0.0), np.finfo(float).eps
    if L != 0.0:
        EL = E * L
        with np.errstate(invalid="ignore"):
            F = planck * np.where(EL != 0.0, np.sin(EL) / EL, 1.0)
        floor = floor + 4.0 * eps * np.abs(planck)
    bound = 4.0 * (1.0 + np.abs(2.0 * math.pi * E / kappa)) * eps * np.abs(F) + floor
    return (F, bound) if E.ndim else (float(F), float(bound))


def denominator_factors(scenario: TrajectoryScenario, i: int, j: int):
    """Real eps = 0 factors [du, dv] of the W^{ij} denominator, as vectorized
    callables g(tau1, tau2). Their zeros are the lightcone crossings where the
    regulated integrand peaks with width ~eps; the integration meshes cluster
    there. The coincidence zero at tau1 = tau2 is always clustered separately,
    so diagonal correlators contribute no factors here.
    """
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    if i == j:
        return []
    return [lambda t1, t2: _null_gaps(row_i, row_j, t1, t2)[0],
            lambda t1, t2: _null_gaps(row_i, row_j, t1, t2)[1]]


def _asinh_exp(a):
    """asinh(e^a), in a form that does not overflow at large a."""
    pos = np.maximum(a, 0.0)
    return np.where(a > 0.0, pos + np.log1p(np.sqrt(1.0 + np.exp(-2.0 * pos))),
                    np.arcsinh(np.exp(np.minimum(a, 0.0))))


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _null_roots(ki, kj, dz, p):
    """Real zeros in s of dz + A_j((p - s)/2) - A_i((p + s)/2) on the cuts p,
    A_k(tau) = e^{-k tau}/k (-tau if k = 0), or None where there are none:
    du of rows with signed accelerations k_i, k_j and centre offset
    dz = z_cj - z_ci for (k_i, k_j, dz), and dv for (-k_i, -k_j, -dz)."""
    if ki == kj == 0.0:
        return np.full(p.shape, -dz)
    if ki == -kj:
        # 2 cosh(kp/2) e^{-ks/2} = k dz, real only for k dz > 0
        if not ki * dz > 0.0:
            return None
        return -(2.0 / ki) * (math.log(ki * dz / 2.0) - _log_cosh(ki * p / 2.0))
    if dz == 0.0 and ki * kj > 0.0:
        # a shared centre: k_j (p - s)/2 + ln k_j = k_i (p + s)/2 + ln k_i
        return ((kj - ki) * p + 2.0 * math.log(kj / ki)) / (ki + kj)
    if ki == kj:
        # sinh(ks/2) = -k dz e^{kp/2}/2, with the exponential kept in log form
        c = math.log(abs(ki * dz) / 2.0)
        return math.copysign(2.0 / abs(ki), -dz) * _asinh_exp(c + ki * p / 2.0)
    raise ValueError(f"no closed-form lightcone roots for signed accelerations "
                     f"{ki:g}, {kj:g} at centre offset {dz:g}")


def lightcone_roots(scenario: TrajectoryScenario, i: int, j: int, p) -> np.ndarray:
    """Real zeros in s of the denominator_factors [du, dv] of W^{ij} on the
    cuts p = tau1 + tau2, s = tau1 - tau2, in closed form from the two rows
    of the family table (_null_roots).

    Vectorized over p: returns an array of shape (m, *p.shape), one row per
    factor that has a real zero (m = 0 for diagonal pairs and for AntiParallel
    with L >= 2/kappa). Rows are not restricted to any s interval.
    """
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    p = np.asarray(p, dtype=float)
    if i == j:
        return np.empty((0,) + p.shape)
    ki, kj = row_i.direction * row_i.kappa, row_j.direction * row_j.kappa
    dz = row_j.z_c - row_i.z_c
    rows = [r for r in (_null_roots(ki, kj, dz, p), _null_roots(-ki, -kj, -dz, p))
            if r is not None]
    return np.stack(rows) if rows else np.empty((0,) + p.shape)
