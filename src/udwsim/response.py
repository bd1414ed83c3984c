"""Numerical detector response: transition rates and excitation probabilities.

Rates and quadrature probabilities follow one recipe. Evaluate the relevant
oscillatory integral of the regularized correlators on the whole regulator
ladder in one pass, with eps as an array axis of the integrand, on meshes
built once at the smallest eps and clustered around the coincidence point
and the cross-term lightcone crossings; then extrapolate the ladder to
zero. Quadrature error must sit well below the extrapolation error for the
ladder to be meaningful, which the panel error estimates verify on every
rung. Every mesh clusters at lightcone roots in closed form, on both kinds
of cut. Rates are 1-D integrals along the cut tau1 = tau, tau2 = tau - s,
whose roots come from the inverses of the branches' null coordinates
(_rate_cut_roots). The windowed probability is a 2-D integral over the
switching square: an outer Gauss-Kronrod rule over the sum p of the two
proper times, over inner 1-D integrals along the cuts of fixed p, meshed at
lightcone_roots. Branch pairs whose correlator depends on the
proper-time difference only are the exception: their integral over the sum
of the two times is Gaussian and done in closed form, leaving one 1-D
integral. The other exception to the recipe is excitation_probability_contour,
which evaluates the windowed probability at eps = 0 on a contour shifted off
the lightcone poles.

Normalization: every rate and probability carries the explicit
lambda^2 / N^2 prefactor (N = number of superposed branches), so one- and
two-branch results are directly comparable. The single-branch rate with
lambda = 1 reproduces the Planck-spectrum reference planck_rate().
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .closed_form import DetectorParams
# denominator_factors and sign_change_roots are no longer called here; they
# stay bound because bench/spans.py wraps both names on this module
from .correlators import denominator_factors, lightcone_roots, scenario_correlator  # noqa: F401
from .errors import ConvergenceError, IndeterminateRatioError, ValidityError
from .kinematics import TrajectoryScenario
from .quadrature import (
    _WG7,
    _WK15,
    _XK15,
    QuadratureConfig,
    RegulatorSchedule,
    cluster_mesh,
    default_schedule,
    epsilon_extrapolate,
    fsum_rows,
    panel_integrate,
    refine_mesh,
    sign_change_roots,  # noqa: F401
)
from .validity import blocking_violations, check_beta_bound

# Gaussian window support half-width, in sigmas
_WINDOW_SIGMAS = 6.0
# Gauss-Hermite order per axis of the shifted-contour product rule; the error
# estimate compares it with half as many nodes
_CONTOUR_NODES = 64
# shifted-contour results whose error estimate exceeds this fraction of the
# value are refused (the default quadrature rel_tol)
_CONTOUR_REL_TOL = 1e-4


@dataclass(frozen=True)
class RateResult:
    """Extrapolated transition rate (may be negative) or excitation
    probability, with the (eps, value) rungs it was extrapolated from."""

    value: float
    error_estimate: float
    epsilon_estimates: tuple

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


ProbabilityResult = RateResult


@dataclass(frozen=True)
class KMSReport:
    ratio: float
    expected: float
    deviation: float
    satisfied: bool


def kappa_scale(scenario: TrajectoryScenario) -> float:
    """Slowest acceleration scale: sets envelope decay and the eps ladder."""
    if scenario.family == "Differing":
        return min(scenario.kappa1, scenario.kappa2)
    return scenario.kappa1


def default_quadrature(scenario: TrajectoryScenario | None = None) -> QuadratureConfig:
    """Default tunables; s_max scales with the slowest branch acceleration."""
    if scenario is None:
        return QuadratureConfig()
    return QuadratureConfig(s_max=40.0 / kappa_scale(scenario))


def _defaults(scenario, reg_schedule, quad):
    if reg_schedule is None:
        reg_schedule = default_schedule(kappa_scale(scenario))
    if quad is None:
        quad = default_quadrature(scenario)
    return reg_schedule, quad


def _branch_pairs(scenario: TrajectoryScenario):
    n = scenario.branch_count
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def _pair_aliases(scenario: TrajectoryScenario) -> dict:
    """Map each (i, j) pair to a representative pair with an identical
    correlator, to skip redundant integrals."""
    fam = scenario.family
    alias = {}
    if scenario.branch_count == 2:
        if fam in ("Parallel", "AntiParallel", "ThermalInertialPair"):
            alias[(2, 2)] = (1, 1)  # both branches locally identical
        if fam in ("AntiParallel", "ThermalInertialPair"):
            alias[(2, 1)] = (1, 2)  # direction-symmetric cross correlator
        if fam == "Parallel" and scenario.L == 0:
            alias[(1, 2)] = (1, 1)
            alias[(2, 1)] = (1, 1)
        if fam == "Differing" and scenario.kappa1 == scenario.kappa2:
            alias[(2, 2)] = (1, 1)
            alias[(1, 2)] = (1, 1)
            alias[(2, 1)] = (1, 1)
    return alias


def _window_aliases(scenario: TrajectoryScenario) -> dict:
    """_pair_aliases, plus the aliases that hold only under the switching
    window: for Parallel, W^{21}(p, s) = W^{12}(-p, s) (both denominator
    factors swap), and the window and the diamond |p| + |s| <= 2T are even
    in p, so J_21 = J_12. The rate cut at fixed tau is not even in p, so
    rates keep both pairs."""
    alias = _pair_aliases(scenario)
    if scenario.family == "Parallel" and scenario.L != 0:
        alias[(2, 1)] = (1, 2)
    return alias


def _stationary_pair(scenario: TrajectoryScenario, i: int, j: int) -> bool:
    """Whether W^{ij}(tau', tau'') depends on tau' - tau'' only: every local
    correlator, and the thermal bath's cross correlator. (Parallel at L = 0
    and Differing at kappa1 = kappa2 alias their cross pairs to (1, 1).)"""
    return i == j or scenario.family == "ThermalInertialPair"


def _within_tol(val, err, quad) -> bool:
    """Whether the error meets the tolerance on every rung."""
    return not np.any(err > np.fmax(quad.abs_tol, quad.rel_tol * np.abs(val)))


def _check_converged(val, err, quad, what):
    """Raise ConvergenceError for the first rung that misses the tolerance."""
    for v, e in zip(np.atleast_1d(val), np.atleast_1d(err)):
        if not _within_tol(v, e, quad):
            raise ConvergenceError(
                f"{what} did not converge (error {e:.3g} on |value| {abs(v):.3g})",
                estimate=v.item(), error_estimate=e.item())


def _refined_integral(f, edges, quad):
    """panel_integrate of f on the mesh, halving every panel up to
    quad.max_subdivisions times until every rung meets the tolerance.
    Returns (value, error); the caller decides what a miss means."""
    val, err = panel_integrate(f, edges)
    rounds = 0
    while not _within_tol(val, err, quad) and rounds < quad.max_subdivisions:
        edges = refine_mesh(edges)
        val, err = panel_integrate(f, edges)
        rounds += 1
    return val, err


# ---------------------------------------------------------------------------
# semi-infinite rate integrals


def _rate_cut_roots(scenario, i, j, tau, s_hi):
    """Lightcone crossings s in [0, s_hi] of W^{ij} on the rate cut
    tau1 = tau, tau2 = tau - s, in closed form: du vanishes at
    tau2 = a_j^{-1}(a_i(tau) + z_ci - z_cj), and dv at
    tau2 = b_j^{-1}(b_i(tau) + z_ci - z_cj)."""
    if i == j:
        return []
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    a, b, _, _ = row_i.null(tau)
    off = row_i.z_c - row_j.z_c
    s = tau - np.array([row_j.a_inv(a + off), row_j.b_inv(b + off)])
    return [float(r) for r in s if 0.0 <= r <= s_hi]


def _rate_pair_integral(scenario, i, j, tau, omega, eps, quad,
                        sigma=None, windowed=False):
    """integral_0^s_hi e^{-i omega s} [eta(tau - s)] W^{ij}(tau, tau - s) ds,
    per rung for a ladder."""
    s_hi = quad.s_max
    if windowed:
        s_hi = min(s_hi, tau + _WINDOW_SIGMAS * sigma)
        if s_hi <= 0:
            return np.zeros(np.shape(eps), complex), np.zeros(np.shape(eps))
    k = kappa_scale(scenario)
    cap = 0.5 / k
    if omega != 0.0:
        cap = min(cap, (2.0 * math.pi / abs(omega)) / quad.oscillation_resolution)
    if windowed:
        cap = min(cap, sigma / 2.0)
    corr = scenario_correlator(scenario, i, j)
    roots = _rate_cut_roots(scenario, i, j, tau, s_hi)

    def f(s):
        phase = np.exp(-1j * omega * s)
        if windowed:
            phase = phase * np.exp(-((tau - s) ** 2) / (2.0 * sigma**2))
        return phase * corr(np.full_like(s, tau), tau - s, eps)

    edges = cluster_mesh(0.0, s_hi, [0.0] + roots, scale=float(np.min(eps)) / 8.0,
                         cap=cap)
    val, err = _refined_integral(f, edges, quad)
    _check_converged(val, err, quad, f"rate integrand for branch pair ({i},{j})")
    return val, err


def _rate_at_eps(scenario, params, tau, eps, quad, windowed=False):
    """Unextrapolated rate and quadrature error, per rung for a ladder."""
    n = scenario.branch_count
    pref = 2.0 * params.lambda_coupling**2 / n**2
    if windowed:
        pref *= math.exp(-(tau**2) / (2.0 * params.sigma**2))
    alias = _pair_aliases(scenario)
    cache = {}
    total = 0.0 + 0.0j
    qerr = 0.0
    for pair in _branch_pairs(scenario):
        key = alias.get(pair, pair)
        if key not in cache:
            cache[key] = _rate_pair_integral(
                scenario, key[0], key[1], tau, params.omega, eps, quad,
                sigma=params.sigma, windowed=windowed)
        v, e = cache[key]
        total += v
        qerr += e
    return pref * total.real, abs(pref) * qerr


def _extrapolated(reg_schedule, values) -> RateResult:
    """One value per rung, extrapolated to eps -> 0. The quadrature errors
    are held below the quad tolerances on every rung; the reported
    uncertainty is the (dominant) regulator-extrapolation one."""
    estimates = tuple((eps, float(v)) for eps, v in zip(reg_schedule.epsilons, values))
    limit, err = epsilon_extrapolate(estimates, reg_schedule.extrapolation)
    return RateResult(value=float(limit), error_estimate=float(err),
                      epsilon_estimates=estimates)


def _extrapolated_rate(scenario, params, tau, reg_schedule, quad, windowed):
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    values, _ = _rate_at_eps(scenario, params, tau, reg_schedule.epsilons, quad, windowed)
    return _extrapolated(reg_schedule, values)


def transition_rate(scenario: TrajectoryScenario, params: DetectorParams, tau: float,
                    reg_schedule: RegulatorSchedule | None = None,
                    quad: QuadratureConfig | None = None) -> RateResult:
    """Instantaneous transition rate in the infinite-interaction-time limit,

        rate(tau) = (lambda^2/N^2) 2 Re sum_ij int_0^inf ds e^{-i omega s}
                    W^{ij}(tau, tau - s),

    truncated at quad.s_max and extrapolated to eps -> 0. For the Differing
    family tau is the shared proper-time parameter of both branches (no global
    time coordinate relates them).
    """
    return _extrapolated_rate(scenario, params, float(tau), reg_schedule, quad,
                              windowed=False)


def transition_rate_finite_switching(scenario: TrajectoryScenario, params: DetectorParams,
                                     tau: float,
                                     reg_schedule: RegulatorSchedule | None = None,
                                     quad: QuadratureConfig | None = None) -> RateResult:
    """Rate with the Gaussian switching window kept inside the integrand:

        rate(tau) = (lambda^2/N^2) 2 eta(tau) Re sum_ij int_0^inf ds
                    e^{-i omega s} eta(tau - s) W^{ij}(tau, tau - s),

    eta(t) = exp(-t^2 / 2 sigma^2). Truncation at min(s_max, tau + 6 sigma).
    """
    return _extrapolated_rate(scenario, params, float(tau), reg_schedule, quad,
                              windowed=True)


# ---------------------------------------------------------------------------
# Gaussian-windowed double integrals (excitation probability building blocks)


def window_halfwidth(params: DetectorParams) -> float:
    """Truncation half-width T of the switching window in each proper time.

    6 sigma covers the Gaussian itself; the extra 2 sigma^2 |omega| covers the
    contour shift of e^{-s^2/4sigma^2 - i omega s}: after completing the
    square the effective Gaussian is displaced by 2 sigma^2 omega, and
    truncating the undisplaced 6-sigma box would leave a tail comparable to
    the e^{-sigma^2 omega^2}-suppressed signal itself.
    """
    return _WINDOW_SIGMAS * params.sigma + 2.0 * params.sigma**2 * abs(params.omega)


def _halfplane_pair_integral(scenario, i, j, params, eps, quad, level=0):
    """J_ij = (1/2) int dp int_{s>0} ds G(p) G(s) e^{-i omega s}
    W^{ij}((p+s)/2, (p-s)/2) over the diamond |p| + |s| <= 2T, i.e. the
    time-ordered half of the [-T, T]^2 switching square in rotated
    coordinates (p = tau' + tau'', s = tau' - tau''), G(x) = e^{-x^2/4 sigma^2}.

    The 2-D engine for the pairs whose correlator depends on p: an outer
    Gauss-Kronrod 15 rule in p, whose embedded Gauss 7 rule gives the error
    estimate, over inner 1-D panel integrals in s. Each inner mesh clusters
    at the closed-form lightcone roots of its p-cut (lightcone_roots, one
    call per outer panel). Stationary pairs take _stationary_pair_integral.
    A ladder of eps gives one value and error per rung, on one set of meshes.
    """
    sigma, omega = params.sigma, params.omega
    T2 = 2.0 * window_halfwidth(params)
    k = kappa_scale(scenario)
    shrink = 0.5**level
    cap_p = min(sigma / 2.0, 0.5 / k) * shrink
    cap_s = cap_p
    if omega != 0.0:
        cap_s = min(cap_s, (2.0 * math.pi / abs(omega)) / quad.oscillation_resolution * shrink)
    scale = float(np.min(eps)) / 8.0 * shrink
    corr = scenario_correlator(scenario, i, j)
    inv4s2 = 1.0 / (4.0 * sigma**2)

    def inner(p, roots):
        s_hi = T2 - abs(p)
        roots = [float(r) for r in roots if 0.0 <= r <= s_hi]
        edges = cluster_mesh(0.0, s_hi, [0.0] + roots, scale=scale, cap=cap_s)

        def f(s):
            return (np.exp(-s * s * inv4s2 - 1j * omega * s)
                    * corr((p + s) / 2.0, (p - s) / 2.0, eps))

        return panel_integrate(f, edges)

    outer_edges = cluster_mesh(-T2, T2, [0.0], scale=scale, cap=cap_p)
    a, b = outer_edges[:-1], outer_edges[1:]
    h = 0.5 * (b - a)
    m = 0.5 * (a + b)
    fk = np.empty(np.shape(eps)[:1] + (len(h), len(_XK15)), dtype=complex)
    err_inner = 0.0
    for k_pan in range(len(h)):
        nodes = m[k_pan] + h[k_pan] * _XK15
        roots = lightcone_roots(scenario, i, j, nodes)
        for idx, p in enumerate(nodes):
            val, ie = inner(p, roots[:, idx])
            g = math.exp(-p * p * inv4s2)
            fk[..., k_pan, idx] = g * val
            err_inner += _WK15[idx] * h[k_pan] * g * ie
    s15 = (fk @ _WK15) * h
    s7 = (fk[..., 1::2] @ _WG7) * h
    # Re J is the remainder of a cancellation across panels (by about 6,000x
    # for Parallel kappa L = 1 at sigma omega = 4), so the panel sums are
    # accumulated with compensated summation, as in panel_integrate
    return 0.5 * fsum_rows(s15), 0.5 * (fsum_rows(np.abs(s15 - s7)) + err_inner)


def _stationary_pair_integral(scenario, i, j, params, eps, quad):
    """J_ij of _halfplane_pair_integral for a pair whose correlator depends
    on s only. Over the same diamond the Gaussian p-integral is exact,
    int_{|p| <= 2T - s} G(p) dp = 2 sqrt(pi) sigma erf((2T - s)/2 sigma), so

        J_ij = sqrt(pi) sigma int_0^{2T} ds erf((2T - s)/2 sigma)
               e^{-s^2/4 sigma^2 - i omega s} W^{ij}(s/2, -s/2),

    one 1-D integral on the 2-D engine's inner mesh at p = 0, refined by
    halving its panels; per rung for a ladder."""
    sigma, omega = params.sigma, params.omega
    T2 = 2.0 * window_halfwidth(params)
    cap = min(sigma / 2.0, 0.5 / kappa_scale(scenario))
    if omega != 0.0:
        cap = min(cap, (2.0 * math.pi / abs(omega)) / quad.oscillation_resolution)
    corr = scenario_correlator(scenario, i, j)
    roots = [float(r) for r in lightcone_roots(scenario, i, j, 0.0) if 0.0 <= r <= T2]
    inv4s2 = 1.0 / (4.0 * sigma**2)

    def f(s):
        return (erf((T2 - s) / (2.0 * sigma)) * np.exp(-s * s * inv4s2 - 1j * omega * s)
                * corr(s / 2.0, -s / 2.0, eps))

    edges = cluster_mesh(0.0, T2, [0.0] + roots, scale=float(np.min(eps)) / 8.0,
                         cap=cap)
    val, err = _refined_integral(f, edges, quad)
    c = math.sqrt(math.pi) * sigma
    return c * val, c * err


def halfplane_integrals_at_eps(scenario, params, eps, quad) -> dict:
    """All J_ij building blocks at one regulator value, or at every rung of a
    ladder in one pass, deduplicated across branch pairs with identical
    correlators. Stationary pairs are one 1-D integral each
    (_stationary_pair_integral); the others go through the 2-D engine,
    restarted on a finer mesh until every rung is within tolerance. Returns
    {(i, j): (value, err)}, arrays over the rungs for a ladder."""
    alias = _window_aliases(scenario)
    cache = {}
    out = {}
    for pair in _branch_pairs(scenario):
        key = alias.get(pair, pair)
        if key not in cache:
            if _stationary_pair(scenario, *key):
                val, err = _stationary_pair_integral(scenario, *key, params, eps, quad)
            else:
                for level in range(quad.max_subdivisions + 1):
                    val, err = _halfplane_pair_integral(scenario, *key, params, eps, quad,
                                                        level=level)
                    if _within_tol(val, err, quad):
                        break
            _check_converged(val, err, quad,
                             f"windowed double integral for branch pair {key}")
            cache[key] = (val, err)
        out[pair] = cache[key]
    return out


def excitation_probability_quadrature(scenario: TrajectoryScenario, params: DetectorParams,
                                      reg_schedule: RegulatorSchedule | None = None,
                                      quad: QuadratureConfig | None = None) -> ProbabilityResult:
    """Excitation probability for Gaussian switching by direct 2-D quadrature,

        P = (lambda^2/N^2) 2 Re sum_ij J_ij,

    where J_ij is the time-ordered Gaussian-windowed double integral of
    e^{-i omega (tau'-tau'')} W^{ij}; the full-plane integral follows from
    hermiticity. Stationary pairs (local terms, the thermal cross term) are
    a 1-D integral with the p-integral done exactly, the other cross pairs a
    2-D one (halfplane_integrals_at_eps). Evaluated on the whole regulator
    ladder in one pass, then extrapolated.
    """
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    n = scenario.branch_count
    lam = params.lambda_coupling
    if lam == 0.0:
        zeros = tuple((eps, 0.0) for eps in reg_schedule.epsilons)
        return ProbabilityResult(0.0, 0.0, zeros)
    pref = 2.0 * lam**2 / n**2
    blocks = halfplane_integrals_at_eps(scenario, params, reg_schedule.epsilons, quad)
    total = sum(v for v, _ in blocks.values())
    return _extrapolated(reg_schedule, pref * total.real)


# ---------------------------------------------------------------------------
# Gaussian-windowed probability on the shifted contour


def _check_contour_domain(scenario: TrajectoryScenario, params: DetectorParams):
    """Refuse where the contour shift is not shown to cross no pole: the
    closed forms' beta bound, taken at the largest branch acceleration
    (kappa1 is also the bath's temperature scale). Inside it the shift
    crosses no cross-pair pole either: the antiparallel factors stay nonzero
    for 0 < beta < pi, so the closed forms' antiparallel pole condition does
    not apply, and the Differing factors vanish at Im s = 4 pi n/(kappa1 +
    kappa2), with the real (n = 0) poles above the axis and n = -1 reached
    only at sigma^2 omega (kappa1 + kappa2)/2 >= pi."""
    kappa = max(scenario.kappa1, *(b.kappa for b in scenario.branches))
    report = check_beta_bound(params, kappa)
    blocking = blocking_violations(report)
    if blocking:
        names = ", ".join(v["name"] for v in blocking)
        raise ValidityError(
            f"contour shift outside its validity regime: {names}", report)


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int):
    return np.polynomial.hermite.hermgauss(n)


def _contour_sum(scenario, params, n):
    """sum_ij of the n x n Gauss-Hermite rule for the integral of
    e^{-x^2 - y^2} W^{ij} at p = 2 sigma x, s = 2 sigma y - 2 i sigma^2 omega,
    and the sum of the moduli of its terms (the rounding scale)."""
    x, w = _hermite_rule(n)
    sigma = params.sigma
    p = 2.0 * sigma * x[:, None]
    s = 2.0 * sigma * x[None, :] - 2j * sigma**2 * params.omega
    weights = w[:, None] * w[None, :]
    alias = _window_aliases(scenario)
    cache = {}
    total = 0.0 + 0.0j
    size = 0.0
    for pair in _branch_pairs(scenario):
        key = alias.get(pair, pair)
        if key not in cache:
            terms = weights * scenario_correlator(scenario, *key)(
                (p + s) / 2.0, (p - s) / 2.0, 0.0)
            cache[key] = (terms.sum(), np.abs(terms).sum())
        total += cache[key][0]
        size += cache[key][1]
    return total, size


def excitation_probability_contour(scenario: TrajectoryScenario,
                                   params: DetectorParams) -> ProbabilityResult:
    """Excitation probability for Gaussian switching on the shifted contour,
    with no regulator:

        P = (lambda^2/N^2) e^{-sigma^2 omega^2} sum_ij int dp int dv (1/2)
            e^{-(p^2 + v^2)/4 sigma^2} W^{ij}((p+s)/2, (p-s)/2),
        s = v - 2 i sigma^2 omega,  eps = 0.

    This is the full-plane windowed integral with the proper-time difference
    moved from the real axis to Im s = -2 sigma^2 omega, the shift behind the
    closed forms. There the lightcone poles are not met, so the pointlike
    limit needs no eps ladder, and the e^{-sigma^2 omega^2} suppression is an
    explicit factor instead of a cancellation; the closed forms keep only the
    leading saddle term of the same integral. A fixed Gauss-Hermite product
    rule evaluates it; error_estimate is the change from half as many nodes
    plus a rounding floor, and the result is refused (ConvergenceError) when
    that exceeds 1e-4 of the value, which happens as a pole nears the
    contour: sigma omega <~ 1 or beta -> pi.

    Refuses (ValidityError) where the closed forms' beta bound refuses,
    omega <= 0 and beta = kappa sigma^2 omega >= pi, taken at the largest
    branch acceleration; excitation_probability_quadrature covers those
    cases. For Differing it includes the cross terms that p_differing omits
    (the contour crosses none of their poles below that bound). Unlike
    p_antiparallel it accepts the region of the antiparallel pole condition:
    at Im s = -2 beta'/kappa and real p, the imaginary parts of both
    antiparallel denominator factors are proportional to sin(beta'), nonzero
    for 0 < beta' <= beta < pi, so the shift crosses no pole.
    """
    _check_contour_domain(scenario, params)
    sigma = params.sigma
    # lambda^2/N^2 e^{-sigma^2 omega^2}, times the Jacobian (2 sigma)^2 / 2
    pref = (2.0 * (params.lambda_coupling * sigma / scenario.branch_count) ** 2
            * math.exp(-(sigma * params.omega) ** 2))
    fine, size = _contour_sum(scenario, params, _CONTOUR_NODES)
    coarse, _ = _contour_sum(scenario, params, _CONTOUR_NODES // 2)
    value = pref * fine.real
    err = pref * (abs(fine - coarse) + _CONTOUR_NODES * np.finfo(float).eps * size)
    if err > _CONTOUR_REL_TOL * abs(value):
        raise ConvergenceError(
            f"shifted-contour rule did not converge (error {err:.3g} on "
            f"|value| {abs(value):.3g}); a correlator pole is near the contour",
            estimate=value, error_estimate=err)
    return ProbabilityResult(value=float(value), error_estimate=float(err),
                             epsilon_estimates=())


# ---------------------------------------------------------------------------
# references and checks


def planck_rate(kappa: float, omega: float) -> float:
    """Transition rate of a single uniformly accelerated detector (lambda = 1):
    the Planck spectrum omega / (2 pi (e^{2 pi omega / kappa} - 1)) at the
    Unruh temperature kappa / 2 pi. Continuous through omega = 0 (series)."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    x = 2.0 * math.pi * omega / kappa
    if abs(omega) / kappa < 1e-6:
        return kappa / (4.0 * math.pi**2) * (1.0 - x / 2.0 + x * x / 12.0)
    if x > 700.0:
        return omega * math.exp(-x) / (2.0 * math.pi)
    return omega / (2.0 * math.pi * math.expm1(x))


def _value_and_error(r):
    if isinstance(r, RateResult):
        return r.value, r.error_estimate
    return float(r), 0.0


def kms_check(rate_at, omega: float, kappa: float, tol: float) -> KMSReport:
    """Detailed-balance check rate(omega)/rate(-omega) against e^{-2 pi omega/kappa}.

    rate_at maps a gap to a RateResult (or plain number). Raises
    IndeterminateRatioError when the denominator rate is zero within its
    error estimate.
    """
    num, _ = _value_and_error(rate_at(omega))
    den, den_err = _value_and_error(rate_at(-omega))
    if abs(den) <= den_err:
        raise IndeterminateRatioError(
            f"rate at -omega = {-omega:g} is zero within its error estimate "
            f"({den:.3g} +- {den_err:.3g})")
    ratio = num / den
    expected = math.exp(-2.0 * math.pi * omega / kappa)
    deviation = abs(ratio / expected - 1.0)
    return KMSReport(ratio=ratio, expected=expected, deviation=deviation,
                     satisfied=bool(deviation <= tol))
