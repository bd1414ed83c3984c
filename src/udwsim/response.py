"""Numerical detector response: transition rates and excitation probabilities.

Rates of non-stationary branch pairs and quadrature probabilities follow
one recipe. Evaluate the relevant oscillatory integral of the regularized
correlators on the whole regulator ladder in one pass, with eps as an array
axis of the integrand, on meshes built once at the smallest eps and
clustered around the coincidence point and the cross-term lightcone
crossings; then extrapolate the ladder to zero. Quadrature error must sit
well below the extrapolation error for the ladder to be meaningful, which
the panel error estimates verify on every rung. Every mesh clusters at
lightcone roots in closed form, on both kinds of cut. Rates are 1-D
integrals along the cut tau1 = tau, tau2 = tau - s, whose roots come from
the inverses of the branches' null coordinates (_rate_cut_roots). A
stationary pair needs no integral: its rate is its closed-form spectrum
(correlators.pair_spectrum), so a rate whose pairs are all stationary runs
no ladder and has epsilon_estimates = (). The windowed probability is a 2-D
integral over the switching square: an outer Gauss-Kronrod rule over the
sum p of the two proper times, over inner 1-D integrals along the cuts of
fixed p, meshed at lightcone_roots. Stationary pairs are the exception here
too: their integral over the sum of the two times is Gaussian and done in
closed form, leaving one 1-D integral. The other exception to the recipe is excitation_probability_contour,
which evaluates the windowed probability at eps = 0 on a contour shifted off
the lightcone poles.

No family is named here: which branch pairs share one integral (_pair_map),
which are stationary, and kappa_scale are read off the rows of the family
table (kinematics); one _mesh_policy sets the panels of every integral.

Normalization: every rate and probability carries the explicit
lambda^2 / N^2 prefactor (N = number of superposed branches), so one- and
two-branch results are directly comparable. The single-branch rate with
lambda = 1 is the Planck-spectrum reference planck_rate().
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.special import erf

from .closed_form import DetectorParams
# denominator_factors and sign_change_roots are no longer called here; they
# stay bound because bench/spans.py wraps both names on this module.
# planck_rate is re-exported from here
from .correlators import (denominator_factors, lightcone_roots,  # noqa: F401
                          pair_spectrum, planck_rate, scenario_correlator)
from .errors import ConvergenceError, IndeterminateRatioError
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
from .validity import require_beta_bound

# Gaussian window support half-width, in sigmas
_WINDOW_SIGMAS = 6.0
# Gauss-Hermite order per axis of the shifted-contour product rule; the error
# estimate compares it with half as many nodes
_CONTOUR_NODES = 64
# shifted-contour results whose error estimate exceeds this fraction of the
# value are refused (the default quadrature rel_tol)
_CONTOUR_REL_TOL = 1e-4
# mesh panels per period of omega
_OSCILLATION_RESOLUTION = 8
# most halvings of a mesh (1-D integrals) or restart levels (2-D engine)
_MAX_REFINEMENTS = 2


@dataclass(frozen=True)
class RateResult:
    """Extrapolated transition rate (may be negative) or excitation
    probability, with the (eps, value) rungs it was extrapolated from;
    epsilon_estimates is () for a value that used no regulator ladder (a
    rate whose branch pairs are all stationary, or the shifted contour)."""

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
    """Slowest acceleration scale: sets envelope decay and the eps ladder.
    The smallest positive branch acceleration; for static branches, the
    bath's kappa1."""
    return min((b.kappa for b in scenario.branches if b.kappa > 0),
               default=scenario.kappa1)


def _defaults(scenario, reg_schedule, quad):
    if reg_schedule is None:
        reg_schedule = default_schedule(kappa_scale(scenario))
    return reg_schedule, quad or QuadratureConfig()


def _pair_key(row_i, row_j, window):
    """What W^{ij} of rows row_i, row_j depends on: a local pair (identical
    rows) on the row's kappa alone, a cross pair on its rows and their mirror
    images under z -> -z. Under the window the swapped pair joins them: every
    row obeys a(-tau) = b(tau), so W^{ji}(p, s) = W^{ij}(-p, s), and the
    window and the diamond |p| + |s| <= 2T are even in p, so J_ji = J_ij. A
    rate cut at fixed tau is not even in p, so rates keep both orders."""
    if row_i == row_j:
        return row_i.kappa
    pairs = {(row_i, row_j), (row_i.mirrored(), row_j.mirrored())}
    if window:
        pairs |= {(b, a) for a, b in pairs}
    return frozenset(pairs)


@functools.lru_cache(maxsize=256)
def _representatives(scenario: TrajectoryScenario, window: bool) -> dict:
    """{(i, j): the first pair, in row-major order, with the same _pair_key},
    over every branch pair of the scenario; read-only, as it is cached."""
    rows, first = scenario.branches, {}
    return MappingProxyType({
        (i, j): first.setdefault(_pair_key(row_i, row_j, window), (i, j))
        for i, row_i in enumerate(rows, 1) for j, row_j in enumerate(rows, 1)})


def _pair_map(scenario: TrajectoryScenario, integral, window: bool) -> dict:
    """{(i, j): integral(*rep)} over every branch pair, calling integral once
    per representative pair (_representatives)."""
    out = {}
    for pair, rep in _representatives(scenario, window).items():
        out[pair] = out[rep] if rep in out else integral(*rep)
    return out


def _stationary_pair(scenario: TrajectoryScenario, i: int, j: int) -> bool:
    """Whether W^{ij}(tau', tau'') depends on tau' - tau'' only: identical rows
    (every local correlator), or two static ones (the bath's cross pair)."""
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    return row_i == row_j or row_i.kappa == row_j.kappa == 0.0


def _mesh_policy(scenario, omega, eps, sigma=None, level=0):
    """(cap, scale) of a panel mesh: panels within 0.5/kappa_scale, a period
    of omega over _OSCILLATION_RESOLUTION and (under a window) sigma/2, and
    clustering from 1/8 of the smallest eps; both halve per 2-D restart level."""
    cap = 0.5 / kappa_scale(scenario)
    if omega != 0.0:
        cap = min(cap, (2.0 * math.pi / abs(omega)) / _OSCILLATION_RESOLUTION)
    if sigma is not None:
        cap = min(cap, sigma / 2.0)
    shrink = 0.5**level
    return cap * shrink, float(np.min(eps)) / 8.0 * shrink


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
    _MAX_REFINEMENTS times until every rung meets the tolerance.
    Returns (value, error); the caller decides what a miss means."""
    val, err = panel_integrate(f, edges)
    for _ in range(_MAX_REFINEMENTS):
        if _within_tol(val, err, quad):
            break
        edges = refine_mesh(edges)
        val, err = panel_integrate(f, edges)
    return val, err


# ---------------------------------------------------------------------------
# semi-infinite rate integrals


def _rate_cut(scenario: TrajectoryScenario) -> float:
    """Upper end of the rate integrals in s: 40 decay lengths of the slowest
    branch acceleration, the same for every branch pair."""
    return 40.0 / kappa_scale(scenario)


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


def _rate_pair_integral(scenario, i, j, tau, omega, eps, quad):
    """integral_0^S e^{-i omega s} W^{ij}(tau, tau - s) ds, S = _rate_cut,
    per rung for a ladder."""
    s_hi = _rate_cut(scenario)
    cap, scale = _mesh_policy(scenario, omega, eps)
    corr = scenario_correlator(scenario, i, j)
    roots = _rate_cut_roots(scenario, i, j, tau, s_hi)

    def f(s):
        return np.exp(-1j * omega * s) * corr(np.full_like(s, tau), tau - s, eps)

    edges = cluster_mesh(0.0, s_hi, [0.0] + roots, scale=scale, cap=cap)
    val, err = _refined_integral(f, edges, quad)
    _check_converged(val, err, quad, f"rate integrand for branch pair ({i},{j})")
    return val, err


def _spectral_rate(scenario, params):
    """(lambda^2/N^2) sum_ij F_ij(omega) over the stationary branch pairs,
    each from its closed-form spectrum (pair_spectrum), and a bound on the
    rounding of that float."""
    pref = params.lambda_coupling**2 / scenario.branch_count**2
    spectra = _pair_map(scenario, lambda i, j: pair_spectrum(scenario, i, j, params.omega)
                        if _stationary_pair(scenario, i, j) else (0.0, 0.0),
                        window=False).values()
    value = pref * math.fsum(F for F, _ in spectra)
    # fsum rounds once, and so do lambda^2 and the product
    return value, pref * sum(b for _, b in spectra) + 2.0 * np.finfo(float).eps * abs(value)


def _rate_at_eps(scenario, params, tau, eps, quad):
    """Unextrapolated rate and quadrature error, per rung for a ladder. The
    stationary pairs enter at their closed-form value (_spectral_rate), the
    same on every rung; only the other pairs are integrated on the ladder
    (_rate_pair_integral). When every pair is stationary the rate is one
    number, not one per rung."""
    pref = 2.0 * params.lambda_coupling**2 / scenario.branch_count**2
    exact, _ = _spectral_rate(scenario, params)
    blocks = _pair_map(scenario, lambda i, j: (0.0, 0.0) if _stationary_pair(scenario, i, j)
                       else _rate_pair_integral(scenario, i, j, tau, params.omega, eps, quad),
                       window=False).values()
    total = sum(v for v, _ in blocks)
    qerr = sum(e for _, e in blocks)
    return exact + pref * total.real, pref * qerr


def _extrapolated(reg_schedule, values) -> RateResult:
    """One value per rung, extrapolated to eps -> 0. The quadrature errors
    are held below the quad tolerances on every rung; the reported
    uncertainty is the (dominant) regulator-extrapolation one."""
    estimates = tuple((eps, float(v)) for eps, v in zip(reg_schedule.epsilons, values))
    limit, err = epsilon_extrapolate(estimates, reg_schedule.extrapolation)
    return RateResult(value=float(limit), error_estimate=float(err),
                      epsilon_estimates=estimates)


def transition_rate(scenario: TrajectoryScenario, params: DetectorParams, tau: float,
                    reg_schedule: RegulatorSchedule | None = None,
                    quad: QuadratureConfig | None = None) -> RateResult:
    """Instantaneous transition rate in the infinite-interaction-time limit,

        rate(tau) = (lambda^2/N^2) 2 Re sum_ij int_0^inf ds e^{-i omega s}
                    W^{ij}(tau, tau - s).

    A stationary pair (every local pair, and the thermal bath's cross pair)
    adds lambda^2 F_ij(omega)/N^2 in closed form (pair_spectrum). The other
    cross pairs are integrated up to s = 40/kappa_scale(scenario)
    (_rate_cut) on the regulator ladder and extrapolated to eps -> 0.
    error_estimate is the extrapolation error plus the rounding bound of the
    closed-form part. epsilon_estimates holds the ladder's (eps, rate) rungs,
    and is () when every pair is stationary: then no ladder is run and the
    rate is exact up to that rounding bound. For the Differing family tau is
    the shared proper-time parameter of both branches (no global time
    coordinate relates them).
    """
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    values, _ = _rate_at_eps(scenario, params, float(tau), reg_schedule.epsilons, quad)
    _, rounding = _spectral_rate(scenario, params)
    if np.ndim(values) == 0:
        return RateResult(value=float(values), error_estimate=rounding, epsilon_estimates=())
    result = _extrapolated(reg_schedule, values)
    return RateResult(value=result.value, error_estimate=result.error_estimate + rounding,
                      epsilon_estimates=result.epsilon_estimates)


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
    # the p-integrand does not oscillate: its mesh ignores omega
    cap_p, scale = _mesh_policy(scenario, 0.0, eps, sigma, level)
    cap_s, _ = _mesh_policy(scenario, omega, eps, sigma, level)
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

    # mirrored, so that J_ji = J_ij holds on the same nodes (_pair_key)
    half = cluster_mesh(0.0, T2, [0.0], scale=scale, cap=cap_p)
    outer_edges = np.concatenate([-half[:0:-1], half])
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
    cap, scale = _mesh_policy(scenario, omega, eps, sigma)
    corr = scenario_correlator(scenario, i, j)
    roots = [float(r) for r in lightcone_roots(scenario, i, j, 0.0) if 0.0 <= r <= T2]
    inv4s2 = 1.0 / (4.0 * sigma**2)

    def f(s):
        return (erf((T2 - s) / (2.0 * sigma)) * np.exp(-s * s * inv4s2 - 1j * omega * s)
                * corr(s / 2.0, -s / 2.0, eps))

    edges = cluster_mesh(0.0, T2, [0.0] + roots, scale=scale, cap=cap)
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
    def integral(i, j):
        if _stationary_pair(scenario, i, j):
            val, err = _stationary_pair_integral(scenario, i, j, params, eps, quad)
        else:
            for level in range(_MAX_REFINEMENTS + 1):
                val, err = _halfplane_pair_integral(scenario, i, j, params, eps, quad,
                                                    level=level)
                if _within_tol(val, err, quad):
                    break
        _check_converged(val, err, quad,
                         f"windowed double integral for branch pair {(i, j)}")
        return val, err

    return _pair_map(scenario, integral, window=True)


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
    """Refuse outside the closed forms' beta bound (require_beta_bound),
    taken at the largest branch acceleration; kappa1 is also the bath's
    temperature scale."""
    kappa = max(scenario.kappa1, *(b.kappa for b in scenario.branches))
    require_beta_bound(params, kappa, "contour shift")


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
    def terms(i, j):
        t = weights * scenario_correlator(scenario, i, j)((p + s) / 2.0, (p - s) / 2.0, 0.0)
        return t.sum(), np.abs(t).sum()

    sums = _pair_map(scenario, terms, window=True).values()
    return sum(t for t, _ in sums), sum(a for _, a in sums)


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
    cases. Below that bound the shift crosses no cross-pair pole either. At
    Im s = -2 beta'/kappa and real p, the imaginary parts of both
    antiparallel denominator factors are proportional to sin(beta'), nonzero
    for 0 < beta' <= beta < pi. The Differing factors vanish at
    Im s = 4 pi n/(kappa1 + kappa2): the real (n = 0) poles lie above the
    axis, and n = -1 is reached only at sigma^2 omega (kappa1 + kappa2)/2 >= pi.
    For Differing the result therefore includes the cross terms that
    p_differing omits.
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
