"""Numerical detector response: transition rates and excitation probabilities.

A rate (_rate_at_eps, on the cut tau1 = tau, tau2 = tau - s, for one gap or
a row of them) and a window (halfplane_integrals_at_eps, the one windowed
pair pass) are maps of branch-pair integrals {(i, j): (method, J, err)}:
each map picks one method per pair and names it, and nothing downstream
picks again. Each map asks correlators.stationary_form which pairs are
exact. Stationary pairs (every local pair, the thermal bath's cross pair)
are "spectral", exact from their spectrum (correlators.pair_spectrum): a
rate's J is F(omega)/2, a window integrates F against its transform with
GAUSS15_7 panels (_spectral_pair_integral). The other cross pairs take the
whole regulator ladder in one pass, eps an array axis. A rate's rungs are
"lerch", exact: two Lerch transcendents (lerch) per gap and rung of a row
(_rate_rungs), so no rate is a panel integral; the tests check them against
a panel quadrature of the same integral cut at s = 40/kappa_scale. A
"ladder" window (_ladder_pair_integral, restarted finer until within
tolerance) is integrated with KRONROD15 panels on meshes clustered at the
closed-form lightcone crossings, over p = tau1 + tau2 and over inner cuts of
fixed p, each cut a boost of the p = 0 cut on its inner mesh
(cut_correlator) summed against window weights folded once per mesh.
_limit alone reduces a map to a rate, a probability or a ladder I_ij of
the conditional state: it sums the "spectral" blocks exactly and
extrapolates the rest to eps -> 0 (epsilon_estimates = () when every pair
is exact).
On a contour shifted off the poles the window needs no regulator: inside
its domain (in_contour_domain: omega > 0, beta < pi) contour_pair_integral
gives one branch pair's full-plane I_ij at eps = 0 from a Gauss-Hermite
sum. With its contour flag set, the windowed pass names such a pair
"contour" where the sum meets the tolerance ("ladder" where it misses),
which is how the conditional state takes its non-stationary cross pairs;
excitation_probability_contour sums those sums over every pair.

No family is named here: which branch pairs share one integral (_pair_map),
which are stationary (stationary_form), and kappa_scale are read off the
rows of the family table (kinematics); one _mesh_policy sets the panels of
the 2-D engine: within sigma and 0.5/kappa_max.

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

from .closed_form import DetectorParams
# denominator_factors and sign_change_roots are no longer called here; they
# stay bound because bench/spans.py wraps both names on this module.
# planck_rate is re-exported from here
from .correlators import (_guard_hyp, cut_correlator, denominator_factors,  # noqa: F401
                          lightcone_roots, pair_spectrum, planck_rate,
                          scenario_correlator, stationary_form)
from .errors import ConvergenceError, IndeterminateRatioError
from .kinematics import TrajectoryScenario
from .lerch import lerch
from .quadrature import (
    GAUSS15_7,
    KRONROD15,
    QuadratureConfig,
    RegulatorSchedule,
    _panel_sums,
    cluster_mesh,
    default_schedule,
    epsilon_extrapolate,
    fsum_rows,
    node_weights,
    panel_integrate,
    panel_nodes,
    refine_mesh,
    sign_change_roots,  # noqa: F401
)
from .validity import beta_bound_violation, require_beta_bound

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
# KRONROD15's value and value-minus-check weights on its 15 nodes (2, 15)
_KRONROD15_NODE_WEIGHTS = np.stack(node_weights(KRONROD15))


@dataclass(frozen=True)
class RateResult:
    """Extrapolated transition rate (may be negative) or excitation
    probability, with the (eps, value) rungs it was extrapolated from;
    epsilon_estimates is () for a value that used no regulator ladder (a
    rate whose branch pairs are all stationary, or the shifted contour).
    cross_pair_methods names what the non-stationary cross pairs took, as
    WightmanIntegrals.cross_pair_methods does: the sorted method names of
    the pair map (_cross_pair_methods), "lerch" for transition_rates and
    "ladder" for excitation_probability_quadrature; () when every pair is
    "spectral". excitation_probability_contour leaves it ()."""

    value: float
    error_estimate: float
    epsilon_estimates: tuple
    cross_pair_methods: tuple = ()

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


def _mesh_policy(scenario, omega, eps, sigma, level=0):
    """(cap, scale) of a window's panel mesh: panels within a period of omega
    over _OSCILLATION_RESOLUTION, and clustering from 1/8 of the smallest
    eps; both halve per 2-D restart level. The panels are also within sigma,
    as the Gaussian e^{-p^2/4 sigma^2} has standard deviation sqrt(2) sigma,
    and within 0.5/kappa_max, since the fastest row sets how the correlator
    varies (e^{+-kappa_i p/2}); with no accelerated row there is no kappa
    term."""
    kappa_max = max(b.kappa for b in scenario.branches)
    cap = min(sigma, 0.5 / kappa_max) if kappa_max > 0.0 else sigma
    if omega != 0.0:
        cap = min(cap, (2.0 * math.pi / abs(omega)) / _OSCILLATION_RESOLUTION)
    shrink = 0.5**level
    return cap * shrink, float(np.min(eps)) / 8.0 * shrink


def _within_tol(val, err, quad) -> bool:
    """Whether the error meets the tolerance on every rung."""
    return not np.any(err > np.fmax(quad.abs_tol, quad.rel_tol * np.abs(val)))


def _check_converged(val, err, quad, what):
    """Raise ConvergenceError for the first rung that misses the tolerance."""
    if _within_tol(val, err, quad):
        return
    for v, e in zip(np.atleast_1d(val), np.atleast_1d(err)):
        if not _within_tol(v, e, quad):
            raise ConvergenceError(
                f"{what} did not converge (error {e:.3g} on |value| {abs(v):.3g})",
                estimate=v.item(), error_estimate=e.item())


# ---------------------------------------------------------------------------
# semi-infinite rate integrals, in closed form


def _rate_rungs(scenario, i, j, tau, omega, eps):
    """(J, err) of int_0^inf e^{-i omega s} W^{ij}(tau, tau - s) ds for a
    non-stationary cross pair, in closed form at each rung eps > 0; arrays of
    shape omega.shape + eps.shape. On the rate cut only row j moves: with
    q = e^{k s}, k = k_j its signed acceleration (every such pair has an
    accelerated row j),

        du + i eps da = alpha + beta q,   dv - i eps db = gamma + delta/q,
        alpha = dz - a_i + i eps a_i',    beta = e^{-k tau} (1/k - i eps),
        gamma = b_i - dz - i eps b_i',    delta = -e^{k tau} (1/k + i eps),

    (a_i, b_i, a_i', b_i') = row_i.null(tau), dz = z_cj - z_ci. In
    y = e^{-|k| s} that is W = -y/(4 pi^2 (A + B y)(C + D y)), with
    (A, B, C, D) = (beta, alpha, gamma, delta) for k > 0 and (alpha, beta,
    delta, gamma) for k < 0, so by partial fractions

        J = -[u1 I(c, -u1) - u2 I(c, -u2)] / (4 pi^2 |k| (BC - AD)),

    u1 = B/A, u2 = D/C, c = 1 + i omega/|k| and I = lerch. At eps > 0 no
    factor vanishes on the cut, so -u1 and -u2 lie off [1, inf).

    err bounds the rounding: 16 eps_mach times lerch's scale of each term
    (over five times the largest error against mpmath seen on it); the
    rounding of u1, u2 and of BC - AD, which dz - a_i and b_i - dz can make
    large where they cancel, taken through d(u I(c, -u))/du = 1/(1 + u) -
    (c - 1) I; and 4 eps_mach |J| for the last steps."""
    row_i, row_j = scenario.branch(i), scenario.branch(j)
    k = row_j.direction * row_j.kappa
    _guard_hyp(row_i.kappa * abs(tau), row_j.kappa * abs(tau))
    a, b, da, db = (float(v) for v in row_i.null(tau))
    dz = row_j.z_c - row_i.z_c
    eps_m, e = np.finfo(float).eps, np.asarray(eps, dtype=float)
    alpha, gamma = (dz - a) + 1j * e * da, (b - dz) - 1j * e * db
    # each coefficient with its relative rounding: dz - a_i and b_i - dz may cancel
    exp_rounding = 4.0 * eps_m * (1.0 + abs(k * tau))
    alpha = alpha, eps_m * (abs(dz) + abs(a) + np.abs(e * da)) / np.abs(alpha)
    gamma = gamma, eps_m * (abs(b) + abs(dz) + np.abs(e * db)) / np.abs(gamma)
    beta = math.exp(-k * tau) * (1.0 / k - 1j * e), exp_rounding
    delta = -math.exp(k * tau) * (1.0 / k + 1j * e), exp_rounding
    (A, rA), (B, rB), (C, rC), (D, rD) = ((beta, alpha, gamma, delta) if k > 0 else
                                          (alpha, beta, delta, gamma))
    # gaps first, rungs last: x of shape omega.shape + (1,) * eps.ndim, the two
    # terms' u of shape (2,) + (1,) * omega.ndim + eps.shape
    x = np.reshape(np.asarray(omega, dtype=float), np.shape(omega) + (1,) * e.ndim) / abs(k)
    u_shape = (2,) + (1,) * np.ndim(omega) + e.shape
    u = np.stack([B / A, D / C]).reshape(u_shape)
    r_u = np.stack([rA + rB, rC + rD]).reshape(u_shape) + eps_m
    lerch_value, lerch_size = lerch(x, -u)
    terms = u * lerch_value
    bc, ad = B * C, A * D
    den = 4.0 * math.pi**2 * abs(k) * (bc - ad)
    J = -(terms[0] - terms[1]) / den
    slope = np.abs(u) * np.abs(1.0 / (1.0 + u) - 1j * x * lerch_value)
    err = ((16.0 * eps_m * np.abs(u) * lerch_size + slope * r_u).sum(axis=0)) / np.abs(den)
    err += np.abs(J) * ((np.abs(bc) * (rB + rC) + np.abs(ad) * (rA + rD)) / np.abs(bc - ad)
                        + 4.0 * eps_m)
    return J, err


def _rate_at_eps(scenario, omega, tau, eps, quad) -> dict:
    """{(i, j): (method, J, err)} of the rate at a gap omega, or a row for an
    array of gaps, over every branch pair: a "spectral" (stationary) pair's
    exact J = F_ij(omega)/2 and half its bound (pair_spectrum), since
    2 Re J = F (halving is exact while F is normal, |omega/kappa| <~ 110);
    the others' "lerch" _rate_rungs, per rung for a ladder, whose rounding
    bounds must meet quad's tolerance (ConvergenceError names the first gap
    that misses)."""
    def integral(i, j):
        if stationary_form(scenario, i, j) is not None:
            F, bound = pair_spectrum(scenario, i, j, omega)
            return "spectral", F / 2.0, bound / 2.0
        val, err = _rate_rungs(scenario, i, j, tau, omega, eps)
        # the row is checked whole: look for the gap to name only on a miss
        if not _within_tol(val, err, quad):
            rows = np.size(omega)
            for w, v, e in zip(np.atleast_1d(omega), val.reshape(rows, -1), err.reshape(rows, -1)):
                _check_converged(v, e, quad,
                                 f"closed-form rate rung for branch pair ({i},{j}) at omega = {w:g}")
        return "lerch", val, err

    return _pair_map(scenario, integral, window=False)


def _cross_pair_methods(blocks) -> tuple:
    """The sorted names of the methods of (method, value, err) blocks, but
    "spectral": what a result's non-stationary cross pairs took."""
    return tuple(sorted({method for method, _, _ in blocks} - {"spectral"}))


def _limit(reg_schedule, blocks, pref):
    """(value, error_estimate, epsilon_estimates) at eps -> 0 of pref times
    the sum of blocks, (method, value, err) triples, for one value or a row
    of gaps, each limited elementwise as if alone. A "spectral" block is
    exact: its value has the result's shape, () or (G,). Every other block
    ("lerch", "ladder") has one more axis, its last, with one value per rung:
    every caller passes reg_schedule.epsilons, a tuple. Exact blocks are
    fsummed, with their bars plus the rounding; rung blocks are summed per
    rung, added to that and extrapolated (epsilon_estimates is () without
    them), with their summed errors as the rungs' bars. A caller keeping a
    real part takes it first: a complex value extrapolates with other
    rounding. A row gives arrays of values and errors and a list of
    epsilon_estimates, one per gap."""
    exact = [(v, e) for method, v, e in blocks if method == "spectral"]
    ladder = [(v, e) for method, v, e in blocks if method != "spectral"]
    # one fsum per gap, over the exact blocks
    value = pref * fsum_rows(np.array([v for v, _ in exact]).T)
    # fsum rounds once, and so does the product
    bar = pref * sum(e for _, e in exact) + 2.0 * np.finfo(float).eps * abs(value)
    if not ladder:
        return (value, bar, [()] * len(value)) if np.ndim(value) else (value, float(bar), ())
    rungs = np.expand_dims(value, -1) + pref * sum(v for v, _ in ladder)
    limit, err = epsilon_extrapolate(tuple(zip(reg_schedule.epsilons, np.moveaxis(rungs, -1, 0))),
                                     errors=np.moveaxis(pref * sum(e for _, e in ladder), -1, 0))
    estimates = [tuple(zip(reg_schedule.epsilons, r))
                 for r in rungs.reshape(-1, rungs.shape[-1]).tolist()]
    if np.ndim(limit):
        return limit, err + bar, estimates
    return limit.item(), float(err + bar), estimates[0]


def transition_rates(scenario: TrajectoryScenario, omegas, tau: float,
                     reg_schedule: RegulatorSchedule | None = None,
                     quad: QuadratureConfig | None = None,
                     lambda_coupling: float = 1.0) -> list[RateResult]:
    """Instantaneous transition rate in the infinite-interaction-time limit,

        rate(tau) = (lambda^2/N^2) 2 Re sum_ij int_0^inf ds e^{-i omega s}
                    W^{ij}(tau, tau - s),

    one RateResult per gap omega in omegas, all at one tau.

    A stationary pair (every local pair, and the thermal bath's cross pair)
    adds lambda^2 F_ij(omega)/N^2 in closed form (pair_spectrum). The other
    cross pairs are exact on each rung of the regulator ladder: their
    integral to s = inf is two Lerch transcendents (_rate_rungs), evaluated
    for every (gap, rung) of the row at once; the rungs are extrapolated to
    eps -> 0 in one array pass for the whole row (_limit). A row raises if
    any rung's rounding bound misses quad's tolerance, and an empty row
    gives []. A gap's rate does not depend on the other gaps of its row.
    error_estimate is the extrapolation error plus the rounding bound of the
    closed-form part; epsilon_estimates is () when every pair is stationary,
    and cross_pair_methods ("lerch" or ()) is the row's, in every result.
    For the Differing family tau is the shared proper-time parameter of both
    branches (no global time coordinate relates them). omegas must be a 1-D
    sequence of finite gaps and tau finite (ValueError otherwise).
    """
    omegas, tau = np.asarray(omegas, dtype=float), float(tau)
    if omegas.ndim != 1:
        raise ValueError(f"omegas must be a 1-D sequence of gaps, got shape {omegas.shape}")
    if not np.all(np.isfinite(omegas)):
        raise ValueError("omegas must be finite")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    if not omegas.size:
        return []
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    pref = 2.0 * lambda_coupling**2 / scenario.branch_count**2
    blocks = _rate_at_eps(scenario, omegas, tau, reg_schedule.epsilons, quad).values()
    values, errors, estimates = _limit(reg_schedule, [(m, v.real, e) for m, v, e in blocks], pref)
    methods = _cross_pair_methods(blocks)
    return [RateResult(float(v), float(e), rungs, methods)
            for v, e, rungs in zip(values, errors, estimates)]


def transition_rate(scenario: TrajectoryScenario, params: DetectorParams, tau: float,
                    reg_schedule: RegulatorSchedule | None = None,
                    quad: QuadratureConfig | None = None) -> RateResult:
    """The transition rate at the gap params.omega (transition_rates)."""
    return transition_rates(scenario, [params.omega], tau, reg_schedule, quad,
                            params.lambda_coupling)[0]


# ---------------------------------------------------------------------------
# Gaussian-windowed double integrals (excitation probability building blocks)


def window_halfwidth(params: DetectorParams) -> float:
    """Truncation half-width T of the switching window in each proper time.

    6 sigma covers the Gaussian itself: with both proper times at 6 sigma
    the window product e^{-(tau'^2 + tau''^2)/2 sigma^2} is e^{-36}. The
    extra 2 sigma^2 |omega| covers the contour shift of
    e^{-s^2/4sigma^2 - i omega s}: after completing the square the effective
    Gaussian is displaced by 2 sigma^2 omega, and truncating the undisplaced
    6-sigma box would leave a tail comparable to the
    e^{-sigma^2 omega^2}-suppressed signal itself. Only s = tau' - tau''
    carries that shift: the 2-D engine stays inside the diamond
    |p| + s <= 2T, but cuts p and s tighter (_halfplane_pair_integral).
    """
    return _WINDOW_SIGMAS * params.sigma + 2.0 * params.sigma**2 * abs(params.omega)


def _halfplane_pair_integral(scenario, i, j, params, eps, level=0):
    """J_ij = (1/2) int dp int_{s>0} ds G(p) G(s) e^{-i omega s}
    W^{ij}((p+s)/2, (p-s)/2), G(x) = e^{-x^2/4 sigma^2}, over the
    time-ordered half of the switching plane in rotated coordinates
    (p = tau' + tau'', s = tau' - tau''), cut where the window is below
    rounding:
    - |p| <= P = 12 sigma (2 _WINDOW_SIGMAS sigma), where the unshifted
      G(p) is e^{-36}, the level of both proper times at 6 sigma;
    - s <= min(2T - |p|, S), T = window_halfwidth, inside the diamond of
      the [-T, T]^2 switching square, and S = 2 sigma sqrt(36 + (sigma
      omega)^2), where G(s) is e^{-36} times e^{-(sigma omega)^2}, the
      suppression of the signal itself (the 2 sigma^2 omega contour shift).
    Past either cut the window weight is below e^{-36} ~ 2e-16 of the scale
    of the value it would add to.

    The 2-D engine for the pairs whose correlator depends on p: KRONROD15 on
    both axes, outer panels in p at most min(sigma, 0.5/kappa_max) wide
    (_mesh_policy; 24 of them at kappa sigma = 0.05) with no clustering (the
    lightcone roots move smoothly through p = 0, and s_hi has no kink there)
    over inner panel integrals in s, whose panels are also within an eighth
    of a period of omega. Each inner mesh clusters at the closed-form
    lightcone roots of its p-cut (one call per outer panel). All the work
    that depends on s alone is done once per inner mesh, under the key
    (s_hi, roots in range), and a cut with the key of the cut before it
    reuses it (at kappa sigma = 0.05, sigma omega = 4 every cut of Parallel
    kappa L = 1 shares one mesh): the correlator's cut form
    (cut_correlator, the rows' null data at +-s/2, which a cut only boosts
    by p/2) and the window e^{-s^2/4 sigma^2 - i omega s} folded with the
    KRONROD15 value and value-minus-check weights and the panel half-widths
    (_folded_window). A cut then costs one evaluation of the cut form and
    one einsum of its values against those weights; its value is fsummed
    over the panels. Only the last mesh is kept.
    Each rung's error is the value-minus-check estimate of both axes plus
    the rounding floor eps_mach sum |panel terms| of both axes, the inner
    one integrated over p like the inner estimate.
    Probabilities take the stationary pairs from _spectral_pair_integral;
    this engine still accepts them, as their independent check, with W(s)
    evaluated once per mesh. A ladder of eps gives one value and error per
    rung, on one set of meshes.
    """
    sigma, omega = params.sigma, params.omega
    T2 = 2.0 * window_halfwidth(params)
    p_hi = 2.0 * _WINDOW_SIGMAS * sigma
    s_cut = 2.0 * sigma * math.hypot(_WINDOW_SIGMAS, sigma * omega)
    # the p-integrand does not oscillate: its mesh ignores omega
    cap_p, scale = _mesh_policy(scenario, 0.0, eps, sigma, level)
    cap_s, _ = _mesh_policy(scenario, omega, eps, sigma, level)
    inv4s2 = 1.0 / (4.0 * sigma**2)
    # one row per rung, also for a single eps
    rungs = np.atleast_1d(np.asarray(eps, dtype=float))
    eps_m = np.finfo(float).eps

    # the last cut's key (s_hi, roots in range), the cut form on its mesh and
    # the folded window weights: consecutive cuts often share all three
    key = cut = weights = None

    def inner(p, roots):
        nonlocal key, cut, weights
        s_hi = min(T2 - abs(p), s_cut)
        new = (s_hi, [float(r) for r in roots if 0.0 <= r <= s_hi])
        if new != key:
            key = new
            edges = cluster_mesh(0.0, s_hi, [0.0] + key[1], scale=scale, cap=cap_s)
            s = panel_nodes(edges)
            cut = cut_correlator(scenario, i, j, s, rungs)
            weights = _folded_window(edges, s, omega, inv4s2)
        sums = np.einsum("rpn,kpn->rkp", cut(p).reshape((len(rungs),) + weights.shape[1:]),
                         weights)
        size, gap = np.abs(sums).sum(axis=-1).T
        return fsum_rows(sums[:, 0]), gap + eps_m * size

    # mirrored, so that J_ji = J_ij holds on the same nodes (_pair_key); p = 0
    # stays an edge, but nothing there needs clustering
    half = cluster_mesh(0.0, p_hi, [], scale=scale, cap=cap_p)
    outer_edges = np.concatenate([-half[:0:-1], half])
    h = 0.5 * (outer_edges[1:] - outer_edges[:-1])
    nodes = panel_nodes(outer_edges, KRONROD15).reshape(len(h), -1)
    # each cut's value and error, one row per rung, then times G(p)
    fk = np.empty((len(rungs),) + nodes.shape, dtype=complex)
    ek = np.empty(fk.shape)
    for k_pan, row in enumerate(nodes):
        roots = lightcone_roots(scenario, i, j, row)
        for idx, p in enumerate(row):
            fk[:, k_pan, idx], ek[:, k_pan, idx] = inner(p, roots[:, idx])
    g = np.exp(-nodes * nodes * inv4s2)
    fk *= g
    ek *= g * KRONROD15.weights
    # Re J is the remainder of a cancellation across panels (by about 6,000x
    # for Parallel kappa L = 1 at sigma omega = 4): _panel_sums accumulates
    # the panel sums with compensated summation
    val, err = _panel_sums(fk.reshape(len(rungs), -1), h, KRONROD15)
    err_inner = (ek.sum(axis=-1) * h).sum(axis=-1)
    size = np.abs((fk * KRONROD15.weights).sum(axis=-1) * h).sum(axis=-1)
    val, err = 0.5 * val, 0.5 * (err + err_inner + eps_m * size)
    return (val, err) if np.ndim(eps) else (complex(val[0]), float(err[0]))


def _folded_window(edges, s, omega, inv4s2):
    """(2, panels, nodes) weights of an inner mesh: the window
    e^{-s^2/4 sigma^2 - i omega s} on its panel_nodes s, times the panel
    half-widths and the KRONROD15 value weights (first) or its
    value-minus-check weights (second). Contracting a cut's correlator
    values with them gives its panel values and the gaps whose moduli are
    their error estimates."""
    h = 0.5 * (edges[1:] - edges[:-1])
    window = np.exp(-s * s * inv4s2 - 1j * omega * s).reshape(len(h), -1)
    return window * (h[:, None] * _KRONROD15_NODE_WEIGHTS[:, None, :])


def _spectral_pair_integral(scenario, i, j, params, quad):
    """J_ij of _halfplane_pair_integral for a stationary pair, with no
    regulator, from its spectrum F = pair_spectrum. With Dawson's function D
    and G(E) = e^{-sigma^2 (omega - E)^2}, Re J_ij = (sigma^2/2) int F G dE
    and Im J_ij = -(sigma^2/sqrt(pi)) int dE F(|E|) D(sigma (omega - E)): the
    pair minus the same pair in the inertial vacuum (P(E) + E Theta(-E)/2 pi
    = P(|E|) for the Planck form P, and sin(EL)/(EL) is even), which drops a
    local pair's kappa-independent coincidence divergence. Both are one
    panel integral, on a mesh clustered at E = 0 and omega that resolves
    sin(EL)/(EL) of the bath's cross pair. Once L >~ 12 sigma, e^{iEL} moved
    to Im E = y = kappa (N + 1/2) ~ L/2 sigma^2, past the Planck poles
    i kappa n, leaves that pair Re J = (sigma^2/2) pi F(0) G(0)/L
    (1 + 2 sum_{n <= N} e^{(kappa sigma n)^2 - kappa n L} cos(2 beta n)) up to
    e^{sigma^2 y^2 - yL} sqrt(pi)/(kappa sigma) (erfcx(sigma omega) +
    erfcx(pi/(kappa sigma) - sigma omega)) of its first term, and Im J = 0:
    no caller reads it (J_21 = J_12, _pair_key).

    Returns (J, err): err.real bounds the error of Re J and err.imag that of
    Im J: the panel estimate plus the integrated rounding bound of F, of
    e^{-x^2} (x = sigma (omega - E); (4 + 3 x^2) eps_mach) and of D (5 eps_mach).
    scipy.special loads on the first call, not with the package: rate maps
    and closed forms never need it."""
    from scipy.special import dawsn, erfcx

    sigma, omega, a = params.sigma, params.omega, params.sigma * params.omega
    kappa, dz = stationary_form(scenario, i, j)
    L = abs(dz)
    eps_m, c_re, c_im = np.finfo(float).eps, sigma**2 / 2.0, sigma**2 / math.sqrt(math.pi)
    # y = kappa (N + 1/2) nearest L/2 sigma^2, between the poles i kappa N and i kappa (N + 1)
    y = kappa * (max(0, round(L / (2.0 * sigma**2 * kappa) - 0.5)) + 0.5)
    if L > 0.0 and (sigma * y) ** 2 - y * L + math.log(math.sqrt(math.pi) / (kappa * sigma) * (
            erfcx(a) + erfcx(math.pi / (kappa * sigma) - a))) <= math.log(eps_m):
        n = np.arange(1.0, min(math.floor(y / kappa), math.ceil(90.0 / (kappa * L))) + 1.0)
        w, phase = np.exp((sigma * kappa * n) ** 2 - kappa * L * n), 2.0 * a * sigma * kappa * n
        s = 1.0 + 2.0 * math.fsum(w * np.cos(phase))
        lead = c_re * math.pi * pair_spectrum(scenario, i, j, 0.0)[0] * math.exp(-a * a) / L
        # rounding; remainder; terms past 90/(kappa L): < e^{-45}, (kappa sigma n)^2 <= kappa L n/2
        bar = eps_m * (2.0 * np.sum((2.0 + 4.0 * (kappa * L * n + phase)) * w)
                       + (8.0 + 2.0 * a * a) * abs(s) + 1.0)
        bar += 2.0 * math.exp(-45.0) / -math.expm1(-kappa * L / 2.0)
        return complex(lead * s, 0.0), complex(abs(lead) * bar, 0.0)

    def f(E):
        F, bF = pair_spectrum(scenario, i, j, E)
        Fa, bFa = pair_spectrum(scenario, i, j, np.abs(E))
        x = sigma * (omega - E)
        # each window factor from its own exponent: e^{-sigma^2 omega^2} is not taken out
        g, d = np.exp(-x * x), dawsn(x)
        return np.stack([F * g, Fa * d, (bF + (4.0 + 3.0 * x * x) * eps_m * np.abs(F)) * g,
                         (bFa + 5.0 * eps_m * np.abs(Fa)) * np.abs(d)])

    half = max(_WINDOW_SIGMAS / sigma, 40.0 * kappa / (2.0 * math.pi))
    cap = min(0.5 / sigma, math.pi / (2.0 * L) if L else math.inf)
    edges = cluster_mesh(min(0.0, omega) - half, max(0.0, omega) + half, [0.0, omega],
                         scale=min(kappa, 1.0 / sigma) / 64.0, cap=cap)
    # every panel halved, up to _MAX_REFINEMENTS times, until within tolerance
    val, err = panel_integrate(f, edges, rule=GAUSS15_7)
    for _ in range(_MAX_REFINEMENTS):
        if _within_tol(val, err, quad):
            break
        edges = refine_mesh(edges)
        val, err = panel_integrate(f, edges, rule=GAUSS15_7)
    _check_converged(val[:2], err[:2], quad, f"spectral window integral for branch pair {(i, j)}")
    J = complex(c_re * val[0], -c_im * val[1])
    return J, complex(c_re * (err[0] + val[2]) + 2.0 * eps_m * abs(J.real),
                      c_im * (err[1] + val[3]) + 2.0 * eps_m * abs(J.imag))


def _ladder_pair_integral(scenario, i, j, params, eps, quad):
    """(value, err) of the 2-D engine for branch pair (i, j) at one eps or a
    ladder (arrays over the rungs), restarted finer, up to _MAX_REFINEMENTS
    levels, until within tolerance; ConvergenceError if the last level
    misses it."""
    for level in range(_MAX_REFINEMENTS + 1):
        val, err = _halfplane_pair_integral(scenario, i, j, params, eps, level=level)
        if _within_tol(val, err, quad):
            break
    _check_converged(val, err, quad, f"windowed double integral for branch pair {(i, j)}")
    return val, err


def halfplane_integrals_at_eps(scenario, params, eps, quad, contour=False) -> dict:
    """{(i, j): (method, value, err)} over every branch pair, each
    _pair_map representative integrated once, by exactly one method:
    - "spectral" for a stationary pair: J_ij of _spectral_pair_integral,
      exact, with a complex err;
    - "contour", where contour is set (the caller checks in_contour_domain),
      for a pair whose contour_pair_integral meets quad's tolerance: the
      full-plane I_ij at eps = 0, not J_ij;
    - "ladder" otherwise: J_ij on every rung of eps (_ladder_pair_integral)."""
    def integral(i, j):
        if stationary_form(scenario, i, j) is not None:
            return "spectral", *_spectral_pair_integral(scenario, i, j, params, quad)
        if contour:
            value, bar = contour_pair_integral(scenario, params, i, j)
            if _within_tol(value, bar, quad):
                return "contour", value, bar
        return "ladder", *_ladder_pair_integral(scenario, i, j, params, eps, quad)

    return _pair_map(scenario, integral, window=True)


def excitation_probability_quadrature(scenario: TrajectoryScenario, params: DetectorParams,
                                      reg_schedule: RegulatorSchedule | None = None,
                                      quad: QuadratureConfig | None = None) -> ProbabilityResult:
    """Excitation probability for Gaussian switching,

        P = (lambda^2/N^2) 2 Re sum_ij J_ij,

    where J_ij is the time-ordered Gaussian-windowed double integral of
    e^{-i omega (tau'-tau'')} W^{ij} (halfplane_integrals_at_eps): exact for
    stationary pairs, extrapolated from the regulator ladder for the other
    cross pairs. error_estimate is the extrapolation error plus the exact
    pairs' bars; epsilon_estimates is () when no pair needs the ladder,
    and cross_pair_methods is ("ladder",) when one does.
    """
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    pref = 2.0 * params.lambda_coupling**2 / scenario.branch_count**2
    blocks = halfplane_integrals_at_eps(scenario, params, reg_schedule.epsilons, quad).values()
    return ProbabilityResult(*_limit(reg_schedule, [(m, v.real, e.real) for m, v, e in blocks],
                                     pref), _cross_pair_methods(blocks))


# ---------------------------------------------------------------------------
# Gaussian-windowed probability on the shifted contour


def _contour_kappa(scenario: TrajectoryScenario) -> float:
    """The acceleration at which the contour's beta bound is taken: the
    largest branch acceleration, or kappa1, the bath's temperature scale."""
    return max(scenario.kappa1, *(b.kappa for b in scenario.branches))


def in_contour_domain(scenario: TrajectoryScenario, params: DetectorParams) -> bool:
    """Whether the shifted contour applies: omega > 0 and beta < pi at
    _contour_kappa (beta_bound_violation is None)."""
    return beta_bound_violation(params, _contour_kappa(scenario)) is None


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int):
    return np.polynomial.hermite.hermgauss(n)


def _contour_terms(scenario, params, i, j):
    """(fine, coarse, size) of branch pair (i, j): the _CONTOUR_NODES^2
    Gauss-Hermite product rule for the integral of e^{-x^2 - y^2} W^{ij} at
    p = 2 sigma x, s = 2 sigma y - 2 i sigma^2 omega, eps = 0, the same rule
    with half as many nodes per axis, and the sum of the moduli of the fine
    rule's terms (its rounding scale)."""
    corr = scenario_correlator(scenario, i, j)
    sigma = params.sigma
    sums = []
    for n in (_CONTOUR_NODES, _CONTOUR_NODES // 2):
        x, w = _hermite_rule(n)
        p = 2.0 * sigma * x[:, None]
        s = 2.0 * sigma * x[None, :] - 2j * sigma**2 * params.omega
        sums.append(w[:, None] * w[None, :] * corr((p + s) / 2.0, (p - s) / 2.0, 0.0))
    fine, coarse = sums
    return fine.sum(), coarse.sum(), np.abs(fine).sum()


def _contour_bar(fine, coarse, size):
    """The bar of a contour sum: the change from half as many nodes plus the
    rounding floor of the fine rule."""
    return abs(fine - coarse) + _CONTOUR_NODES * np.finfo(float).eps * size


def contour_pair_integral(scenario: TrajectoryScenario, params: DetectorParams,
                          i: int, j: int) -> tuple:
    """(I_ij, bar) at eps = 0 of the full-plane windowed integral

        I_ij = iint dtau' dtau'' eta(tau') eta(tau'') e^{-i omega (tau' - tau'')}
               W^{ij}(tau', tau'') = 2 sigma^2 e^{-sigma^2 omega^2} sum w w W^{ij},

    the Gauss-Hermite sum of _contour_terms on the shifted contour (the
    Jacobian (2 sigma)^2 / 2 times the completed square), Im part included;
    the bar is _contour_bar times the same prefactor. The caller checks the
    domain (in_contour_domain)."""
    fine, coarse, size = _contour_terms(scenario, params, i, j)
    jac = 2.0 * params.sigma**2 * math.exp(-(params.sigma * params.omega) ** 2)
    return complex(jac * fine), float(jac * _contour_bar(fine, coarse, size))


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
    omega <= 0 and beta = kappa sigma^2 omega >= pi, at the largest branch
    acceleration; excitation_probability_quadrature covers them, exactly for
    stationary pairs. Below that bound the shift crosses no cross-pair pole. At
    Im s = -2 beta'/kappa and real p, the imaginary parts of both
    antiparallel denominator factors are proportional to sin(beta'), nonzero
    for 0 < beta' <= beta < pi. The Differing factors vanish at
    Im s = 4 pi n/(kappa1 + kappa2): the real (n = 0) poles lie above the
    axis, and n = -1 is reached only at sigma^2 omega (kappa1 + kappa2)/2 >= pi.
    For Differing the result therefore includes the cross terms that
    p_differing omits.
    """
    require_beta_bound(params, _contour_kappa(scenario), "contour shift")
    sigma = params.sigma
    # lambda^2/N^2 e^{-sigma^2 omega^2}, times the Jacobian (2 sigma)^2 / 2
    pref = (2.0 * (params.lambda_coupling * sigma / scenario.branch_count) ** 2
            * math.exp(-(sigma * params.omega) ** 2))
    # summed over every branch pair in row-major order: each pair's I_ij is
    # its contour_pair_integral, but the bar is that of the summed rules
    terms = _pair_map(scenario, functools.partial(_contour_terms, scenario, params),
                      window=True).values()
    fine, coarse, size = (sum(t[k] for t in terms) for k in range(3))
    value = pref * fine.real
    err = pref * _contour_bar(fine, coarse, size)
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
    error estimate, or when the ratio or e^{-2 pi omega/kappa} overflows or
    underflows to zero (past |omega/kappa| ~ 113 one of them leaves the
    float range). A NaN rate gives a NaN ratio, which is returned as it is.
    """
    num, _ = _value_and_error(rate_at(omega))
    den, den_err = _value_and_error(rate_at(-omega))
    if abs(den) <= den_err:
        raise IndeterminateRatioError(
            f"rate at -omega = {-omega:g} is zero within its error estimate "
            f"({den:.3g} +- {den_err:.3g})")
    ratio = num / den
    try:
        expected = math.exp(-2.0 * math.pi * omega / kappa)
    except OverflowError:
        expected = math.inf
    if any(x in (0.0, math.inf, -math.inf) for x in (ratio, expected)):
        raise IndeterminateRatioError(f"ratio {ratio:.3g} or e^(-2 pi omega/kappa) = "
                                      f"{expected:.3g} is not a finite, nonzero float")
    deviation = abs(ratio / expected - 1.0)
    return KMSReport(ratio=ratio, expected=expected, deviation=deviation,
                     satisfied=bool(deviation <= tol))
