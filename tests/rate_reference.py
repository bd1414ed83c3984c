"""Reference panel quadrature of a branch pair's transition-rate integral.

The library takes every rate rung in closed form (response._rate_rungs:
two Lerch transcendents per gap and rung). The tests check those rungs, and
the stationary pairs' spectra, against this independent quadrature of the
same integral, cut at s = S = 40/kappa_scale:

    integral_0^S e^{-i omega s} W^{ij}(tau, tau - s) ds.

KRONROD15 panels of width at most 0.5/kappa_scale and an eighth of a period
of the largest |omega| cluster geometrically, from an eighth of the
smallest eps, at s = 0 and at the closed-form lightcone crossings of the
cut (rate_cut_roots).
"""

import math

import numpy as np

from udwsim.correlators import scenario_correlator
from udwsim.quadrature import cluster_mesh, panel_integrate, panel_nodes, refine_mesh
from udwsim.response import (_MAX_REFINEMENTS, _OSCILLATION_RESOLUTION, _check_converged,
                             _within_tol, kappa_scale)


def rate_cut(scenario) -> float:
    """Upper end S in s of the reference: 40 decay lengths of the slowest
    branch acceleration, the same for every branch pair."""
    return 40.0 / kappa_scale(scenario)


def rate_cut_roots(scenario, i, j, tau, s_hi):
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


def rate_pair_integral(scenario, i, j, tau, omega, eps, quad):
    """integral_0^S e^{-i omega s} W^{ij}(tau, tau - s) ds, S = rate_cut,
    per rung for a ladder; for an array of omegas, one such row per omega.
    One mesh resolves the largest |omega|, and the correlator is evaluated
    once per mesh level; each gap applies its own phase to those values.
    Every panel is halved, up to _MAX_REFINEMENTS times, until every gap and
    rung meets quad's tolerance; ConvergenceError names the first gap that
    still misses it."""
    omegas = np.atleast_1d(np.asarray(omega, dtype=float))
    s_hi = rate_cut(scenario)
    cap = 0.5 / kappa_scale(scenario)
    w_max = float(np.max(np.abs(omegas)))
    if w_max != 0.0:
        cap = min(cap, (2.0 * math.pi / w_max) / _OSCILLATION_RESOLUTION)
    corr = scenario_correlator(scenario, i, j)
    edges = cluster_mesh(0.0, s_hi, [0.0] + rate_cut_roots(scenario, i, j, tau, s_hi),
                         scale=float(np.min(eps)) / 8.0, cap=cap)
    for level in range(_MAX_REFINEMENTS + 1):
        if level:
            edges = refine_mesh(edges)
        s = panel_nodes(edges)
        fx = corr(np.full_like(s, tau), tau - s, eps)
        rows = [panel_integrate(lambda x, w=w: np.exp(-1j * w * x) * fx, edges)
                for w in omegas]
        val, err = np.array([v for v, _ in rows]), np.array([e for _, e in rows])
        if _within_tol(val, err, quad):
            break
    for w, v, e in zip(omegas, val, err):
        _check_converged(v, e, quad,
                         f"rate integrand for branch pair ({i},{j}) at omega = {w:g}")
    return (val, err) if np.ndim(omega) else (val[0], err[0])
