"""Panel quadrature and regulator-extrapolation machinery.

The integrands here share one shape: smooth oscillatory factors times
correlators whose near-singular structure is pinned to known locations (the
coincidence point s = 0 and the real lightcone crossings of cross terms),
with peak width set by the regulator eps. Composite panel rules (PanelRule)
on a mesh that clusters geometrically around those points resolve this to
machine precision; a lower-order rule on some of the rule's nodes gives a
per-panel error estimate. scipy's QUADPACK wrappers fit badly (no vectorized
complex integrands, no seeded breakpoints), hence the small engine below.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

# Gauss-Kronrod 15-point rule with its embedded 7-point Gauss rule, the
# constants of QUADPACK's qk15 (Piessens et al., QUADPACK, 1983), for
# x >= 0 from the outermost node in
_XGK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])


@dataclass(frozen=True, eq=False)
class PanelRule:
    """Nodes on [-1, 1], the weights of the value on nodes[value], and those
    of a lower-order comparison on nodes[check]: their gap is the error."""
    nodes: np.ndarray
    value: slice
    weights: np.ndarray
    check: slice
    check_weights: np.ndarray


# Kronrod nodes in ascending order, the embedded Gauss 7 on every other one
KRONROD15 = PanelRule(np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]]), slice(None),
                      np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]]), slice(1, None, 2),
                      np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]]))
# Gauss-Legendre 15, then a separate Gauss-Legendre 7: 22 nodes a panel
(_X15, _W15), (_X7, _W7) = leggauss(15), leggauss(7)
GAUSS15_7 = PanelRule(np.concatenate([_X15, _X7]), slice(0, 15), _W15, slice(15, None), _W7)

# default regulator ladder, in units of 1/kappa
DEFAULT_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True)
class QuadratureConfig:
    """Error tolerances of the oscillatory integrals: every panel sum must
    meet max(abs_tol, rel_tol |value|) on every regulator rung. Mesh
    resolution, refinement depth and the rate truncation are fixed by the
    response layer from the scenario and the detector parameters."""

    abs_tol: float = 1e-11
    rel_tol: float = 1e-4

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")


@dataclass(frozen=True)
class RegulatorSchedule:
    """Strictly decreasing regulator ladder of at least 2 rungs, extrapolated
    to eps -> 0 by linear Richardson (epsilon_extrapolate)."""

    epsilons: tuple

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        eps = self.epsilons
        if not all(0 < e < math.inf for e in eps):
            raise ValueError("all epsilons must be positive and finite")
        if len(eps) < 2:
            raise ValueError("extrapolating schedules need at least 2 epsilons")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly decreasing")


def default_schedule(kappa_scale: float = 1.0) -> RegulatorSchedule:
    return RegulatorSchedule(tuple(e / kappa_scale for e in DEFAULT_EPS_LADDER))


def epsilon_extrapolate(estimates, errors=None):
    """Extrapolate (eps, value) pairs to eps -> 0 by linear Richardson: the
    line through the last two points, evaluated at eps = 0.

    Returns (limit, error_estimate) with error_estimate = |difference of the
    last two pairwise extrapolants| (of the extrapolant and the last value
    when there are only 2 points). Values may be complex, and may be arrays
    of one shape (then errors too), each element extrapolated as if alone:
    one array pass gives the same numbers as one call per element. Non-monotone
    convergence across the last three points triggers a RuntimeWarning, once
    if any element trips it; the result is still returned. errors, one bar
    per point, mark noise: a step within the sum of the bars of its two
    points never counts as non-monotone.
    """
    pts = [(float(e), v) for e, v in estimates]
    if not pts:
        raise ValueError("no estimates to extrapolate")
    eps = [e for e, _ in pts]
    vals = [v for _, v in pts]
    if any(e <= 0 for e in eps):
        raise ValueError("epsilons must be positive")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if len(pts) < 2:
        raise ValueError("extrapolation needs at least 2 points")

    if len(vals) >= 3:
        d1, d2 = vals[-2] - vals[-3], vals[-1] - vals[-2]
        e3, e2, e1 = (0.0, 0.0, 0.0) if errors is None else tuple(errors)[-3:]
        if np.iscomplexobj(d1) or np.iscomplexobj(d2):
            non_monotone = (abs(d2) > abs(d1)) & (abs(d1) > 0)
        else:
            non_monotone = d1 * d2 < 0
        if np.any(non_monotone & (abs(d1) > e3 + e2) & (abs(d2) > e2 + e1)):
            warnings.warn(
                "regulator ladder values are not converging monotonically "
                "across the last three points; extrapolant may be unreliable",
                RuntimeWarning,
                stacklevel=2,
            )

    # successive pairwise linear extrapolants to eps = 0
    lin = [
        (vals[i + 1] * eps[i] - vals[i] * eps[i + 1]) / (eps[i] - eps[i + 1])
        for i in range(len(vals) - 1)
    ]
    return lin[-1], abs(lin[-1] - (lin[-2] if len(lin) >= 2 else vals[-1]))


def cluster_mesh(a: float, b: float, clusters, scale: float, cap: float) -> np.ndarray:
    """Panel edges on [a, b]: geometric refinement (starting width `scale`,
    doubling) around each cluster point, width <= cap everywhere."""
    if not b > a:
        raise ValueError("empty interval")
    cap = min(cap, b - a)
    edges = {a, b}
    for c in clusters:
        if not a <= c <= b:
            continue
        edges.add(c)
        for sgn in (-1.0, 1.0):
            x, w = c, scale
            while True:
                x = x + sgn * w
                if x <= a or x >= b or w >= cap:
                    break
                edges.add(x)
                w *= 2.0
    e = sorted(edges)
    out = [e[0]]
    for x in e[1:]:
        while x - out[-1] > cap * 1.0001:
            out.append(out[-1] + cap)
        out.append(x)
    return np.asarray(out)


def refine_mesh(edges: np.ndarray, rounds: int = 1) -> np.ndarray:
    for _ in range(rounds):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    return edges


def panel_nodes(edges: np.ndarray, rule: PanelRule = KRONROD15) -> np.ndarray:
    """The nodes of rule on every panel of the mesh, panel after panel: the
    one layout on which panel_integrate evaluates its integrand."""
    h = 0.5 * (edges[1:] - edges[:-1])
    m = 0.5 * (edges[:-1] + edges[1:])
    return (m[:, None] + h[:, None] * rule.nodes).ravel()


def node_weights(rule: PanelRule):
    """(value, value - check): the rule's value weights and its value minus
    comparison weights on all of its nodes, zero off nodes[value] and
    nodes[check]. Contracting a panel's values with the second gives the gap
    whose modulus is the panel's error estimate."""
    n_nodes = len(rule.nodes)
    value_w, check_w = np.zeros(n_nodes), np.zeros(n_nodes)
    value_w[rule.value], check_w[rule.check] = rule.weights, rule.check_weights
    return value_w, value_w - check_w


def _panel_sums(f, h, rule: PanelRule = KRONROD15):
    """(value, error) from an integrand's values on panel_nodes of panels of
    half-widths h, the last axis in panel order; reduced elementwise, as a
    matrix product would wake the BLAS threads on a large cut."""
    f = f.reshape(f.shape[:-1] + (len(h), len(rule.nodes)))
    value = (f[..., rule.value] * rule.weights).sum(axis=-1) * h
    check = (f[..., rule.check] * rule.check_weights).sum(axis=-1) * h
    return fsum_rows(value), fsum_rows(np.abs(value - check))


def panel_integrate(f, edges: np.ndarray, rule: PanelRule = KRONROD15):
    """Composite integral of a vectorized (complex) integrand over the panel
    mesh under rule, with its comparison-rule error estimate. f is called
    once, on panel_nodes(edges, rule). Panel contributions are accumulated
    with compensated summation. An integrand of shape (m, N) for N nodes (one
    row per regulator value) gives arrays of m values and errors."""
    fx = np.asarray(f(panel_nodes(edges, rule)))
    return _panel_sums(fx, 0.5 * (edges[1:] - edges[:-1]), rule)


def fsum_rows(x):
    """math.fsum over the last axis of a real or complex array: a scalar for
    a 1-D array, else an array of one sum per row, of shape x.shape[:-1].
    fsum is exactly rounded, so each sum is independent of the order of its
    terms."""
    if np.iscomplexobj(x):
        re, im = fsum_rows(x.real), fsum_rows(x.imag)
        if x.ndim == 1:
            return complex(re, im)
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = re, im
        return out
    if x.ndim == 1:
        # fsum reads a list faster than an array, to the same sum
        return math.fsum(x.tolist())
    if x.shape[-1] == 1:
        # fsum of one term is that term, a zero as +0.0
        return x[..., 0] + 0.0
    rows = x.reshape(-1, x.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(x.shape[:-1])


def sign_change_roots(g, lo: float, hi: float, n_scan: int = 257) -> list:
    """Real roots of a vectorized function g on [lo, hi] by sign-change scan
    plus brentq polish. Intended for the (at most one or two) lightcone
    crossings of cross-correlator denominator factors along a 1-D cut.
    scipy.optimize is imported here, not at module level: it is most of the
    package's import time, and no library path calls this function."""
    from scipy.optimize import brentq

    grid = np.linspace(lo, hi, n_scan)
    vals = np.asarray(g(grid), dtype=float)
    roots = []
    sgn = np.sign(vals)
    for k in range(n_scan - 1):
        if sgn[k] == 0.0:
            roots.append(float(grid[k]))
        elif sgn[k] * sgn[k + 1] < 0:
            roots.append(brentq(lambda x: float(g(np.asarray([x]))[0]),
                                grid[k], grid[k + 1], xtol=1e-13, rtol=1e-14))
    if sgn[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots
