"""Conditional detector state after measuring the trajectory control.

A detector travelling in an N-branch superposition of worldlines, with the
control measured in the state N^{-1/2} sum_i e^{-i phi_i}|c_i>, ends up (to
second order in the coupling) in a diagonal density matrix whose unnormalized
populations are built from two kinds of windowed Wightman integrals:

    full-plane   I_ij = iint d tau' d tau'' eta eta e^{-i omega (tau'-tau'')}
                        W^{ij}(tau', tau'')
    time-ordered T_i  = same integrand, restricted to tau'' <= tau' (i = j)

as

    p_excited = (lambda^2/N^2) sum_ij e^{i(phi_i - phi_j)} I_ji
    p_ground  = (1/N^2) sum_ij e^{i(phi_i - phi_j)} [1 - lambda^2 (T_i + conj T_j)]

The norm p_ground + p_excited is the probability of finding the control in
the measured superposition; dividing by it conditions the detector state.

Every T_i, and I_ij of every stationary pair, is exact from the pair's
spectrum. Inside the shifted contour's domain (omega > 0, beta < pi) the
other cross pairs' I_ij are Gauss-Hermite sums on that contour at eps = 0;
outside it, and for a pair whose sum misses the quadrature tolerance, they
are extrapolated from the regulator ladder (compute_wightman_integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import DetectorParams
from .kinematics import TrajectoryScenario
# epsilon_extrapolate is not called here (response._limit extrapolates); it
# stays bound because bench/spans.py wraps the name on this module
from .quadrature import epsilon_extrapolate  # noqa: F401
from .response import (_defaults, _limit, _pair_map, _spectral_pair_integral,
                       _stationary_pair, _within_tol, contour_pair_integral,
                       halfplane_integrals_at_eps, in_contour_domain)


@dataclass(frozen=True)
class ControlState:
    """N-branch control with measurement phases; the overall phase is gauge
    and is canonicalized to phases[0] = 0."""

    branch_count: int
    phases: tuple = ()

    def __post_init__(self):
        if self.branch_count < 1:
            raise ValueError("branch_count must be >= 1")
        phases = tuple(float(p) for p in self.phases)
        if not phases:
            phases = (0.0,) * self.branch_count
        if len(phases) != self.branch_count:
            raise ValueError("need one phase per branch")
        if any(not math.isfinite(p) for p in phases):
            raise ValueError("phases must be finite")
        phases = tuple(p - phases[0] for p in phases)
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class WightmanIntegrals:
    """Windowed integrals for one scenario and detector, at eps -> 0.

    full_grid[(i, j)] holds I_ij (conjugate-symmetric across the grid);
    time_ordered[i] holds T_i, whose imaginary part is taken relative to an
    inertial detector in the vacuum (compute_wightman_integrals), so only
    its branch differences are physical. error_estimate bounds every entry.
    cross_pair_methods names what gave the non-stationary cross pairs:
    "contour" (the shifted contour at eps = 0) and/or "ladder" (the
    regulator ladder, extrapolated); () when every pair is stationary.
    """

    branch_count: int
    full_grid: dict
    time_ordered: dict
    error_estimate: float = 0.0
    cross_pair_methods: tuple = ()

    def __post_init__(self):
        n = self.branch_count
        pairs = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        if set(self.full_grid) != pairs or set(self.time_ordered) != set(range(1, n + 1)):
            raise ValueError("integral maps do not cover the branch grid")


@dataclass(frozen=True)
class DetectorDensityMatrix:
    """Diagonal (at this order) conditional detector state, unnormalized
    populations plus their sum and the conditioned excitation probability."""

    p_ground_unnormalized: float
    p_excited_unnormalized: float
    norm: float = field(init=False)
    p_excited_conditional: float = field(init=False)

    def __post_init__(self):
        norm = self.p_ground_unnormalized + self.p_excited_unnormalized
        object.__setattr__(self, "norm", norm)
        cond = self.p_excited_unnormalized / norm if norm > 0 else math.nan
        object.__setattr__(self, "p_excited_conditional", cond)


def compute_wightman_integrals(scenario: TrajectoryScenario, params: DetectorParams,
                               reg_schedule=None, quad=None) -> WightmanIntegrals:
    """All I_ij and T_i at eps = 0. Every diagonal pair is stationary, so
    T_i = J_ii of _spectral_pair_integral is exact. Im T_i is relative to an
    inertial detector in the vacuum: the coincidence divergence dropped is
    the same for every branch, and cancels in T_i + conj(T_j), the only way
    T_i enters the density matrix. A stationary pair's I_ij = J_ij + conj(J_ji)
    is exact too.

    Inside the shifted contour's domain (omega > 0, beta < pi; response's
    in_contour_domain) each other cross pair's I_ij is its Gauss-Hermite sum
    on that contour (contour_pair_integral), with no regulator, and
    I_ji = conj(I_ij) exactly. A pair whose contour bar misses quad's
    tolerance on its own I_ij (a correlator pole near the contour), and every
    such pair outside the domain, takes the regulator ladder instead
    (halfplane_integrals_at_eps, extrapolated by _limit). error_estimate is
    the largest bar of any entry; cross_pair_methods says which of the two
    gave the cross pairs.
    """
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    return _wightman_integrals(scenario, params, reg_schedule, quad,
                               _contour_pairs(scenario, params, quad))


def _contour_pairs(scenario, params, quad) -> dict:
    """{(i, j): (I_ij, bar)} of the non-stationary pairs whose shifted-contour
    sum meets quad's tolerance, I_ji = conj(I_ij); {} outside the domain."""
    if not in_contour_domain(scenario, params):
        return {}

    def integral(i, j):
        if not _stationary_pair(scenario, i, j):
            return contour_pair_integral(scenario, params, i, j)

    out = {}
    for (i, j), pair in _pair_map(scenario, integral, window=True).items():
        if i < j and pair is not None and _within_tol(*pair, quad):
            out[(i, j)], out[(j, i)] = pair, (pair[0].conjugate(), pair[1])
    return out


def _ladder_wightman_integrals(scenario, params, reg_schedule, quad) -> WightmanIntegrals:
    """compute_wightman_integrals with every non-stationary pair on the
    regulator ladder."""
    return _wightman_integrals(scenario, params, reg_schedule, quad, {})


def _wightman_integrals(scenario, params, reg_schedule, quad, contour) -> WightmanIntegrals:
    """I_ij = contour[(i, j)] where given, else J_ij + conj(J_ji) reduced by
    _limit, with the J_ij of halfplane_integrals_at_eps; once the contour
    gives every non-stationary pair, only the stationary J_ij are computed."""
    n = scenario.branch_count
    grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    cross = [pair for pair in grid if not _stationary_pair(scenario, *pair)]
    if contour and all(pair in contour for pair in cross):
        def spectral(i, j):
            if _stationary_pair(scenario, i, j):
                return _spectral_pair_integral(scenario, i, j, params, quad)

        J = _pair_map(scenario, spectral, window=True)
    else:
        J = halfplane_integrals_at_eps(scenario, params, reg_schedule.epsilons, quad)
    full = {}
    worst = max(J[(i, i)][1].real + J[(i, i)][1].imag for i in range(1, n + 1))
    for i, j in grid:
        if (i, j) in contour:
            full[(i, j)], err = contour[(i, j)]
        else:
            (v_ij, e_ij), (v_ji, e_ji) = J[(i, j)], J[(j, i)]
            full[(i, j)], err, _ = _limit(reg_schedule, [(v_ij, e_ij.real),
                                                         (np.conj(v_ji), e_ji.real)], 1.0)
        worst = max(worst, err)
    methods = {"contour" if pair in contour else "ladder" for pair in cross}
    ordered = {i: complex(J[(i, i)][0]) for i in range(1, n + 1)}
    return WightmanIntegrals(branch_count=n, full_grid=full, time_ordered=ordered,
                             error_estimate=float(worst),
                             cross_pair_methods=tuple(sorted(methods)))


def conditional_density_matrix(integrals: WightmanIntegrals, control: ControlState,
                               params: DetectorParams) -> DetectorDensityMatrix:
    """Assemble the unnormalized conditional populations for the given
    measurement phases."""
    n = control.branch_count
    if integrals.branch_count != n:
        raise ValueError(
            f"integrals cover {integrals.branch_count} branches, control has {n}")
    lam2 = params.lambda_coupling**2
    phases = control.phases
    excited = 0.0 + 0.0j
    ground = 0.0 + 0.0j
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w = np.exp(1j * (phases[i - 1] - phases[j - 1]))
            excited += w * integrals.full_grid[(j, i)]
            ti = integrals.time_ordered[i]
            tj = integrals.time_ordered[j]
            ground += w * (1.0 - lam2 * (ti + np.conj(tj)))
    p_exc = lam2 / n**2 * excited.real
    p_gnd = ground.real / n**2
    return DetectorDensityMatrix(p_ground_unnormalized=p_gnd,
                                 p_excited_unnormalized=p_exc)


def phase_envelope(control: ControlState) -> float:
    """Zeroth-order (field-free) norm: N^{-2} |sum_i e^{i phi_i}|^2."""
    s = sum(np.exp(1j * p) for p in control.phases)
    return float(abs(s) ** 2) / control.branch_count**2


def visibility_scan(integrals: WightmanIntegrals, params: DetectorParams,
                    phase_grid) -> dict:
    """Scan the conditional norm over relative phase dphi for N = 2.

    The norm's O(1) dependence is the envelope (1 + cos dphi)/2; the field
    terms ride on top at order lambda^2. The residual after subtracting the
    envelope is (lambda^2/2) Re(e^{i dphi} C), C = I_12 - T_2 - conj(T_1),
    plus (lambda^2/4) sum_i (I_ii - 2 Re T_i), which vanishes; so the
    amplitude of its first harmonic, the lambda^2-order visibility
    degradation, is (lambda^2/2)|C|. Returns it with the mean of the norm
    over the grid (about 1/2 on a full period). C carries no regulator where
    compute_wightman_integrals took I_12 from the shifted contour
    (integrals.cross_pair_methods == ("contour",)): T_i is exact everywhere.
    """
    if integrals.branch_count != 2:
        raise ValueError("visibility scan is defined for N = 2")
    norms = [conditional_density_matrix(integrals, ControlState(2, (0.0, float(dphi))),
                                        params).norm for dphi in phase_grid]
    t = integrals.time_ordered
    c = integrals.full_grid[(1, 2)] - t[2] - np.conj(t[1])
    return {"mean": float(np.mean(norms)),
            "amplitude": float(0.5 * params.lambda_coupling**2 * abs(c))}
