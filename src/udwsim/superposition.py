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

compute_wightman_integrals integrates each branch pair once, by exactly one
of three methods, which response's one windowed pair pass
(halfplane_integrals_at_eps) chooses and names: "spectral" for a stationary
pair, which gives every T_i, exact from its spectrum; "contour", inside the
shifted contour's domain (omega > 0, beta < pi), for another cross pair
whose Gauss-Hermite sum on that contour at eps = 0 meets the quadrature
tolerance; and "ladder" otherwise, extrapolated from the regulator ladder.
This module only assembles the state from the named integrals.
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
from .response import (_cross_pair_methods, _defaults, _limit, halfplane_integrals_at_eps,
                       in_contour_domain)


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
    regulator ladder, extrapolated); () when every pair is stationary. A
    RateResult carries the same field, and the CLI's method: header line
    and its notes are built from it.
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
    """All I_ij and T_i at eps = 0, from one windowed pair pass
    (response.halfplane_integrals_at_eps), which names each pair's method.
    Every diagonal pair is "spectral", so T_i = J_ii is exact. Im T_i is
    relative to an inertial detector in the vacuum: the coincidence
    divergence dropped is the same for every branch, and cancels in
    T_i + conj(T_j), the only way T_i enters the density matrix. A
    "spectral" cross pair's I_ij = J_ij + conj(J_ji) is exact too.

    Inside the shifted contour's domain (omega > 0, beta < pi; response's
    in_contour_domain) each other cross pair is "contour": its I_ij is the
    Gauss-Hermite sum on that contour (contour_pair_integral), with no
    regulator, and I_ji = conj(I_ij) exactly. A pair whose contour bar misses
    quad's tolerance on its own I_ij (a correlator pole near the contour),
    and every such pair outside the domain, is "ladder" instead: J_ij on the
    regulator ladder, with I_ij = J_ij + conj(J_ji) extrapolated by _limit.
    error_estimate is the largest bar of any entry; cross_pair_methods names
    the methods of the non-stationary cross pairs.
    """
    return _wightman_integrals(scenario, params, *_defaults(scenario, reg_schedule, quad),
                               in_contour_domain(scenario, params))


def _wightman_integrals(scenario, params, reg_schedule, quad, contour) -> WightmanIntegrals:
    """The state from the named pairs of halfplane_integrals_at_eps, with
    contour as its flag: a "contour" I_ij as it is, and I_ji = conj(I_ij);
    every other I_ij is J_ij + conj(J_ji), reduced by _limit.
    cross_pair_methods is every method but "spectral" (_cross_pair_methods)."""
    pairs = halfplane_integrals_at_eps(scenario, params, reg_schedule.epsilons, quad,
                                       contour=contour)
    diagonal = [pairs[(i, i)][1:] for i in range(1, scenario.branch_count + 1)]
    worst = max(e.real + e.imag for _, e in diagonal)
    full = {}
    for (i, j), (method, v, e) in pairs.items():
        if method == "contour":
            full[(i, j)], err = (v if i < j else v.conjugate()), e
        else:
            m_ji, v_ji, e_ji = pairs[(j, i)]
            blocks = [(method, v, e.real), (m_ji, np.conj(v_ji), e_ji.real)]
            full[(i, j)], err, _ = _limit(reg_schedule, blocks, 1.0)
        worst = max(worst, err)
    ordered = {i: complex(v) for i, (v, _) in enumerate(diagonal, 1)}
    return WightmanIntegrals(branch_count=len(diagonal), full_grid=full, time_ordered=ordered,
                             error_estimate=float(worst),
                             cross_pair_methods=_cross_pair_methods(pairs.values()))


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
    t = integrals.time_ordered
    excited = ground = 0.0 + 0.0j
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w = np.exp(1j * (phases[i - 1] - phases[j - 1]))
            excited += w * integrals.full_grid[(j, i)]
            ground += w * (1.0 - lam2 * (t[i] + np.conj(t[j])))
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
