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
from .response import _defaults, _limit, halfplane_integrals_at_eps


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
    """

    branch_count: int
    full_grid: dict
    time_ordered: dict
    error_estimate: float = 0.0

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
    """All I_ij and T_i from the J_ij of halfplane_integrals_at_eps. Every
    diagonal pair is stationary, so T_i = J_ii is exact. Im T_i is relative
    to an inertial detector in the vacuum: the coincidence divergence dropped
    is the same for every branch, and cancels in T_i + conj(T_j), the only
    way T_i enters the density matrix. I_ij = J_ij + conj(J_ji) is exact for
    stationary pairs and extrapolated to eps -> 0 for the others (_limit).
    error_estimate is the largest bar of any entry.
    """
    reg_schedule, quad = _defaults(scenario, reg_schedule, quad)
    n = scenario.branch_count
    J = halfplane_integrals_at_eps(scenario, params, reg_schedule.epsilons, quad)
    full = {}
    worst = max(J[(i, i)][1].real + J[(i, i)][1].imag for i in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            (v_ij, e_ij), (v_ji, e_ji) = J[(i, j)], J[(j, i)]
            full[(i, j)], err, _ = _limit(reg_schedule, [(v_ij, e_ij.real),
                                                         (np.conj(v_ji), e_ji.real)], 1.0)
            worst = max(worst, err)
    ordered = {i: complex(J[(i, i)][0]) for i in range(1, n + 1)}
    return WightmanIntegrals(branch_count=n, full_grid=full, time_ordered=ordered,
                             error_estimate=float(worst))


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
    over the grid (about 1/2 on a full period).
    """
    if integrals.branch_count != 2:
        raise ValueError("visibility scan is defined for N = 2")
    norms = [conditional_density_matrix(integrals, ControlState(2, (0.0, float(dphi))),
                                        params).norm for dphi in phase_grid]
    t = integrals.time_ordered
    c = integrals.full_grid[(1, 2)] - t[2] - np.conj(t[1])
    return {"mean": float(np.mean(norms)),
            "amplitude": float(0.5 * params.lambda_coupling**2 * abs(c))}
