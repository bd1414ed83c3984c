"""Worldlines of the superposed detector branches and their causal geometry.

Natural units (c = hbar = k_B = 1) throughout. The metric signature is
(-,+,+,+). Every trajectory family lives in the t-z plane; x and y stay zero.

Families
--------
SingleAccel
    One uniformly accelerated branch, z = cosh(kappa tau)/kappa,
    t = sinh(kappa tau)/kappa.
Parallel
    Two co-directed uniformly accelerated branches separated by L at closest
    approach: z_i = (cosh(kappa tau) - 1)/kappa +- L/2 (branch 1 is the
    right-most, +L/2).
AntiParallel
    Branch 1 as in Parallel; branch 2 mirrored, accelerating in -z:
    z_2 = -(cosh(kappa tau) - 1)/kappa - L/2. L may be negative (overlapping
    wedges).
Differing
    Two branches sharing a common Rindler horizon with different proper
    accelerations: z_i = cosh(kappa_i tau)/kappa_i, t_i = sinh(kappa_i tau)/kappa_i.
ThermalInertialPair
    Two static branches at z = +-L/2 immersed in a thermal bath; t = tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FAMILIES = ("SingleAccel", "Parallel", "AntiParallel", "Differing", "ThermalInertialPair")


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x, y, z) in natural units."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"event component {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class FourVector:
    """Coordinate derivatives (dt/dtau, dx/dtau, dy/dtau, dz/dtau)."""

    t: float
    x: float
    y: float
    z: float

    def minkowski_norm(self) -> float:
        return -self.t**2 + self.x**2 + self.y**2 + self.z**2


@dataclass(frozen=True)
class TrajectoryScenario:
    """A classical trajectory superposition configuration.

    kappa1 is the proper acceleration of branch 1 (and the bath temperature
    scale kappa/2pi for ThermalInertialPair). kappa2 is used only by Differing.
    L is the closest-approach separation, used by Parallel, AntiParallel and
    ThermalInertialPair.
    """

    family: str
    kappa1: float = 1.0
    kappa2: float = field(default=0.0)
    L: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown trajectory family {self.family!r}")
        if not (self.kappa1 > 0) or not math.isfinite(self.kappa1):
            raise ValueError("kappa1 must be positive and finite")
        if self.family == "Differing":
            if not (self.kappa2 > 0) or not math.isfinite(self.kappa2):
                raise ValueError("Differing requires kappa2 > 0")
        if self.family == "Parallel" and self.L < 0:
            # parallel configurations are symmetric in L; normalize to L >= 0
            raise ValueError("Parallel requires L >= 0")
        if not math.isfinite(self.L):
            raise ValueError("L must be finite")

    @property
    def branch_count(self) -> int:
        return 1 if self.family == "SingleAccel" else 2

    def branch_kappa(self, branch: int) -> float:
        """Proper acceleration of a branch (0 for static thermal branches)."""
        self._check_branch(branch)
        if self.family == "Differing":
            return self.kappa1 if branch == 1 else self.kappa2
        if self.family == "ThermalInertialPair":
            return 0.0
        return self.kappa1

    def _check_branch(self, branch: int):
        if not 1 <= branch <= self.branch_count:
            raise ValueError(
                f"branch {branch} out of range for {self.family} "
                f"(branch_count={self.branch_count})"
            )


def worldline_event(scenario: TrajectoryScenario, branch: int, tau: float) -> Event:
    """Event on the given branch's worldline at proper time tau."""
    scenario._check_branch(branch)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    k = scenario.kappa1
    fam = scenario.family
    if fam == "SingleAccel":
        return Event(math.sinh(k * tau) / k, 0.0, 0.0, math.cosh(k * tau) / k)
    if fam == "Parallel":
        off = scenario.L / 2 if branch == 1 else -scenario.L / 2
        return Event(math.sinh(k * tau) / k, 0.0, 0.0, (math.cosh(k * tau) - 1.0) / k + off)
    if fam == "AntiParallel":
        if branch == 1:
            return Event(math.sinh(k * tau) / k, 0.0, 0.0,
                         (math.cosh(k * tau) - 1.0) / k + scenario.L / 2)
        return Event(math.sinh(k * tau) / k, 0.0, 0.0,
                     -(math.cosh(k * tau) - 1.0) / k - scenario.L / 2)
    if fam == "Differing":
        ki = scenario.branch_kappa(branch)
        return Event(math.sinh(ki * tau) / ki, 0.0, 0.0, math.cosh(ki * tau) / ki)
    # ThermalInertialPair
    off = scenario.L / 2 if branch == 1 else -scenario.L / 2
    return Event(tau, 0.0, 0.0, off)


def four_velocity(scenario: TrajectoryScenario, branch: int, tau: float) -> FourVector:
    """Analytic derivative of worldline_event; unit timelike."""
    scenario._check_branch(branch)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    fam = scenario.family
    if fam == "ThermalInertialPair":
        return FourVector(1.0, 0.0, 0.0, 0.0)
    k = scenario.branch_kappa(branch) if fam == "Differing" else scenario.kappa1
    zdot = math.sinh(k * tau)
    if fam == "AntiParallel" and branch == 2:
        zdot = -zdot
    return FourVector(math.cosh(k * tau), 0.0, 0.0, zdot)


def minkowski_interval(e1: Event, e2: Event) -> float:
    """Squared interval -(dt)^2 + |dx|^2 between two events."""
    return (-(e1.t - e2.t) ** 2 + (e1.x - e2.x) ** 2
            + (e1.y - e2.y) ** 2 + (e1.z - e2.z) ** 2)


def horizon_crossing_time(scenario: TrajectoryScenario) -> list[float]:
    """Proper times at which one branch crosses the other's Rindler horizon.

    Branch 2 crosses the future horizon of branch 1, the null plane
    z - t = L/2 - 1/kappa, where its gap to that plane, a single exponential
    in tau, vanishes: e^{-kappa tau}/kappa = L for Parallel, so
    tau = -ln(kappa L)/kappa, and e^{kappa tau}/kappa = 2/kappa - L for
    AntiParallel, so tau = ln(2 - kappa L)/kappa. Returns the future-horizon
    crossing; by the
    time symmetry of the hyperbolic worldlines, a mirror crossing of the past
    horizon exists at the negated time. Empty list when the branches never
    cross (Parallel with L = 0; AntiParallel with kappa L >= 2).
    """
    if scenario.family not in ("Parallel", "AntiParallel"):
        raise ValueError(f"horizon crossings undefined for family {scenario.family!r}")
    k, L = scenario.kappa1, scenario.L
    if scenario.family == "Parallel":
        return [-math.log(k * L) / k] if L > 0 else []
    return [math.log(2.0 - k * L) / k] if k * L < 2.0 else []
