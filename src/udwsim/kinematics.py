"""Worldlines of the superposed detector branches and their causal geometry.

Natural units (c = hbar = k_B = 1) throughout. The metric signature is
(-,+,+,+). Every trajectory family lives in the t-z plane; x and y stay zero.

Each family is a tuple of branches (the family table, TrajectoryScenario.
branches). A branch is given in the null coordinates u = t - z, v = t + z as

    u = -z_c - a(tau),    v = z_c + b(tau),

with z_c its Rindler centre, and is one of two kinds:

accelerated (kappa > 0, direction d = +-1)
    a = e^{-k tau}/k, b = e^{k tau}/k with k = d kappa: the hyperbola
    z - z_c = d cosh(kappa tau)/kappa, t = sinh(kappa tau)/kappa, accelerating
    towards d z. Its future horizon is the null plane u = -z_c.
static (kappa = 0)
    a = -tau, b = tau: the line z = z_c, t = tau.

The response layer reads every branch-pair symmetry off these rows: z -> -z
maps a row to Branch.mirrored(), and every row obeys a(-tau) = b(tau), the
time reflection t -> -t.

Families
--------
SingleAccel
    One accelerated branch centred at 0: z = cosh(kappa tau)/kappa.
Parallel
    Two co-directed branches separated by L at closest approach,
    z_i = (cosh(kappa tau) - 1)/kappa +- L/2 (branch 1 is the right-most, +L/2),
    so z_c = +-L/2 - 1/kappa.
AntiParallel
    Branch 1 as in Parallel; branch 2 its mirror image, accelerating in -z:
    z_2 = -(cosh(kappa tau) - 1)/kappa - L/2. L may be negative (overlapping
    wedges).
Differing
    Two branches centred at 0, sharing their Rindler horizon, with different
    proper accelerations kappa1 and kappa2.
ThermalInertialPair
    Two static branches at z = +-L/2 immersed in a thermal bath.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Branch:
    """One row of the family table: an accelerated worldline (kappa > 0,
    direction +-1, Rindler centre z_c) or the static line z = z_c (kappa = 0).
    The methods but shift are vectorised and accept complex tau."""

    kappa: float
    direction: float
    z_c: float

    def null(self, tau):
        """(a, b, a', b') at tau: u = -z_c - a, v = z_c + b and their
        tau-derivatives u' = -a', v' = b'."""
        tau = np.asarray(tau)
        if self.kappa == 0.0:
            one = np.ones_like(tau)
            return -tau, tau, -one, one
        k = self.direction * self.kappa
        em, ep = np.exp(-k * tau), np.exp(k * tau)
        return em / k, ep / k, -em, ep

    def shift(self, delta: float) -> tuple:
        """(c_a, o_a, c_b, o_b) of the proper-time shift tau -> tau + delta,
        for one real delta: a(tau + delta) = c_a a(tau) + o_a and
        b(tau + delta) = c_b b(tau) + o_b, while a' and b' scale by c_a and
        c_b. An accelerated row is boosted about its Rindler centre,
        (e^{-k delta}, 0, e^{k delta}, 0); a static one is translated,
        (1, -delta, 1, delta). Either way c_a c_b = 1."""
        if self.kappa == 0.0:
            return 1.0, -delta, 1.0, delta
        k = self.direction * self.kappa
        return math.exp(-k * delta), 0.0, math.exp(k * delta), 0.0

    def a_inv(self, y):
        """tau with a(tau) = y; nan where y is outside the range of a."""
        if self.kappa == 0.0:
            return -np.asarray(y)
        k = self.direction * self.kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.log(k * np.asarray(y, dtype=float)) / k

    def b_inv(self, y):
        """tau with b(tau) = y; nan where y is outside the range of b."""
        if self.kappa == 0.0:
            return np.asarray(y)
        k = self.direction * self.kappa
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(k * np.asarray(y, dtype=float)) / k

    def mirrored(self) -> Branch:
        """The row's image under z -> -z, which swaps u and v: (kappa,
        -direction, -z_c). A static line keeps its direction."""
        d = self.direction if self.kappa == 0.0 else -self.direction
        return Branch(self.kappa, d, -self.z_c)


_TABLE = {
    "SingleAccel": lambda k1, k2, L: (Branch(k1, 1.0, 0.0),),
    "Parallel": lambda k1, k2, L: (Branch(k1, 1.0, L / 2 - 1.0 / k1),
                                   Branch(k1, 1.0, -L / 2 - 1.0 / k1)),
    "AntiParallel": lambda k1, k2, L: (Branch(k1, 1.0, L / 2 - 1.0 / k1),
                                       Branch(k1, -1.0, -(L / 2 - 1.0 / k1))),
    "Differing": lambda k1, k2, L: (Branch(k1, 1.0, 0.0), Branch(k2, 1.0, 0.0)),
    "ThermalInertialPair": lambda k1, k2, L: (Branch(0.0, 1.0, L / 2),
                                              Branch(0.0, 1.0, -L / 2)),
}

FAMILIES = tuple(_TABLE)


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
    ThermalInertialPair. A family refuses a nonzero value it does not read.
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
        elif self.kappa2 != 0.0:
            raise ValueError(f"{self.family} reads no kappa2 (only Differing does), "
                             f"got kappa2={self.kappa2:g}")
        if self.family in ("SingleAccel", "Differing") and self.L != 0.0:
            raise ValueError(f"{self.family} reads no separation L, got L={self.L:g}")
        if self.family == "Parallel" and self.L < 0:
            # parallel configurations are symmetric in L; normalize to L >= 0
            raise ValueError("Parallel requires L >= 0")
        if not math.isfinite(self.L):
            raise ValueError("L must be finite")

    @functools.cached_property
    def branches(self) -> tuple:
        """The family's row of the table: one Branch per superposed branch."""
        return _TABLE[self.family](self.kappa1, self.kappa2, self.L)

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def branch(self, branch: int) -> Branch:
        """The Branch of index 1 .. branch_count."""
        if not 1 <= branch <= self.branch_count:
            raise ValueError(
                f"branch {branch} out of range for {self.family} "
                f"(branch_count={self.branch_count})"
            )
        return self.branches[branch - 1]

    def branch_kappa(self, branch: int) -> float:
        """Proper acceleration of a branch (0 for static thermal branches)."""
        return self.branch(branch).kappa


def worldline_event(scenario: TrajectoryScenario, branch: int, tau: float) -> Event:
    """Event on the given branch's worldline at proper time tau:
    t = (b - a)/2, z = z_c + (a + b)/2."""
    br = scenario.branch(branch)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    a, b, _, _ = (float(x) for x in br.null(tau))
    return Event((b - a) / 2.0, 0.0, 0.0, br.z_c + (a + b) / 2.0)


def four_velocity(scenario: TrajectoryScenario, branch: int, tau: float) -> FourVector:
    """Analytic derivative of worldline_event; unit timelike."""
    br = scenario.branch(branch)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    _, _, da, db = (float(x) for x in br.null(tau))
    return FourVector((db - da) / 2.0, 0.0, 0.0, (da + db) / 2.0)


def minkowski_interval(e1: Event, e2: Event) -> float:
    """Squared interval -(dt)^2 + |dx|^2 between two events."""
    return (-(e1.t - e2.t) ** 2 + (e1.x - e2.x) ** 2
            + (e1.y - e2.y) ** 2 + (e1.z - e2.z) ** 2)


def horizon_crossing_time(scenario: TrajectoryScenario) -> list[float]:
    """Proper times at which one branch crosses the other's Rindler horizon.

    Branch 2 crosses the future horizon of branch 1, the null plane
    u = -z_c1, where u_2 = -z_c2 - a_2(tau) meets it: tau = a_2^{-1}(z_c1 - z_c2),
    that is tau = -ln(kappa L)/kappa for Parallel and ln(2 - kappa L)/kappa
    for AntiParallel. Returns the future-horizon crossing; by the time
    symmetry of the hyperbolic worldlines, a mirror crossing of the past
    horizon exists at the negated time. Empty list when the branches never
    cross (Parallel with L = 0; AntiParallel with kappa L >= 2).
    """
    if scenario.family not in ("Parallel", "AntiParallel"):
        raise ValueError(f"horizon crossings undefined for family {scenario.family!r}")
    b1, b2 = scenario.branches
    tau = float(b2.a_inv(b1.z_c - b2.z_c))
    return [tau] if math.isfinite(tau) else []
