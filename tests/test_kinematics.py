"""Worldline geometry: events, velocities, intervals, horizon crossings."""

import math

import numpy as np
import pytest

from udwsim import (
    Event,
    FourVector,
    TrajectoryScenario,
    four_velocity,
    horizon_crossing_time,
    minkowski_interval,
    worldline_event,
)
from udwsim.kinematics import Branch

ALL_FAMILIES = ("SingleAccel", "Parallel", "AntiParallel", "Differing",
                "ThermalInertialPair")


def make(family, kappa1=1.0, kappa2=0.5, L=1.0):
    if family == "SingleAccel":
        return TrajectoryScenario(family, kappa1=kappa1)
    if family == "Differing":
        return TrajectoryScenario(family, kappa1=kappa1, kappa2=kappa2)
    return TrajectoryScenario(family, kappa1=kappa1, L=L)


def test_scenario_validation():
    with pytest.raises(ValueError):
        TrajectoryScenario("Spiral")
    with pytest.raises(ValueError):
        TrajectoryScenario("SingleAccel", kappa1=0.0)
    with pytest.raises(ValueError):
        TrajectoryScenario("SingleAccel", kappa1=math.inf)
    with pytest.raises(ValueError):
        TrajectoryScenario("Differing", kappa1=1.0)  # needs kappa2 > 0
    with pytest.raises(ValueError):
        TrajectoryScenario("Parallel", kappa1=1.0, L=-0.5)
    with pytest.raises(ValueError):
        TrajectoryScenario("Parallel", kappa1=1.0, L=math.nan)
    # AntiParallel admits negative L (overlapping wedges)
    TrajectoryScenario("AntiParallel", kappa1=1.0, L=-1.0)


@pytest.mark.parametrize("family, fields, message", [
    ("SingleAccel", {"kappa2": -7.0}, "SingleAccel reads no kappa2"),
    ("Parallel", {"kappa2": 0.5, "L": 1.0}, "Parallel reads no kappa2"),
    ("AntiParallel", {"kappa2": 0.5}, "AntiParallel reads no kappa2"),
    ("ThermalInertialPair", {"kappa2": 2.0, "L": 1.0}, "ThermalInertialPair reads no kappa2"),
    ("SingleAccel", {"L": 3.0}, "SingleAccel reads no separation L"),
    ("Differing", {"kappa2": 0.5, "L": 1.0}, "Differing reads no separation L"),
    ("SingleAccel", {"L": math.nan}, "SingleAccel reads no separation L"),
])
def test_scenario_refuses_fields_its_family_ignores(family, fields, message):
    # a value no branch reads would still be written to every header
    with pytest.raises(ValueError, match=message):
        TrajectoryScenario(family, kappa1=1.0, **fields)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_scenario_accepts_zero_defaults_of_ignored_fields(family):
    kappa2 = 0.5 if family == "Differing" else 0.0
    sc = TrajectoryScenario(family, kappa1=1.0, kappa2=kappa2, L=0.0)
    assert sc.branches == make(family, kappa2=0.5, L=0.0).branches


def test_branch_count_and_kappa():
    assert make("SingleAccel").branch_count == 1
    for fam in ("Parallel", "AntiParallel", "Differing", "ThermalInertialPair"):
        assert make(fam).branch_count == 2
    d = make("Differing", kappa1=2.0, kappa2=0.25)
    assert d.branch_kappa(1) == 2.0
    assert d.branch_kappa(2) == 0.25
    assert make("ThermalInertialPair").branch_kappa(2) == 0.0
    assert make("Parallel", kappa1=3.0).branch_kappa(2) == 3.0
    with pytest.raises(ValueError):
        make("SingleAccel").branch_kappa(2)
    with pytest.raises(ValueError):
        make("Parallel").branch_kappa(0)


def test_single_accel_worldline():
    sc = make("SingleAccel", kappa1=2.0)
    e = worldline_event(sc, 1, 0.0)
    assert e.t == 0.0 and e.z == 0.5
    e = worldline_event(sc, 1, 0.3)
    assert e.t == pytest.approx(math.sinh(0.6) / 2.0)
    assert e.z == pytest.approx(math.cosh(0.6) / 2.0)
    # hyperbola invariant z^2 - t^2 = 1/kappa^2
    assert e.z**2 - e.t**2 == pytest.approx(0.25, rel=1e-14)


def test_parallel_worldlines_share_velocity():
    sc = make("Parallel", L=0.8)
    for tau in (-1.5, 0.0, 2.0):
        e1 = worldline_event(sc, 1, tau)
        e2 = worldline_event(sc, 2, tau)
        # rigid separation L along z at equal tau
        assert e1.t == e2.t
        assert e1.z - e2.z == pytest.approx(0.8, rel=1e-14)
        u1 = four_velocity(sc, 1, tau)
        u2 = four_velocity(sc, 2, tau)
        assert u1 == u2


def test_parallel_closest_approach_at_origin():
    # branches pass z = +-L/2 at tau = 0 (closest approach)
    sc = make("Parallel", L=2.0)
    assert worldline_event(sc, 1, 0.0).z == pytest.approx(1.0)
    assert worldline_event(sc, 2, 0.0).z == pytest.approx(-1.0)


def test_antiparallel_mirror_symmetry():
    sc = make("AntiParallel", L=0.6)
    for tau in (-1.0, 0.25, 3.0):
        e1 = worldline_event(sc, 1, tau)
        e2 = worldline_event(sc, 2, tau)
        assert e1.t == e2.t
        assert e1.z == pytest.approx(-e2.z, rel=1e-14)
        u1 = four_velocity(sc, 1, tau)
        u2 = four_velocity(sc, 2, tau)
        assert u1.z == pytest.approx(-u2.z, rel=1e-14)
        assert u1.t == u2.t


def test_differing_worldlines():
    sc = make("Differing", kappa1=1.0, kappa2=0.5)
    e1 = worldline_event(sc, 1, 0.0)
    e2 = worldline_event(sc, 2, 0.0)
    assert e1.z == pytest.approx(1.0)
    assert e2.z == pytest.approx(2.0)
    # both hug the same horizon z = |t|: z^2 - t^2 = 1/kappa_i^2
    e = worldline_event(sc, 2, 4.0)
    assert e.z**2 - e.t**2 == pytest.approx(4.0, rel=1e-10)


def test_thermal_pair_static():
    sc = make("ThermalInertialPair", L=3.0)
    e = worldline_event(sc, 1, 5.0)
    assert (e.t, e.z) == (5.0, 1.5)
    e = worldline_event(sc, 2, -2.0)
    assert (e.t, e.z) == (-2.0, -1.5)
    u = four_velocity(sc, 2, 7.0)
    assert (u.t, u.x, u.y, u.z) == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_four_velocity_is_unit_timelike(family):
    sc = make(family)
    for branch in range(1, sc.branch_count + 1):
        for tau in (-2.0, -0.1, 0.0, 1.7):
            u = four_velocity(sc, branch, tau)
            assert u.minkowski_norm() == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("family", ("SingleAccel", "Parallel", "AntiParallel",
                                    "Differing"))
def test_four_velocity_matches_finite_difference(family):
    sc = make(family)
    h = 1e-6
    for branch in range(1, sc.branch_count + 1):
        for tau in (-0.8, 0.4):
            ep = worldline_event(sc, branch, tau + h)
            em = worldline_event(sc, branch, tau - h)
            u = four_velocity(sc, branch, tau)
            assert (ep.t - em.t) / (2 * h) == pytest.approx(u.t, rel=1e-8)
            assert (ep.z - em.z) / (2 * h) == pytest.approx(u.z, rel=1e-8, abs=1e-8)


def test_minkowski_interval_signature():
    # timelike interval is negative in the (-,+,+,+) convention
    assert minkowski_interval(Event(1.0, 0, 0, 0), Event(0.0, 0, 0, 0)) == -1.0
    assert minkowski_interval(Event(0, 0, 0, 0), Event(0, 0.0, 0, 2.0)) == 4.0
    a = Event(1.0, 0.5, -0.25, 2.0)
    assert minkowski_interval(a, a) == 0.0
    assert FourVector(1.0, 0.0, 0.0, 0.0).minkowski_norm() == -1.0


def test_interval_along_single_worldline():
    # proper-time separation s gives interval -(2/k)^2 sinh^2(ks/2)
    sc = make("SingleAccel", kappa1=1.3)
    s = 0.9
    e1 = worldline_event(sc, 1, s)
    e2 = worldline_event(sc, 1, 0.0)
    expected = -(2.0 / 1.3) ** 2 * math.sinh(1.3 * s / 2.0) ** 2
    assert minkowski_interval(e1, e2) == pytest.approx(expected, rel=1e-12)


def test_event_and_velocity_validation():
    sc = make("Parallel")
    with pytest.raises(ValueError):
        worldline_event(sc, 3, 0.0)
    with pytest.raises(ValueError):
        worldline_event(sc, 1, math.inf)
    with pytest.raises(ValueError):
        four_velocity(sc, 0, 0.0)
    with pytest.raises(ValueError):
        Event(math.nan, 0, 0, 0)


# --- horizon crossings ------------------------------------------------------

def test_horizon_crossing_parallel():
    # branch 2 crosses branch 1's horizon when e^{-k tau} = k L
    sc = make("Parallel", L=0.2)
    (t,) = horizon_crossing_time(sc)
    assert t == pytest.approx(-math.log(0.2), abs=1e-9)
    assert t == pytest.approx(1.609437912, abs=1e-8)


def test_horizon_crossing_parallel_coincident():
    assert horizon_crossing_time(make("Parallel", L=0.0)) == []


def test_horizon_crossing_antiparallel():
    # crossing when e^{k tau} = 2 - k L
    sc = make("AntiParallel", L=0.9)
    (t,) = horizon_crossing_time(sc)
    assert t == pytest.approx(math.log(1.1), abs=1e-9)
    assert t == pytest.approx(0.09531018, abs=1e-8)


def test_horizon_crossing_antiparallel_disjoint_wedges():
    # kappa L >= 2: the wedges never connect
    assert horizon_crossing_time(make("AntiParallel", L=2.0)) == []
    assert horizon_crossing_time(make("AntiParallel", L=3.0)) == []


def test_horizon_crossing_scales_with_kappa():
    sc = make("Parallel", kappa1=4.0, L=0.05)
    (t,) = horizon_crossing_time(sc)
    assert t == pytest.approx(-math.log(4.0 * 0.05) / 4.0, abs=1e-9)


def test_horizon_crossing_undefined_families():
    for fam in ("SingleAccel", "Differing", "ThermalInertialPair"):
        with pytest.raises(ValueError):
            horizon_crossing_time(make(fam))


@pytest.mark.parametrize("row", [Branch(1.0, 1.0, -0.5), Branch(0.7, -1.0, 0.2),
                                 Branch(0.0, 1.0, 0.5)],
                         ids=["accelerated", "accelerated-mirrored", "static"])
@pytest.mark.parametrize("delta", [-1.3, -0.05, 0.0, 0.4, 2.1])
def test_branch_shift_is_the_null_data_at_the_shifted_time(row, delta):
    # a(tau + delta) = c_a a(tau) + o_a, b likewise, a' and b' scaled: to a
    # few ulps where |kappa (tau + delta)| stays small (the rounding of
    # tau + delta is amplified by it in e^{k (tau + delta)}), and exactly for
    # a static row
    tau = np.linspace(-1.0, 1.0, 41)
    c_a, o_a, c_b, o_b = row.shift(delta)
    a, b, da, db = row.null(tau)
    shifted = (c_a * a + o_a, c_b * b + o_b, c_a * da, c_b * db)
    for got, want in zip(shifted, row.null(tau + delta), strict=True):
        if row.kappa == 0.0:
            assert np.array_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * np.abs(want))
    assert c_a * c_b == pytest.approx(1.0, rel=4.0 * np.finfo(float).eps, abs=0.0)
