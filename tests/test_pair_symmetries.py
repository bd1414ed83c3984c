"""Branch-pair symmetries read off the family table.

The response layer integrates one representative of each class of branch
pairs with identical correlators (response._representatives). These tests
check that each class is an identity of the correlators, that every row obeys
the reflections the classes rest on, and that the classes are the
hand-written per-family alias tables they replaced, with two intended
changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udwsim import response
from udwsim.correlators import scenario_correlator
from udwsim.kinematics import TrajectoryScenario

SCENARIOS = {
    "SingleAccel": TrajectoryScenario("SingleAccel", kappa1=1.3),
    "Parallel": TrajectoryScenario("Parallel", kappa1=1.3, L=0.7),
    "Parallel-L0": TrajectoryScenario("Parallel", kappa1=1.3, L=0.0),
    "AntiParallel": TrajectoryScenario("AntiParallel", kappa1=1.3, L=0.7),
    "AntiParallel-L0": TrajectoryScenario("AntiParallel", kappa1=1.3, L=0.0),
    "AntiParallel-Lneg": TrajectoryScenario("AntiParallel", kappa1=1.3, L=-0.4),
    "Differing": TrajectoryScenario("Differing", kappa1=1.3, kappa2=0.6),
    "Differing-equal": TrajectoryScenario("Differing", kappa1=1.3, kappa2=1.3),
    "ThermalInertialPair": TrajectoryScenario("ThermalInertialPair", kappa1=1.3, L=0.7),
    "ThermalInertialPair-L0": TrajectoryScenario("ThermalInertialPair", kappa1=1.3),
}

ALL_TO_LOCAL = {(1, 2): (1, 1), (2, 1): (1, 1), (2, 2): (1, 1)}
MIRRORED = {(2, 1): (1, 2), (2, 2): (1, 1)}

# the per-family alias tables that the derivation replaced, written out for
# the scenarios above; a pair not listed is its own representative
REPLACED_RATE = {
    "SingleAccel": {},
    "Parallel": {(2, 2): (1, 1)},
    "Parallel-L0": ALL_TO_LOCAL,
    "AntiParallel": MIRRORED,
    "AntiParallel-L0": MIRRORED,
    "AntiParallel-Lneg": MIRRORED,
    "Differing": {},
    "Differing-equal": ALL_TO_LOCAL,
    "ThermalInertialPair": MIRRORED,
    "ThermalInertialPair-L0": MIRRORED,
}
REPLACED_WINDOW = {**REPLACED_RATE, "Parallel": MIRRORED}

# intended changes: time reflection also aliases Differing's cross pairs
# under the window, and coincident static rows alias every pair to the local
# one (the replaced table sent them to the thermal cross correlator, which
# raises at L = 0)
CHANGED_RATE = {"ThermalInertialPair-L0": ALL_TO_LOCAL}
CHANGED_WINDOW = {"Differing": {(2, 1): (1, 2)}, "ThermalInertialPair-L0": ALL_TO_LOCAL}


def all_pairs(scenario):
    n = scenario.branch_count
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


@pytest.mark.parametrize("window", [False, True], ids=["rate", "window"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_representatives_are_the_replaced_alias_tables(name, window):
    sc = SCENARIOS[name]
    replaced, changed = ((REPLACED_WINDOW, CHANGED_WINDOW) if window
                         else (REPLACED_RATE, CHANGED_RATE))
    table = {**replaced[name], **changed.get(name, {})}
    expected = {pair: table.get(pair, pair) for pair in all_pairs(sc)}
    assert response._representatives(sc, window) == expected


@pytest.mark.parametrize("window", [False, True], ids=["rate", "window"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_representatives_have_identical_correlators(name, window):
    sc = SCENARIOS[name]
    rng = np.random.default_rng(20)
    rate_reps = response._representatives(sc, False)
    for pair, rep in response._representatives(sc, window).items():
        for eps in rng.uniform(1e-3, 1e-1, 10):
            tau1, tau2 = rng.uniform(-3.0, 3.0, (2, 50))
            # a pair aliased only under the window is its representative
            # time-reflected: W^{ji}(p, s) = W^{ij}(-p, s)
            t1, t2 = (tau1, tau2) if rate_reps[pair] == rep else (-tau2, -tau1)
            w = scenario_correlator(sc, *pair)(tau1, tau2, eps)
            w_rep = scenario_correlator(sc, *rep)(t1, t2, eps)
            assert np.all(np.abs(w - w_rep) <= 1e-12 * np.abs(w_rep))


@st.composite
def rows(draw):
    family = draw(st.sampled_from(("SingleAccel", "Parallel", "AntiParallel",
                                   "Differing", "ThermalInertialPair")))
    kappa1 = draw(st.floats(0.2, 4.0))
    if family == "Differing":
        sc = TrajectoryScenario(family, kappa1=kappa1, kappa2=draw(st.floats(0.2, 4.0)))
    elif family == "SingleAccel":
        sc = TrajectoryScenario(family, kappa1=kappa1)
    elif family == "AntiParallel":
        sc = TrajectoryScenario(family, kappa1=kappa1, L=draw(st.floats(-3.0, 3.0)))
    else:
        sc = TrajectoryScenario(family, kappa1=kappa1, L=draw(st.floats(0.0, 3.0)))
    return draw(st.sampled_from(sc.branches))


@settings(max_examples=100, deadline=None)
@given(rows(), st.floats(-3.0, 3.0))
def test_rows_obey_time_and_space_reflection(row, tau):
    a, b, da, db = (complex(x) for x in row.null(tau))
    # t -> -t: a(-tau) = b(tau), so a'(-tau) = -b'(tau)
    ar, _, dar, _ = (complex(x) for x in row.null(-tau))
    assert ar == pytest.approx(b, rel=1e-15)
    assert dar == pytest.approx(-db, rel=1e-15)
    # z -> -z swaps u and v: the mirror row has a = -b, b = -a, z_c -> -z_c
    mirror = row.mirrored()
    am, bm, dam, dbm = (complex(x) for x in mirror.null(tau))
    assert (am, bm, dam, dbm) == pytest.approx((-b, -a, -db, -da), rel=1e-15)
    assert mirror.z_c == -row.z_c
    assert mirror.mirrored() == row
