"""A rate table is one array pass, and each of its values is the value alone.

lerch evaluates the grid of its distinct arguments with separable sums, so
these tests check bit for bit that a Lerch value does not depend on the grid
it is evaluated in, and that each row of rate_table is the one-row call
(transition_rates) at its tau, including next to rows that fail.
"""

import math
import warnings

import numpy as np
import pytest

from udwsim import (ConvergenceError, HyperbolicRangeError, QuadratureConfig, TrajectoryScenario,
                    rate_table, transition_rates)
from udwsim import lerch as lerch_module
from udwsim import response
from udwsim.lerch import lerch

METHODS = ("_plain_series", "_pfaff_series", "_log_series", "_continued_fraction", "_q")
XS = np.array([0.0, 1e-3, -0.3, 2.0, -6.0, 20.0])
# per method, z inside the unit disk and their reflections 1/z outside it:
# the plain series, Pfaff's transformation, the log series about z = 1 (at
# |x| <= 2/|1 - z|; the continued fraction past that) with 22 and 60 of its
# 66 terms, and the continued fraction near e^{i pi/3}
INSIDE = (0.3 + 0.1j, -0.9 + 0.2j, 0.97 + 0.02j, 0.55 + 0.1j,
          0.9 * complex(math.cos(1.05), math.sin(1.05)))
ZS = np.array(INSIDE + tuple(1.0 / z for z in INSIDE))


def bits(value, size):
    return np.asarray(value).tobytes() + np.asarray(size).tobytes()


def test_lerch_value_is_the_same_alone_and_in_any_grid(monkeypatch):
    used = set()
    for name in METHODS:
        def spy(*args, _name=name, _fn=getattr(lerch_module, name)):
            used.add(_name)
            return _fn(*args)
        monkeypatch.setattr(lerch_module, name, spy)
    value, size = lerch(XS[:, None], ZS[None, :])
    assert used == set(METHODS)
    assert value.shape == size.shape == (XS.size, ZS.size)
    for a, x in enumerate(XS):
        for b, z in enumerate(ZS):
            assert bits(*lerch(x, z)) == bits(value[a, b], size[a, b]), (x, z)
    # a sub-grid, the transposed grid, and scattered points give the same bits
    rng = np.random.default_rng(7)
    rows, cols = rng.choice(XS.size, 3, replace=False), rng.choice(ZS.size, 5, replace=False)
    sub = lerch(XS[rows][:, None], ZS[cols][None, :])
    assert bits(*sub) == bits(value[np.ix_(rows, cols)], size[np.ix_(rows, cols)])
    flipped = lerch(XS[None, :], ZS[:, None])
    assert bits(*flipped) == bits(value.T.copy(), size.T.copy())
    a, b = rng.integers(0, XS.size, 40), rng.integers(0, ZS.size, 40)
    assert bits(*lerch(XS[a], ZS[b])) == bits(value[a, b], size[a, b])


def test_lerch_of_no_points_is_empty():
    value, size = lerch(np.zeros(0), np.zeros((3, 1), dtype=complex))
    assert value.shape == size.shape == (3, 0)


# --- rate_table -----------------------------------------------------------------

GAPS = (-2.6, -0.9, 0.0, 0.9, 2.6)
FAMILIES = [
    TrajectoryScenario("SingleAccel", kappa1=1.0),
    TrajectoryScenario("Parallel", kappa1=1.0, L=1.0),
    TrajectoryScenario("AntiParallel", kappa1=1.0, L=1.0),
    TrajectoryScenario("Differing", kappa1=1.0, kappa2=0.5),
    TrajectoryScenario("ThermalInertialPair", kappa1=1.0, L=1.0),
]
# Parallel kappa L = 2 at kappa tau = 0: pair (2,1) has BC - AD = 0, so its
# rungs are NaN
DEGENERATE = TrajectoryScenario("Parallel", kappa1=1.0, L=2.0)


def exact(row):
    """A row of RateResults, every float as its bits."""
    return [(r.value.hex(), r.error_estimate.hex(),
             tuple((e.hex(), v.hex()) for e, v in r.epsilon_estimates), r.cross_pair_methods)
            for r in row]


def one_gap(scenario, omega, tau, quad=None):
    """transition_rates at one gap and tau: its RateResult, or the point
    error it raises."""
    try:
        return transition_rates(scenario, [omega], tau, quad=quad)[0]
    except (HyperbolicRangeError, ConvergenceError) as exc:
        return exc


def assert_same_error(error, alone):
    assert isinstance(error, (HyperbolicRangeError, ConvergenceError))
    assert type(error) is type(alone) and str(error) == str(alone)


@pytest.mark.parametrize("scenario", FAMILIES + [DEGENERATE],
                         ids=[sc.family for sc in FAMILIES] + ["Parallel-degenerate"])
def test_each_row_is_the_one_row_call(scenario):
    # kappa tau = 400 leaves the hyperbolic range wherever a cross pair is not
    # stationary, and the degenerate row's rungs are not finite: each point
    # of those rows is its one-gap call's error, and every other row is its
    # one-row call bit for bit
    taus = (-1.5, 0.0, 0.7, 400.0, 2.0)
    with warnings.catch_warnings():
        # no arithmetic warning; a ladder that is not monotone may warn
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "regulator ladder values", RuntimeWarning)
        table = rate_table(scenario, GAPS, taus)
        stationary = scenario.family in ("SingleAccel", "ThermalInertialPair")
        assert len(table) == len(taus)
        for tau, row in zip(taus, table):
            assert len(row) == len(GAPS)
            if (tau == 400.0 and not stationary) or (tau == 0.0 and scenario is DEGENERATE):
                for omega, error in zip(GAPS, row):
                    assert isinstance(error, HyperbolicRangeError if tau == 400.0
                                      else ConvergenceError)
                    assert_same_error(error, one_gap(scenario, omega, tau))
                if tau == 0.0:
                    assert all("branch pair (2,1)" in str(error) for error in row)
            else:
                assert exact(row) == exact(transition_rates(scenario, GAPS, tau)), tau
    if stationary:
        # a stationary rate does not depend on tau
        assert all(exact(row) == exact(table[0]) for row in table)


@pytest.mark.filterwarnings("ignore:regulator ladder values:RuntimeWarning")
def test_a_row_that_fails_at_some_gaps_keeps_the_others():
    # Parallel kappa L = 1 at kappa tau = 0.7: each gap's largest rounding
    # ratio err/|J| over its pairs and rungs differs, so a rel_tol between
    # the second and third smallest passes two gaps and fails three
    scenario, tau = FAMILIES[1], 0.7
    sched, quad = response._defaults(scenario, None, None)
    blocks = response._rate_at_eps(scenario, np.array(GAPS), tau, sched.epsilons, quad)
    ratio = np.max([np.max(e / np.abs(v), axis=-1)
                    for m, v, e in blocks.values() if m == "lerch"], axis=0)
    lo, hi = np.sort(ratio)[1:3]
    assert lo < hi
    split = QuadratureConfig(abs_tol=1e-30, rel_tol=math.sqrt(lo * hi))
    (row,) = rate_table(scenario, GAPS, [tau], quad=split)
    passing = ratio <= split.rel_tol
    assert passing.sum() == 2
    for omega, rate, ok in zip(GAPS, row, passing):
        alone = one_gap(scenario, omega, tau, split)
        if ok:
            assert exact([rate]) == exact([alone])
        else:
            assert_same_error(rate, alone)
    # the one-row call raises its first failing gap's error
    first = next(rate for rate in row if isinstance(rate, ConvergenceError))
    with pytest.raises(ConvergenceError) as exc:
        transition_rates(scenario, GAPS, tau, quad=split)
    assert str(exc.value) == str(first)


def test_degenerate_pair_is_a_convergence_error_not_a_nan_rate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"\(2,1\) at omega = 0\.5 did not converge"):
            transition_rates(DEGENERATE, [0.5], 0.0)


def test_rate_table_of_no_gaps_has_empty_rows():
    assert rate_table(FAMILIES[1], [], [0.0, 1.0]) == [[], []]


@pytest.mark.parametrize("taus", [0.5, [[0.5]], [0.5, math.nan], [math.inf]],
                         ids=["bare_float", "2d", "nan", "inf"])
def test_rate_table_refuses_taus_that_are_not_finite_times(taus):
    with pytest.raises(ValueError, match="^taus must be"):
        rate_table(FAMILIES[1], GAPS, taus)


@pytest.mark.filterwarnings("ignore:regulator ladder values:RuntimeWarning")
def test_rows_taken_in_several_passes_are_the_same(monkeypatch):
    # a pass of one row at a time gives the same bits as one pass for all
    taus = (-1.5, 0.0, 0.7, 400.0, 2.0)
    whole = rate_table(FAMILIES[1], GAPS, taus)
    calls = []
    rate_at_eps = response._rate_at_eps
    monkeypatch.setattr(response, "_rate_at_eps",
                        lambda *args: calls.append(args[2].size) or rate_at_eps(*args))
    monkeypatch.setattr(response, "_PASS_POINTS", 1)
    sliced = rate_table(FAMILIES[1], GAPS, taus)
    assert calls == [1, 1, 1, 1]
    for row, alone in zip(whole, sliced):
        assert len(row) == len(alone) == len(GAPS)
        for rate, rate_alone in zip(row, alone):
            if isinstance(rate, Exception):
                assert_same_error(rate, rate_alone)
            else:
                assert exact([rate]) == exact([rate_alone])
