"""The names the benchmark's tracer wraps must exist in the package.

bench/spans.py reassigns attributes of udwsim's modules to counting
wrappers and puts the originals back afterwards. A refactor that renames or
drops one of those names breaks the benchmark's trace mode; this test makes
it fail here instead. So does a refactor that routes work around the
wrappers, which would leave the tracer's counters at zero.
"""

import inspect
import sys
import warnings
from pathlib import Path

import pytest

import udwsim.cli
import udwsim.quadrature
from udwsim import DetectorParams, TrajectoryScenario, response

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return spans


def test_tracer_installs_and_restores_every_wrapped_attribute(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_tracer_counts_the_quadrature_layers(spans):
    # the tracer reads the mesh as the second positional argument
    assert list(inspect.signature(udwsim.quadrature.panel_integrate).parameters)[:2] == [
        "f", "edges"]
    sa = TrajectoryScenario("SingleAccel", kappa1=1.0)
    window = DetectorParams(omega=80.0, lambda_coupling=0.01, sigma=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        unit = DetectorParams(omega=1.0, lambda_coupling=1.0, sigma=1.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        response.excitation_probability_quadrature(sa, window)
        response.transition_rate(sa, unit, 0.0)
    finally:
        tracer.uninstall()
    for counter in ("quadrature.panel_calls", "quadrature.panels",
                    "quadrature.mesh_calls", "response.eps_rungs"):
        assert tracer.counts[counter] > 0, counter


@pytest.mark.parametrize("scenario, panel_calls", [
    (TrajectoryScenario("SingleAccel", kappa1=1.0), 0),
    (TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), 0),
], ids=["SingleAccel", "Parallel-kL1"])
def test_tracer_sees_only_the_ladder_pairs_of_a_rate(spans, scenario, panel_calls):
    # a stationary pair's rate is its closed-form spectrum, and each rung of
    # a cross pair of Parallel is two Lerch transcendents: no rate makes a
    # panel integral, and the tracer still sees the one ladder pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        unit = DetectorParams(omega=1.0, lambda_coupling=1.0, sigma=1.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        response.transition_rate(scenario, unit, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.counts["quadrature.panel_calls"] == panel_calls
    assert tracer.counts["response.eps_rungs"] == 1


def test_names_the_tracer_wraps_keep_their_signatures():
    # bench/spans.py reads these arguments by position
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(response._rate_at_eps) == ["scenario", "omega", "tau", "eps", "quad"]
    assert params(udwsim.cli.transition_rate) == params(response.transition_rate)
    assert params(udwsim.cli._eval_point) == ["task"]
    assert params(udwsim.cli._write_output) == ["path", "header", "rows",
                                               "json_mirror", "kind"]
