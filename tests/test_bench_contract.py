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
