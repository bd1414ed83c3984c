"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

The oracle tests take a few seconds. The traced-run tests run every workload
twice with --trace 1 at seed 0 (about six minutes on two cores): traced and
untraced outputs must agree bit for bit, every counter must repeat exactly,
and the panel_integrate counts must equal direct measurements.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402

SIGMA, OMEGA = workloads.SIGMA, workloads.OMEGA

# panel_integrate calls per seed-0 point, and correlator evaluations for one,
# counted by instrumenting the seed code directly
PANEL_CALLS = {"single_ks005": 8052, "single_ks001": 7788, "thermal_kl1": 16104,
               "parallel_kl1": 24156, "differing_r05": 31680}
EVALS = {"single_ks005": 14166944}


def test_planck_oracle_reproduces_cli_reference():
    sys.path.insert(0, str(ROOT / "src"))
    from udwsim.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", "planck", "--omega", "1", "--kappa", "1"]) == 0
    assert float(out.getvalue()) == 0.00029776880788837915
    assert oracles.planck_rate(1.0, 1.0) == pytest.approx(0.00029776880788837915, rel=1e-15)


def test_planck_oracle_is_continuous_at_zero_gap():
    assert oracles.planck_rate(2.0, 1e-12) == pytest.approx(oracles.planck_rate(2.0, 0.0),
                                                            rel=1e-9)


@pytest.mark.parametrize("kappa, exact", [(1.0, 2.60768783411e-10),
                                          (0.2, 2.57157650623e-10)])
def test_probability_oracle_values(kappa, exact):
    p30 = oracles.single_branch_probability(kappa, SIGMA, OMEGA)
    p60 = oracles.single_branch_probability(kappa, SIGMA, OMEGA, digits=60)
    assert p30 == pytest.approx(exact, rel=5e-12)
    assert p30 == pytest.approx(p60, rel=1e-13)


def test_probability_oracle_tends_to_inertial_value():
    inertial = oracles.inertial_probability(SIGMA, OMEGA)
    assert oracles.single_branch_probability(1e-8, SIGMA, OMEGA) == pytest.approx(
        inertial, rel=1e-12)


def test_seed_zero_is_the_reference_points():
    spec = workloads.build("prob_cross", 0)
    assert spec["ops"][0]["oracle_kappas"] == [1.0, 0.5]
    assert "grids" not in workloads.build("rate_sweep", 0)["configs"]["cli_single"]
    assert workloads.build("rate_sweep", 7) == workloads.build("rate_sweep", 7)
    assert workloads.build("rate_sweep", 7) != workloads.build("rate_sweep", 8)


def _traced(workload: str):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return [line for line in lines if line.startswith("check failed")], json.loads(lines[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request):
    return request.param, _traced(request.param), _traced(request.param)


def test_traced_outputs_equal_untraced(traced_twice):
    _, (failures, result), _ = traced_twice
    assert failures == []
    assert result["correct"]


def test_counters_repeat_exactly(traced_twice):
    _, (_, first), (_, second) = traced_twice
    counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "1")}
    assert counts
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_panel_counts_match_direct_measurement(traced_twice):
    workload, (_, result), _ = traced_twice
    names = {op["name"] for op in workloads.build(workload, 0)["ops"]}
    metrics = result["metrics"]
    for point, calls in PANEL_CALLS.items():
        assert metrics[f"quadrature.panel_calls.{point}"]["value"] == (
            calls if point in names else 0)
    for point, evals in EVALS.items():
        if point in names:
            assert metrics[f"correlators.evals.{point}"]["value"] == evals
