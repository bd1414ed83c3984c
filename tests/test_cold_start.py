"""What a udwsim process loads: no scipy module is on the import path, not
even scipy's top-level package (the CLI imports it for the version in its
headers when it writes one); scipy.optimize and scipy.special stay off the
rate and closed-form paths too, which never call them, and so does the
process pool (concurrent.futures.process), which only a probability map on
the regulator ladder starts. Each check runs in a fresh interpreter, so
that no other test's imports count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import udwsim

SCRIPT = """
import json, sys

def loaded():
    return [m for m in ("scipy.optimize", "scipy.special", "concurrent.futures.process")
            if m in sys.modules]

seen = {}
import udwsim, udwsim.cli
seen["import"] = loaded()
seen["scipy at import"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from udwsim import DetectorParams, TrajectoryScenario, p_parallel, transition_rates
transition_rates(TrajectoryScenario("Parallel", kappa1=1.0, L=1.0), [-1.0, 0.5, 2.0], 0.3)
seen["rate row"] = loaded()
import tempfile
from udwsim.config import validate_config
with tempfile.TemporaryDirectory() as out:
    udwsim.cli.run_scenario(validate_config(
        "scenario:\\n  family: Parallel\\n  L: 1.0\\n"
        "grids:\\n  omega_over_kappa: [-1.0, 1.0]\\n  kappa_tau: [0.0, 1.0]\\n"
        "outputs:\\n  - kind: rate_map\\n    path: r.csv\\n"
        "  - kind: kms_report\\n    path: k.csv\\n"), out_dir=out, workers=2)
seen["cli rate rows, --workers 2"] = loaded()
p_parallel(DetectorParams(omega=80.0, lambda_coupling=0.01, sigma=0.05), 1.0, 1.0)
seen["closed form"] = loaded()
from udwsim import excitation_probability_quadrature
excitation_probability_quadrature(TrajectoryScenario("SingleAccel"),
                                  DetectorParams(omega=2.0, lambda_coupling=0.01, sigma=1.0))
seen["windowed stationary pair"] = loaded()
print(json.dumps(seen))
"""


def test_rate_and_closed_form_paths_load_no_scipy_submodule():
    src = str(Path(udwsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out.splitlines()[-1])
    assert seen["scipy at import"] == []
    assert seen["import"] == seen["rate row"] == seen["cli rate rows, --workers 2"] \
        == seen["closed form"] == []
    # the first windowed stationary pair is where scipy.special loads
    assert seen["windowed stationary pair"] == ["scipy.special"]
