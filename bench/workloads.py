"""Workload inputs, generated from a seed.

Seed 0 is exactly the reference points. Any other seed moves each physical
parameter (kappa sigma, kappa L, kappa2/kappa1) by a factor drawn from
[1 - JITTER, 1 + JITTER], and shifts every CLI grid by a fraction of its step
drawn from [0, GRID_SHIFT). The package only ever sees the generated inputs:
every operation's input is a YAML config that udwsim validates.

Why these workloads:

rate_sweep       the figure-making path: `udwsim run` on the default 20x20
                 grids. It uses the 1-D rate integrals, the lightcone-root
                 scans and closed_form, and never the 2-D windowed integral.
rate_sweep_w2    the same runs, on the same inputs for a given seed, with
                 --workers 2: adds the CLI process pool.
prob_stationary  excitation_probability_quadrature on points where every
                 branch pair is stationary: the 2-D engine with almost no
                 lightcone roots.
prob_cross       windowed points dominated by non-stationary cross pairs,
                 which have lightcone roots on every p-cut: Parallel at
                 kappa L = 1, and Differing through compute_wightman_integrals
                 and visibility_scan. AntiParallel at kappa L = 1 would fit
                 here too, but its ~10 s per run (2 cores at 2.1 GHz) does
                 not fit the time budget of the runs.
"""

from __future__ import annotations

import random

WORKLOADS = ("rate_sweep", "rate_sweep_w2", "prob_stationary", "prob_cross")

# every windowed point has sigma omega = 4 at sigma = 0.05; kappa = 1 is
# kappa sigma = 0.05 and kappa = 0.2 is kappa sigma = 0.01
SIGMA = 0.05
OMEGA = 80.0

JITTER = 0.02
GRID_SHIFT = 0.25

# the default 20-point axes of udwsim.config
_AXES = {
    "omega_over_kappa": (-3.0, 3.0),
    "kappa_tau": (-4.0, 4.0),
    "L_over_sigma": (0.0, 40.0),
    "kappa_sigma2_omega": (0.05, 0.5),
}
_AXIS_POINTS = 20


def _num(v: float) -> str:
    return repr(float(v))


def _shifted_grids(rng: random.Random, names) -> str:
    lines = ["grids:"]
    for name in names:
        a, b = _AXES[name]
        step = (b - a) / (_AXIS_POINTS - 1)
        shift = rng.uniform(0.0, GRID_SHIFT) * step
        values = ", ".join(_num(a + step * k + shift) for k in range(_AXIS_POINTS))
        lines.append(f"  {name}: [{values}]")
    return "\n".join(lines) + "\n"


def _cli_config(scenario: str, outputs: str, grids: str) -> str:
    return f"scenario:\n{scenario}{grids}outputs:\n{outputs}"


def _point_config(family: str, **scenario) -> str:
    fields = "".join(f"  {k}: {_num(v)}\n" for k, v in scenario.items())
    return (f"scenario:\n  family: {family}\n{fields}"
            f"params:\n  omega: {_num(OMEGA)}\n  lambda_coupling: 1.0\n"
            f"  sigma: {_num(SIGMA)}\n")


def build(workload: str, seed: int) -> dict:
    """The workload's configs and operations for one seed.

    Returns {"workload", "seed", "configs": {name: yaml}, "ops": [...],
    "workers", "min_passes", "sigma", "omega"}; "workers" is the CLI's
    --workers and "min_passes" the fewest timed passes a run makes. Each op
    names its config (by its own name) and its kind; where exact oracles
    exist it lists the accelerations they need: "planck_kappa" for a CLI
    rate map, "oracle_kappas" for a windowed point (one per diagonal entry,
    in branch order).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    cli_workers = {"rate_sweep": 1, "rate_sweep_w2": 2}
    rng = random.Random(f"{'rate_sweep' if workload in cli_workers else workload}:{seed}")

    def jitter() -> float:
        return 1.0 if seed == 0 else 1.0 + rng.uniform(-JITTER, JITTER)

    configs, ops = {}, []
    if workload in cli_workers:
        rate_grids = ("omega_over_kappa", "kappa_tau")
        kappa_l = jitter()
        par_grids = "" if seed == 0 else _shifted_grids(
            rng, rate_grids + ("L_over_sigma", "kappa_sigma2_omega"))
        single_grids = "" if seed == 0 else _shifted_grids(rng, rate_grids)
        configs["cli_parallel_kl1"] = _cli_config(
            f"  family: Parallel\n  kappa1: 1.0\n  L: {_num(kappa_l)}\n",
            "  - kind: rate_map\n    path: rate.csv\n"
            "  - kind: kms_report\n    path: kms.csv\n"
            "  - kind: probability_map\n    path: prob.csv\n    backend: closed\n",
            par_grids)
        configs["cli_single"] = _cli_config(
            "  family: SingleAccel\n  kappa1: 1.0\n",
            "  - kind: rate_map\n    path: rate.csv\n", single_grids)
        ops = [{"name": "cli_parallel_kl1", "kind": "cli"},
               {"name": "cli_single", "kind": "cli", "planck_kappa": 1.0}]
    elif workload == "prob_stationary":
        # listed longest first, so that two workers share the load evenly
        k = jitter()
        configs["thermal_kl1"] = _point_config(
            "ThermalInertialPair", kappa1=k, L=jitter() / k)
        ops = [{"name": "thermal_kl1", "kind": "probability"}]
        for name, kappa in (("single_ks005", 1.0), ("single_ks001", 0.2)):
            k = kappa * jitter()
            configs[name] = _point_config("SingleAccel", kappa1=k)
            ops.append({"name": name, "kind": "probability", "oracle_kappas": [k]})
    else:
        k1 = jitter()
        k2 = 0.5 * jitter() * k1
        configs["differing_r05"] = _point_config("Differing", kappa1=k1, kappa2=k2)
        k = jitter()
        configs["parallel_kl1"] = _point_config("Parallel", kappa1=k, L=jitter() / k)
        # the diagonal full-grid entries of Differing are single-branch
        # probabilities at kappa1 and kappa2, so they have exact oracles
        ops = [{"name": "differing_r05", "kind": "wightman", "oracle_kappas": [k1, k2]},
               {"name": "parallel_kl1", "kind": "probability"}]
    # one prob_stationary pass (12-17 s on 2 cores at 2.1 GHz) is too short
    # to average out the host's bursts of slowness, and two passes of the
    # others would not fit the time budget of a run
    min_passes = 2 if workload == "prob_stationary" else 1
    return {"workload": workload, "seed": seed, "configs": configs, "ops": ops,
            "workers": cli_workers.get(workload, 1), "min_passes": min_passes,
            "sigma": SIGMA, "omega": OMEGA}
