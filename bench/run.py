"""udwsim benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload rate_sweep --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; udwsim is imported from src/.
Workloads (see workloads.py): rate_sweep, rate_sweep_w2, prob_stationary,
prob_cross.

--trace 0 measures the end-to-end metrics, with tracing off:
  setup_s             median over fresh interpreters of `import udwsim` plus
                      validating the workload's configs
  wall_s              median over passes of the time to run the workload's
                      operations (serially, or with --workers 2 for
                      rate_sweep_w2)
  peak_rss_mb         peak resident memory of the process running them
  max_rel_err_oracle  worst |value - oracle| / |oracle| over oracle points
  err_bar_coverage    share of oracle points within their error_estimate
  ok_frac             operations that did not fail / operations attempted

--trace 1 runs the operations once untraced and once traced, serially, and
reports the per-layer metrics of spans.py; the traced outputs must equal the
untraced ones bit for bit. It writes the spans to
.bench_out/spans-<workload>-seed<seed>.npz and the full per-layer table,
including layers the workload does not use, to
.bench_out/layers-<workload>-seed<seed>.json.

Every run checks the outputs (checks.py). Lines before the last one are a
readable summary; the last line is the JSON result. The run exits with 1 if
the workload could not be run, and 2 if the checkout has no src/udwsim.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

SETUP_REPEATS = 3
# one run must end within 180 s
_DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "max_rel_err_oracle": "1", "err_bar_coverage": "1", "ok_frac": "1"}


class BenchError(Exception):
    pass


def call_worker(args: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting the workload")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *map(str, args)],
                              cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name: str) -> str:
    if name.endswith("ns_per_eval"):
        return "ns"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_result") or name.endswith("_per_panel"):
        return "1"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + _DEADLINE_S
    if not (ROOT / "src" / "udwsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no udwsim sources under {ROOT / 'src'}")
    spec = workloads.build(workload, seed)
    refs = None
    if seed == 0:
        # both rate workloads compute the same rows
        key = "rate_sweep" if workload.startswith("rate_sweep") else workload
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))[key]
    scratch = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    spec_path = scratch / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        setup = [] if trace else [call_worker(["setup", spec_path], deadline)["setup_s"]
                                  for _ in range(SETUP_REPEATS)]
        args = ["run", spec_path, "--workdir", scratch / "work", "--seconds", seconds,
                "--trace", int(trace)]
        if trace:
            args += ["--spans", OUT / f"spans-{workload}-seed{seed}.npz"]
        result = call_worker(args, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    tally = checks.check(spec, result["outputs"], refs)
    if not result["consistent"]:
        tally.wrong.append("outputs differ between passes, worker counts or tracing")
    for message in tally.wrong[:20]:
        print(f"check failed: {message}")

    if trace:
        (OUT / f"layers-{workload}-seed{seed}.json").write_text(
            json.dumps(result["table"], indent=1, sort_keys=True) + "\n", encoding="utf-8")
        for name, value in result["table"].items():
            print(f"{workload} {name} = {value:.6g} {_unit(name)}")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in result["per_layer"].items()}
    else:
        if not tally.oracle:
            raise BenchError("the workload has no oracle points")
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "max_rel_err_oracle": max(rel for rel, _ in tally.oracle),
            "err_bar_coverage": sum(ok for _, ok in tally.oracle) / len(tally.oracle),
            "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        }
        print(f"{workload} seed={seed} passes={len(result['passes'])} "
              f"attempted={tally.attempted} failed={tally.failed} "
              f"oracle_points={len(tally.oracle)}")
        for name, value in values.items():
            print(f"{workload} {name} = {value:.6g} {UNITS[name]}")
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return {"correct": not tally.wrong, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one udwsim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
