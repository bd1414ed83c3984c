"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 bench/sweep.py                          # seed 0, every workload
    python3 bench/sweep.py --seeds 1-10 --workloads prob_cross
    python3 bench/sweep.py --seeds 1-10 --baseline bench/baseline.json

For every workload and metric it prints the median over the seeds, the first
and third quartiles (statistics.quantiles, n=4) and the spread, which is the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. Spreads at or above a third of the bound are marked:
the benchmark is steady enough only when none is, setup_s excepted. A run
whose outputs fail a check is reported and makes the exit code 1.

--baseline also makes one traced seed-0 run per workload and writes the
machine, the summaries and the per-layer tables to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("check failed"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    all_ok = True
    report = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
              "run_seconds": seconds, "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, seconds, 0)
            all_ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            table[name] = stats
            mark = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- not steady"
            print(f"{workload:16s} {name:20s} median={stats['median']:.6g} {stats['unit']:3s} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f} "
                  f"bound={bound}{mark}")
        report["end_to_end"][workload] = {"seeds": args.seeds, "metrics": table}
        if args.baseline:
            traced = _run(workload, 0, seconds, 1)
            all_ok &= traced["correct"]
            layers = run.OUT / f"layers-{workload}-seed0.json"
            report["per_layer"][workload] = json.loads(layers.read_text(encoding="utf-8"))
    if args.baseline:
        import numpy
        import scipy
        report["machine"].update(numpy=numpy.__version__, scipy=scipy.__version__)
        args.baseline.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
