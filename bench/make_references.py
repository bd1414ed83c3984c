"""Record the seed-0 outputs of every workload in references.json.

    python3 bench/make_references.py

The references are the outputs of the code at the commit that defined the
benchmark; run.py compares seed-0 runs with them. Re-record them only when a
change is meant to move the values, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import time

import run
import workloads


def main() -> int:
    refs = {}
    for workload in ("rate_sweep", "prob_stationary", "prob_cross"):
        spec = workloads.build(workload, 0)
        scratch = run.OUT / f"references-{workload}"
        scratch.mkdir(parents=True, exist_ok=True)
        spec_path = scratch / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            result = run.call_worker(["run", spec_path, "--workdir", scratch / "work",
                                  "--seconds", 0, "--trace", 0],
                                 time.monotonic() + 600)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        refs[workload] = result["outputs"]
        print(f"{workload}: {len(result['outputs'])} operations recorded")
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
