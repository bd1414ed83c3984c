"""Runs one workload's operations in a fresh interpreter; run.py starts it.

    worker.py setup SPEC            print the seconds to import udwsim and
                                    validate the workload's configs
    worker.py run SPEC --workdir D --seconds S --trace 0|1 [--spans FILE]

`run` with --trace 0 makes the workload's min_passes passes over the
operations, then more for as long as another pass, as long as the last one,
fits in S seconds. With --trace 1 it makes one untraced and one traced
pass, both serial even for a --workers 2 workload, since pool children are
not traced. The last line of standard output is one JSON object with the
outputs of the first pass, the timings, peak resident memory and, when
traced, the per-layer metrics.

udwsim is imported from the src/ directory next to this one, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _udwsim():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import udwsim
    import udwsim.cli
    if SRC not in Path(udwsim.__file__).resolve().parents:
        raise SystemExit(f"udwsim was imported from {udwsim.__file__}, not from {SRC}")
    return udwsim


def _complex(z) -> list:
    return [float(z.real), float(z.imag)]


def run_point(op: dict, cfg) -> dict:
    """One windowed point, by the library call the op names."""
    udwsim = _udwsim()
    sup = udwsim.superposition
    try:
        if op["kind"] == "probability":
            res = udwsim.response.excitation_probability_quadrature(cfg.scenario, cfg.params)
            return {"value": res.value, "error": res.error_estimate}
        integrals = sup.compute_wightman_integrals(cfg.scenario, cfg.params)
        scan = sup.visibility_scan(integrals, cfg.params, cfg.grids["delta_phi"])
        equal_phase = sup.conditional_density_matrix(
            integrals, sup.ControlState(2, (0.0, 0.0)), cfg.params)
    except Exception as exc:  # a raising call is a failed operation, not a crash
        return {"raised": f"{type(exc).__name__}: {exc}"}
    return {
        "full_grid": {f"{i},{j}": _complex(v) for (i, j), v in sorted(integrals.full_grid.items())},
        "time_ordered": {str(i): _complex(v) for i, v in sorted(integrals.time_ordered.items())},
        "error": integrals.error_estimate,
        "visibility": scan,
        "p_excited_conditional": float(equal_phase.p_excited_conditional),
    }


def run_cli(op: dict, workdir: Path, workers: int) -> dict:
    """`udwsim run` in-process on the op's config; returns the files it wrote."""
    udwsim = _udwsim()
    out = workdir / f"out-{op['name']}-w{workers}"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", str(workdir / f"{op['name']}.yaml"), "--out-dir", str(out),
            "--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = udwsim.cli.main(argv)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


class Workload:
    def __init__(self, spec: dict, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.ops = spec["ops"]
        self.texts = spec["configs"]
        udwsim = _udwsim()
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.texts.items():
            (workdir / f"{name}.yaml").write_text(text, encoding="utf-8")
        self.cli = spec["workload"].startswith("rate_sweep")
        self.configs = {name: udwsim.config.validate_config(text)
                        for name, text in self.texts.items()}

    def run_op(self, op: dict, workers: int = 1) -> dict:
        if self.cli:
            return run_cli(op, self.workdir, workers)
        return run_point(op, self.configs[op["name"]])

    def run(self, workers: int) -> list:
        return [self.run_op(op, workers) for op in self.ops]

    def traced(self, tracer) -> list:
        # validation is set-up, but it is traced so that config.validate_s shows
        for text in self.texts.values():
            _udwsim().config.validate_config(text)
        return [tracer.operation(op["name"], self.run_op, op) for op in self.ops]


def _canonical(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(work: Workload, seconds: float) -> dict:
    passes, first, consistent = [], None, True
    t_start = time.perf_counter()
    while True:
        outputs, wall = _timed(work.run, work.spec["workers"])
        passes.append({"wall_s": wall})
        if first is None:
            first = outputs
        consistent &= _canonical(outputs) == _canonical(first)
        # stop before a pass that would end after the budget
        if (len(passes) >= work.spec["min_passes"]
                and time.perf_counter() - t_start + wall > seconds):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"outputs": first, "passes": passes, "consistent": consistent,
            "peak_rss_mb": peak}


def measure_traced(work: Workload, spans_path: Path | None) -> dict:
    import spans

    untraced, wall = _timed(work.run, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, traced_wall = _timed(work.traced, tracer)
    finally:
        tracer.uninstall()
    metrics, table = tracer.layer_metrics(wall, traced_wall)
    if spans_path is not None:
        tracer.save(spans_path)
    return {"outputs": untraced, "passes": [{"wall_s": wall}],
            "consistent": _canonical(untraced) == _canonical(traced),
            "per_layer": metrics, "table": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("spec", type=Path)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    warnings.simplefilter("ignore")
    if args.mode == "setup":
        t0 = time.perf_counter()
        udwsim = _udwsim()
        for text in spec["configs"].values():
            udwsim.config.validate_config(text)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    work = Workload(spec, args.workdir)
    if args.trace:
        result = measure_traced(work, args.spans)
    else:
        result = measure(work, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
