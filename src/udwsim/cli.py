"""Command-line scenario runner.

Subcommands:
    run <config>      sweep the configured grids, write CSV (and JSON) files
    check <config>    validate a config and echo the resolved settings
    oracle planck     print the single-detector thermal rate reference
    limits <family>   evaluate the family's closed-form limit identities

Outputs are figure-ready CSVs: '#'-prefixed header lines record every
parameter, the normalization conventions, the regulator schedule, the
udwsim, numpy and scipy versions and a git-style content hash of the config,
so a file is traceable to the exact run that produced it. A run's settings
come only from its config file, which the header's config sha1 names. Every
float is written as the shortest string that reads back as the same float.
Bodies are byte-identical across repeated runs and across --workers
settings: every probability grid point, and every rate, is evaluated
independently of the others, and the single writer assembles them in grid
order. A scenario's rates are one table (rate_table): every kappa tau row,
each holding every gap that its rate_map and kms_report need (omega, and
-omega for the KMS ratio), in one array pass, so both outputs read the same
rates. Each (kappa tau, gap) point holds its rate or its own point error, so
that one failing point does not fail the others.

Each header says what ran. Every row comes with the cross_pair_methods of
the results it was built from, and the method: line and the regulator and
tolerance notes are built from their union over the valid rows, from one
table of each method's text (_METHODS); a file with no valid row names no
method and no note.

Only the points of a quadrature-backend probability_map that take the 2-D
engine (up to seconds a point) are spread over --workers processes: the one
question asked before any point runs is whether a grid point has a
non-stationary branch pair. Every other output runs in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .closed_form import (DetectorParams, p_antiparallel, p_differing, p_local,
                          p_parallel)
from .config import KIND_GRIDS, ScenarioConfig, scenario_variants, validate_config
from .errors import (ConfigError, ConvergenceError, HyperbolicRangeError,
                     IndeterminateRatioError, SingularParameterError,
                     ValidityError)
from .kinematics import TrajectoryScenario
# transition_rate is no longer called here; it stays bound because
# bench/spans.py wraps this name on this module
from .response import (_CONTOUR_NODES, RateResult, _cross_pairs,  # noqa: F401
                       excitation_probability_quadrature, kms_check, planck_rate,
                       rate_table, transition_rate)
from .superposition import (ControlState, compute_wightman_integrals,
                            conditional_density_matrix, phase_envelope,
                            visibility_scan)

_COLUMNS = {
    "probability_map": ("L_over_sigma", "kappa_sigma2_omega", "P_over_lambda2",
                        "valid"),
    "rate_map": ("omega_over_kappa", "kappa_tau", "rate_over_lambda2",
                 "error_over_lambda2", "valid"),
    "kms_report": ("omega_over_kappa", "kappa_tau", "ratio", "expected",
                   "deviation", "satisfied", "valid"),
    "visibility_scan": ("delta_phi", "norm", "envelope", "residual", "valid"),
}

# per-point failures that turn into a NaN row with valid=0; any other
# exception is a fault of the program and aborts the run
_POINT_ERRORS = (ValidityError, SingularParameterError, ConvergenceError,
                 IndeterminateRatioError, HyperbolicRangeError)


def _config_sha1(text: str) -> str:
    blob = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\x00" % len(blob) + blob).hexdigest()


def _unit_coupling(params: DetectorParams) -> DetectorParams:
    """lambda = 1 copy: P and rate are exactly quadratic in lambda at this
    order, so per-lambda^2 columns are evaluated at unit coupling."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return DetectorParams(omega=params.omega, lambda_coupling=1.0,
                              sigma=params.sigma)


def _fmt(value) -> str:
    """The shortest string that reads back as float(value), with a trailing
    ".0" dropped: 1.0, 1 and True are "1", NaN is "nan"."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


_LIMIT = " (pointlike limit eps->0 taken after integration)"
_NO_LADDER = " (not used: no branch pair took the regulator ladder)"
# the header text of each method, keyed by the names that results carry
# (RateResult and WightmanIntegrals.cross_pair_methods): its phrase on the
# method: line, and its notes on the regulator and tolerance lines. The first
# method in this order that a file's valid rows ran sets both notes;
# "spectral", which every valid row runs, only where no other method ran,
# and a rate file then notes that its stationary pairs were not integrated
_METHODS = {
    "ladder": ("the other cross pairs integrated on the regulator ladder and "
               "extrapolated to eps->0", _LIMIT, ""),
    "lerch": ("the other cross pairs exact on each rung of the regulator ladder, "
              "integrated to s=inf in closed form (two Lerch transcendents), and "
              "extrapolated to eps->0", _LIMIT,
              " (gates the rounding bound of each closed-form rung)"),
    "contour": ("the other cross pairs' I_ij by a Gauss-Hermite rule on the shifted "
                f"contour Im s = -2 sigma^2 omega at eps=0 ({_CONTOUR_NODES} against "
                f"{_CONTOUR_NODES // 2} nodes per axis)",
                _NO_LADDER, " (not used by a regulator ladder: the tolerance that each "
                "shifted-contour sum and spectral integral met)"),
    "spectral": ("stationary branch pairs exact from their closed-form spectrum "
                 "(Planck form, times sin(E L)/(E L) for the bath's cross pair)", _NO_LADDER,
                 " (not used by a regulator ladder: the tolerance that each spectral "
                 "integral met)"),
}


def _method_line(methods) -> str:
    """The method: line of a file whose valid rows' non-stationary cross
    pairs took methods, names in _METHODS; () when every pair was
    stationary."""
    return ("method: " + "; ".join(_METHODS[m][0] for m in ("spectral", *sorted(methods)))
            + ("" if methods else "; there are no other branch pairs"))


def _point_geometry(params: DetectorParams, point) -> tuple:
    """(kappa, L) of a probability grid point (L_over_sigma, beta):
    kappa = beta / (sigma^2 omega), L = L_over_sigma * sigma."""
    L_over_sigma, beta = point
    if params.omega <= 0 or beta <= 0:
        raise ValidityError("probability map needs omega > 0 and beta > 0")
    return beta / (params.sigma**2 * params.omega), L_over_sigma * params.sigma


def _point_scenario(family: str, params: DetectorParams, point) -> TrajectoryScenario:
    """The quadrature backend's scenario at a probability grid point;
    ValidityError where the family refuses it."""
    kappa, L = _point_geometry(params, point)
    try:
        return TrajectoryScenario(family, kappa1=kappa, L=L)
    except ValueError as exc:  # e.g. Parallel refuses L < 0
        raise ValidityError(f"grid point outside the family: {exc}") from exc


def _eval_point(task):
    """(row, methods) of one probability grid point, task = (point, payload):
    its CSV row and the cross_pair_methods of its result, () for the closed
    backend.

    Module-level so a process pool can pickle it. A point's validity or
    convergence failure becomes a NaN row with the valid flag down, which
    took no method.
    """
    point, (family, params, backend, reg, quad) = task
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            if backend == "closed":
                fn = p_parallel if family == "Parallel" else p_antiparallel
                value, methods = fn(params, *_point_geometry(params, point)).probability, ()
            else:
                scenario = _point_scenario(family, params, point)
                res = excitation_probability_quadrature(scenario, params, reg, quad)
                value, methods = res.value, res.cross_pair_methods
        except _POINT_ERRORS:
            return (*point, math.nan, 0), ()
    return (*point, value, 1), methods


def _has_cross_pair(task) -> bool:
    """Whether the grid point of an _eval_point task is valid and has a
    non-stationary branch pair, whose windows take the 2-D engine."""
    point, (family, params, *_) = task
    try:
        scenario = _point_scenario(family, params, point)
    except ValidityError:
        return False
    return bool(_cross_pairs(scenario, window=True))


def _probability_rows(cfg: ScenarioConfig, payload, workers: int) -> list:
    """The (row, methods) of each probability_map point (_eval_point), in
    grid order. Only a quadrature-backend map with a point whose cross pair
    takes the 2-D engine (_has_cross_pair) starts a process pool: of at most
    workers processes, and no more than it has points or the process has
    CPUs."""
    outer, inner = (cfg.grids[n] for n in KIND_GRIDS["probability_map"])
    tasks = [((a, b), payload) for a in outer for b in inner]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(tasks), cpus)
    if workers > 1 and payload[2] == "quadrature" and any(map(_has_cross_pair, tasks)):
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_eval_point, tasks,
                                 chunksize=max(1, len(tasks) // (4 * workers))))
    return [_eval_point(t) for t in tasks]


def _rate_table(cfg: ScenarioConfig, scenario, negated: bool) -> dict:
    """{kappa_tau: {gap: RateResult or its point error}} over the grids:
    omega, and -omega too if negated (a kms_report reads the table), from
    one rate_table call over every kappa tau. Gaps equal as floats (0.0 and
    -0.0 too) are evaluated once."""
    kappa = scenario.kappa1
    gaps = [w * kappa for w in cfg.grids["omega_over_kappa"]]
    if negated:
        gaps += [-g for g in gaps]
    gaps = tuple(dict.fromkeys(gaps))
    kts = cfg.grids["kappa_tau"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = rate_table(scenario, gaps, [kt / kappa for kt in kts], cfg.regulator,
                          cfg.quadrature)
    return {kt: dict(zip(gaps, row)) for kt, row in zip(kts, rows)}


def _rate_row(w, kt, rates, kappa):
    """(row, methods) of the rate_map at omega/kappa = w from a row of
    rates: valid=0 if the rate failed."""
    res = rates[w * kappa]
    if not isinstance(res, RateResult):
        return (w, kt, math.nan, math.nan, 0), ()
    return (w, kt, res.value, res.error_estimate, 1), res.cross_pair_methods


def _kms_row(w, kt, rates, kappa, tol):
    """(row, methods) of the kms_report at omega/kappa = w from a row of
    rates: valid=0 if either rate failed or the ratio is indeterminate
    (kms_check)."""
    omega = w * kappa
    if isinstance(rates[omega], RateResult) and isinstance(rates[-omega], RateResult):
        try:
            report = kms_check(rates.__getitem__, omega, kappa, tol)
        except IndeterminateRatioError:
            pass
        else:
            return ((w, kt, report.ratio, report.expected, report.deviation,
                     1 if report.satisfied else 0, 1),
                    rates[omega].cross_pair_methods + rates[-omega].cross_pair_methods)
    return (w, kt, math.nan, math.nan, math.nan, 0, 0), ()


def _header_lines(kind, cfg: ScenarioConfig, scenario, extra, rows, methods):
    """The output's header. methods is the union of the cross_pair_methods
    of the results that the valid rows were built from, or None for a
    closed-backend probability map, which integrates nothing and has no
    method: line; the method: line and the notes come from _METHODS. A file
    with no valid row names no method and no note. scipy is imported here,
    for its version, so that importing this module loads no scipy module."""
    import scipy

    sc, par, reg, quad = scenario, cfg.params, cfg.regulator, cfg.quadrature
    eps = ",".join(f"{e:g}" for e in reg.epsilons)
    if not any(row[-1] for row in rows):
        method, reg_use, quad_use = ["method: none (no row has a value)"], "", ""
    elif methods is None:
        method, reg_use = [], _NO_LADDER
        quad_use = " (not used: the closed backend evaluates saddle-point forms)"
    else:
        method = [_method_line(methods)]
        _, reg_use, quad_use = _METHODS[next((m for m in _METHODS if m in methods), "spectral")]
        if kind in ("rate_map", "kms_report") and not methods:
            quad_use = " (not used: every rate is exact from its closed-form spectrum)"
    return [
        f"udwsim output kind={kind}",
        f"config sha1={_config_sha1(cfg.source_text)}",
        f"versions udwsim={__version__} numpy={np.__version__} scipy={scipy.__version__}",
        f"scenario family={sc.family} kappa1={_fmt(sc.kappa1)} "
        f"kappa2={_fmt(sc.kappa2)} L={_fmt(sc.L)}",
        f"params omega={_fmt(par.omega)} lambda_coupling={_fmt(par.lambda_coupling)} "
        f"sigma={_fmt(par.sigma)}",
        "normalization: probability and rate columns are per lambda^2 "
        "(evaluated at unit coupling; exact at leading order); two-branch "
        "populations carry the control factor lambda^2/N^2 with N=2",
        f"regulator epsilons={eps} extrapolation=richardson_linear{reg_use}",
        f"quadrature abs_tol={_fmt(quad.abs_tol)} rel_tol={_fmt(quad.rel_tol)}{quad_use}",
        *extra,
        *method,
        f"columns: {','.join(_COLUMNS[kind])}",
    ]


def _write_output(path: Path, header, rows, json_mirror: bool, kind):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {h}" for h in header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if json_mirror:
        doc = {"kind": kind, "header": list(header),
               "columns": list(_COLUMNS[kind]),
               "rows": [[None if (isinstance(v, float) and math.isnan(v)) else v
                         for v in row] for row in rows]}
        path.with_suffix(".json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".", workers: int = 1) -> int:
    """Produce every configured output file; returns a process exit code.
    workers bounds the processes of a map whose points take the 2-D engine
    (_probability_rows); every other output runs in this process. Each
    header names the methods that the file's valid rows ran."""
    base = Path(out_dir)
    if not cfg.outputs:
        print("nothing to do: config declares no outputs")
        return 0
    # the scenario variants whose rate rows a kms_report reads
    kms_variants = {scenario for out in cfg.outputs if out.kind == "kms_report"
                    for _, scenario in scenario_variants(out, cfg.scenario)}
    tables = {}
    for out in cfg.outputs:
        for file, scenario in scenario_variants(out, cfg.scenario):
            path = base / file
            if out.kind == "probability_map":
                payload = (scenario.family, _unit_coupling(cfg.params), out.backend,
                           cfg.regulator, cfg.quadrature)
                extra = (f"backend={out.backend}",
                         "kappa derived per point: kappa = "
                         "kappa_sigma2_omega / (sigma^2 omega); L = L_over_sigma * sigma")
                built = _probability_rows(cfg, payload, workers)
            elif out.kind == "visibility_scan":
                built, extra = _visibility_rows(cfg, scenario)
            else:
                if scenario not in tables:
                    tables[scenario] = _rate_table(cfg, scenario, scenario in kms_variants)
                table, kappa = tables[scenario], scenario.kappa1
                built = [_rate_row(w, kt, table[kt], kappa) if out.kind == "rate_map"
                         else _kms_row(w, kt, table[kt], kappa, out.tolerance)
                         for w in cfg.grids["omega_over_kappa"] for kt in cfg.grids["kappa_tau"]]
                extra = ("rate normalization: single-branch stationary limit is the thermal "
                         "value omega/(2 pi (e^{2 pi omega/kappa}-1))" if out.kind == "rate_map"
                         else f"kms tolerance={_fmt(out.tolerance)} (detailed balance "
                         "rate(omega)/rate(-omega) vs e^{-2 pi omega/kappa})",)
            rows = [row for row, _ in built]
            methods = (None if out.kind == "probability_map" and out.backend == "closed"
                       else set().union(*(m for _, m in built)))
            _write_output(path, _header_lines(out.kind, cfg, scenario, extra, rows, methods),
                          rows, out.json_mirror, out.kind)
            print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _visibility_rows(cfg: ScenarioConfig, scenario):
    """((row, methods) per phase, header lines), methods the integrals'
    cross_pair_methods. The amplitude (lambda^2/2)|C|, C = I_12 - T_2 -
    conj(T_1), sums three entries that each stay within the integrals' bar,
    so its bar is 3 lambda^2/2 times that."""
    grid = cfg.grids["delta_phi"]
    integrals = compute_wightman_integrals(scenario, cfg.params,
                                           cfg.regulator, cfg.quadrature)
    built = []
    for dphi in grid:
        control = ControlState(2, (0.0, dphi))
        dm = conditional_density_matrix(integrals, control, cfg.params)
        env = phase_envelope(control)
        built.append(((dphi, dm.norm, env, dm.norm - env, 1), integrals.cross_pair_methods))
    summary = visibility_scan(integrals, cfg.params, grid)
    extra = (f"visibility mean={_fmt(summary['mean'])} "
             f"amplitude={_fmt(summary['amplitude'])} "
             f"(first harmonic of the residual after subtracting the "
             f"(1+cos)/2 envelope)",
             f"integral error estimate={_fmt(integrals.error_estimate)} "
             "(the bar of the integrals: the largest of any I_ij or T_i)",
             f"amplitude error estimate="
             f"{_fmt(1.5 * cfg.params.lambda_coupling**2 * integrals.error_estimate)} "
             "(lambda^2/2 times three integral bars: the amplitude is (lambda^2/2)|C|, "
             "C = I_12 - T_2 - conj(T_1))")
    return built, extra


# ---------------------------------------------------------------------------
# closed-form limit identities (the `limits` subcommand)


def _limit_identities(family: str):
    """(name, lhs, rhs) triples probing the family's algebraic limits at
    reference parameters kappa = 1, sigma = 0.05, beta = 0.2."""
    kappa, sigma, beta = 1.0, 0.05, 0.2
    params = DetectorParams(omega=beta / (kappa * sigma**2),
                            lambda_coupling=0.01, sigma=sigma)
    loc = p_local(params, kappa).probability
    far = 1e6 * sigma
    if family == "SingleAccel":
        xi = (kappa * sigma * params.lambda_coupling) ** 2 * math.exp(
            -(sigma * params.omega) ** 2) / (8.0 * math.pi)
        return params, [("p_local equals xi / sin^2(beta)",
                         loc, xi / math.sin(beta) ** 2)]
    if family == "Parallel":
        return params, [
            ("coincident branches reduce to one detector",
             p_parallel(params, kappa, 0.0).probability, loc),
            ("far separation halves the local probability",
             p_parallel(params, kappa, far).probability, 0.5 * loc),
        ]
    if family == "AntiParallel":
        zeta = (kappa * sigma * params.lambda_coupling) ** 2 * math.exp(
            -(sigma * params.omega) ** 2) / (16.0 * math.pi)
        return params, [
            ("L = 0 value: loc/2 + zeta/(2(1 - cos beta))",
             p_antiparallel(params, kappa, 0.0).probability,
             0.5 * loc + zeta / (2.0 * (1.0 - math.cos(beta)))),
            ("far separation halves the local probability",
             p_antiparallel(params, kappa, far).probability, 0.5 * loc),
        ]
    if family == "Differing":
        kappa2 = 2.0  # second reference acceleration, beta2 = 0.4 < pi
        tiny = 1e-9
        loc2 = p_local(params, kappa2).probability
        lam, omega = params.lambda_coupling, params.omega
        residual = (lam / (2.0 * sigma * omega)) ** 2 * math.exp(
            -(sigma * omega) ** 2) / (8.0 * math.pi)
        return params, [
            ("equal accelerations reduce to one detector",
             p_differing(params, kappa, kappa).probability, loc),
            ("vanishing first acceleration: loc(kappa2)/4 + inertial residue",
             p_differing(params, tiny, kappa2).probability,
             0.25 * loc2 + residual),
        ]
    raise ValueError(f"no closed-form identities for family {family!r}")


def _cmd_limits(args) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params, identities = _limit_identities(args.family)
    print(f"closed-form limit identities for {args.family} "
          f"(omega={params.omega:g}, sigma={params.sigma:g}, "
          f"lambda={params.lambda_coupling:g})")
    ok = True
    for name, lhs, rhs in identities:
        rel = abs(lhs - rhs) / abs(rhs) if rhs != 0 else abs(lhs)
        good = rel <= 1e-10
        ok = ok and good
        print(f"  {'PASS' if good else 'FAIL'} {name}: "
              f"lhs={lhs:.12e} rhs={rhs:.12e} rel={rel:.2e}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _load_config(args) -> ScenarioConfig:
    return validate_config(Path(args.config).read_text(encoding="utf-8"))


def _print_config_errors(exc: ConfigError) -> int:
    for err in exc.errors:
        print(f"error: {err}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    if args.workers < 1:
        print(f"error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        return _print_config_errors(exc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_scenario(cfg, out_dir=args.out_dir, workers=args.workers)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_check(args) -> int:
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        return _print_config_errors(exc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sc, par = cfg.scenario, cfg.params
    print("ok")
    print(f"scenario: family={sc.family} kappa1={sc.kappa1:g} "
          f"kappa2={sc.kappa2:g} L={sc.L:g}")
    print(f"params: omega={par.omega:g} lambda_coupling={par.lambda_coupling:g} "
          f"sigma={par.sigma:g}")
    for name in sorted(cfg.grids):
        vals = cfg.grids[name]
        print(f"grid {name}: {len(vals)} points in "
              f"[{min(vals):g}, {max(vals):g}]")
    print(f"regulator: epsilons={','.join(f'{e:g}' for e in cfg.regulator.epsilons)} "
          "extrapolation=richardson_linear")
    q = cfg.quadrature
    print(f"quadrature: abs_tol={q.abs_tol:g} rel_tol={q.rel_tol:g}")
    if cfg.outputs:
        for out in cfg.outputs:
            detail = f" backend={out.backend}" if out.kind == "probability_map" else ""
            print(f"output: kind={out.kind} path={out.path}{detail}")
    else:
        print("output: none configured")
    return 0


def _cmd_oracle(args) -> int:
    try:
        value = planck_rate(args.kappa, args.omega)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{value:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udwsim",
        description="Detector response for superposed uniformly accelerated "
                    "trajectories: parameter sweeps to figure-ready CSV.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a YAML scenario config")
    p_run.add_argument("--workers", type=int, default=1,
                       help="most processes for a quadrature-backend probability_map "
                            "with a non-stationary branch pair (the 2-D engine); every "
                            "other output runs in one process (at least 1, default 1)")
    p_run.add_argument("--out-dir", default=".",
                       help="directory output paths are resolved against")
    p_run.set_defaults(handler=_cmd_run)

    p_check = sub.add_parser("check", help="validate a config and echo it")
    p_check.add_argument("config", help="path to a YAML scenario config")
    p_check.set_defaults(handler=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="print a reference value")
    p_oracle.add_argument("reference", choices=["planck"],
                          help="which reference to evaluate")
    p_oracle.add_argument("--omega", type=float, required=True,
                          help="detector gap")
    p_oracle.add_argument("--kappa", type=float, required=True,
                          help="proper acceleration")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_limits = sub.add_parser("limits",
                              help="evaluate closed-form limit identities")
    p_limits.add_argument("family", choices=["SingleAccel", "Parallel",
                                             "AntiParallel", "Differing"])
    p_limits.set_defaults(handler=_cmd_limits)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
