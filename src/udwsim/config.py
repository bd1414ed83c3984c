"""Scenario configuration: YAML parsing with aggregated validation.

A config file is a small mapping with sections `scenario`, `params`,
`grids`, `quadrature`, `regulator`, and `outputs`. Everything has a
default except scenario.family, so a minimal config is just

    scenario:
      family: Parallel

Validation never fails fast: every malformed field contributes one
"path: reason" entry and the whole list is raised as ConfigError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .closed_form import DetectorParams
from .errors import ConfigError
from .kinematics import FAMILIES, TrajectoryScenario
from .quadrature import DEFAULT_EPS_LADDER, QuadratureConfig, RegulatorSchedule

OUTPUT_KINDS = ("probability_map", "rate_map", "kms_report", "visibility_scan")
PROBABILITY_BACKENDS = ("closed", "quadrature")

# grid names each output kind sweeps; only referenced grids must be usable
GRID_NAMES = ("omega_over_kappa", "kappa_tau", "L_over_sigma",
              "kappa_sigma2_omega", "delta_phi")
KIND_GRIDS = {
    "probability_map": ("L_over_sigma", "kappa_sigma2_omega"),
    "rate_map": ("omega_over_kappa", "kappa_tau"),
    "kms_report": ("omega_over_kappa", "kappa_tau"),
    "visibility_scan": ("delta_phi",),
}


def _default_grids() -> dict:
    """Coarse 20-point axes mirroring the reference figure ranges."""
    lin = lambda a, b, n: tuple(a + (b - a) * k / (n - 1) for k in range(n))
    return {
        "omega_over_kappa": lin(-3.0, 3.0, 20),
        "kappa_tau": lin(-4.0, 4.0, 20),
        "L_over_sigma": lin(0.0, 40.0, 20),
        "kappa_sigma2_omega": lin(0.05, 0.5, 20),
        # endpoint-free so phase averages hit the exact 1/2 mean
        "delta_phi": tuple(2.0 * math.pi * k / 24 for k in range(24)),
    }


@dataclass(frozen=True)
class OutputSpec:
    """One requested artifact: what to compute and where to write it."""

    kind: str
    path: str
    backend: str = "closed"
    kappa_L: tuple = ()
    kappa_ratio: tuple = ()
    json_mirror: bool = False
    tolerance: float = 0.01


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: TrajectoryScenario
    params: DetectorParams
    grids: dict
    quadrature: QuadratureConfig
    regulator: RegulatorSchedule
    outputs: tuple = ()
    source_text: str = field(default="", repr=False)


def scenario_variants(out: OutputSpec, base: TrajectoryScenario) -> list:
    """(file, scenario) pairs: one per swept separation or ratio value of
    the output, whose file is out.path with the value as a suffix before
    the extension (r.csv -> r_kL0.5.csv, r_k2r2.csv), or out.path and the
    base scenario alone. Raises ValueError for a value the family refuses
    (validate_config reports it)."""
    p = Path(out.path)

    def file(tag, v):
        return p.with_name(f"{p.stem}_{tag}{v:g}{p.suffix}")

    if out.kappa_L:
        return [(file("kL", v), replace(base, L=v / base.kappa1)) for v in out.kappa_L]
    if out.kappa_ratio:
        return [(file("k2r", v), replace(base, kappa2=v * base.kappa1))
                for v in out.kappa_ratio]
    return [(p, base)]


def _as_float(value, path: str, errors: list) -> float:
    """value as a finite float; numeric strings such as 1e-3 (a string under
    YAML 1.1) are accepted, booleans are not."""
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError):
        errors.append(f"{path}: expected a number, got {value!r}")
        return math.nan
    if not math.isfinite(out):
        errors.append(f"{path}: must be finite, got {out!r}")
        return math.nan
    return out


def _as_float_list(value, path: str, errors: list):
    if not isinstance(value, (list, tuple)):
        errors.append(f"{path}: expected a list of numbers")
        return ()
    if len(value) == 0:
        errors.append(f"{path}: empty")
        return ()
    return tuple(_as_float(v, f"{path}[{k}]", errors) for k, v in enumerate(value))


def _check_keys(section: dict, allowed, path: str, errors: list):
    for key in section:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown field")


def _parse_scenario(raw: dict, errors: list):
    _check_keys(raw, ("family", "kappa1", "kappa2", "L"), "scenario", errors)
    family = raw.get("family")
    if family not in FAMILIES:
        errors.append(f"scenario.family: unknown family {family!r} "
                      f"(choose from {', '.join(FAMILIES)})")
        return None
    kwargs = {"family": family}
    for name, default in (("kappa1", 1.0), ("kappa2", 0.0), ("L", 0.0)):
        kwargs[name] = _as_float(raw.get(name, default), f"scenario.{name}", errors)
    if any(math.isnan(v) for v in (kwargs["kappa1"], kwargs["kappa2"], kwargs["L"])):
        return None
    try:
        return TrajectoryScenario(**kwargs)
    except ValueError as exc:
        errors.append(f"scenario: {exc}")
        return None


def _parse_params(raw: dict, errors: list):
    _check_keys(raw, ("omega", "lambda_coupling", "sigma"), "params", errors)
    vals = {}
    for name, default in (("omega", 1.0), ("lambda_coupling", 0.01), ("sigma", 1.0)):
        vals[name] = _as_float(raw.get(name, default), f"params.{name}", errors)
    if any(math.isnan(v) for v in vals.values()):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coupling-size warning handled below
            return DetectorParams(**vals)
    except ValueError as exc:
        errors.append(f"params: {exc}")
        return None


def _parse_outputs(raw, scenario, errors: list):
    if not isinstance(raw, list):
        errors.append("outputs: expected a list")
        return ()
    # {file: the entry that writes it}, over every variant of every output
    outputs, claimed = [], {}
    allowed = ("kind", "path", "backend", "kappa_L", "kappa_ratio",
               "json_mirror", "tolerance")
    for idx, item in enumerate(raw):
        prefix = f"outputs[{idx}]"
        if not isinstance(item, dict):
            errors.append(f"{prefix}: expected a mapping")
            continue
        _check_keys(item, allowed, prefix, errors)
        kind = item.get("kind")
        if kind not in OUTPUT_KINDS:
            errors.append(f"{prefix}.kind: unknown kind {kind!r} "
                          f"(choose from {', '.join(OUTPUT_KINDS)})")
            continue
        path = item.get("path")
        if not isinstance(path, str) or not path.strip():
            errors.append(f"{prefix}.path: must be a nonempty string")
            continue
        if not Path(path).name:
            errors.append(f"{prefix}.path: must name a file, got {path!r}")
            continue
        backend = item.get("backend", "closed")
        if kind == "probability_map":
            if backend not in PROBABILITY_BACKENDS:
                errors.append(f"{prefix}.backend: must be one of "
                              f"{', '.join(PROBABILITY_BACKENDS)}")
                continue
            if scenario is not None and scenario.family not in (
                    "Parallel", "AntiParallel"):
                errors.append(f"{prefix}.kind: probability_map sweeps separation "
                              "and needs family Parallel or AntiParallel")
                continue
        elif "backend" in item:
            errors.append(f"{prefix}.backend: only probability_map takes a backend")
            continue
        if "tolerance" in item and kind != "kms_report":
            errors.append(f"{prefix}.tolerance: only kms_report takes a tolerance")
            continue
        if (kind == "visibility_scan" and scenario is not None
                and scenario.branch_count != 2):
            errors.append(f"{prefix}.kind: visibility_scan needs a two-branch family")
            continue
        kappa_L = item.get("kappa_L", ())
        if kappa_L != ():
            if kind == "probability_map":
                errors.append(f"{prefix}.kappa_L: probability_map reads its separation "
                              "from the L_over_sigma grid; sweep that instead")
                continue
            if scenario is not None and scenario.family not in (
                    "Parallel", "AntiParallel", "ThermalInertialPair"):
                errors.append(f"{prefix}.kappa_L: family {scenario.family} "
                              "has no separation parameter")
                continue
            kappa_L = _as_float_list(kappa_L, f"{prefix}.kappa_L", errors)
        kappa_ratio = item.get("kappa_ratio", ())
        if kappa_ratio != ():
            if scenario is not None and scenario.family != "Differing":
                errors.append(f"{prefix}.kappa_ratio: only Differing sweeps "
                              "the acceleration ratio")
                continue
            kappa_ratio = _as_float_list(kappa_ratio, f"{prefix}.kappa_ratio", errors)
            if any(not r > 0 for r in kappa_ratio if not math.isnan(r)):
                errors.append(f"{prefix}.kappa_ratio: ratios must be > 0")
                continue
        if kappa_L != () and kappa_ratio != ():
            errors.append(f"{prefix}: kappa_L and kappa_ratio are exclusive")
            continue
        tolerance = item.get("tolerance", 0.01)
        tolerance = _as_float(tolerance, f"{prefix}.tolerance", errors)
        if not tolerance > 0:
            errors.append(f"{prefix}.tolerance: must be > 0")
            continue
        json_mirror = item.get("json_mirror", False)
        if not isinstance(json_mirror, bool):
            errors.append(f"{prefix}.json_mirror: must be a boolean")
            continue
        out = OutputSpec(kind=kind, path=path, backend=backend,
                         kappa_L=tuple(kappa_L), kappa_ratio=tuple(kappa_ratio),
                         json_mirror=json_mirror, tolerance=tolerance)
        # build every variant the run will build, so that a value the family
        # refuses, or a file another entry writes too (the later write would
        # overwrite it), is reported here
        if scenario is not None and not any(map(math.isnan, out.kappa_L + out.kappa_ratio)):
            swept = "kappa_L" if out.kappa_L else "kappa_ratio"
            try:
                variants = scenario_variants(out, scenario)
            except ValueError as exc:
                errors.append(f"{prefix}.{swept}: {exc}")
                continue
            for k, (file, _) in enumerate(variants):
                entry = f"{prefix}.{swept}[{k}]" if out.kappa_L or out.kappa_ratio else prefix
                written = [(file, entry)]
                if out.json_mirror:
                    written.append((file.with_suffix(".json"), f"{entry} (json_mirror)"))
                for path, who in written:
                    if path in claimed:
                        errors.append(f"{who}: writes {path}, as {claimed[path]} does")
                    claimed.setdefault(path, who)
        outputs.append(out)
    return tuple(outputs)


def validate_config(raw_text: str) -> ScenarioConfig:
    """Parse and validate a YAML config; all problems raise one ConfigError.

    Emits UserWarnings for legal-but-suspect requests: a probability map at
    omega <= 0 (either backend), or beta outside (0, pi) points under the
    closed-form probability backend.
    """
    errors: list = []
    try:
        data = yaml.safe_load(raw_text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: not parseable YAML ({exc})"]) from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(["config: top level must be a mapping"])

    _check_keys(data, ("scenario", "params", "grids", "quadrature",
                       "regulator", "outputs"), "config", errors)
    for section in ("scenario", "params", "grids", "quadrature", "regulator"):
        if section in data and not isinstance(data[section], dict):
            errors.append(f"{section}: expected a mapping")
            data[section] = {}

    scenario = _parse_scenario(data.get("scenario", {}), errors)
    params = _parse_params(data.get("params", {}), errors)

    grids = _default_grids()
    raw_grids = data.get("grids", {})
    _check_keys(raw_grids, GRID_NAMES, "grids", errors)
    for name in GRID_NAMES:
        if name in raw_grids:
            grids[name] = _as_float_list(raw_grids[name], f"grids.{name}", errors)

    quad_raw = dict(data.get("quadrature", {}))
    _check_keys(quad_raw, ("abs_tol", "rel_tol"), "quadrature", errors)
    tols = {k: _as_float(v, f"quadrature.{k}", errors) for k, v in quad_raw.items()
            if k in QuadratureConfig.__dataclass_fields__}
    quadrature = QuadratureConfig()
    if not any(math.isnan(v) for v in tols.values()):
        try:
            quadrature = QuadratureConfig(**tols)
        except ValueError as exc:
            errors.append(f"quadrature: {exc}")

    reg_raw = dict(data.get("regulator", {}))
    _check_keys(reg_raw, ("epsilons",), "regulator", errors)
    epsilons = reg_raw.get("epsilons", list(DEFAULT_EPS_LADDER))
    eps_vals = _as_float_list(epsilons, "regulator.epsilons", errors)
    try:
        regulator = RegulatorSchedule(epsilons=tuple(eps_vals))
    except ValueError as exc:
        errors.append(f"regulator.epsilons: {exc}")
        regulator = RegulatorSchedule(epsilons=DEFAULT_EPS_LADDER)

    outputs = _parse_outputs(data.get("outputs", []), scenario, errors)

    # referenced grids must be nonempty and finite
    for out in outputs:
        for name in KIND_GRIDS[out.kind]:
            values = grids.get(name, ())
            if len(values) == 0:
                errors.append(f"grids.{name}: empty")
            elif any(math.isnan(v) or math.isinf(v) for v in values):
                errors.append(f"grids.{name}: entries must be finite")

    if errors:
        raise ConfigError(sorted(set(errors)))

    for out in outputs:
        if out.kind != "probability_map":
            continue
        if params.omega <= 0:
            warnings.warn(
                f"probability_map ({out.path}): params.omega = {params.omega:g}; "
                "probability_map needs omega > 0, so every row will be flagged "
                "invalid", UserWarning, stacklevel=2)
        elif out.backend == "closed":
            bad = [b for b in grids["kappa_sigma2_omega"] if b >= math.pi or b <= 0]
            if bad:
                warnings.warn(
                    f"probability_map ({out.path}): {len(bad)} grid point(s) with "
                    "beta outside (0, pi) will be flagged invalid by the closed-form "
                    "backend; consider backend: quadrature",
                    UserWarning, stacklevel=2)

    return ScenarioConfig(scenario=scenario, params=params, grids=grids,
                          quadrature=quadrature, regulator=regulator,
                          outputs=outputs, source_text=raw_text)
