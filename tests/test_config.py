"""Config parsing: defaults, aggregated errors, and the beta warning."""

import math
import re
import warnings
from pathlib import Path

import pytest

from udwsim.config import (GRID_NAMES, KIND_GRIDS, OUTPUT_KINDS,
                           PROBABILITY_BACKENDS, OutputSpec, ScenarioConfig,
                           validate_config)
from udwsim.errors import ConfigError
from udwsim.quadrature import DEFAULT_EPS_LADDER, QuadratureConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def errors_of(text):
    with pytest.raises(ConfigError) as exc_info:
        validate_config(text)
    return list(exc_info.value.errors)


MINIMAL = "scenario:\n  family: Parallel\n"


class TestDefaults:
    def test_minimal_config_scenario_defaults(self):
        cfg = validate_config(MINIMAL)
        assert cfg.scenario.family == "Parallel"
        assert cfg.scenario.kappa1 == 1.0
        assert cfg.scenario.kappa2 == 0.0
        assert cfg.scenario.L == 0.0

    def test_minimal_config_param_defaults(self):
        cfg = validate_config(MINIMAL)
        assert cfg.params.omega == 1.0
        assert cfg.params.lambda_coupling == 0.01
        assert cfg.params.sigma == 1.0

    def test_minimal_config_grid_defaults(self):
        cfg = validate_config(MINIMAL)
        assert set(cfg.grids) == set(GRID_NAMES)
        assert len(cfg.grids["omega_over_kappa"]) == 20
        assert cfg.grids["omega_over_kappa"][0] == -3.0
        assert cfg.grids["omega_over_kappa"][-1] == 3.0
        assert cfg.grids["kappa_tau"][0] == -4.0
        assert cfg.grids["kappa_tau"][-1] == 4.0
        assert cfg.grids["L_over_sigma"][0] == 0.0
        assert cfg.grids["L_over_sigma"][-1] == 40.0
        assert cfg.grids["kappa_sigma2_omega"][0] == pytest.approx(0.05)
        assert cfg.grids["kappa_sigma2_omega"][-1] == pytest.approx(0.5)

    def test_default_phase_grid_is_endpoint_free(self):
        # 24 points in [0, 2pi), no repeated endpoint: the mean of
        # cos(k dphi) over the grid is then exactly zero for k = 1, 2
        phases = validate_config(MINIMAL).grids["delta_phi"]
        assert len(phases) == 24
        assert phases[0] == 0.0
        assert phases[-1] < 2.0 * math.pi
        assert abs(sum(math.cos(p) for p in phases)) < 1e-12

    def test_minimal_config_quadrature_and_regulator_defaults(self):
        cfg = validate_config(MINIMAL)
        assert cfg.quadrature == QuadratureConfig()
        assert cfg.quadrature.abs_tol == 1e-11
        assert cfg.quadrature.rel_tol == 1e-4
        assert cfg.regulator.epsilons == DEFAULT_EPS_LADDER
        assert cfg.regulator.extrapolation == "richardson_linear"
        assert cfg.outputs == ()

    def test_source_text_is_preserved(self):
        cfg = validate_config(MINIMAL)
        assert cfg.source_text == MINIMAL

    def test_explicit_values_override_defaults(self):
        text = (
            "scenario:\n"
            "  family: Differing\n"
            "  kappa1: 2.0\n"
            "  kappa2: 0.5\n"
            "params:\n"
            "  omega: 3.0\n"
            "  lambda_coupling: 0.02\n"
            "  sigma: 0.25\n"
            "grids:\n"
            "  kappa_tau: [-1.0, 0.0, 1.0]\n"
            "quadrature:\n"
            "  abs_tol: 1.0e-12\n"
            "  rel_tol: 1.0e-3\n"
            "regulator:\n"
            "  epsilons: [2.0e-2, 1.0e-2]\n"
            "  extrapolation: none\n"
        )
        cfg = validate_config(text)
        assert cfg.scenario.kappa2 == 0.5
        assert cfg.params.sigma == 0.25
        assert cfg.grids["kappa_tau"] == (-1.0, 0.0, 1.0)
        # untouched grids keep their defaults
        assert len(cfg.grids["omega_over_kappa"]) == 20
        assert cfg.quadrature == QuadratureConfig(abs_tol=1e-12, rel_tol=1e-3)
        assert cfg.regulator.epsilons == (2e-2, 1e-2)
        assert cfg.regulator.extrapolation == "none"

    def test_output_spec_defaults(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: rates.csv\n"
        )
        cfg = validate_config(text)
        assert cfg.outputs == (OutputSpec(kind="rate_map", path="rates.csv"),)
        out = cfg.outputs[0]
        assert out.backend == "closed"
        assert out.kappa_L == ()
        assert out.kappa_ratio == ()
        assert out.json_mirror is False
        assert out.tolerance == 0.01


class TestTopLevel:
    def test_unparseable_yaml(self):
        errs = errors_of("scenario: [unclosed\n")
        assert len(errs) == 1
        assert errs[0].startswith("config: not parseable YAML")

    def test_non_mapping_top_level(self):
        assert errors_of("- 1\n- 2\n") == ["config: top level must be a mapping"]

    def test_empty_text_reports_missing_family(self):
        errs = errors_of("")
        assert errs == [
            "scenario.family: unknown family None "
            "(choose from SingleAccel, Parallel, AntiParallel, Differing, "
            "ThermalInertialPair)"
        ]

    def test_unknown_top_level_key(self):
        errs = errors_of(MINIMAL + "mystery_section: 1\n")
        assert "config.mystery_section: unknown field" in errs

    def test_section_must_be_mapping(self):
        errs = errors_of(MINIMAL + "params: [1, 2]\n")
        assert "params: expected a mapping" in errs


class TestScenarioSection:
    def test_unknown_family(self):
        errs = errors_of("scenario:\n  family: Spiral\n")
        assert errs == [
            "scenario.family: unknown family 'Spiral' "
            "(choose from SingleAccel, Parallel, AntiParallel, Differing, "
            "ThermalInertialPair)"
        ]

    def test_non_numeric_kappa(self):
        errs = errors_of("scenario:\n  family: Parallel\n  kappa1: fast\n")
        assert "scenario.kappa1: expected a number, got 'fast'" in errs

    def test_boolean_kappa_rejected(self):
        errs = errors_of("scenario:\n  family: Parallel\n  kappa1: true\n")
        assert errs == ["scenario.kappa1: expected a number, got True"]

    def test_unknown_scenario_key(self):
        errs = errors_of(MINIMAL + "  tilt: 0.2\n")
        assert "scenario.tilt: unknown field" in errs

    def test_scenario_constructor_rejection_is_reported(self):
        # Parallel requires L >= 0; the constructor message is passed through
        errs = errors_of("scenario:\n  family: Parallel\n  L: -1.0\n")
        assert len(errs) == 1
        assert errs[0].startswith("scenario: ")

    def test_nonpositive_kappa_rejected(self):
        errs = errors_of("scenario:\n  family: SingleAccel\n  kappa1: 0.0\n")
        assert len(errs) == 1
        assert errs[0].startswith("scenario: ")


class TestParamsSection:
    def test_bad_sigma(self):
        errs = errors_of(MINIMAL + "params:\n  sigma: -0.5\n")
        assert len(errs) == 1
        assert errs[0].startswith("params: ")

    def test_non_finite_value(self):
        errs = errors_of(MINIMAL + "params:\n  omega: .inf\n")
        assert "params.omega: must be finite, got inf" in errs

    def test_unknown_params_key(self):
        errs = errors_of(MINIMAL + "params:\n  gap: 2.0\n")
        assert "params.gap: unknown field" in errs

    def test_large_coupling_accepted_without_warning_here(self):
        # the perturbation-theory warning is suppressed during validation;
        # it belongs to explicit DetectorParams construction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = validate_config(MINIMAL + "params:\n  lambda_coupling: 0.5\n")
        assert cfg.params.lambda_coupling == 0.5


class TestGridsSection:
    def test_unknown_grid_name(self):
        errs = errors_of(MINIMAL + "grids:\n  radius: [1.0]\n")
        assert "grids.radius: unknown field" in errs

    def test_grid_not_a_list(self):
        errs = errors_of(MINIMAL + "grids:\n  kappa_tau: 3\n")
        assert "grids.kappa_tau: expected a list of numbers" in errs

    def test_explicit_empty_grid(self):
        errs = errors_of(MINIMAL + "grids:\n  kappa_tau: []\n")
        assert "grids.kappa_tau: empty" in errs

    def test_empty_grid_referenced_by_output_reported_once(self):
        # both the list parser and the per-output reference check flag the
        # empty grid; duplicates collapse in the sorted-unique error list
        text = MINIMAL + (
            "grids:\n"
            "  omega_over_kappa: []\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
        )
        errs = errors_of(text)
        assert errs.count("grids.omega_over_kappa: empty") == 1

    def test_non_finite_grid_entry_blocks_referencing_output(self):
        text = MINIMAL + (
            "grids:\n"
            "  kappa_tau: [0.0, .inf]\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
        )
        errs = errors_of(text)
        assert "grids.kappa_tau[1]: must be finite, got inf" in errs
        assert "grids.kappa_tau: entries must be finite" in errs

    def test_unreferenced_bad_grid_still_errors_on_parse(self):
        # list-level parsing runs regardless of which outputs use the grid
        errs = errors_of(MINIMAL + "grids:\n  delta_phi: [a]\n")
        assert "grids.delta_phi[0]: expected a number, got 'a'" in errs


class TestQuadratureAndRegulator:
    def test_unknown_quadrature_key(self):
        errs = errors_of(MINIMAL + "quadrature:\n  panels: 4\n")
        assert "quadrature.panels: unknown field" in errs

    @pytest.mark.parametrize("key", ["s_max", "max_subdivisions",
                                     "oscillation_resolution"])
    def test_retired_quadrature_keys_are_unknown(self, key):
        # the rate cut follows the scenario, and mesh resolution and
        # refinement depth are fixed by the response layer
        errs = errors_of(MINIMAL + f"quadrature:\n  {key}: 8\n")
        assert errs == [f"quadrature.{key}: unknown field"]

    def test_invalid_quadrature_value_falls_back(self):
        errs = errors_of(MINIMAL + "quadrature:\n  rel_tol: -1.0\n")
        assert errs == ["quadrature: tolerances must be positive"]

    def test_yaml11_string_tolerance_is_a_number(self):
        # YAML 1.1 needs a dot in a float, so 1e-3 loads as the string "1e-3"
        cfg = validate_config(MINIMAL + "quadrature:\n  rel_tol: 1e-3\n")
        assert cfg.quadrature == QuadratureConfig(rel_tol=1e-3)

    def test_boolean_tolerance_rejected(self):
        errs = errors_of(MINIMAL + "quadrature:\n  rel_tol: true\n")
        assert errs == ["quadrature.rel_tol: expected a number, got True"]

    def test_readme_schema_sections_validate(self):
        # the quadrature: and regulator: sections of the README's schema
        # block, under a minimal scenario, must parse without error
        block = re.search(r"### Config schema.*?```yaml\n(.*?)```",
                          README.read_text(encoding="utf-8"), re.S).group(1)
        sections = re.search(r"^quadrature:.*?(?=^outputs:)", block,
                             re.S | re.M).group(0)
        assert "\nregulator:\n" in sections
        cfg = validate_config(MINIMAL + sections)
        assert cfg.quadrature == QuadratureConfig()
        assert cfg.regulator.epsilons == DEFAULT_EPS_LADDER

    def test_unknown_extrapolation_mode(self):
        errs = errors_of(MINIMAL + "regulator:\n  extrapolation: cubic\n")
        assert errs == [
            "regulator.extrapolation: unknown mode 'cubic' "
            "(choose from richardson_linear, richardson_quadratic, none)"
        ]

    def test_non_decreasing_epsilons_rejected(self):
        errs = errors_of(MINIMAL + "regulator:\n  epsilons: [1.0e-3, 1.0e-2]\n")
        assert any(e.startswith("regulator.epsilons: ") for e in errs)

    def test_unknown_regulator_key(self):
        errs = errors_of(MINIMAL + "regulator:\n  order: 2\n")
        assert "regulator.order: unknown field" in errs


class TestOutputsSection:
    def test_outputs_must_be_list(self):
        errs = errors_of(MINIMAL + "outputs: 7\n")
        assert "outputs: expected a list" in errs

    def test_output_item_must_be_mapping(self):
        errs = errors_of(MINIMAL + "outputs:\n  - 12\n")
        assert "outputs[0]: expected a mapping" in errs

    def test_unknown_kind(self):
        text = MINIMAL + "outputs:\n  - kind: mystery\n    path: x.csv\n"
        errs = errors_of(text)
        assert errs == [
            "outputs[0].kind: unknown kind 'mystery' "
            "(choose from probability_map, rate_map, kms_report, "
            "visibility_scan)"
        ]

    def test_missing_path(self):
        errs = errors_of(MINIMAL + "outputs:\n  - kind: rate_map\n")
        assert "outputs[0].path: must be a nonempty string" in errs

    def test_blank_path(self):
        text = MINIMAL + "outputs:\n  - kind: rate_map\n    path: '  '\n"
        errs = errors_of(text)
        assert "outputs[0].path: must be a nonempty string" in errs

    def test_probability_map_needs_separation_family(self):
        text = (
            "scenario:\n  family: SingleAccel\n"
            "outputs:\n  - kind: probability_map\n    path: p.csv\n"
        )
        errs = errors_of(text)
        assert ("outputs[0].kind: probability_map sweeps separation and "
                "needs family Parallel or AntiParallel") in errs

    def test_probability_map_backend_choices(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: p.csv\n"
            "    backend: symbolic\n"
        )
        errs = errors_of(text)
        assert "outputs[0].backend: must be one of closed, quadrature" in errs

    def test_backend_rejected_on_other_kinds(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    backend: closed\n"
        )
        errs = errors_of(text)
        assert "outputs[0].backend: only probability_map takes a backend" in errs

    @pytest.mark.parametrize("kind", ["rate_map", "probability_map",
                                      "visibility_scan"])
    def test_tolerance_rejected_on_other_kinds(self, kind):
        text = MINIMAL + (
            "outputs:\n"
            f"  - kind: {kind}\n"
            "    path: r.csv\n"
            "    tolerance: 7.5\n"
        )
        errs = errors_of(text)
        assert "outputs[0].tolerance: only kms_report takes a tolerance" in errs

    def test_kms_report_takes_a_tolerance(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: kms_report\n"
            "    path: k.csv\n"
            "    tolerance: 7.5\n"
        )
        assert validate_config(text).outputs[0].tolerance == 7.5

    def test_visibility_needs_two_branches(self):
        text = (
            "scenario:\n  family: SingleAccel\n"
            "outputs:\n  - kind: visibility_scan\n    path: v.csv\n"
        )
        errs = errors_of(text)
        assert "outputs[0].kind: visibility_scan needs a two-branch family" in errs

    def test_kappa_L_needs_separation_family(self):
        text = (
            "scenario:\n  family: Differing\n  kappa2: 0.5\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_L: [0.5]\n"
        )
        errs = errors_of(text)
        assert ("outputs[0].kappa_L: family Differing has no separation "
                "parameter") in errs

    def test_kappa_ratio_only_for_differing(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_ratio: [0.5]\n"
        )
        errs = errors_of(text)
        assert ("outputs[0].kappa_ratio: only Differing sweeps the "
                "acceleration ratio") in errs

    def test_kappa_ratio_must_be_positive(self):
        text = (
            "scenario:\n  family: Differing\n  kappa2: 0.5\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_ratio: [0.5, -1.0]\n"
        )
        errs = errors_of(text)
        assert "outputs[0].kappa_ratio: ratios must be > 0" in errs

    def test_sweep_value_the_family_refuses_is_reported(self):
        # every variant scenario is built at validation, as the run builds it
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_L: [0.5, -1.0]\n"
        )
        assert errors_of(text) == ["outputs[0].kappa_L: Parallel requires L >= 0"]

    def test_kappa_L_and_ratio_exclusive(self):
        text = (
            "scenario:\n  family: Differing\n  kappa2: 0.5\n"
            "outputs:\n"
            "  - kind: kms_report\n"
            "    path: k.csv\n"
            "    kappa_L: [0.5]\n"
            "    kappa_ratio: [2.0]\n"
        )
        errs = errors_of(text)
        # the family gate on kappa_L fires first for Differing; use a family
        # where both sweeps parse so only exclusivity can complain
        assert any("kappa_L" in e for e in errs)

    def test_exclusivity_message_exact(self):
        # ThermalInertialPair admits kappa_L; adding kappa_ratio still fails
        # the ratio family gate, so exclusivity needs a crafted pair where
        # both lists survive parsing. No family admits both, so the check
        # is reachable only if the family gates are skipped (scenario None).
        text = (
            "scenario:\n  family: Nowhere\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_L: [0.5]\n"
            "    kappa_ratio: [2.0]\n"
        )
        errs = errors_of(text)
        assert "outputs[0]: kappa_L and kappa_ratio are exclusive" in errs

    def test_bad_tolerance(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: kms_report\n"
            "    path: k.csv\n"
            "    tolerance: 0.0\n"
        )
        errs = errors_of(text)
        assert "outputs[0].tolerance: must be > 0" in errs

    def test_json_mirror_must_be_bool(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    json_mirror: yes please\n"
        )
        errs = errors_of(text)
        assert "outputs[0].json_mirror: must be a boolean" in errs

    def test_unknown_output_key(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    colour: blue\n"
        )
        errs = errors_of(text)
        assert "outputs[0].colour: unknown field" in errs

    def test_valid_kappa_L_sweep_parses(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_L: [0.5, 1.0]\n"
        )
        cfg = validate_config(text)
        assert cfg.outputs[0].kappa_L == (0.5, 1.0)

    def test_valid_kappa_ratio_sweep_parses(self):
        text = (
            "scenario:\n  family: Differing\n  kappa2: 0.5\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
            "    kappa_ratio: [0.25, 0.5]\n"
        )
        cfg = validate_config(text)
        assert cfg.outputs[0].kappa_ratio == (0.25, 0.5)


class TestErrorAggregation:
    def test_errors_are_sorted_and_unique(self):
        text = (
            "scenario:\n"
            "  family: Spiral\n"
            "params:\n"
            "  omega: what\n"
            "grids:\n"
            "  kappa_tau: []\n"
            "unknown_key: 1\n"
        )
        errs = errors_of(text)
        assert errs == sorted(errs)
        assert len(errs) == len(set(errs))
        assert len(errs) >= 4

    def test_all_sections_contribute(self):
        text = (
            "scenario:\n  family: Spiral\n"
            "outputs:\n  - kind: mystery\n    path: x.csv\n"
        )
        errs = errors_of(text)
        assert any(e.startswith("scenario.family") for e in errs)
        assert any(e.startswith("outputs[0].kind") for e in errs)


class TestBetaWarning:
    def test_closed_backend_warns_on_out_of_range_beta(self):
        text = MINIMAL + (
            "grids:\n"
            "  kappa_sigma2_omega: [0.2, 4.0]\n"
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: p.csv\n"
        )
        with pytest.warns(UserWarning, match=r"1 grid point\(s\) with beta"):
            validate_config(text)

    def test_quadrature_backend_does_not_warn(self):
        text = MINIMAL + (
            "grids:\n"
            "  kappa_sigma2_omega: [0.2, 4.0]\n"
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: p.csv\n"
            "    backend: quadrature\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_config(text)

    def test_in_range_grid_does_not_warn(self):
        text = MINIMAL + (
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: p.csv\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_config(text)


class TestNonPositiveGapWarning:
    @pytest.mark.parametrize("backend", ["closed", "quadrature"])
    @pytest.mark.parametrize("omega", [-1.0, 0.0])
    def test_probability_map_warns_at_omega_not_positive(self, backend, omega):
        text = MINIMAL + (
            f"params:\n  omega: {omega}\n"
            "grids:\n"
            "  L_over_sigma: [0.0, 1.0]\n"
            "  kappa_sigma2_omega: [0.2, 0.4]\n"
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: p.csv\n"
            f"    backend: {backend}\n"
        )
        with pytest.warns(UserWarning, match=r"probability_map \(p\.csv\).*"
                                             r"needs omega > 0"):
            validate_config(text)

    def test_other_kinds_do_not_warn(self):
        text = MINIMAL + (
            "params:\n  omega: -1.0\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_config(text)


class TestConstants:
    def test_every_kind_has_grids(self):
        assert set(KIND_GRIDS) == set(OUTPUT_KINDS)
        for kind, names in KIND_GRIDS.items():
            assert names, kind
            assert set(names) <= set(GRID_NAMES)

    def test_backends(self):
        assert PROBABILITY_BACKENDS == ("closed", "quadrature")

    def test_scenario_config_is_frozen(self):
        cfg = validate_config(MINIMAL)
        assert isinstance(cfg, ScenarioConfig)
        with pytest.raises(AttributeError):
            cfg.params = None
