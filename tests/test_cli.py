"""End-to-end CLI tests: in-process main() calls against temp directories."""

import concurrent.futures
import hashlib
import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import udwsim
from udwsim import cli
from udwsim.cli import main
from udwsim.closed_form import DetectorParams, p_parallel
from udwsim.kinematics import TrajectoryScenario
from udwsim.quadrature import (DEFAULT_EPS_LADDER, QuadratureConfig,
                               RegulatorSchedule)
from udwsim.response import (excitation_probability_contour,
                             excitation_probability_quadrature, planck_rate,
                             transition_rate)

RATE_CFG = (
    "scenario:\n"
    "  family: SingleAccel\n"
    "  kappa1: 1.0\n"
    "grids:\n"
    "  omega_over_kappa: [-1.0, 1.0]\n"
    "  kappa_tau: [0.0]\n"
    "outputs:\n"
    "  - kind: rate_map\n"
    "    path: r.csv\n"
)

PROB_CFG = (
    "scenario:\n"
    "  family: Parallel\n"
    "  kappa1: 1.0\n"
    "grids:\n"
    "  L_over_sigma: [0.0, 2.0]\n"
    "  kappa_sigma2_omega: [0.2, 4.0]\n"
    "outputs:\n"
    "  - kind: probability_map\n"
    "    path: p.csv\n"
    "    json_mirror: true\n"
)


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def data_rows(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if not l.startswith("#")]


def header_lines(path):
    return [l[2:] for l in path.read_text().splitlines() if l.startswith("# ")]


class TestOracle:
    def test_planck_value(self, capsys):
        rc = main(["oracle", "planck", "--omega", "1.0", "--kappa", "1.0"])
        assert rc == 0
        assert capsys.readouterr().out == "0.00029776880788837915\n"

    def test_detailed_balance_between_two_calls(self, capsys):
        main(["oracle", "planck", "--omega", "0.5", "--kappa", "1.0"])
        absorb = float(capsys.readouterr().out)
        main(["oracle", "planck", "--omega", "-0.5", "--kappa", "1.0"])
        emit = float(capsys.readouterr().out)
        assert absorb / emit == pytest.approx(math.exp(-math.pi), rel=1e-12)

    def test_invalid_kappa(self, capsys):
        rc = main(["oracle", "planck", "--omega", "1.0", "--kappa", "-1.0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLimits:
    @pytest.mark.parametrize("family", ["SingleAccel", "Parallel",
                                        "AntiParallel", "Differing"])
    def test_all_families_pass(self, family, capsys):
        rc = main(["limits", family])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out


class TestCheck:
    def test_valid_config_echo(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario:\n  family: Parallel\n  L: 0.5\n")
        rc = main(["check", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("ok\n")
        assert "scenario: family=Parallel kappa1=1 kappa2=0 L=0.5" in out
        assert "params: omega=1 lambda_coupling=0.01 sigma=1" in out
        assert "grid kappa_tau: 20 points in [-4, 4]" in out
        assert "regulator: epsilons=0.01,0.005,0.0025 extrapolation=richardson_linear" in out
        assert "output: none configured" in out

    def test_configured_output_is_listed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RATE_CFG)
        main(["check", cfg])
        assert "output: kind=rate_map path=r.csv" in capsys.readouterr().out

    def test_override_flags_change_echo(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario:\n  family: Parallel\n")
        rc = main(["check", cfg, "--eps-ladder", "2e-2,1e-2",
                   "--quad-tol", "1e-3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epsilons=0.02,0.01" in out
        assert "rel_tol=0.001" in out

    @pytest.mark.parametrize("flags, message", [
        (["--eps-ladder", "inf,1e-3"], "--eps-ladder: all epsilons must be positive and finite"),
        (["--eps-ladder", "nan,1e-3"], "--eps-ladder: all epsilons must be positive and finite"),
        (["--quad-tol", "inf"], "--quad-tol: tolerances must be finite"),
        (["--eps-ladder", "1e-2,2e-2"], "--eps-ladder: epsilons must be strictly decreasing"),
        (["--eps-ladder", "1e-2"],
         "--eps-ladder: extrapolating schedules need at least 2 epsilons"),
        (["--quad-tol", "-1"], "--quad-tol: tolerances must be positive"),
    ], ids=["inf-epsilon", "nan-epsilon", "inf-tolerance", "increasing-ladder",
            "one-rung-ladder", "negative-tolerance"])
    def test_non_finite_override_exit_2(self, tmp_path, capsys, flags, message):
        # the config file refuses .inf and .nan; the flags must too. Every
        # value that parses but that the schedule or the tolerances refuse
        # names its flag, apart from the config's regulator: and quadrature:
        cfg = write_cfg(tmp_path, "scenario:\n  family: Parallel\n")
        rc = main(["check", cfg, *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("ladder", ["", "1e-2, x", "1e-2,"],
                             ids=["empty", "not-a-number", "trailing-comma"])
    def test_malformed_eps_ladder_exit_2(self, tmp_path, capsys, command, ladder):
        # an empty value is refused, not read as no override, and the
        # message names the flag
        cfg = write_cfg(tmp_path, RATE_CFG)
        rc = main([command, cfg, "--eps-ladder", ladder, *(
            ["--out-dir", str(tmp_path / "out")] if command == "run" else [])])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --eps-ladder: expected comma-separated numbers, got {ladder!r}\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario:\n  family: Spiral\n")
        rc = main(["check", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: scenario.family: unknown family 'Spiral'" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["check", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRunRateMap:
    def test_writes_csv_with_headers(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, RATE_CFG)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        out = tmp_path / "r.csv"
        headers = header_lines(out)
        assert headers[0] == "udwsim output kind=rate_map"
        blob = RATE_CFG.encode()
        sha = hashlib.sha1(b"blob %d\x00" % len(blob) + blob).hexdigest()
        assert headers[1] == f"config sha1={sha}"
        assert "scenario family=SingleAccel kappa1=1 kappa2=0 L=0" in headers
        assert headers[-1] == ("columns: omega_over_kappa,kappa_tau,"
                               "rate_over_lambda2,error_over_lambda2,valid")
        assert any(h.startswith("regulator epsilons=0.01,0.005,0.0025")
                   for h in headers)

    def test_rows_match_direct_evaluation(self, tmp_path):
        # the emission row (omega/kappa = -1) is the frozen reference rate
        cfg = write_cfg(tmp_path, RATE_CFG)
        main(["run", cfg, "--out-dir", str(tmp_path)])
        rows = data_rows(tmp_path / "r.csv")
        assert len(rows) == 2
        emission = rows[0].split(",")
        assert emission[0] == "-1"
        assert float(emission[2]) == pytest.approx(0.15945271189978372, rel=1e-9)
        assert emission[4] == "1"
        absorption = rows[1].split(",")
        assert float(absorption[2]) == pytest.approx(2.9776880788837915e-4,
                                                     rel=1e-9)

    def test_coincident_thermal_pair_rows_are_valid(self, tmp_path):
        # L omitted is L = 0: both static detectors sit at one point, and
        # every branch pair is the local one
        cfg = write_cfg(tmp_path, RATE_CFG.replace("SingleAccel", "ThermalInertialPair"))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        rows = [row.split(",") for row in data_rows(tmp_path / "r.csv")]
        assert len(rows) == 2
        assert all(row[-1] == "1" for row in rows)
        assert float(rows[1][2]) == pytest.approx(planck_rate(1.0, 1.0), rel=1e-4)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, RATE_CFG)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        main(["run", cfg, "--out-dir", str(tmp_path / "a")])
        main(["run", cfg, "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "r.csv").read_bytes() == \
            (tmp_path / "b" / "r.csv").read_bytes()

    def test_worker_pool_output_identical_to_serial(self, tmp_path):
        cfg = write_cfg(tmp_path, RATE_CFG)
        (tmp_path / "serial").mkdir()
        (tmp_path / "pool").mkdir()
        main(["run", cfg, "--out-dir", str(tmp_path / "serial")])
        rc = main(["run", cfg, "--out-dir", str(tmp_path / "pool"),
                   "--workers", "3"])
        assert rc == 0
        assert (tmp_path / "serial" / "r.csv").read_bytes() == \
            (tmp_path / "pool" / "r.csv").read_bytes()

    def test_kappa_L_sweep_writes_suffixed_files(self, tmp_path):
        text = (
            "scenario:\n"
            "  family: Parallel\n"
            "  kappa1: 2.0\n"
            "grids:\n"
            "  omega_over_kappa: [1.0]\n"
            "  kappa_tau: [0.0]\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: rates.csv\n"
            "    kappa_L: [0.5, 1.0]\n"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        half = tmp_path / "rates_kL0.5.csv"
        one = tmp_path / "rates_kL1.csv"
        assert half.exists() and one.exists()
        # kappa_L is in kappa units: L = value / kappa1
        assert "scenario family=Parallel kappa1=2 kappa2=0 L=0.25" in \
            header_lines(half)
        assert "scenario family=Parallel kappa1=2 kappa2=0 L=0.5" in \
            header_lines(one)

    def test_refused_sweep_value_exits_2_before_writing(self, tmp_path, capsys):
        text = ("scenario:\n  family: Parallel\n"
                "outputs:\n  - kind: rate_map\n    path: rates.csv\n"
                "    kappa_L: [0.5, -1.0]\n")
        rc = main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: outputs[0].kappa_L: Parallel requires L >= 0\n"
        assert not (tmp_path / "out").exists()

    def _rate_headers(self, tmp_path, scenario):
        """{file: header lines} of a rate_map and a kms_report of RATE_CFG's
        grids, with its scenario block lines replaced by scenario."""
        text = (RATE_CFG.replace("  family: SingleAccel\n", scenario)
                + "  - kind: kms_report\n    path: k.csv\n")
        main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)])
        return {name: header_lines(tmp_path / name) for name in ("r.csv", "k.csv")}

    def test_header_names_versions_and_rate_method(self, tmp_path):
        # SingleAccel's one branch pair is stationary: its rates are the
        # closed-form spectrum, and no header claims a ladder or a tolerance
        versions = (f"versions udwsim={udwsim.__version__} numpy={np.__version__} "
                    f"scipy={scipy.__version__}")
        for headers in self._rate_headers(tmp_path, "  family: SingleAccel\n").values():
            assert versions in headers
            method = [h for h in headers if h.startswith("method: ")]
            assert method == [cli._method_line(())]
            assert "stationary branch pairs exact from their closed-form spectrum" in method[0]
            assert "regulator ladder" not in method[0]
            regulator = [h for h in headers if h.startswith("regulator epsilons=")]
            assert regulator[0].endswith("(not used: no branch pair took the regulator ladder)")
            tolerance = [h for h in headers if h.startswith("quadrature abs_tol=")]
            assert tolerance[0].endswith(
                "(not used: every rate is exact from its closed-form spectrum)")

    def test_header_names_the_ladder_of_a_cross_pair(self, tmp_path):
        # Parallel at kappa L = 1 takes its cross pair exactly on each rung of
        # the ladder, and the tolerance gates those rungs' rounding bounds
        headers = self._rate_headers(tmp_path, "  family: Parallel\n  L: 1.0\n")
        for lines in headers.values():
            method = [h for h in lines if h.startswith("method: ")]
            assert method == [cli._method_line(("lerch",))]
            assert "other cross pairs exact on each rung of the regulator ladder" in method[0]
            assert "closed form (two Lerch transcendents)" in method[0]
            assert [h for h in lines if h.startswith("regulator epsilons=")][0].endswith(
                "(pointlike limit eps->0 taken after integration)")
            assert ("quadrature abs_tol=1e-11 rel_tol=0.0001 "
                    "(gates the rounding bound of each closed-form rung)") in lines

    def test_values_are_written_at_round_trip_precision(self, tmp_path):
        cfg = write_cfg(tmp_path, RATE_CFG.replace("[-1.0, 1.0]", "[-1.0, 0.1]"))
        main(["run", cfg, "--out-dir", str(tmp_path)])
        rows = [row.split(",") for row in data_rows(tmp_path / "r.csv")]
        # integer-valued floats keep their short form
        assert rows[0][0] == "-1" and rows[0][1] == "0" and rows[0][4] == "1"
        assert rows[1][0] == "0.1"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = DetectorParams(omega=0.1, lambda_coupling=1.0, sigma=1.0)
        lib = transition_rate(TrajectoryScenario("SingleAccel", kappa1=1.0), unit, 0.0)
        assert float(rows[1][2]) == lib.value
        assert float(rows[1][3]) == lib.error_estimate
        assert rows[1][2] == repr(lib.value)

    def test_eps_ladder_override_lands_in_header(self, tmp_path):
        cfg = write_cfg(tmp_path, RATE_CFG)
        main(["run", cfg, "--out-dir", str(tmp_path),
              "--eps-ladder", "2e-2,1e-2"])
        assert any(h.startswith("regulator epsilons=0.02,0.01")
                   for h in header_lines(tmp_path / "r.csv"))


class TestRunSlowAcceleration:
    """kappa1 = 0.1: the rate integrals must reach 40 decay lengths, 400 in
    time, whatever the config's absolute regulator ladder."""

    SINGLE = (
        "scenario:\n"
        "  family: SingleAccel\n"
        "  kappa1: 0.1\n"
        "grids:\n"
        "  omega_over_kappa: [-1.0, 0.5, 1.0, 2.0]\n"
        "  kappa_tau: [0.0]\n"
        "outputs:\n"
        "  - kind: rate_map\n"
        "    path: r.csv\n"
        "  - kind: kms_report\n"
        "    path: k.csv\n"
    )

    def test_single_branch_rates_are_planckian(self, tmp_path):
        main(["run", write_cfg(tmp_path, self.SINGLE), "--out-dir", str(tmp_path)])
        rows = [list(map(float, r.split(","))) for r in data_rows(tmp_path / "r.csv")]
        assert len(rows) == 4
        for w, _, rate, err, valid in rows:
            assert valid == 1
            assert abs(rate - planck_rate(0.1, 0.1 * w)) <= err

    def test_kms_report_is_satisfied(self, tmp_path):
        main(["run", write_cfg(tmp_path, self.SINGLE), "--out-dir", str(tmp_path)])
        rows = [r.split(",") for r in data_rows(tmp_path / "k.csv")]
        assert len(rows) == 4
        assert all(r[-2:] == ["1", "1"] for r in rows)

    def test_thermal_pair_row_matches_the_library(self, tmp_path):
        text = (
            "scenario:\n"
            "  family: ThermalInertialPair\n"
            "  kappa1: 0.1\n"
            "  L: 10.0\n"
            "grids:\n"
            "  omega_over_kappa: [1.0]\n"
            "  kappa_tau: [0.0]\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: r.csv\n"
        )
        main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)])
        _, _, rate, err, valid = data_rows(tmp_path / "r.csv")[0].split(",")
        assert valid == "1"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = DetectorParams(omega=0.1, lambda_coupling=1.0, sigma=1.0)
        lib = transition_rate(TrajectoryScenario("ThermalInertialPair", kappa1=0.1,
                                                 L=10.0), unit, 0.0)
        assert abs(float(rate) - lib.value) <= float(err) + lib.error_estimate


def ladder_cfg(kappa_tau="[-1.0, 0.0, 1.0]", outputs=""):
    """Parallel kappa L = 1: its cross pairs take the regulator ladder."""
    return (
        "scenario:\n"
        "  family: Parallel\n"
        "  kappa1: 1.0\n"
        "  L: 1.0\n"
        "grids:\n"
        "  omega_over_kappa: [-0.5, 0.0, 0.5]\n"
        f"  kappa_tau: {kappa_tau}\n"
        "outputs:\n"
        "  - kind: rate_map\n"
        "    path: r.csv\n"
        "  - kind: kms_report\n"
        "    path: k.csv\n"
        + outputs
    )


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool the run starts. The stand-in
    pool maps in this process, so that no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def ladder_map_cfg():
    """A quadrature-backend Parallel map of 4 points at L > 0, where every
    point's cross pair takes the regulator ladder."""
    return PROB_CFG.replace("[0.0, 2.0]", "[1.0, 2.0]").replace(
        "[0.2, 4.0]", "[0.2, 0.4]").replace("json_mirror: true", "backend: quadrature")


class TestRateRows:
    """rate_map and kms_report share one row of rates per kappa tau."""

    def test_worker_pool_output_identical_to_serial(self, tmp_path):
        # the rates run in this process at any --workers; the map's points
        # take the regulator ladder, so --workers 2 runs them in a real pool
        cfg = write_cfg(tmp_path, ladder_cfg(outputs=(
            "  - kind: probability_map\n    path: p.csv\n    backend: quadrature\n"
        )).replace("grids:\n", "grids:\n  L_over_sigma: [2.0]\n"
                   "  kappa_sigma2_omega: [0.2, 0.4]\n"))
        for workers in ("1", "2"):
            rc = main(["run", cfg, "--out-dir", str(tmp_path / workers),
                       "--workers", workers])
            assert rc == 0
        for name, rows in (("r.csv", 9), ("k.csv", 9), ("p.csv", 2)):
            serial = (tmp_path / "1" / name).read_bytes()
            assert serial == (tmp_path / "2" / name).read_bytes()
            assert len(data_rows(tmp_path / "1" / name)) == rows
        assert [r.split(",")[-1] for r in data_rows(tmp_path / "1" / "p.csv")] == ["1", "1"]

    def test_one_row_call_per_kappa_tau_serves_both_outputs(self, tmp_path, monkeypatch):
        # one rate_table call holds every kappa tau row of both outputs, and
        # no rate is evaluated again, not even in a row that fails
        calls, original = [], cli.rate_table
        single = []

        def recording(scenario, gaps, taus, *args):
            calls.append((list(taus), gaps))
            return original(scenario, gaps, taus, *args)

        monkeypatch.setattr(cli, "rate_table", recording)
        monkeypatch.setattr(cli, "transition_rate", lambda *args: single.append(args))
        main(["run", write_cfg(tmp_path, ladder_cfg()), "--out-dir", str(tmp_path)])
        # omega and -omega once each: -0.0 is the gap 0.0
        assert calls == [([-1.0, 0.0, 1.0], (-0.5, 0.0, 0.5))]
        # rate(0)/rate(-0) is one rate divided by itself
        kms = [r.split(",") for r in data_rows(tmp_path / "k.csv")]
        assert [r[2:] for r in kms if r[0] == "0"] == [["1", "1", "0", "1", "1"]] * 3
        # Parallel kappa L = 2: kappa tau = 0 is the degenerate row (BC - AD
        # = 0) and kappa tau = 400 leaves the hyperbolic range; every point of
        # both fails, and only their rows are valid=0
        calls.clear()
        text = ladder_cfg("[0.0, 1.0, 400.0]").replace("L: 1.0", "L: 2.0")
        main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "failing")])
        assert calls == [([0.0, 1.0, 400.0], (-0.5, 0.0, 0.5))]
        assert single == []
        for name in ("r.csv", "k.csv"):
            rows = [r.split(",") for r in data_rows(tmp_path / "failing" / name)]
            assert len(rows) == 9
            assert sorted(r[1] for r in rows if r[-1] == "0") == ["0"] * 3 + ["400"] * 3

    def test_degenerate_cross_pair_row_is_invalid_alone(self, tmp_path):
        # Parallel kappa L = 2 at kappa tau = 0: pair (2,1) has BC - AD = 0,
        # and its rungs are NaN; both outputs flag that row, not a NaN rate
        # with valid=1, and every other row keeps a finite value
        main(["run", write_cfg(tmp_path, ladder_cfg().replace("L: 1.0", "L: 2.0")),
              "--out-dir", str(tmp_path)])
        for name in ("r.csv", "k.csv"):
            rows = [r.split(",") for r in data_rows(tmp_path / name)]
            assert {r[-1] for r in rows if r[1] == "0"} == {"0"}
            assert all(r[-1] == "1" and math.isfinite(float(r[2])) for r in rows if r[1] != "0")

    def test_only_a_ladder_map_starts_a_pool(self, tmp_path, pool_sizes):
        # rates, KMS reports, closed maps and maps whose branch pairs are all
        # stationary run in this process under --workers 2
        text = ladder_cfg(outputs="  - kind: probability_map\n    path: p.csv\n"
                          "  - kind: probability_map\n    path: q.csv\n"
                          "    backend: quadrature\n")
        text = text.replace("    path: k.csv\n", "    path: k.csv\n    kappa_L: [1.0, 2.0]\n")
        text = text.replace("grids:\n", "grids:\n  L_over_sigma: [0.0]\n"
                            "  kappa_sigma2_omega: [0.2, 0.4]\n")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path),
                     "--workers", "2"]) == 0
        assert pool_sizes == []
        for name in ("r.csv", "k_kL1.csv", "k_kL2.csv", "p.csv", "q.csv"):
            assert (tmp_path / name).exists()
        # a quadrature map whose points take the regulator ladder starts one
        assert main(["run", write_cfg(tmp_path, ladder_map_cfg()), "--out-dir",
                     str(tmp_path / "ladder"), "--workers", "2"]) == 0
        assert pool_sizes == [2]
        assert len(data_rows(tmp_path / "ladder" / "p.csv")) == 4

    @pytest.mark.parametrize("workers, cpus, size", [
        ("500", 2, 2), ("500", 64, 4), ("3", 64, 3), ("2", 1, None)])
    def test_pool_has_no_more_processes_than_points_or_cpus(
            self, tmp_path, monkeypatch, pool_sizes, workers, cpus, size):
        # a forking pool starts all max_workers processes on the first
        # submit; the map has 4 points
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(cli, "excitation_probability_quadrature",
                            lambda *args: SimpleNamespace(value=1.0,
                                                          cross_pair_methods=("ladder",)))
        assert main(["run", write_cfg(tmp_path, ladder_map_cfg()), "--out-dir",
                     str(tmp_path), "--workers", workers]) == 0
        assert pool_sizes == ([size] if size else [])
        assert data_rows(tmp_path / "p.csv") == [
            "1,0.2,1,1", "1,0.4,1,1", "2,0.2,1,1", "2,0.4,1,1"]

    def test_out_of_range_kappa_tau_row_is_invalid_alone(self, tmp_path):
        # at kappa tau = 400 the cross correlator leaves the evaluated range
        # of sinh/cosh (HyperbolicRangeError) at every gap
        main(["run", write_cfg(tmp_path, ladder_cfg("[0.0, 400.0, 1.0]")),
              "--out-dir", str(tmp_path / "far")])
        main(["run", write_cfg(tmp_path, ladder_cfg("[0.0, 1.0]")),
              "--out-dir", str(tmp_path / "near")])
        for name, width in (("r.csv", 5), ("k.csv", 7)):
            far = [r.split(",") for r in data_rows(tmp_path / "far" / name)]
            assert len(far) == 9
            bad = [r for r in far if r[1] == "400"]
            assert len(bad) == 3
            assert all(r[2] == "nan" and r[-1] == "0" and len(r) == width for r in bad)
            good = [",".join(r) for r in far if r[1] != "400"]
            assert good == data_rows(tmp_path / "near" / name)


class TestRunProbabilityMap:
    def run_prob(self, tmp_path):
        cfg = write_cfg(tmp_path, PROB_CFG)
        # beta = 4 > pi triggers the advisory warning at validation time
        with pytest.warns(UserWarning, match="beta outside"):
            rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        return tmp_path / "p.csv"

    def test_out_of_range_beta_rows_are_invalid(self, tmp_path):
        rows = [r.split(",") for r in data_rows(self.run_prob(tmp_path))]
        assert len(rows) == 4
        by_point = {(r[0], r[1]): r for r in rows}
        for L in ("0", "2"):
            bad = by_point[(L, "4")]
            assert bad[2] == "nan"
            assert bad[3] == "0"
            good = by_point[(L, "0.2")]
            assert good[3] == "1"
            assert float(good[2]) > 0

    def test_valid_rows_match_closed_form(self, tmp_path):
        rows = [r.split(",") for r in data_rows(self.run_prob(tmp_path))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = DetectorParams(omega=1.0, lambda_coupling=1.0, sigma=1.0)
        for r in rows:
            if r[1] != "0.2":
                continue
            kappa = 0.2  # beta / (sigma^2 omega) with sigma = omega = 1
            expected = p_parallel(unit, kappa, float(r[0])).probability
            assert float(r[2]) == pytest.approx(expected, rel=1e-10)

    def test_json_mirror_maps_nan_to_none(self, tmp_path):
        csv_path = self.run_prob(tmp_path)
        doc = json.loads(csv_path.with_suffix(".json").read_text())
        assert doc["kind"] == "probability_map"
        assert doc["columns"] == ["L_over_sigma", "kappa_sigma2_omega",
                                  "P_over_lambda2", "valid"]
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            if row[1] == 4:
                assert row[2] is None
                assert row[3] == 0
            else:
                assert isinstance(row[2], float)

    def test_antiparallel_closed_row_past_kappa_L_2_is_valid(self, tmp_path):
        # kappa = 4, kappa L = 2.2, beta = 0.6, sigma omega = 4: the closed
        # form takes the point and lands within the 3 / (2 (sigma omega)^2)
        # = 9.4% saddle error of the shifted contour
        sigma, omega = 0.0375, 320.0 / 3.0
        text = (
            "scenario:\n"
            "  family: AntiParallel\n"
            "params:\n"
            f"  sigma: {sigma!r}\n"
            f"  omega: {omega!r}\n"
            "grids:\n"
            f"  L_over_sigma: [{44.0 / 3.0!r}]\n"
            "  kappa_sigma2_omega: [0.6]\n"
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: pa.csv\n"
            "    backend: closed\n"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = data_rows(tmp_path / "pa.csv")
        assert len(rows) == 1
        row = rows[0].split(",")
        assert row[3] == "1"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = DetectorParams(omega=omega, lambda_coupling=1.0, sigma=sigma)
        contour = excitation_probability_contour(
            TrajectoryScenario("AntiParallel", kappa1=4.0, L=0.55), unit).value
        assert abs(float(row[2]) / contour - 1.0) < 3.0 / (2.0 * 4.0**2)

    def test_quadrature_backend_single_point(self, tmp_path):
        text = (
            "scenario:\n"
            "  family: Parallel\n"
            "  kappa1: 1.0\n"
            "grids:\n"
            "  L_over_sigma: [0.0]\n"
            "  kappa_sigma2_omega: [0.2]\n"
            "outputs:\n"
            "  - kind: probability_map\n"
            "    path: pq.csv\n"
            "    backend: quadrature\n"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        row = data_rows(tmp_path / "pq.csv")[0].split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            unit = DetectorParams(omega=1.0, lambda_coupling=1.0, sigma=1.0)
        scenario = TrajectoryScenario("Parallel", kappa1=0.2, L=0.0)
        expected = excitation_probability_quadrature(
            scenario, unit, RegulatorSchedule(DEFAULT_EPS_LADDER),
            QuadratureConfig()).value
        assert float(row[2]) == pytest.approx(expected, rel=1e-10)
        assert row[3] == "1"
        assert any("backend=quadrature" in h
                   for h in header_lines(tmp_path / "pq.csv"))


class TestRunVisibility:
    def test_scan_rows_and_summary(self, tmp_path):
        # a two-rung ladder keeps this cheap; plumbing is the target
        text = (
            "scenario:\n"
            "  family: Parallel\n"
            "  kappa1: 1.0\n"
            "  L: 1.0\n"
            "params:\n"
            "  omega: 2.0\n"
            "  sigma: 0.5\n"
            "grids:\n"
            "  delta_phi: [0.0, 2.0943951023931953, 4.1887902047863905]\n"
            "regulator:\n"
            "  epsilons: [1.0e-2, 5.0e-3]\n"
            "outputs:\n"
            "  - kind: visibility_scan\n"
            "    path: v.csv\n"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "v.csv"
        headers = header_lines(out)
        assert any(h.startswith("visibility mean=") for h in headers)
        assert any(h.startswith("integral error estimate=") for h in headers)
        rows = [r.split(",") for r in data_rows(out)]
        assert len(rows) == 3
        for r in rows:
            dphi, norm, env, residual = map(float, r[:4])
            assert env == pytest.approx((1 + math.cos(dphi)) / 2, rel=1e-10)
            # columns carry every digit, so the parsed values reproduce the
            # difference up to its rounding
            assert norm - env == pytest.approx(residual, abs=1e-11)
            assert abs(residual) < 1e-3
            assert r[4] == "1"


class TestMethodHeader:
    def test_method_line_names_exact_stationary_pairs_in_every_ladder_output(self, tmp_path):
        # Parallel at L = 0: every branch pair is stationary, so each point is
        # cheap; the closed-form backend integrates nothing and has no line
        text = (
            "scenario:\n"
            "  family: Parallel\n"
            "  kappa1: 1.0\n"
            "grids:\n"
            "  omega_over_kappa: [1.0]\n"
            "  kappa_tau: [0.0]\n"
            "  L_over_sigma: [0.0]\n"
            "  kappa_sigma2_omega: [0.2]\n"
            "  delta_phi: [0.0, 3.0]\n"
            "outputs:\n"
            "  - kind: rate_map\n    path: r.csv\n"
            "  - kind: kms_report\n    path: k.csv\n"
            "  - kind: probability_map\n    path: pq.csv\n    backend: quadrature\n"
            "  - kind: probability_map\n    path: pc.csv\n    backend: closed\n"
            "  - kind: visibility_scan\n    path: v.csv\n"
        )
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        for name, expected in (("r.csv", 1), ("k.csv", 1), ("pq.csv", 1), ("pc.csv", 0),
                               ("v.csv", 1)):
            method = [h for h in header_lines(tmp_path / name) if h.startswith("method: ")]
            assert len(method) == expected, name
            if expected:
                assert method[0].startswith(
                    "method: stationary branch pairs exact from their closed-form spectrum")

    def test_closed_probability_map_header_says_nothing_was_integrated(self, tmp_path):
        # the closed backend evaluates saddle-point forms: no regulator ladder,
        # no tolerance, no method line
        text = PROB_CFG.replace("    json_mirror: true\n", "    backend: closed\n")
        with pytest.warns(UserWarning, match="beta outside"):
            assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        headers = header_lines(tmp_path / "p.csv")
        assert "backend=closed" in headers
        assert not [h for h in headers if h.startswith("method: ")]
        regulator = [h for h in headers if h.startswith("regulator epsilons=")]
        assert regulator[0].endswith("(not used: no branch pair took the regulator ladder)")
        tolerance = [h for h in headers if h.startswith("quadrature abs_tol=")]
        assert tolerance == ["quadrature abs_tol=1e-11 rel_tol=0.0001 "
                             "(not used: the closed backend evaluates saddle-point forms)"]

    @pytest.mark.parametrize("L_over_sigma, methods", [
        ("[0.0]", ()), ("[-1.0, 0.0, 2.0]", ("ladder",))], ids=["stationary", "cross"])
    def test_quadrature_probability_map_method_line_follows_its_points(self, tmp_path,
                                                                        L_over_sigma, methods):
        # Parallel at L = 0 has only stationary pairs, so no point takes the
        # ladder; at L = 2 sigma the cross pair does (L = -sigma is refused,
        # an invalid row that takes no method)
        text = PROB_CFG.replace("[0.0, 2.0]", L_over_sigma).replace(
            "[0.2, 4.0]", "[0.2]").replace("json_mirror: true", "backend: quadrature")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        headers = header_lines(tmp_path / "p.csv")
        assert [h for h in headers if h.startswith("method: ")] == [cli._method_line(methods)]
        regulator = [h for h in headers if h.startswith("regulator epsilons=")]
        tolerance = [h for h in headers if h.startswith("quadrature abs_tol=")]
        if methods:
            assert regulator[0].endswith("(pointlike limit eps->0 taken after integration)")
            assert tolerance == ["quadrature abs_tol=1e-11 rel_tol=0.0001"]
        else:
            assert regulator[0].endswith("(not used: no branch pair took the regulator ladder)")
            assert tolerance == ["quadrature abs_tol=1e-11 rel_tol=0.0001 (not used by a "
                                 "regulator ladder: the tolerance that each spectral "
                                 "integral met)"]

    @pytest.mark.parametrize("omega, phrase", [
        (1.0, "I_ij by a Gauss-Hermite rule on the shifted contour"),
        (0.3, "integrated on the regulator ladder"),
        (-1.0, "integrated on the regulator ladder"),
        (4.0, "integrated on the regulator ladder")],
        ids=["contour", "contour_miss", "emission", "beta"])
    def test_visibility_method_line_names_the_cross_pair_method(self, tmp_path, omega, phrase):
        # Parallel at kappa L = 1, sigma = kappa = 1: the cross pair takes the
        # shifted contour inside its domain (omega > 0, beta = omega < pi),
        # and the regulator ladder where the contour sum misses its tolerance
        # (omega = 0.3) and at omega < 0 or beta >= pi
        text = (
            "scenario:\n"
            "  family: Parallel\n"
            "  kappa1: 1.0\n"
            "  L: 1.0\n"
            "params:\n"
            f"  omega: {omega}\n"
            "grids:\n"
            "  delta_phi: [0.0, 2.0, 4.0]\n"
            "outputs:\n"
            "  - kind: visibility_scan\n    path: v.csv\n"
        )
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        headers = header_lines(tmp_path / "v.csv")
        method = [h for h in headers if h.startswith("method: ")]
        assert method == [cli._method_line(("contour",) if omega == 1.0 else ("ladder",))]
        assert method[0].startswith(
            "method: stationary branch pairs exact from their closed-form spectrum")
        assert phrase in method[0]
        assert [r.rsplit(",", 1)[1] for r in data_rows(tmp_path / "v.csv")] == ["1"] * 3
        # the regulator and tolerance lines say when no pair took the ladder
        regulator = [h for h in headers if h.startswith("regulator epsilons=")]
        tolerance = [h for h in headers if h.startswith("quadrature abs_tol=")]
        if omega == 1.0:
            assert regulator[0].endswith("(not used: no branch pair took the regulator ladder)")
            assert "(not used by a regulator ladder: the tolerance that each shifted-contour " \
                   "sum and spectral integral met)" in tolerance[0]
        else:
            assert regulator[0].endswith("(pointlike limit eps->0 taken after integration)")
            assert tolerance == ["quadrature abs_tol=1e-11 rel_tol=0.0001"]
        # the integrals' bar, and the amplitude's: lambda^2/2 times the bars
        # of the three entries of C, at the default lambda = 0.01
        bars = {h.split("=", 1)[0]: float(h.split("=", 1)[1].split(" ", 1)[0])
                for h in headers if " error estimate=" in h}
        assert [h for h in headers if h.startswith("integral error estimate=")][0].endswith(
            "(the bar of the integrals: the largest of any I_ij or T_i)")
        assert bars["amplitude error estimate"] == pytest.approx(
            1.5 * 0.01**2 * bars["integral error estimate"], rel=1e-12)


# the header's regulator, tolerance and method lines at the default settings
REG_LINE = "regulator epsilons=0.01,0.005,0.0025 extrapolation=richardson_linear"
TOL_LINE = "quadrature abs_tol=1e-11 rel_tol=0.0001"
EXACT = ("method: stationary branch pairs exact from their closed-form spectrum "
         "(Planck form, times sin(E L)/(E L) for the bath's cross pair)")


def usage_lines(path):
    """The regulator, tolerance and method lines of a file's header."""
    return [h for h in header_lines(path)
            if h.startswith(("regulator ", "quadrature ", "method: "))]


class TestHeaderNamesWhatRan:
    """A header names a method, and notes what it did, only if a valid row
    of that file ran it."""

    def test_rate_map_with_a_valid_row_names_lerch(self, tmp_path):
        # kappa tau = 400 fails at every gap, kappa tau = 0 is valid
        main(["run", write_cfg(tmp_path, ladder_cfg("[0.0, 400.0]")), "--out-dir", str(tmp_path)])
        assert [r.rsplit(",", 1)[1] for r in data_rows(tmp_path / "r.csv")] == ["1", "0"] * 3
        assert usage_lines(tmp_path / "r.csv") == [
            f"{REG_LINE} (pointlike limit eps->0 taken after integration)",
            f"{TOL_LINE} (gates the rounding bound of each closed-form rung)",
            f"{EXACT}; the other cross pairs exact on each rung of the regulator ladder, "
            "integrated to s=inf in closed form (two Lerch transcendents), and "
            "extrapolated to eps->0"]

    def test_rate_map_with_no_valid_row_names_no_method(self, tmp_path):
        main(["run", write_cfg(tmp_path, ladder_cfg("[400.0]")), "--out-dir", str(tmp_path)])
        for name in ("r.csv", "k.csv"):
            assert {r.rsplit(",", 1)[1] for r in data_rows(tmp_path / name)} == {"0"}
            assert usage_lines(tmp_path / name) == [
                REG_LINE, TOL_LINE, "method: none (no row has a value)"]

    def test_refused_quadrature_map_names_no_method(self, tmp_path):
        # omega < 0: every point is refused before a spectral integral runs
        text = ladder_map_cfg().replace("grids:\n", "params:\n  omega: -1.0\ngrids:\n")
        with pytest.warns(UserWarning, match="every row will be flagged invalid"):
            assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        assert {r.rsplit(",", 1)[1] for r in data_rows(tmp_path / "p.csv")} == {"0"}
        assert usage_lines(tmp_path / "p.csv") == [
            REG_LINE, TOL_LINE, "method: none (no row has a value)"]

    def test_serial_quadrature_map_builds_each_scenario_once(self, tmp_path, monkeypatch):
        # Parallel at L = 0: both points have only stationary (spectral) pairs
        calls, original = [], cli._point_scenario

        def counting(family, params, point):
            calls.append(point)
            return original(family, params, point)

        monkeypatch.setattr(cli, "_point_scenario", counting)
        text = ladder_map_cfg().replace("[1.0, 2.0]", "[0.0]")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path),
                     "--workers", "1"]) == 0
        assert calls == [(0.0, 0.2), (0.0, 0.4)]
        assert usage_lines(tmp_path / "p.csv") == [
            f"{REG_LINE} (not used: no branch pair took the regulator ladder)",
            f"{TOL_LINE} (not used by a regulator ladder: the tolerance that each spectral "
            "integral met)",
            f"{EXACT}; there are no other branch pairs"]

    def test_kms_ratio_outside_the_float_range_is_an_invalid_row(self, tmp_path):
        # e^{-2 pi omega/kappa} overflows at omega/kappa = -113.5 and
        # underflows at 120; the row between keeps the bytes of a run alone
        text = (RATE_CFG.replace("[-1.0, 1.0]", "[-113.5, 1.0, 120.0]")
                .replace("rate_map\n    path: r.csv", "kms_report\n    path: k.csv"))
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path / "all")]) == 0
        alone = text.replace("[-113.5, 1.0, 120.0]", "[1.0]")
        assert main(["run", write_cfg(tmp_path, alone), "--out-dir", str(tmp_path / "one")]) == 0
        rows = data_rows(tmp_path / "all" / "k.csv")
        assert [r.rsplit(",", 1)[1] for r in rows] == ["0", "1", "0"]
        assert rows[1] == data_rows(tmp_path / "one" / "k.csv")[0]


class TestRunFailures:
    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario:\n  family: Spiral\n")
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error: scenario.family" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        rc = main(["run", write_cfg(tmp_path, RATE_CFG), "--out-dir", str(tmp_path / "out"),
                   "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: --workers must be at least 1, got {workers}\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        text = (
            "scenario:\n"
            "  family: SingleAccel\n"
            "grids:\n"
            "  omega_over_kappa: [1.0]\n"
            "  kappa_tau: [0.0]\n"
            "outputs:\n"
            "  - kind: rate_map\n"
            "    path: blocked/sub/r.csv\n"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_hyperbolic_range_row_is_invalid(self, tmp_path):
        # kappa2/kappa1 = 20 at kappa1 tau = 20: the fast branch's null
        # coordinates at tau, e^{+-kappa2 tau}, leave the evaluated range of
        # the exponentials
        text = RATE_CFG.replace("SingleAccel", "Differing\n  kappa2: 20.0").replace(
            "kappa_tau: [0.0]", "kappa_tau: [20.0]")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        rows = [r.split(",") for r in data_rows(tmp_path / "r.csv")]
        assert len(rows) == 2
        assert all(r[2] == "nan" and r[-1] == "0" for r in rows)

    def test_fast_second_branch_rate_rows_are_valid(self, tmp_path):
        # kappa2/kappa1 = 20: each rung integrates to s = inf in closed form,
        # so no e^{kappa2 s} is evaluated and the rows are finite, with a
        # bar below the value
        text = RATE_CFG.replace("SingleAccel", "Differing\n  kappa2: 20.0").replace(
            "kappa_tau: [0.0]", "kappa_tau: [-2.0, 0.0]")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        rows = [[float(v) for v in r.split(",")] for r in data_rows(tmp_path / "r.csv")]
        assert len(rows) == 4
        assert all(math.isfinite(r[2]) and 0.0 < r[3] < abs(r[2]) and r[-1] == 1 for r in rows)

    def test_refused_scenario_row_is_invalid(self, tmp_path):
        # Parallel refuses L < 0; on the quadrature backend that grid point
        # is a nan row, not an aborted sweep
        text = PROB_CFG.replace("[0.0, 2.0]", "[-1.0]").replace(
            "[0.2, 4.0]", "[0.2]").replace("json_mirror: true", "backend: quadrature")
        assert main(["run", write_cfg(tmp_path, text), "--out-dir", str(tmp_path)]) == 0
        assert data_rows(tmp_path / "p.csv") == ["-1,0.2,nan,0"]

    def test_program_error_aborts_the_run(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ValueError("a fault of the program, not of the grid point")

        monkeypatch.setattr(cli, "rate_table", broken)
        with pytest.raises(ValueError, match="fault of the program"):
            main(["run", write_cfg(tmp_path, RATE_CFG), "--out-dir", str(tmp_path)])

    def test_program_error_at_a_probability_point_aborts_the_run(self, tmp_path,
                                                                 monkeypatch):
        def broken(*args):
            raise ValueError("a fault of the program, not of the grid point")

        monkeypatch.setattr(cli, "excitation_probability_quadrature", broken)
        with pytest.raises(ValueError, match="fault of the program"):
            main(["run", write_cfg(tmp_path, ladder_map_cfg()), "--out-dir", str(tmp_path)])

    def test_no_outputs_is_a_noop(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario:\n  family: Parallel\n")
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "nothing to do" in capsys.readouterr().out
