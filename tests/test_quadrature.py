"""Extrapolation, mesh construction and panel integration."""

import dataclasses
import math

import numpy as np
import pytest

from udwsim import (
    DEFAULT_EPS_LADDER,
    QuadratureConfig,
    RegulatorSchedule,
    default_schedule,
    epsilon_extrapolate,
)
from udwsim.quadrature import (_WG7, _WK15, _XK15, cluster_mesh, panel_integrate,
                               refine_mesh, sign_change_roots)


# --- epsilon extrapolation ---------------------------------------------------

def test_linear_extrapolation_exact_on_affine_data():
    pts = [(e, 3.0 + 5.0 * e) for e in (0.02, 0.01, 0.005)]
    limit, err = epsilon_extrapolate(pts, "richardson_linear")
    assert limit == pytest.approx(3.0, abs=1e-14)
    assert err == pytest.approx(0.0, abs=1e-14)


def test_linear_extrapolation_constant_data():
    limit, err = epsilon_extrapolate([(0.1, 7.0), (0.05, 7.0)], "richardson_linear")
    assert limit == 7.0
    assert err == 0.0


def test_quadratic_extrapolation_kills_quadratic_term():
    pts = [(e, 1.0 + e * e) for e in (0.02, 0.01, 0.005)]
    limit, _ = epsilon_extrapolate(pts, "richardson_quadratic")
    assert limit == pytest.approx(1.0, abs=1e-12)
    # linear mode leaves a residual ~ eps_small^2
    lin, lin_err = epsilon_extrapolate(pts, "richardson_linear")
    assert abs(lin - 1.0) > 1e-6
    assert lin_err > 0


def test_extrapolation_error_estimate_is_last_two_extrapolants():
    pts = [(0.04, 2.4), (0.02, 2.2), (0.01, 2.1)]
    # pairwise linear extrapolants: from first pair 2.0, from last pair 2.0
    limit, err = epsilon_extrapolate(pts, "richardson_linear")
    assert limit == pytest.approx(2.0)
    assert err == pytest.approx(0.0, abs=1e-13)


def test_extrapolation_mode_none_returns_last():
    pts = [(0.02, 5.0), (0.01, 4.0)]
    limit, err = epsilon_extrapolate(pts, "none")
    assert limit == 4.0
    assert err == 1.0


def test_extrapolation_handles_complex_values():
    pts = [(e, (3.0 + 5.0 * e) + 1j * (1.0 - 2.0 * e)) for e in (0.02, 0.01)]
    limit, err = epsilon_extrapolate(pts)
    assert limit == pytest.approx(3.0 + 1.0j, abs=1e-14)
    assert err >= 0.0


def test_extrapolation_input_validation():
    with pytest.raises(ValueError):
        epsilon_extrapolate([])
    with pytest.raises(ValueError):
        epsilon_extrapolate([(0.01, 1.0), (0.02, 2.0)])  # increasing eps
    with pytest.raises(ValueError):
        epsilon_extrapolate([(-0.01, 1.0)])
    with pytest.raises(ValueError):
        epsilon_extrapolate([(0.01, 1.0)], "richardson_linear")  # 1 point
    with pytest.raises(ValueError):
        epsilon_extrapolate([(0.02, 1.0), (0.01, 1.0)], "cubic")


def test_non_monotone_ladder_warns_but_returns():
    pts = [(0.04, 1.0), (0.02, 1.5), (0.01, 1.2)]
    with pytest.warns(RuntimeWarning, match="not converging monotonically"):
        limit, err = epsilon_extrapolate(pts)
    assert math.isfinite(limit)
    assert err > 0


def test_default_schedule_scales_with_kappa():
    sched = default_schedule(2.0)
    assert sched.epsilons == tuple(e / 2.0 for e in DEFAULT_EPS_LADDER)
    assert sched.extrapolation == "richardson_linear"


def test_regulator_schedule_validation():
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01, 0.02))  # not decreasing
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01, -0.005))
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01,))  # too short to extrapolate
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01, 0.005), extrapolation="bogus")
    # a single point is fine when no extrapolation is requested
    RegulatorSchedule((0.01,), extrapolation="none")


@pytest.mark.parametrize("eps", [(math.inf, 1e-3), (math.nan, 1e-3), (1e-2, math.nan)])
def test_regulator_schedule_refuses_non_finite_epsilons(eps):
    # nan passes every comparison with <=, so it was accepted once; a nan
    # scale never ends a cluster_mesh loop, and inf makes nan rows
    with pytest.raises(ValueError, match="all epsilons must be positive and finite"):
        RegulatorSchedule(eps)
    with pytest.raises(ValueError, match="all epsilons must be positive and finite"):
        RegulatorSchedule(eps, extrapolation="none")


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for tol in ({"abs_tol": math.inf}, {"rel_tol": math.inf}):
        with pytest.raises(ValueError, match="tolerances must be finite"):
            QuadratureConfig(**tol)
    with pytest.raises(ValueError, match="tolerances must be positive"):
        QuadratureConfig(rel_tol=math.nan)
    # the config holds the two tolerances and nothing else
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["abs_tol", "rel_tol"]
    for retired in ("s_max", "oscillation_resolution", "max_subdivisions"):
        with pytest.raises(TypeError):
            QuadratureConfig(**{retired: 8})


# --- meshes and panels --------------------------------------------------------

def test_cluster_mesh_covers_interval_and_is_sorted():
    edges = cluster_mesh(-3.0, 5.0, clusters=[0.0, 2.0], scale=0.01, cap=0.5)
    assert edges[0] == -3.0 and edges[-1] == 5.0
    assert np.all(np.diff(edges) > 0)
    # panel widths respect the cap (up to the padding tolerance)
    assert np.max(np.diff(edges)) <= 0.5 * 1.0002


def test_cluster_mesh_resolves_cluster_points():
    edges = cluster_mesh(0.0, 10.0, clusters=[4.0], scale=1e-3, cap=1.0)
    gaps = np.diff(edges)
    near = np.abs(0.5 * (edges[:-1] + edges[1:]) - 4.0) < 0.05
    # panels shrink to ~scale near the cluster point
    assert gaps[near].min() < 1e-2
    assert gaps[~near].max() > 0.1


def test_cluster_mesh_ignores_clusters_outside_interval():
    edges = cluster_mesh(0.0, 1.0, clusters=[50.0], scale=1e-3, cap=0.25)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert np.max(np.diff(edges)) <= 0.25 * 1.0002


def test_refine_mesh_halves_panels():
    edges = np.array([0.0, 1.0, 3.0])
    fine = refine_mesh(edges, rounds=1)
    assert np.allclose(fine, [0.0, 0.5, 1.0, 2.0, 3.0])
    finer = refine_mesh(edges, rounds=2)
    assert finer.size == 9


def test_panel_integrate_smooth():
    edges = np.linspace(0.0, math.pi, 9)
    val, err = panel_integrate(np.sin, edges)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err < 1e-8


def test_panel_integrate_complex_integrand():
    edges = np.linspace(0.0, 1.0, 5)
    val, _ = panel_integrate(lambda x: np.exp(1j * x), edges)
    expected = (math.sin(1.0)) + 1j * (1.0 - math.cos(1.0))
    assert val == pytest.approx(expected, abs=1e-12)


def test_panel_error_estimate_flags_unresolved_oscillation():
    # one panel across 40 periods: the GL15-GL7 delta must be large
    edges = np.array([0.0, 1.0])
    _, err = panel_integrate(lambda x: np.sin(250.0 * x), edges)
    assert err > 1e-3


def test_sign_change_roots():
    # callables must be vectorized; the engine passes arrays
    roots = sign_change_roots(lambda s: 1.0 - np.exp(-s) - 0.5, 0.0, 5.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(math.log(2.0), rel=1e-10)
    assert sign_change_roots(lambda s: s * s + 1.0, -2.0, 2.0) == []


def test_sign_change_roots_multiple():
    roots = sign_change_roots(np.cos, 0.0, 10.0)
    expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
    assert len(roots) == 3
    for r, e in zip(roots, expected):
        assert r == pytest.approx(e, rel=1e-9)


def test_kronrod_and_embedded_gauss_rules_are_exact_on_monomials():
    # K15 integrates degree <= 22 exactly, its embedded Gauss 7 degree <= 13
    for n in range(23):
        exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
        assert (_WK15 * _XK15**n).sum() == pytest.approx(exact, abs=1e-14)
        if n <= 13:
            assert (_WG7 * _XK15[1::2] ** n).sum() == pytest.approx(exact, abs=1e-14)
    # and neither is exact one degree higher
    assert abs((_WK15 * _XK15**24).sum() - 2.0 / 25) > 1e-10
    assert abs((_WG7 * _XK15[1::2] ** 14).sum() - 2.0 / 15) > 1e-10
