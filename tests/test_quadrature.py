"""Extrapolation, mesh construction and panel integration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from udwsim import (
    DEFAULT_EPS_LADDER,
    QuadratureConfig,
    RegulatorSchedule,
    default_schedule,
    epsilon_extrapolate,
)
from udwsim.quadrature import (GAUSS15_7, KRONROD15, cluster_mesh, fsum_rows,
                               panel_integrate, panel_nodes, refine_mesh,
                               sign_change_roots)


# --- epsilon extrapolation ---------------------------------------------------

def test_linear_extrapolation_exact_on_affine_data():
    pts = [(e, 3.0 + 5.0 * e) for e in (0.02, 0.01, 0.005)]
    limit, err = epsilon_extrapolate(pts)
    assert limit == pytest.approx(3.0, abs=1e-14)
    assert err == pytest.approx(0.0, abs=1e-14)


def test_linear_extrapolation_constant_data():
    limit, err = epsilon_extrapolate([(0.1, 7.0), (0.05, 7.0)])
    assert limit == 7.0
    assert err == 0.0


def test_linear_extrapolation_leaves_a_quadratic_residual():
    # linear Richardson cancels the eps term only: an eps^2 term leaves a
    # residual ~ eps_small^2, and the error bar sees it
    pts = [(e, 1.0 + e * e) for e in (0.02, 0.01, 0.005)]
    lin, lin_err = epsilon_extrapolate(pts)
    assert abs(lin - 1.0) > 1e-6
    assert lin_err > 0


def test_extrapolation_error_estimate_is_last_two_extrapolants():
    pts = [(0.04, 2.4), (0.02, 2.2), (0.01, 2.1)]
    # pairwise linear extrapolants: from first pair 2.0, from last pair 2.0
    limit, err = epsilon_extrapolate(pts)
    assert limit == pytest.approx(2.0)
    assert err == pytest.approx(0.0, abs=1e-13)


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
        epsilon_extrapolate([(0.01, 1.0)])  # 1 point


def test_non_monotone_ladder_warns_but_returns():
    pts = [(0.04, 1.0), (0.02, 1.5), (0.01, 1.2)]
    with pytest.warns(RuntimeWarning, match="not converging monotonically"):
        limit, err = epsilon_extrapolate(pts)
    assert math.isfinite(limit)
    assert err > 0


def test_ladder_flat_to_rounding_within_its_errors_does_not_warn():
    # a rung flat to rounding that flips sign by an ulp: non-monotone only
    # without the rungs' own error bars
    v = 0.0253
    pts = [(0.04, v), (0.02, v + math.ulp(v)), (0.01, v)]
    with pytest.warns(RuntimeWarning, match="not converging monotonically"):
        epsilon_extrapolate(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limit, _ = epsilon_extrapolate(pts, errors=(4e-10, 2e-12, 2e-12))
    assert limit == pytest.approx(v, rel=1e-14)


def test_ladder_non_monotone_past_its_errors_still_warns():
    pts = [(0.04, 1.0), (0.02, 1.5), (0.01, 1.2)]
    with pytest.warns(RuntimeWarning, match="not converging monotonically"):
        epsilon_extrapolate(pts, errors=(1e-12, 1e-12, 1e-12))
    # a step that exceeds the two bars it spans only just
    with pytest.warns(RuntimeWarning, match="not converging monotonically"):
        epsilon_extrapolate(pts, errors=(0.1, 0.1, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epsilon_extrapolate(pts, errors=(0.1, 0.15, 0.2))


def test_default_schedule_scales_with_kappa():
    sched = default_schedule(2.0)
    assert sched.epsilons == tuple(e / 2.0 for e in DEFAULT_EPS_LADDER)


def test_regulator_schedule_validation():
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01, 0.02))  # not decreasing
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01, -0.005))
    with pytest.raises(ValueError):
        RegulatorSchedule((0.01,))  # too short to extrapolate


@pytest.mark.parametrize("eps", [(math.inf, 1e-3), (math.nan, 1e-3), (1e-2, math.nan)])
def test_regulator_schedule_refuses_non_finite_epsilons(eps):
    # nan passes every comparison with <=, so it was accepted once; a nan
    # scale never ends a cluster_mesh loop, and inf makes nan rows
    with pytest.raises(ValueError, match="all epsilons must be positive and finite"):
        RegulatorSchedule(eps)


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


def test_panel_integrate_calls_the_integrand_once_on_panel_nodes():
    edges = np.array([0.0, 0.25, 1.0, 1.5])
    # panel after panel: every node of the rule's parts (Kronrod's 15, or
    # GL-15 then GL-7), each part ascending and inside its panel
    for rule, parts in ((KRONROD15, [15]), (GAUSS15_7, [15, 7])):
        nodes = panel_nodes(edges, rule)
        per_panel = sum(parts)
        assert nodes.shape == (per_panel * 3,)
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            x = nodes[per_panel * k:per_panel * (k + 1)]
            assert np.all((a < x) & (x < b))
            for part in np.split(x, np.cumsum(parts)[:-1]):
                assert np.all(np.diff(part) > 0)
        seen = []

        def f(x):
            seen.append(x)
            return np.exp(1j * x)

        val, _ = panel_integrate(f, edges, rule=rule)
        assert len(seen) == 1 and np.array_equal(seen[0], nodes)
        # integral of e^{ix} over [0, 1.5]
        assert val == pytest.approx((np.exp(1.5j) - 1.0) / 1j, abs=1e-12)
    # the default rule is Kronrod's
    assert np.array_equal(panel_nodes(edges), panel_nodes(edges, KRONROD15))


def test_kronrod_panels_are_exact_on_degree_22_polynomials():
    # over a 3-panel mesh the composite rule integrates x^n, n <= 22, to
    # rounding; its embedded Gauss 7 comparison is exact only to n <= 13, so
    # the error estimate is rounding up to there and far above it after
    edges = np.array([-1.0, -0.25, 0.5, 1.0])
    for n in range(23):
        exact = (1.0 - (-1.0) ** (n + 1)) / (n + 1)
        val, err = panel_integrate(lambda x: x**n, edges)
        assert val == pytest.approx(exact, abs=1e-15)
        assert (err < 1e-15) if n <= 13 else (err > 1e-11)


def test_fsum_rows_is_exactly_rounded_per_row():
    # each row cancels to a remainder far below its terms
    rows = np.array([[1e16, 1.0, -1e16, 3.0], [0.1, 0.2, 0.3, -0.6]])
    r1 = math.fsum([0.1, 0.2, 0.3, -0.6])
    assert fsum_rows(rows).tolist() == [4.0, r1]
    z = rows + 1j * rows[::-1]
    assert fsum_rows(z).dtype == complex
    assert fsum_rows(z).tolist() == [complex(4.0, r1), complex(r1, 4.0)]
    # a 1-D array gives a scalar
    assert fsum_rows(z[0]) == complex(4.0, r1) and fsum_rows(rows[0]) == 4.0


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
    # K15 integrates degree <= 22 exactly, GL-15 degree <= 29, and either
    # comparison (Gauss 7) degree <= 13; none is exact on the next even degree
    for rule, degrees in ((KRONROD15, (22, 13)), (GAUSS15_7, (29, 13))):
        value = rule.nodes[rule.value], rule.weights
        check = rule.nodes[rule.check], rule.check_weights
        for (x, w), top in zip((value, check), degrees):
            for n in range(top + 1):
                exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
                assert (w * x**n).sum() == pytest.approx(exact, abs=1e-14)
            n = top + 2 - top % 2
            assert abs((w * x**n).sum() - 2.0 / (n + 1)) > 1e-10
