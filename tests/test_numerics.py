"""Quadrature grids, medians, intervals, and the grid calculus."""

import importlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

from rkhskit import numerics
from rkhskit.numerics import (
    HVector,
    ProductGrid,
    build_grid,
    cumulative_integral,
    derivative_values,
    fsum_complex,
    inner_weighted,
    integrate,
    make_interval,
    med3,
    norm_weighted,
    panels_for_oscillation,
    product_grid,
    sample,
    truncate_line,
)
from rkhskit.suites import RunConfig, run_suite

LN2 = 0.6931471805599453  # integral of 1/(1+t) over (0,1)


def test_med3_basic():
    assert med3(0.3, 0.1, 0.2) == 0.2
    assert med3(1.0, 1.0, 5.0) == 1.0
    assert med3(-2.0, 7.0, 0.0) == 0.0


def test_med3_extended_reals():
    assert med3(1.0, math.inf, 0.0) == 1.0
    assert med3(-math.inf, -2.0, 5.0) == -2.0
    assert med3(-math.inf, math.inf, 0.25) == 0.25


def test_med3_rejects_nan():
    with pytest.raises(ValueError):
        med3(0.0, math.nan, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(allow_nan=False, width=64),
    st.floats(allow_nan=False, width=64),
    st.floats(allow_nan=False, width=64),
)
def test_med3_is_the_middle(a, b, c):
    assert med3(a, b, c) == sorted([a, b, c])[1]


def test_interval_construction():
    iv = make_interval(0.8, -0.2)
    assert iv.lo == -0.2 and iv.hi == 0.8
    assert iv.length == 1.0
    assert truncate_line(3.0).lo == -3.0 and truncate_line(3.0).hi == 3.0


def test_build_grid_rejects_unbounded():
    with pytest.raises(ValueError, match="truncated"):
        build_grid(make_interval(0.0, math.inf), 4, 8)


def test_build_grid_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        build_grid(make_interval(1.0, 1.0), 4, 8)


def test_build_grid_rejects_bad_weight():
    with pytest.raises(ValueError, match="weight"):
        build_grid(make_interval(0.0, 1.0), 4, 8, rho=lambda t: -1.0 - 0.0 * t)


def test_build_grid_refuses_a_scalar_weight():
    # the weight is called once on the node array, never node by node
    with pytest.raises(ValueError, match="one value per node"):
        build_grid(make_interval(0.0, 1.0), 4, 8, rho=lambda t: 2.0)


def test_breakpoints_land_on_panel_edges():
    g = build_grid(make_interval(-1.0, 1.0), 8, 8, breakpoints=(0.25,))
    assert np.any(np.isclose(g.panel_edges, 0.25))


def test_gauss_exactness_on_polynomials():
    # nodes_per_panel = 8 integrates degree 15 exactly
    g = build_grid(make_interval(0.0, 1.0), 1, 8)
    vals = g.nodes ** 15
    assert abs(integrate(g, vals) - 1.0 / 16.0) < 1e-15


def test_integrate_ln2_oracle():
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    vals = sample(g, lambda t: 1.0 / (1.0 + t))
    assert abs(integrate(g, vals) - LN2) < 1e-14


def test_weighted_inner_product_with_affine_weight():
    g = build_grid(make_interval(0.0, 1.0), 4, 8, rho=lambda t: 1.0 + t)
    one = sample(g, lambda t: np.ones_like(t))
    # integral of rho over (0,1) is 3/2
    assert abs(inner_weighted(one, one) - 1.5) < 1e-14
    f = sample(g, lambda t: 1.0 / (1.0 + t))
    assert abs(inner_weighted(f, one) - 1.0) < 1e-14


def test_inner_weighted_conjugate_symmetry_and_positivity():
    g = build_grid(make_interval(-1.0, 1.0), 6, 8)
    rng = np.random.default_rng(3)
    f = HVector(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    h = HVector(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    assert abs(inner_weighted(f, h) - np.conj(inner_weighted(h, f))) < 1e-13
    sq = inner_weighted(f, f)
    assert abs(sq.imag) < 1e-14 and sq.real >= 0.0
    assert math.isclose(norm_weighted(f) ** 2, sq.real, rel_tol=1e-12)


def test_vectors_on_different_grids_refuse_to_pair():
    g1 = build_grid(make_interval(0.0, 1.0), 4, 8)
    g2 = build_grid(make_interval(0.0, 1.0), 5, 8)
    with pytest.raises(ValueError, match="grids"):
        inner_weighted(sample(g1, np.cos), sample(g2, np.cos))


def test_hvector_length_mismatch():
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    with pytest.raises(ValueError, match="length"):
        HVector(g, np.zeros(g.size + 1, dtype=complex))


def test_sample_refuses_a_scalar_callable():
    # the callable is called once on the node array, never node by node
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    with pytest.raises(ValueError, match="length"):
        sample(g, lambda t: 1.0)


def test_fsum_complex_survives_cancellation():
    vals = np.array([1e16 + 1j, 1.0 + 0j, -1e16 + 0j])
    assert fsum_complex(vals) == (1.0 + 1j)


def test_panels_for_oscillation():
    # quarter-period resolution: ceil(4 * rate * length / pi)
    assert panels_for_oscillation(2.0, 10.0) == math.ceil(80.0 / math.pi)
    assert panels_for_oscillation(1.0, 0.1, minimum=16) == 16


def test_derivative_values_spectral():
    g = build_grid(make_interval(0.0, 1.0), 8, 12)
    df = derivative_values(g, np.sin(g.nodes))
    assert np.max(np.abs(df - np.cos(g.nodes))) < 1e-10


def test_cumulative_integral_matches_sin():
    g = build_grid(make_interval(-1.0, 2.0), 8, 10)
    F = cumulative_integral(g, np.cos(g.nodes))
    for x in (-0.5, 0.0, 0.7, 1.9):
        assert abs(F(x) - (math.sin(x) - math.sin(-1.0))) < 1e-12


def test_cumulative_integral_rejects_outside_points():
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    F = cumulative_integral(g, np.ones(g.size))
    with pytest.raises(ValueError, match="outside"):
        F(1.5)


def test_refinement_improves_smooth_integrand():
    exact = math.e - 1.0
    errs = []
    for panels in (1, 2, 4):
        g = build_grid(make_interval(0.0, 1.0), panels, 4)
        errs.append(abs(integrate(g, np.exp(g.nodes)) - exact))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 1e-10


@pytest.mark.parametrize(
    "module",
    ["rkhskit", "numerics", "transforms", "spaces", "inversion", "plancherel", "reporting", "suites"],
)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module if module == "rkhskit" else f"rkhskit.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_product_grid_shape_and_size_are_lazy():
    gx = build_grid(make_interval(-1.0, 1.0), 3, 4)
    gy = build_grid(make_interval(0.0, 2.0), 5, 2, rho=lambda t: 1.0 + t)
    grid = product_grid([gx, gy], max_frequency=7)
    assert isinstance(grid, ProductGrid)
    assert grid.ndim == 2 and grid.shape == (12, 10) and grid.size == 120
    assert grid.max_frequency == 7.0 and grid.half_widths == (1.0, 2.0)
    assert not {"nodes", "weights", "rho_at_nodes"} & set(vars(grid))
    # row-major: the last axis runs fastest
    assert grid.nodes.shape == (120, 2)
    np.testing.assert_array_equal(grid.nodes[:10, 1], gy.nodes)
    np.testing.assert_array_equal(grid.nodes[::10, 0], gx.nodes)
    np.testing.assert_array_equal(grid.weights, np.outer(gx.weights, gy.weights).ravel())
    np.testing.assert_array_equal(grid.rho_at_nodes, np.outer(gx.rho_at_nodes, gy.rho_at_nodes).ravel())
    assert abs(integrate(grid, np.ones(grid.size)) - 4.0) < 1e-14
    assert grid.compatible_with(product_grid([gx, gy]))
    assert not grid.compatible_with(product_grid([gy, gx]))


@pytest.mark.parametrize("n", range(1, 25))
def test_cached_gauss_rule_builds_the_same_grid(n):
    interval = make_interval(-0.7, 1.3)
    edges = np.append(np.linspace(-0.7, 1.3, 6)[:-1], 1.3)
    xi, om = legendre.leggauss(n)
    nodes = (edges[:-1, None] + np.diff(edges)[:, None] * (xi + 1.0) / 2.0).ravel()
    weights = (np.diff(edges)[:, None] * om / 2.0).ravel()
    numerics._gauss_rule.cache_clear()
    for _ in range(2):  # the build that fills the cache, then one served from it
        g = build_grid(interval, 5, n)
        np.testing.assert_array_equal(g.nodes, nodes)
        np.testing.assert_array_equal(g.weights, weights)


def test_cached_gauss_rule_is_read_only():
    for arr in numerics._gauss_rule(6):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_gauss_rule_built_once_per_order(monkeypatch):
    calls = Counter()
    leggauss = legendre.leggauss

    def counting(n):
        calls[n] += 1
        return leggauss(n)

    monkeypatch.setattr(numerics.legendre, "leggauss", counting)
    numerics._gauss_rule.cache_clear()
    run_suite("inversion", RunConfig(suite="inversion"))
    assert calls and max(calls.values()) == 1
