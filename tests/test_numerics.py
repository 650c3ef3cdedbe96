"""Quadrature grids, medians, intervals, and the grid calculus."""

import functools
import importlib
import math
import warnings
from collections import Counter
from dataclasses import fields
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

from rkhskit import numerics
from rkhskit.numerics import (
    HVector,
    ProductGrid,
    QuadGrid,
    build_grid,
    cumulative_integral,
    derivative_values,
    _inner_weighted_rows,
    inner_weighted,
    integrate,
    make_interval,
    norm_weighted,
    panels_for_oscillation,
    product_grid,
    sample,
    truncate_line,
)
from rkhskit.spaces import SobolevSpace
from rkhskit.suites import RunConfig, run_suite
from rkhskit.transforms import _opr_inner_rows, build_span_basis, transform

LN2 = 0.6931471805599453  # integral of 1/(1+t) over (0,1)


def test_interval_construction():
    iv = make_interval(0.8, -0.2)
    assert iv.lo == -0.2 and iv.hi == 0.8
    assert iv.length == 1.0
    assert truncate_line(3.0).lo == -3.0 and truncate_line(3.0).hi == 3.0


def test_build_grid_rejects_unbounded():
    with pytest.raises(ValueError, match="truncated"):
        build_grid(make_interval(0.0, math.inf), 4, 8)
    # finite endpoints whose distance overflows are no finite interval
    assert not make_interval(-1e308, 1e308).finite
    with pytest.raises(ValueError, match="truncated"):
        build_grid(make_interval(-1e308, 1e308), 4, 8)


@pytest.mark.parametrize("breakpoints", [(), (0.0,)])
def test_build_grid_spreads_panels_over_a_window_near_overflow(breakpoints):
    # the window's length is finite, but its length times the panel count is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_grid(make_interval(-8e307, 8e307), 2, 4, breakpoints=breakpoints)
    assert g.size == 8 and g.n_panels == 2
    assert np.all(np.isfinite(g.nodes)) and np.all(np.isfinite(g.weights))
    assert list(g.panel_edges) == [-8e307, 0.0, 8e307]


def test_build_grid_refuses_a_panel_count_beyond_any_float():
    with pytest.raises(ValueError, match="exceeds the limit"):
        build_grid(make_interval(0.0, 1.0), 10 ** 400, 8)


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
    vals = sample(g, lambda t: 1.0 / (1.0 + t)).values
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


def _moved_edge(g):
    """The grid g with its first interior panel edge one ulp to the right:
    the same nodes, weights and weight samples, other panel edges."""
    edges = g.panel_edges.copy()
    edges[1] = np.nextafter(edges[1], math.inf)
    return replace(g, panel_edges=edges)


def test_grids_built_alike_are_equal_and_hash_alike():
    g1 = build_grid(make_interval(-1.0, 2.0), 6, 5, rho=lambda t: 2.0 + t)
    g2 = build_grid(make_interval(-1.0, 2.0), 6, 5, rho=lambda t: 2.0 + t)
    assert g1 is not g2 and g1 == g2 and hash(g1) == hash(g2)
    assert g1.key is g1.key
    assert product_grid([g1, g2]) == product_grid([g2, g1])


def test_grids_differing_in_one_field_are_not_equal():
    g = build_grid(make_interval(-1.0, 2.0), 6, 5)
    assert g != build_grid(make_interval(-1.0, 2.0), 6, 5, rho=lambda t: 2.0 + t)
    assert g != replace(g, nodes_per_panel=3)
    moved = _moved_edge(g)
    assert moved.panel_edges[1] != g.panel_edges[1]
    assert g != moved


def test_interval_follows_the_panel_edges():
    g = build_grid(make_interval(-1.0, 1.0), 4, 3)
    h = replace(g, panel_edges=3.0 * g.panel_edges)
    assert h.interval == make_interval(-3.0, 3.0)
    assert ProductGrid((h,)).half_widths == (3.0,)


def test_every_grid_field_is_part_of_its_identity():
    g = build_grid(make_interval(-1.0, 2.0), 6, 5)
    for f in fields(QuadGrid):
        value = getattr(g, f.name)
        other = replace(g, **{f.name: value + 1})
        assert other.key != g.key and other != g, f.name
    assert all(f.compare for f in fields(ProductGrid))


def test_transform_refuses_a_grid_differing_only_in_panel_edges():
    fm = SobolevSpace(make_interval(-1.0, 1.0), 0.0).feature_map()
    other = _moved_edge(fm.grid)
    for name in ("nodes", "weights", "rho_at_nodes"):
        np.testing.assert_array_equal(getattr(other, name), getattr(fm.grid, name))
    transform(sample(fm.grid, np.cos), fm)
    with pytest.raises(ValueError, match="different grids"):
        transform(sample(other, np.cos), fm)


def test_hvector_length_mismatch():
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    with pytest.raises(ValueError, match="length"):
        HVector(g, np.zeros(g.size + 1, dtype=complex))


def test_sample_refuses_a_scalar_callable():
    # the callable is called once on the node array, never node by node
    g = build_grid(make_interval(0.0, 1.0), 4, 8)
    with pytest.raises(ValueError, match="length"):
        sample(g, lambda t: 1.0)


def assert_blocks_are_the_grid(interval, panels, order, per):
    """The streamed blocks of ``per`` panels are build_grid's nodes and
    weights, bit for bit, in order."""
    g = build_grid(interval, panels, order)
    blocks = list(numerics._gauss_panel_blocks(interval, panels, order, per))
    assert [t.size for t, _ in blocks] == [min(per, panels - p) * order for p in range(0, panels, per)]
    nodes, weights = (np.concatenate(parts) for parts in zip(*blocks))
    assert nodes.tobytes() == g.nodes.tobytes()
    assert weights.tobytes() == g.weights.tobytes()


@pytest.mark.parametrize("panels", [1, 7, 8, 9, 19])
def test_streamed_blocks_are_the_grid_around_the_block_size(panels):
    # 8 panels a block: 1, per - 1, per, per + 1 and 2 per + 3 panels
    assert_blocks_are_the_grid(make_interval(-3.7, 11.2), panels, 16, 8)


def test_streamed_blocks_keep_linspace_rule_for_a_step_that_underflows():
    # (5e-324 - 0) / 3 rounds to 0, where np.linspace scales by the width
    # after dividing by the count
    assert_blocks_are_the_grid(make_interval(0.0, 5e-324), 3, 4, 2)


@settings(max_examples=150)
@given(
    ends=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True),
    panels=st.integers(1, 300),
    order=st.integers(1, 16),
    per=st.integers(1, 64),
)
def test_streamed_blocks_are_the_grid(ends, panels, order, per):
    assert_blocks_are_the_grid(make_interval(*ends), panels, order, per)


@pytest.mark.parametrize(
    "interval, panels, order",
    [
        (make_interval(1.0, 1.0), 4, 8),
        (make_interval(-1e308, 1e308), 4, 8),
        (make_interval(0.0, math.inf), 4, 8),
        (make_interval(0.0, 1.0), 0, 8),
        (make_interval(0.0, 1.0), 4, 129),
        (make_interval(0.0, 1.0), 10 ** 400, 8),
        (make_interval(0.0, 1.0), 10 ** 7 // 16, 16),
    ],
)
def test_streamed_blocks_refuse_what_build_grid_refuses(interval, panels, order):
    # with the same message, and at the call: no block is asked for
    with pytest.raises(ValueError) as stored:
        build_grid(interval, panels, order)
    with pytest.raises(ValueError) as streamed:
        numerics._gauss_panel_blocks(interval, panels, order, 8)
    assert str(streamed.value) == str(stored.value)


def _fsum_oracle(terms) -> complex:
    # the slow path, kept as the oracle: each part correctly rounded by
    # math.fsum, whatever the order of the terms
    t = np.asarray(terms, dtype=complex).ravel()
    return complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))


def _assert_within_sum_bound(got, terms) -> None:
    # a sum of N terms is within N * eps * sum |terms| of the exact sum, part by part
    t = np.asarray(terms, dtype=complex).ravel()
    want = _fsum_oracle(t)
    bound = t.size * np.finfo(float).eps
    assert abs(got.real - want.real) <= bound * math.fsum(np.abs(t.real).tolist())
    assert abs(got.imag - want.imag) <= bound * math.fsum(np.abs(t.imag).tolist())


def _draw(rng, kind, shape, nodes):
    # random: terms spread over 2^-30..2^30; cancelling: oscillations of
    # size 1e8 whose pairings nearly vanish, plus terms of size one
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "random":
        return noise * np.exp2(rng.integers(-30, 31, shape))
    scale = 1e8 * (1.0 + rng.random(shape[:-1] + (1,)))
    return scale * np.exp(2j * np.pi * rng.integers(1, 6, shape[:-1] + (1,)) * nodes) + noise


@functools.cache
def _span_basis():
    pts = np.linspace(-0.9, 0.9, 9)
    return build_span_basis(SobolevSpace(make_interval(-1.0, 1.0), 0.0).feature_map(pts), pts)


@settings(max_examples=60)
@given(kind=st.sampled_from(["random", "cancelling"]), rows=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_pairings_are_within_the_sum_bound_of_math_fsum(kind, rows, seed):
    # each pairing forms its terms elementwise; the oracle sums the same terms exactly
    rng = np.random.default_rng(seed)
    g = build_grid(make_interval(0.0, 1.0), 12, 16)
    vals = _draw(rng, kind, (g.size,), g.nodes)
    _assert_within_sum_bound(integrate(g, vals), vals * g.weights)
    _assert_within_sum_bound(integrate(g, vals.real), vals.real * g.weights)

    F = _draw(rng, kind, (rows, g.size), g.nodes)
    H = _draw(rng, kind, (rows, g.size), g.nodes)
    w = g.rho_at_nodes * g.weights
    for f, h, got in zip(F, H, _inner_weighted_rows(g, F, H)):
        _assert_within_sum_bound(got, f * np.conj(h) * w)
        _assert_within_sum_bound(inner_weighted(HVector(g, f), HVector(g, h)), f * np.conj(h) * w)

    basis = _span_basis()
    C = _draw(rng, "random", (rows, basis.size), np.zeros(basis.size))
    D = _draw(rng, "random", (rows, basis.size), np.zeros(basis.size))
    if kind == "cancelling":
        # scale C up and take out of each row of D its share along G c
        C *= 1e8
        GC = C @ basis.gram.T
        D -= (np.sum(np.conj(GC) * D, axis=1) / np.sum(np.abs(GC) ** 2, axis=1))[:, None] * GC
    for c, d, got in zip(C, D, _opr_inner_rows(basis, C, D)):
        _assert_within_sum_bound(got, np.conj(d)[:, None] * basis.gram * c[None, :])


@pytest.mark.parametrize("length", [3, 301, 401, 801, 32771])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize(
    "tail",
    [
        [math.inf],
        [math.nan],
        [math.inf, -math.inf],  # math.fsum: ValueError
        [1e308, 1e308, -1e308],  # math.fsum: intermediate overflow, OverflowError
        [1e308, -1e308, 1e308],  # the same terms in an order that does not overflow
        [2.0 ** 1020, 1.0, -(2.0 ** 1020)],
        [2.0 ** 950, 1.0, -(2.0 ** 950)],
    ],
)
def test_fsum_complex_keeps_math_fsum_for_non_finite_and_huge_terms(tail, part, length):
    # the numpy row sum on the terms the exact sum once sent to math.fsum:
    # inf and nan come out as math.fsum gives them, inf - inf as nan, and
    # huge finite terms within the sum bound of the exact sum, or as inf
    # where Σ|terms| is past the float range; the special terms sit last,
    # after ordinary ones, and unit weights leave the terms as they are
    g = build_grid(make_interval(0.0, float(length)), length, 1)
    seq = np.concatenate([np.linspace(-1.0, 2.0, length - len(tail)), tail])
    terms = np.zeros(length, dtype=complex)
    setattr(terms, part, seq)
    with np.errstate(over="ignore", invalid="ignore"):
        total = integrate(g, terms)
        size = float(np.abs(seq).sum())
    got = getattr(total, part)
    try:
        want = math.fsum(seq.tolist())
    except ValueError:
        assert math.isnan(got)
        return
    except OverflowError:  # the exact sum is finite all the same
        want = float(sum(map(Fraction, seq.tolist()), Fraction(0)))
    if not math.isfinite(want):
        assert got == want or (math.isnan(got) and math.isnan(want))
        return
    assert abs(got - want) <= length * np.finfo(float).eps * size
    assert getattr(total, "imag" if part == "real" else "real") == 0.0


def test_stacked_inner_products_are_the_single_ones_bit_for_bit():
    # both arguments stacked, and one vector against a stack, either side
    g = build_grid(make_interval(-1.0, 2.0), 9, 7, rho=lambda t: 1.5 + np.sin(t))
    rng = np.random.default_rng(11)
    F = rng.standard_normal((6, g.size)) + 1j * rng.standard_normal((6, g.size))
    G = rng.standard_normal((6, g.size)) * np.exp2(rng.integers(-40, 40, (6, g.size))) + 0.5j
    cases = [
        (F, G, [(f, h) for f, h in zip(F, G)]),
        (F[0], G, [(F[0], h) for h in G]),
        (F, G[0], [(f, G[0]) for f in F]),
    ]
    for rows, others, pairs in cases:
        got = _inner_weighted_rows(g, rows, others).tolist()
        want = [inner_weighted(HVector(g, f), HVector(g, h)) for f, h in pairs]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [(z.real.hex(), z.imag.hex()) for z in want]


def test_panels_for_oscillation():
    # quarter-period resolution: ceil(4 * rate * length / pi)
    assert panels_for_oscillation(2.0, 10.0) == math.ceil(80.0 / math.pi)
    assert panels_for_oscillation(1.0, 0.1, minimum=16) == 16
    with pytest.raises(ValueError, match="not finite"):
        panels_for_oscillation(2.0, 1e308)


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
    stacked = cumulative_integral(g, np.ones((3, g.size)))
    with pytest.raises(ValueError, match="outside"):
        stacked(np.array([0.5, -0.5]))


@pytest.mark.parametrize("order, breakpoints", [(16, ()), (5, (-0.3, 0.41)), (1, ())])
def test_stacked_primitive_is_the_per_row_primitive_bit_for_bit(order, breakpoints):
    g = build_grid(make_interval(-1.0, 2.0), 7, order, breakpoints=breakpoints)
    rng = np.random.default_rng(order)
    rows = rng.standard_normal((5, g.size)) + 1j * rng.standard_normal((5, g.size))
    rows[1] = np.cos(3.0 * g.nodes)  # one real row
    xs = np.r_[-1.0, np.linspace(-0.9, 1.9, 17), g.panel_edges[3], 2.0]
    F = cumulative_integral(g, rows)
    got, at_zero = F(xs), F(0.0)
    assert got.shape == (5, xs.size) and at_zero.shape == (5,)
    for row, got_row, got_zero in zip(rows, got, at_zero):
        Fi = cumulative_integral(g, row)
        assert Fi(xs).tobytes() == got_row.tobytes()
        assert complex(Fi(0.0)) == got_zero


@given(
    order=st.integers(2, 12),
    panels=st.integers(1, 6),
    lo=st.floats(-10.0, 10.0),
    log_width=st.floats(-1.0, 1.0),
    coef=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
)
def test_grid_calculus_is_exact_below_the_gauss_order(order, panels, lo, log_width, coef):
    # degree order - 1 in the variable scaled to (-1, 1), where sum |coef|
    # bounds it and Markov's inequality its derivative; measured worst over
    # 2 000 draws: 1.5e-13 (derivative) and 1.1e-14 (primitive) of those scales.
    # Subnormal values are rounded to a fixed spacing that no longer shrinks
    # with the value, so both bounds add a floor of 64 such spacings; at the
    # subnormal scale 2.2e-313 the errors are 12 and 1 spacings
    floor = 64 * np.finfo(float).smallest_subnormal
    hi = lo + 10.0 ** log_width
    g = build_grid(make_interval(lo, hi), panels, order)
    p = np.polynomial.Polynomial(coef[:order], domain=[lo, hi])
    size = np.sum(np.abs(p.coef))
    dp = derivative_values(g, p(g.nodes))
    assert np.max(np.abs(dp - p.deriv()(g.nodes))) <= 1e-12 * size * (order - 1) ** 2 * 2.0 / (hi - lo) + floor
    xs = np.linspace(lo, hi, 7)
    F = cumulative_integral(g, p(g.nodes))
    assert np.max(np.abs(F(xs) - p.integ(lbnd=lo)(xs))) <= 1e-13 * size * (hi - lo) + floor


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
    grid = product_grid([gx, gy])
    assert isinstance(grid, ProductGrid)
    assert grid.ndim == 2 and grid.shape == (12, 10) and grid.size == 120
    assert grid.half_widths == (1.0, 2.0)
    assert not {"nodes", "weights", "rho_at_nodes"} & set(vars(grid))
    # row-major: the last axis runs fastest
    assert grid.nodes.shape == (120, 2)
    np.testing.assert_array_equal(grid.nodes[:10, 1], gy.nodes)
    np.testing.assert_array_equal(grid.nodes[::10, 0], gx.nodes)
    np.testing.assert_array_equal(grid.weights, np.outer(gx.weights, gy.weights).ravel())
    np.testing.assert_array_equal(grid.rho_at_nodes, np.outer(gx.rho_at_nodes, gy.rho_at_nodes).ravel())
    assert abs(integrate(grid, np.ones(grid.size)) - 4.0) < 1e-14
    assert grid == product_grid([gx, gy])
    assert grid != product_grid([gy, gx])


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


def test_pairing_weights_are_cached_read_only_products():
    gx = build_grid(make_interval(-1.0, 2.0), 3, 5, rho=lambda t: 1.5 + np.sin(t))
    gy = build_grid(make_interval(0.0, 1.0), 4, 3)
    for g in (gx, ProductGrid((gx, gy))):
        assert g.rho_weights is g.rho_weights
        assert g.rho_weights.tobytes() == (g.rho_at_nodes * g.weights).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            g.rho_weights[0] = 0.0


@pytest.mark.parametrize("lo, hi", [(-1e3, 1e3), (-3e4, 1e5), (0.1, 0.7)])
def test_gauss_panels_scale_the_unit_panel_rule_bit_for_bit(lo, hi):
    edges = np.linspace(lo, hi, 41)
    for n in (1, 8, 16):
        xi, om = legendre.leggauss(n)
        nodes, weights = numerics._gauss_panels(edges, n)
        lefts, widths = edges[:-1, None], np.diff(edges)[:, None]
        assert nodes.tobytes() == (lefts + widths * (xi + 1.0) / 2.0).ravel().tobytes()
        assert weights.tobytes() == (widths * om / 2.0).ravel().tobytes()


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
