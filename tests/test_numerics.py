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
    _inner_weighted_rows,
    fsum_complex,
    fsum_rows,
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


@settings(max_examples=200)
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
    # finite endpoints whose distance overflows are no finite interval
    assert not make_interval(-1e308, 1e308).finite
    with pytest.raises(ValueError, match="truncated"):
        build_grid(make_interval(-1e308, 1e308), 4, 8)


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


def test_fsum_complex_survives_cancellation():
    vals = np.array([1e16 + 1j, 1.0 + 0j, -1e16 + 0j])
    assert fsum_complex(vals) == (1.0 + 1j)


def _assert_fsum_complex_is_math_fsum(terms) -> None:
    # the oracle is the per-element math.fsum of each part: the same bits,
    # or the same exception type
    arr = np.asarray(terms, dtype=complex).ravel()
    try:
        want = complex(math.fsum(arr.real), math.fsum(arr.imag))
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            fsum_complex(terms)
        return
    got = fsum_complex(terms)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


# real terms per tile: one row of n complex terms is a tile of 2n
_CUT, _BLOCK = numerics._FSUM_CUTOFF, numerics._FSUM_BLOCK


@settings(max_examples=200)
@given(
    length=st.sampled_from(
        [0, 1, _CUT // 2 - 1, _CUT // 2, _CUT - 1, _CUT, _CUT + 1, 1000, _BLOCK // 2 + 1, _BLOCK - 1, _BLOCK,
         _BLOCK + 1, 3 * _BLOCK + 5]
    ),
    span=st.integers(0, 1000),
    top=st.integers(-1000, 1020),
    kind=st.sampled_from(["spread", "cancel", "sparse", "real", "one-binade"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_fsum_complex_is_math_fsum_bit_for_bit(length, span, top, kind, seed):
    # exponents over up to 2^1000 below a top exponent that reaches past the
    # near-overflow fallback; terms below 2^-1022 are subnormal or zero
    rng = np.random.default_rng(seed)
    exps = np.maximum(rng.integers(top - span, top + 1, size=2 * length), -1080).astype(float)
    vals = rng.standard_normal(2 * length) * np.exp2(exps)
    if kind == "cancel":  # every term next to its negative, in shuffled order
        half = vals[: length + 1 >> 1]
        vals = np.concatenate([half, -half, half, -half])[: 2 * length]
        rng.shuffle(vals)
    elif kind == "sparse":
        vals[rng.random(2 * length) < 0.7] = 0.0
    elif kind == "one-binade":
        # one sign, one binade: the largest partial sums of the high parts,
        # which for negative terms carry their finest bits
        vals = -(1.0 + rng.random(2 * length)) * 2.0 ** top
    terms = vals[:length] if kind == "real" else vals[:length] + 1j * vals[length:]
    _assert_fsum_complex_is_math_fsum(terms)


def test_fsum_complex_sums_high_parts_exactly_near_their_bound():
    # 1000 negative terms near the top of one binade: the high parts add up
    # to 0.93 of sigma = 2^(M + e), the bound below which their sum is exact
    rng = np.random.default_rng(5)
    for _ in range(20):
        _assert_fsum_complex_is_math_fsum(-(1.8 + 0.2 * rng.random(1000)) * 2.0 ** 5 * (1 + 1j))


def test_fsum_complex_keeps_the_remainders_of_wide_parts():
    # terms over 2^-100..2^0 that cancel exactly, and survivors near 2^-300:
    # three extraction levels leave the survivors and some low bits of the
    # rest as remainders, and the whole sum is in them
    rng = np.random.default_rng(7)
    big = rng.standard_normal(500) * np.exp2(rng.integers(-100, 1, 500).astype(float))
    terms = np.concatenate([big, -big, rng.standard_normal(100) * 2.0 ** -300])
    rng.shuffle(terms)
    _assert_fsum_complex_is_math_fsum(terms + 1j * terms[::-1])


@pytest.mark.parametrize("length", [300, _CUT // 2, _CUT, 1000, _BLOCK + 1])
def test_fsum_complex_extracts_exactly_down_to_subnormals(length):
    # every term below 2^-950, most of them subnormal, half cancelling: the
    # extraction levels run with sigma in and near the subnormal range,
    # where addition is exact and the high parts stay error-free
    rng = np.random.default_rng(length)
    exps = rng.integers(-1080, -950, 2 * length).astype(float)
    vals = rng.standard_normal(2 * length) * np.exp2(exps)
    vals[: length // 2] = -vals[length : length + length // 2]
    rng.shuffle(vals)
    _assert_fsum_complex_is_math_fsum(vals[:length] + 1j * vals[length:])


@pytest.mark.parametrize("length", [3, 301, _CUT // 2 + 1, _CUT + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize(
    "tail",
    [
        [math.inf],
        [math.nan],
        [math.inf, -math.inf],  # ValueError
        [1e308, 1e308, -1e308],  # intermediate overflow: OverflowError
        [1e308, -1e308, 1e308],  # the same terms in an order that does not overflow
        [2.0 ** 1020, 1.0, -(2.0 ** 1020)],
        [2.0 ** 950, 1.0, -(2.0 ** 950)],
    ],
)
def test_fsum_complex_keeps_math_fsum_for_non_finite_and_huge_terms(tail, part, length):
    # the special terms sit in the last block, after ordinary ones
    terms = np.zeros(length, dtype=complex)
    setattr(terms, part, np.concatenate([np.linspace(-1.0, 2.0, length - len(tail)), tail]))
    _assert_fsum_complex_is_math_fsum(terms)


def _assert_rows_are_math_fsum(terms) -> None:
    # the oracle is each row on its own: the per-element math.fsum of its
    # parts, bit for bit, or the exception of the first part that raises
    want, raised = [], None
    for row in terms:
        try:
            want.append(complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())))
        except (ValueError, OverflowError) as exc:
            raised = type(exc)
            break
    if raised is not None:
        with pytest.raises(raised):
            fsum_rows(terms)
        return
    got = fsum_rows(terms)
    assert got.shape == (len(terms),) and got.dtype == complex
    hexes = [(z.real.hex(), z.imag.hex()) for z in got.tolist()]
    assert hexes == [(z.real.hex(), z.imag.hex()) for z in want]


# complex terms per row: below and at the one-row cutoff, rows that share a
# tile (and split across tiles: a tile holds _BLOCK // (2 * length) rows),
# the longest paired rows, rows summed part by part, and rows in two blocks
_ROW_LENGTHS = [0, 1, 2, 20, _CUT // 2 - 1, _CUT // 2, 300, 1000, _BLOCK // 2, _BLOCK // 2 + 1, _BLOCK + 1]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 40),
    length=st.sampled_from(_ROW_LENGTHS),
    span=st.integers(0, 600),
    special=st.sampled_from([None, "inf", "-inf", "nan", "huge", "inf-inf", "overflow"]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_fsum_rows_is_math_fsum_row_by_row(rows, length, span, special, seed):
    # rows centred anywhere in 2^-600..2^600, each spread over up to 2^600
    # below its top, reaching into the subnormals; some rows all zero; one
    # row may carry a non-finite or near-overflow term, which sends that
    # part alone to math.fsum
    rng = np.random.default_rng(seed)
    if length > _BLOCK // 4:
        rows = 1 + rows % 3
    tops = rng.integers(-600, 601, size=(rows, 1, 1))
    exps = np.maximum(tops - rng.integers(0, span + 1, size=(rows, 2, length)), -1080).astype(float)
    vals = rng.standard_normal((rows, 2, length)) * np.exp2(exps)
    vals[rng.random(rows) < 0.2] = 0.0
    if special is not None and length:
        r, part = rng.integers(rows), rng.integers(2)
        tail = {
            "inf": [math.inf],
            "-inf": [-math.inf],
            "nan": [math.nan],
            "huge": [2.0 ** 950, 1.0, -(2.0 ** 950)],
            "inf-inf": [math.inf, -math.inf],
            "overflow": [1e308, 1e308, -1e308],
        }[special][:length]
        vals[r, part, length - len(tail):] = tail
    terms = np.empty((rows, length), dtype=complex)
    terms.real, terms.imag = vals[:, 0], vals[:, 1]  # 1j * inf would make a nan
    _assert_rows_are_math_fsum(terms)


def test_fsum_rows_refuses_anything_but_a_stack():
    with pytest.raises(ValueError, match="stack"):
        fsum_rows(np.ones(4))


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
