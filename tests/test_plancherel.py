"""Numerical Fourier transform pairs on boxes and the identities they obey."""

import bisect
import dataclasses
import math
from collections import OrderedDict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhskit import plancherel as pl
from rkhskit.numerics import NODE_CAP, ProductGrid, build_grid, integrate, make_interval, product_grid
from rkhskit.suites import SOURCES, RunConfig, run_suite

SQRT_2_OVER_PI = 0.7978845608028654
INV_PI = 0.3183098861837907
SQRT_PI_OVER_2 = 1.2533141373155003


def _gauss(t):
    return np.exp(-t * t / 2.0)


def _mesh_samples(box, fn):
    """Dense samples of a callable of all axes on the box's mesh."""
    return np.asarray(fn(*box.mesh()), dtype=complex)


def test_box_domain_shapes():
    box = pl.box_domain((1.0, 2.0), max_frequency=10.0)
    assert box.ndim == 2
    assert box.half_widths == (1.0, 2.0)
    assert pl.plancherel_norm_check((_gauss, _gauss), box, 10.0).radius == 10.0


def _refused_by_every_check(box, radius):
    """Each of the three checks refuses the radius with one line."""
    checks = (
        lambda: pl.plancherel_norm_check(_gauss, box, radius),
        lambda: pl.mutual_inverse_check(_gauss, box, radius),
        lambda: pl.box_inversion_check(_gauss, box, radius, (0.5,)),
    )
    for check in checks:
        with pytest.raises(ValueError, match=rf"^box resolves frequencies up to \S+, below the requested radius {radius:g}$"):
            check()


def test_hand_built_box_is_guarded():
    # 8 panels of width 1/4 resolve frequencies up to pi; unguarded, radius
    # 500 read a norm error of 1.36 and a round-trip error of 3.34 here
    box = product_grid([build_grid(make_interval(-1.0, 1.0), 8, 8)])
    _refused_by_every_check(box, 500.0)
    # the widest panel decides: 8 panels of 0.2375 and one of 0.1 resolve
    # frequencies up to pi / 0.95, not pi / 0.4
    uneven = product_grid([build_grid(make_interval(-1.0, 1.0), 8, 8, breakpoints=(0.9,))])
    _refused_by_every_check(uneven, 5.0)


def test_equal_boxes_are_guarded_alike():
    box = pl.box_domain([1.0], max_frequency=10.0)
    hand = product_grid(box.axes)
    assert hand == box
    for b in (box, hand):
        assert pl.plancherel_norm_check(_gauss, b, 10.0).radius == 10.0
        _refused_by_every_check(b, 20.0)


@settings(max_examples=100)
@given(
    log_a=st.floats(-3.0, 3.0),
    log_product=st.floats(-3.0, 3.0),
    order=st.integers(1, 8),
)
def test_box_domain_admits_its_max_frequency(log_a, log_product, order):
    # a * rate <= 1e3 keeps every box at order 1 under 2 550 panels
    a, rate = 10.0 ** log_a, 10.0 ** (log_product - log_a)
    box = pl.box_domain([a], max_frequency=rate, nodes_per_panel=order)
    assert pl.plancherel_norm_check(_gauss, box, rate).radius == rate
    resolved = math.pi / (4.0 * float(np.max(np.diff(box.axes[0].panel_edges))))
    with pytest.raises(ValueError, match="^box resolves frequencies up to"):
        pl.plancherel_norm_check(_gauss, box, resolved * (1.0 + 1e-11))


def test_box_dimension_cap():
    with pytest.raises(ValueError, match="between 1 and 3"):
        pl.box_domain((1.0,) * 4, max_frequency=5.0)


@pytest.mark.parametrize("max_frequency", [math.inf, math.nan, 0.0])
def test_box_domain_refuses_bad_max_frequency(max_frequency):
    with pytest.raises(ValueError, match="max_frequency must be positive and finite"):
        pl.box_domain((1.0,), max_frequency=max_frequency)


def test_node_cap_enforced():
    # a box keeps only its axes, so it is built; every dense array over it
    # is refused where it would be formed
    box = pl.box_domain((100.0, 100.0), max_frequency=50.0)
    assert box.size > NODE_CAP
    dense = [
        box.mesh,
        lambda: box.nodes,
        lambda: box.weights,
        lambda: box.rho_at_nodes,
        lambda: pl.transform_at(np.zeros(1), box.axes, [[0.0, 0.0]], sign=1.0),
    ]
    for form in dense:
        with pytest.raises(ValueError, match="cap"):
            form()


def test_empty_products_are_refused():
    for form in (lambda: product_grid([]), lambda: pl.transform_at(np.zeros(1), [], [0.0], sign=1.0)):
        with pytest.raises(ValueError, match="^need at least one factor grid$"):
            form()


def test_box_cap_message():
    # 312 nodes per axis: a dense array over the 3-d box, or a table on the
    # 3-d lattice, would hold 30 M nodes
    box = pl.box_domain((3.0, 3.0, 3.0), max_frequency=5.0)
    small = pl.box_domain((1.0, 1.0, 1.0), max_frequency=5.0, nodes_per_panel=1)
    lattice = pl.box_domain((5.0, 5.0, 5.0), max_frequency=3.0)
    message = "would hold 30371328 nodes, above the cap"
    with pytest.raises(ValueError, match=message):
        _mesh_samples(box, lambda x, y, z: x)
    with pytest.raises(ValueError, match=message):
        pl.fourier_on_lattice(np.zeros(small.shape), small, lattice)


def test_equal_half_widths_share_one_axis():
    box = pl.box_domain((2.0, 2.0, 3.0), max_frequency=5.0, nodes_per_panel=2)
    assert box.axes[0] is box.axes[1]
    assert box.axes[2] is not box.axes[0]
    assert box.shape == (box.axes[0].size, box.axes[0].size, box.axes[2].size)
    # and with the axes of a later box of the same half-widths
    assert pl.box_domain((3.0,), max_frequency=5.0, nodes_per_panel=2).axes[0] is box.axes[2]


def test_resolution_guard():
    box = pl.box_domain((1.0,), max_frequency=10.0)
    with pytest.raises(ValueError, match="radius"):
        pl.plancherel_norm_check(lambda t: np.ones_like(t), box, radius=20.0)


def test_indicator_hat_closed_form():
    # (exp(itx) - 1)/(ix) = sin(tx)/x + i (1 - cos(tx))/x
    t, x = 0.5, 2.0
    got = pl.indicator_hat(t, x)
    want = complex(math.sin(1.0) / 2.0, (1.0 - math.cos(1.0)) / 2.0)
    assert abs(got - want) < 1e-15


def test_indicator_hat_series_matches_formula():
    t = 0.7
    x = 9e-5  # just inside the series branch
    want = complex(math.sin(t * x) / x, (1.0 - math.cos(t * x)) / x)
    assert abs(pl.indicator_hat(t, x) - want) < 1e-12
    assert pl.indicator_hat(t, 0.0) == pytest.approx(t)


@pytest.mark.parametrize("t, x", [(1e4, 9e-5), (1e-6, 1.0), (2.0, 9e-5)])
def test_indicator_hat_against_mpmath(t, x):
    # the series branch is keyed on t*x, so large t with small x takes the
    # closed form and tiny t with ordinary x takes the series; t = 2 lands
    # just above the cutoff, where exp(itx) - 1 would cancel
    with mpmath.workdps(40):
        want = (mpmath.exp(1j * mpmath.mpf(t) * mpmath.mpf(x)) - 1) / (1j * mpmath.mpf(x))
        assert float(abs(pl.indicator_hat(t, x) - want) / abs(want)) <= 2e-16


@given(log_t=st.floats(-6.0, 6.0), log_z=st.floats(-5.5, -2.5), negative=st.booleans())
def test_indicator_hat_series_switch_against_mpmath(log_t, log_z, negative):
    # z = t x a decade and a half either side of the series cutoff
    # |z| = 1e-4; measured worst over 3 000 draws: 1.7 eps
    t = 10.0 ** log_t
    x = math.copysign(10.0 ** log_z, -1.0 if negative else 1.0) / t
    with mpmath.workdps(40):
        want = (mpmath.expj(t * mpmath.mpf(x)) - 1) / (1j * mpmath.mpf(x))
        assert abs(pl.indicator_hat(t, x) - want) <= 4 * np.finfo(float).eps * abs(want)


def test_flat_window_transform_oracle():
    # transform of the indicator of (-1,1) is sqrt(2/pi) sin(x)/x
    box = pl.box_domain((1.0,), max_frequency=10.0)
    vals = _mesh_samples(box, lambda t: np.ones_like(t))
    got = pl.transform_at(vals, box.axes, np.array([0.0, 1.0, 2.5]), sign=-1.0)
    want = np.array(
        [SQRT_2_OVER_PI, SQRT_2_OVER_PI * math.sin(1.0), SQRT_2_OVER_PI * math.sin(2.5) / 2.5]
    )
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_transform_at_scalar_passthrough():
    box = pl.box_domain((1.0,), max_frequency=10.0)
    vals = _mesh_samples(box, lambda t: np.ones_like(t))
    out = pl.transform_at(vals, box.axes, 0.0, sign=-1.0)
    assert isinstance(out, complex)
    assert out.real == pytest.approx(SQRT_2_OVER_PI, abs=1e-13)


def test_window_norm_preserved():
    # f = 1/sqrt(2 pi) on (-1,1): squared norm 1/pi on both sides
    box = pl.box_domain((1.0,), max_frequency=50.0)
    rep = pl.plancherel_norm_check(
        lambda t: np.full_like(t, 1.0 / math.sqrt(2.0 * math.pi)), box, radius=50.0
    )
    assert rep.norm_time ** 2 == pytest.approx(INV_PI, abs=1e-10)
    assert rep.norm_freq ** 2 == pytest.approx(INV_PI, abs=3e-3)


def test_gaussian_norm_preserved():
    box = pl.box_domain((6.0,), max_frequency=50.0)
    rep = pl.plancherel_norm_check(_gauss, box, radius=50.0)
    assert rep.rel_err < 1e-8
    # closed form: squared L2 norm of exp(-t^2/2) is sqrt(pi)
    assert rep.norm_time ** 2 == pytest.approx(math.sqrt(math.pi), rel=1e-8)


def test_norm_error_shrinks_with_radius():
    # the frequency tail of exp(-t^2/2) beyond r leaves the norm error
    # 1 - sqrt(1 - erfc(r)); at these radii it sits far above rounding
    box = pl.box_domain((6.0,), max_frequency=50.0)
    radii = (1.0, 2.0, 4.0)
    errs = [pl.plancherel_norm_check(_gauss, box, radius=r).rel_err for r in radii]
    assert errs[2] < errs[1] < errs[0]
    for r, err in zip(radii, errs):
        assert abs(err - (1.0 - math.sqrt(1.0 - math.erfc(r)))) <= 1e-9


def test_mutual_inverse_gaussian():
    box = pl.box_domain((6.0,), max_frequency=50.0)
    rep = pl.mutual_inverse_check(_gauss, box, radius=50.0)
    assert rep.max_abs_err < 1e-6
    assert rep.n_probes == 50


def test_mutual_inverse_2d_factorized_gaussian():
    box = pl.box_domain((4.0, 4.0), max_frequency=15.0)
    rep = pl.mutual_inverse_check((_gauss, _gauss), box, radius=15.0)
    assert rep.max_abs_err < 1e-2
    assert rep.n_probes == 49


def test_box_inversion_flat():
    box = pl.box_domain((1.0,), max_frequency=50.0)
    rep = pl.box_inversion_check(lambda t: np.ones_like(t), box, 50.0, [0.5])
    assert rep.lhs.real == pytest.approx(0.5, abs=1e-12)
    assert rep.abs_err < 1e-4


def test_box_inversion_cosine():
    box = pl.box_domain((1.0,), max_frequency=50.0)
    rep = pl.box_inversion_check(np.cos, box, 50.0, [0.5])
    assert rep.lhs.real == pytest.approx(math.sin(0.5), abs=1e-12)
    assert rep.abs_err < 1e-4


def test_box_inversion_validates_t():
    box = pl.box_domain((1.0,), max_frequency=20.0)
    with pytest.raises(ValueError, match="strictly inside"):
        pl.box_inversion_check(np.cos, box, 20.0, [1.5])
    with pytest.raises(ValueError, match="arity"):
        pl.box_inversion_check(np.cos, box, 20.0, [0.5, 0.5])


def test_forward_transform_factorizes_in_2d():
    box1 = pl.box_domain((1.0,), max_frequency=10.0)
    box2 = pl.box_domain((1.0, 1.0), max_frequency=10.0)
    lat1 = pl.box_domain((10.0,), max_frequency=1.0)
    lat2 = pl.box_domain((10.0, 10.0), max_frequency=1.0)
    f1 = pl.fourier_on_lattice(
        _mesh_samples(box1, lambda t: np.ones_like(t)), box1, lat1
    )
    f2 = pl.fourier_on_lattice(
        _mesh_samples(box2, lambda x, y: np.ones_like(x)), box2, lat2
    )
    np.testing.assert_allclose(f2, np.outer(f1, f1), atol=1e-12)


def _via_chirp(arr, axis, dst, src, sign):
    """The chirp-z contraction on a freshly built plan, after checking that
    the cached plan gives the same bits."""
    built = pl._build_plan(dst, src, sign)
    assert built is not None
    got = pl._axis_chirp(arr, axis, built)
    np.testing.assert_array_equal(pl._axis_chirp(arr, axis, pl._chirp_plan(dst, src, sign)), got)
    return got


def _refuse(*args, **kwargs):
    raise AssertionError("route not expected here")


# Both routes round the phase x t, so they differ by rounding alone:
# measured up to 9.9e-15 on the 1-d cases below and 6.4e-16 on the 2-d
# ones, while a chirp phase scale off by 1e-13 relative moves every case by
# at least 2.3e-13 (1-d) and 2.6e-14 (2-d).
CHIRP_ATOL_1D = 1e-13
CHIRP_ATOL_2D = 1e-14


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("P, Q", [(40, 12), (12, 40)])
@pytest.mark.parametrize("n", range(1, 9))
def test_chirp_route_matches_dense(n, P, Q, sign):
    # n != m throughout; off-centre intervals exercise the centring phases
    m = 9 - n
    src = build_grid(make_interval(-0.7, 1.9), P, n)
    dst = build_grid(make_interval(-23.0, 17.0), Q, m)
    rng = np.random.default_rng(100 * P + n)
    arr = rng.standard_normal((src.size, 3)) + 1j * rng.standard_normal((src.size, 3))
    got = _via_chirp(arr, 0, dst, src, sign)
    want = pl._axis_apply(arr, 0, dst.nodes, src, sign)
    np.testing.assert_allclose(got, want, rtol=0, atol=CHIRP_ATOL_1D)


def test_chirp_route_contracts_inner_axis():
    src = build_grid(make_interval(-2.0, 2.0), 30, 4)
    dst = build_grid(make_interval(-15.0, 15.0), 21, 3)
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((5, src.size, 2)) + 1j * rng.standard_normal((5, src.size, 2))
    got = _via_chirp(arr, 1, dst, src, 1.0)
    assert got.shape == (5, dst.size, 2)
    np.testing.assert_allclose(got, pl._axis_apply(arr, 1, dst.nodes, src, 1.0), rtol=0, atol=CHIRP_ATOL_1D)


# (time half-width, frequency radius, time rate) of the pinned
# plancherel-norm, mutual-inverse and box-inversion transforms at 8 nodes
PINNED_1D = [(6.0, 200.0, 6.0), (1.0, 200.0, 1.0), (1.0, 100.0, 1.0), (1.0, 50.0, 1.0),
             (4.0, 30.0, 4.0), (1.0, 200.0, 2.0), (1.0, 50.0, 2.0)]


@pytest.mark.parametrize("half_width, radius, rate", PINNED_1D)
def test_pinned_1d_transforms_take_chirp_route(half_width, radius, rate, monkeypatch):
    box = pl.box_domain([half_width], max_frequency=radius)
    lattice = pl.box_domain([radius], max_frequency=rate)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    # the dense oracle at every 61st lattice node and the last one
    rows = np.r_[0 : lattice.size : 61, lattice.size - 1]
    want = pl._axis_apply(vals, 0, lattice.axes[0].nodes[rows], box.axes[0], -1.0) / math.sqrt(2 * math.pi)
    monkeypatch.setattr(pl, "_axis_apply", _refuse)
    got = pl.fourier_on_lattice(vals, box, lattice)
    np.testing.assert_allclose(got[rows], want, rtol=0, atol=CHIRP_ATOL_1D)


@pytest.mark.parametrize("half_width, radius, rate", [(4.0, 30.0, 4.0), (1.0, 50.0, 2.0)])
def test_pinned_2d_transforms_take_column_route_with_chirp_axes(half_width, radius, rate, monkeypatch):
    box = pl.box_domain([half_width] * 2, max_frequency=radius)
    lattice = pl.box_domain([radius] * 2, max_frequency=rate)
    vals = _mesh_samples(box, lambda x, y: np.exp(-(x * x + 2.0 * y * y)) * (1.0 + 0.5j * np.sin(3.0 * x)))
    rows = np.r_[0 : lattice.shape[0] : 97, lattice.shape[0] - 1]
    g = lattice.axes[0]
    want = pl._axis_apply(vals, 0, g.nodes[rows], box.axes[0], -1.0)
    want = pl._axis_apply(want, 1, g.nodes[rows], box.axes[1], -1.0) / (2 * math.pi)
    monkeypatch.setattr(pl, "_axis_apply", _refuse)
    got = pl.fourier_on_lattice(vals, box, lattice)
    np.testing.assert_allclose(got[np.ix_(rows, rows)], want, rtol=0, atol=CHIRP_ATOL_2D)


def test_zero_samples_transform_to_zero():
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    lattice = pl.box_domain([30.0, 30.0], max_frequency=4.0, nodes_per_panel=2)
    vals = np.zeros(box.shape, dtype=complex)
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), 0.0)


def test_3d_box_takes_column_route():
    box1 = pl.box_domain((2.0,), max_frequency=5.0, nodes_per_panel=4)
    box3 = pl.box_domain((2.0,) * 3, max_frequency=5.0, nodes_per_panel=4)
    lat1 = pl.box_domain((5.0,), max_frequency=2.0, nodes_per_panel=4)
    lat3 = pl.box_domain((5.0,) * 3, max_frequency=2.0, nodes_per_panel=4)
    f1 = pl.fourier_on_lattice(_mesh_samples(box1, _gauss), box1, lat1)
    f3 = pl.fourier_on_lattice(
        _mesh_samples(box3, lambda x, y, z: _gauss(x) * _gauss(y) * _gauss(z)), box3, lat3
    )
    np.testing.assert_allclose(f3, np.einsum("i,j,k->ijk", f1, f1, f1), rtol=0, atol=1e-14)


def _gaps_to_exact_sum(half_width, radius, rate, source):
    """(dense, chirp): the largest gap of each route to the quadrature sum of
    the double samples, weights and nodes at 30 digits, relative to max |F|,
    at lattice nodes from end to end and the one nearest 0.  A box of more
    than 5 000 nodes takes two rows, the first and the one nearest 0."""
    box = pl.box_domain([half_width], max_frequency=radius)
    lattice = pl.box_domain([radius], max_frequency=rate)
    src, dst = box.axes[0], lattice.axes[0]
    vals = _mesh_samples(box, source)
    n_rows = 10 if src.size < 5000 else 2
    rows = np.linspace(0, dst.size - 1, n_rows).round().astype(int)
    rows[n_rows // 2] = np.argmin(np.abs(dst.nodes))
    with mpmath.workdps(30):
        ts = [mpmath.mpf(t) for t in src.nodes.tolist()]
        wf = [mpmath.mpc(c) for c in (vals * src.weights).tolist()]
        scale = 1 / mpmath.sqrt(2 * mpmath.pi)
        want = np.array([
            complex(scale * mpmath.fdot(wf, [mpmath.expj(t * minus_x) for t in ts]))
            for minus_x in (-mpmath.mpf(x) for x in dst.nodes[rows].tolist())
        ])
    dense = pl._axis_apply(vals, 0, dst.nodes[rows], src, -1.0) / math.sqrt(2 * math.pi)
    chirp = _via_chirp(vals, 0, dst, src, -1.0)[rows] / math.sqrt(2 * math.pi)
    peak = np.max(np.abs(want))
    return np.max(np.abs(dense - want)) / peak, np.max(np.abs(chirp - want)) / peak


@pytest.mark.parametrize("half_width, radius, rate", [(1.0, 50.0, 2.0), (4.0, 30.0, 4.0), (6.0, 200.0, 6.0)])
def test_both_routes_against_exact_sum(half_width, radius, rate):
    # both routes round their phases, so they agree with the exact sum to
    # rounding (measured: dense 3.7e-16, 4.7e-16 and 3.4e-16, chirp 2.1e-16,
    # 1.2e-15 and 4.9e-16 of max |F|).  The pinned plancherel-norm box
    # (6, 200, 6) has 24 448 nodes, so it takes two rows, which keeps its
    # 30-digit sum near 1.5 s.
    dense, chirp = _gaps_to_exact_sum(
        half_width, radius, rate, lambda t: np.exp(-t * t) * (1.0 + 0.5j * np.sin(3.0 * t))
    )
    assert dense <= 2.5e-15
    assert chirp <= 2.5e-15


@pytest.mark.parametrize("half_width, radius, rate", [(1.0, 50.0, 2.0), (4.0, 30.0, 4.0)])
def test_both_routes_against_exact_sum_off_centre(half_width, radius, rate):
    # a packet centred at 3/4 of the half-width, oscillating at 3/4 of the
    # radius: the chirp route's quadratic phases are large there, and it
    # rounds 6-19 times worse than the dense route (measured: dense 4.6e-16
    # and 3.9e-16, chirp 2.6e-15 and 7.3e-15 of max |F|).  The chirp bound
    # is twice the worse of the two, so that gap cannot grow unseen.
    w = half_width / 4.0

    def packet(t):
        return np.exp(-(((t - 0.75 * half_width) / w) ** 2) + 0.75j * radius * t)

    dense, chirp = _gaps_to_exact_sum(half_width, radius, rate, packet)
    assert dense <= 2.5e-15
    assert chirp <= 1.5e-14


def _chirp_gap(half_width, radius, rate, order, sign=-1.0):
    """(gap, phase): the largest gap between the chirp and dense routes at
    nine lattice nodes, for random samples, relative to max |F|; and the
    largest quadratic phase of the chirp route, theta (P + Q)^2 / 8 =
    radius * half_width * (P + Q)^2 / (2 P Q) radians."""
    box = pl.box_domain([half_width], max_frequency=radius, nodes_per_panel=order)
    lattice = pl.box_domain([radius], max_frequency=rate, nodes_per_panel=order)
    src, dst = box.axes[0], lattice.axes[0]
    rng = np.random.default_rng(src.size)
    vals = rng.standard_normal(src.size) + 1j * rng.standard_normal(src.size)
    rows = np.linspace(0, dst.size - 1, 9).round().astype(int)
    chirp = _via_chirp(vals, 0, dst, src, sign)[rows]
    dense = pl._axis_apply(vals, 0, dst.nodes[rows], src, sign)
    P, Q = src.n_panels, dst.n_panels
    phase = radius * half_width * (P + Q) ** 2 / (2 * P * Q)
    return np.max(np.abs(chirp - dense)) / np.max(np.abs(dense)), phase


# Both routes form phases in double precision, so their gap grows with the
# largest phase: over 1 500 random geometries within the caps below it
# stayed under 1.06 eps (8 + phase) of max |F|, while a chirp phase scale off
# by 1e-13 relative opens it to about 100 eps per radian or more.
CHIRP_GAP_PER_RADIAN = 4.0 * np.finfo(float).eps


@settings(max_examples=40)
@given(
    half_width=st.floats(0.25, 4.0),
    radius=st.floats(1.0, 100.0),
    rate=st.floats(0.25, 4.0),
    order=st.integers(1, 8),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_chirp_matches_dense_over_the_parameter_range(half_width, radius, rate, order, sign):
    # at most about 1 000 panels a side, so the dense oracle stays cheap
    gap, phase = _chirp_gap(half_width, radius, rate, order, sign)
    assert gap <= CHIRP_GAP_PER_RADIAN * (8.0 + phase)


def test_chirp_matches_dense_far_beyond_the_suites():
    # (half-width, radius, rate, order) = (200, 50, 200, 2): 25 465 panels a
    # side and quadratic phases up to 2.0e4 radians.  The gap grows with
    # radius x half-width; measured 2.6e-12 of max |F| here (0.58 eps per
    # radian), 1.3e-13 at the pinned (6, 200, 6, 8).
    gap, phase = _chirp_gap(200.0, 50.0, 200.0, 2)
    assert phase == pytest.approx(2.0e4, rel=1e-3)
    assert gap <= CHIRP_GAP_PER_RADIAN * (8.0 + phase)


def test_grid_with_breakpoints_takes_dense_route(monkeypatch):
    src = build_grid(make_interval(-1.0, 1.0), 40, 8, breakpoints=(0.33,))
    assert pl._panel_model(src) is None
    box = product_grid([src])
    lattice = pl.box_domain((50.0,), max_frequency=1.0)
    vals = _mesh_samples(box, np.cos)
    want = pl._axis_apply(vals, 0, lattice.axes[0].nodes, src, -1.0) / math.sqrt(2 * math.pi)
    monkeypatch.setattr(pl, "_axis_chirp", _refuse)
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), want)


@pytest.mark.parametrize("ndim, n_probes", [(1, 50), (2, 49)])
def test_separable_back_evaluation_matches_transform_at(ndim, n_probes):
    # 50 probes in 1-d and a 7 x 7 lattice in 2-d
    box = pl.box_domain((4.0,) * ndim, max_frequency=8.0)
    _, lattice, image = pl._forward((_gauss,) * ndim, box, 8.0, 4.0)
    F = pl._outer(image) * (2 * math.pi) ** (-ndim / 2)
    probes = pl.default_probes(box)
    got = pl._back_evaluate(image, lattice, probes)
    points = np.stack([c.ravel() for c in np.meshgrid(*[g.nodes for g in probes], indexing="ij")], axis=-1)
    assert got.size == points.shape[0] == n_probes
    want = pl.transform_at(F, lattice.axes, points, sign=+1.0)
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-12)


def _dense_back(F, lattice, probes):
    """The back-evaluation on the dense route: _axis_apply along each axis."""
    backs = [pl._axis_apply(v, 0, p.nodes, g, 1.0) for v, p, g in zip(F, probes, lattice.axes)]
    return pl._outer(backs) * (2 * math.pi) ** -lattice.ndim


# the pinned back-evaluations of mutual-inverse: (source, half-widths, radius)
PINNED_BACK = {
    "gaussian": (lambda t: np.exp(-t * t), (6.0,), 200.0),
    "wave": (SOURCES["wave"], (1.0,), 200.0),
    "2-d gaussian": ((lambda t: np.exp(-t * t),) * 2, (4.0, 4.0), 30.0),
}


# the 1-d probe axes have 50 nodes and take the chirp-z route, while the
# 2-d ones have 7, fewer than _CHIRP_MIN_NODES, and stay dense at either
# order; measured gaps 1.2e-14 (gaussian), 6.6e-15 to 7.4e-15 (wave) and
# 0 (2-d, where both sides are the same dense sums)
@pytest.mark.parametrize("name, nodes_per_panel", [
    ("gaussian", 2), ("gaussian", 8), ("wave", 2), ("wave", 8), ("2-d gaussian", 2), ("2-d gaussian", 8),
])
def test_pinned_back_evaluations_take_chirp_route(name, nodes_per_panel, monkeypatch):
    fn, half_widths, radius = PINNED_BACK[name]
    box = pl.box_domain(half_widths, max_frequency=radius, nodes_per_panel=nodes_per_panel)
    _, lattice, F = pl._forward(fn, box, radius, max(half_widths))
    probes = pl.default_probes(box)
    want = _dense_back(F, lattice, probes)
    monkeypatch.setattr(pl, "_axis_apply" if box.ndim == 1 else "_axis_chirp", _refuse)
    got = pl._back_evaluate(F, lattice, probes)
    atol = CHIRP_ATOL_1D if box.ndim == 1 else CHIRP_ATOL_2D
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def test_default_probes_are_one_node_panels_at_the_linspace_points():
    for half_widths in [(6.0,), (1.0,), (4.0, 4.0), (2.0, 2.0, 2.0)]:
        probes = pl.default_probes(pl.box_domain(half_widths, max_frequency=10.0))
        for a, g in zip(half_widths, probes):
            assert g.nodes_per_panel == 1 and pl._panel_model(g) is not None
            want = np.linspace(-0.9 * a, 0.9 * a, g.size)
            assert np.max(np.abs(g.nodes - want)) <= np.spacing(0.9 * a)


def _route_taken(src, dst, cols):
    """The routes _axis_contract takes for ``cols`` columns from src to dst.
    Both routes are stubbed, so no column is read and any count is cheap."""
    taken = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pl, "_axis_chirp", lambda *args: taken.append("chirp"))
        m.setattr(pl, "_axis_apply", lambda *args: taken.append("dense"))
        pl._axis_contract(np.broadcast_to(np.complex128(0), (src.size, cols)), 0, dst, src, -1.0)
    return taken


# the back-evaluations of the suites, onto 50, 50, 7 and 4 probes an axis:
# (time half-widths, radius, route)
SUITE_BACK = [((6.0,), 200.0, "chirp"), ((1.0,), 200.0, "chirp"),
              ((4.0,) * 2, 30.0, "dense"), ((4.0,) * 3, 30.0, "dense")]


def _suite_axis_pairs(order):
    """(source, target, route) of every axis contraction the Plancherel
    suites make at the order: the forward transforms, then the
    back-evaluations."""
    pairs = []
    for a, radius, rate in PINNED_1D:
        box = pl.box_domain([a], max_frequency=radius, nodes_per_panel=order)
        lattice = pl.box_domain([radius], max_frequency=rate, nodes_per_panel=order)
        pairs.append((box.axes[0], lattice.axes[0], "chirp"))
    for half_widths, radius, route in SUITE_BACK:
        box = pl.box_domain(half_widths, max_frequency=radius, nodes_per_panel=order)
        lattice = pl.box_domain([radius], max_frequency=half_widths[0], nodes_per_panel=order)
        pairs.append((lattice.axes[0], pl.default_probes(box)[0], route))
    return pairs


# 612 and 2 448 columns are a whole side of dense samples on the 2-d box
# (4, 30) at orders 2 and 8: the route does not depend on the column count
@pytest.mark.parametrize("order, cols", [(2, 1), (2, 612), (8, 1), (8, 2448)])
def test_suite_axes_take_the_route_of_their_grid_sizes(order, cols):
    for src, dst, route in _suite_axis_pairs(order):
        assert _route_taken(src, dst, cols) == [route], (src.size, dst.size)


@pytest.fixture
def plans(monkeypatch):
    """An empty plan cache for one test; the module's own comes back after."""
    cache = OrderedDict()
    monkeypatch.setattr(pl, "_PLANS", cache)
    return cache


@pytest.mark.parametrize("order", [2, 8])
def test_cached_plans_give_the_bits_of_fresh_ones(order, plans):
    # every axis pair of the suites, both signs: the first lookup builds and
    # keeps the plan, the second is served from the cache
    for src, dst, route in _suite_axis_pairs(order):
        rng = np.random.default_rng(src.size + dst.size)
        arr = rng.standard_normal((src.size, 2)) + 1j * rng.standard_normal((src.size, 2))
        for sign in (-1.0, 1.0):
            plan = pl._chirp_plan(dst, src, sign)
            assert (plan is None) == (route == "dense"), (src.size, dst.size)
            if plan is None:
                continue
            assert pl._chirp_plan(dst, src, sign) is plan
            fresh = pl._build_plan(dst, src, sign)
            for kept, built in zip(plan, fresh):
                np.testing.assert_array_equal(kept, built)
            np.testing.assert_array_equal(pl._axis_chirp(arr, 0, plan), pl._axis_chirp(arr, 0, fresh))


def test_forward_and_back_plans_are_distinct_entries(plans):
    src = pl.box_domain([1.0], max_frequency=50.0, nodes_per_panel=2).axes[0]
    dst = pl.box_domain([50.0], max_frequency=1.0, nodes_per_panel=2).axes[0]
    forward, back = pl._chirp_plan(dst, src, -1.0), pl._chirp_plan(dst, src, 1.0)
    assert len(plans) == 2 and forward is not back
    np.testing.assert_array_equal(back.pre, np.conj(forward.pre))
    assert not np.array_equal(back.spec, forward.spec)


@pytest.mark.parametrize("field", ["nodes", "weights"])
def test_grid_with_the_same_edges_gets_its_own_plan(field, plans):
    # the same panel edges with shifted nodes, or with other weights: a key
    # on the edges alone would serve the first grid's plan
    src = build_grid(make_interval(-2.0, 2.0), 30, 4)
    dst = build_grid(make_interval(-15.0, 15.0), 21, 3)
    other = dataclasses.replace(src, **{field: getattr(src, field) + 0.5})
    assert np.array_equal(other.panel_edges, src.panel_edges)
    rng = np.random.default_rng(5)
    arr = rng.standard_normal(src.size) + 1j * rng.standard_normal(src.size)
    first = pl._chirp_plan(dst, src, -1.0)
    plan = pl._chirp_plan(dst, other, -1.0)
    assert plan is not first and len(plans) == 2
    want = pl._axis_apply(arr, 0, dst.nodes, other, -1.0)
    np.testing.assert_allclose(pl._axis_chirp(arr, 0, plan), want, rtol=0, atol=CHIRP_ATOL_1D)


def test_plan_arrays_refuse_writes(plans):
    src = pl.box_domain([1.0], max_frequency=50.0, nodes_per_panel=2).axes[0]
    dst = pl.box_domain([50.0], max_frequency=1.0, nodes_per_panel=2).axes[0]
    for plan in (pl._chirp_plan(dst, src, -1.0), pl._build_plan(dst, src, -1.0)):
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_plan_cache_never_holds_more_than_its_bound(plans, monkeypatch):
    # a bound of two of the plans below: the least recently used goes first,
    # and a plan larger than the bound is applied but not kept
    src = pl.box_domain([1.0], max_frequency=50.0, nodes_per_panel=2).axes[0]
    dsts = [build_grid(make_interval(-50.0, 50.0), panels, 2) for panels in (100, 101, 102)]
    for dst in dsts:
        pl._chirp_plan(dst, src, -1.0)
    size = max(map(pl._entry_bytes, plans.items()))
    plans.clear()
    monkeypatch.setattr(pl, "_PLAN_CACHE_BYTES", 2 * size + size // 2)
    a = pl._chirp_plan(dsts[0], src, -1.0)
    pl._chirp_plan(dsts[1], src, -1.0)
    assert pl._chirp_plan(dsts[0], src, -1.0) is a  # now the most recent
    pl._chirp_plan(dsts[2], src, -1.0)
    assert len(plans) == 2 and sum(map(pl._entry_bytes, plans.items())) <= pl._PLAN_CACHE_BYTES
    assert pl._chirp_plan(dsts[0], src, -1.0) is a
    kept = list(plans.values())
    big = pl.box_domain([200.0], max_frequency=6.0).axes[0]
    assert pl._chirp_plan(big, src, -1.0) is not None
    assert list(plans.values()) == kept


def test_plan_cache_holds_a_whole_verify_run(plans):
    # the nine plans of every Plancherel suite at the pinned order, about
    # 13.8 MB of arrays and 2 MB of keys, are all kept
    for name in ("plancherel-norm", "mutual-inverse", "box-inversion", "plancherel-3d"):
        run_suite(name, RunConfig())
    assert len(plans) == 9
    assert sum(map(pl._entry_bytes, plans.items())) <= pl._PLAN_CACHE_BYTES


def test_fft_len_is_the_next_product_of_twos_and_threes():
    smooth = sorted(2 ** a * 3 ** b for a in range(19) for b in range(12) if 2 ** a * 3 ** b <= 4 * 10 ** 5)
    for n in range(1, 2 * 10 ** 5 + 1):
        assert pl._fft_len(n) == smooth[bisect.bisect_left(smooth, n)], n


@pytest.mark.parametrize("size, route", [(7, "dense"), (8, "chirp")])
def test_chirp_route_needs_eight_nodes_on_each_grid(size, route):
    small = build_grid(make_interval(-1.0, 1.0), size, 1)
    large = pl.box_domain([200.0], max_frequency=6.0).axes[0]
    assert _route_taken(large, small, 1) == [route]
    assert _route_taken(small, large, 1) == [route]


@settings(max_examples=50)
@given(
    panels=st.integers(1, 400),
    order=st.integers(1, 8),
    other=st.integers(1, 3056),
    as_source=st.booleans(),
    cols=st.sampled_from([1, 612, 2448]),
)
def test_grid_with_breakpoints_always_takes_dense_route(panels, order, other, as_source, cols):
    # a breakpoint at an irrational share of the interval leaves panels of
    # two widths, which no uniform-panel model fits once the grid has 8
    # nodes; the other grid is uniform and as large as the suites'
    cut = build_grid(make_interval(-1.0, 2.0), panels, order, breakpoints=(-1.0 + 3.0 / math.pi,))
    assert cut.size < pl._CHIRP_MIN_NODES or pl._panel_model(cut) is None
    uniform = build_grid(make_interval(-50.0, 50.0), other, 8)
    src, dst = (cut, uniform) if as_source else (uniform, cut)
    assert _route_taken(src, dst, cols) == ["dense"]


@pytest.mark.parametrize("nodes_per_panel", [2, 8])
def test_back_evaluation_of_an_off_centre_packet(nodes_per_panel, monkeypatch):
    # a packet at 3/4 of the radius, modulated at 3/4 of the half-width, on
    # the pinned (6, 200) lattice, where the chirp route's quadratic phases
    # reach theta (P + Q)^2 / 8 = 3.5e4 radians; measured 3.8e-13 and
    # 1.3e-13 of max |F| (0.05 and 0.02 eps per radian)
    a, radius = 6.0, 200.0
    box = pl.box_domain([a], max_frequency=radius, nodes_per_panel=nodes_per_panel)
    lattice = pl.box_domain([radius], max_frequency=a, nodes_per_panel=nodes_per_panel)
    x = lattice.axes[0].nodes
    F = [np.exp(-((x - 0.75 * radius) / (radius / 16)) ** 2 + 0.75j * a * x)]
    probes = pl.default_probes(box)
    want = _dense_back(F, lattice, probes)
    monkeypatch.setattr(pl, "_axis_apply", _refuse)
    got = pl._back_evaluate(F, lattice, probes)
    (src,), (dst,) = lattice.axes, probes
    theta = np.ptp(src.panel_edges) / src.n_panels * np.ptp(dst.panel_edges) / dst.n_panels
    phase = theta * (src.n_panels + dst.n_panels) ** 2 / 8
    gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert gap <= CHIRP_GAP_PER_RADIAN * (8.0 + phase)


EPS = np.finfo(float).eps


def _kron_norm(arr, grid):
    return math.sqrt(np.sum(np.abs(arr.ravel()) ** 2 * grid.weights))


def _dense_checks(vals, box, radius):
    """(time norm, frequency norm, back-evaluation at the default probes) of
    box samples on the dense route: fourier_on_lattice, kron weights and
    _axis_apply one axis at a time."""
    npp = box.axes[0].nodes_per_panel
    lattice = pl.box_domain((radius,) * box.ndim, max_frequency=max(box.half_widths), nodes_per_panel=npp)
    F = pl.fourier_on_lattice(vals, box, lattice)
    back = F
    for j, (probe, g) in enumerate(zip(pl.default_probes(box), lattice.axes)):
        back = pl._axis_apply(back, j, probe.nodes, g, +1.0)
    return _kron_norm(vals, box), _kron_norm(F, lattice), back * (2 * math.pi) ** (-box.ndim / 2)


def _dense_box_inversion_rhs(vals, box, radius, ts):
    """rhs of box_inversion_check on the dense route: the dense table
    contracted with each indicator transform in turn."""
    npp = box.axes[0].nodes_per_panel
    lattice = pl.box_domain((radius,) * box.ndim, max_frequency=2 * max(box.half_widths), nodes_per_panel=npp)
    arr = pl.fourier_on_lattice(vals, box, lattice)
    for tj, g in zip(ts, lattice.axes):
        arr = np.tensordot(arr, pl.indicator_hat(tj, g.nodes) * g.weights, axes=([0], [0]))
    return complex(arr) * (2 * math.pi) ** (-box.ndim / 2)


def _gauss1(t):
    return np.exp(-(t * t))


def _on_mesh(fn):
    """A source as one callable of all axes: a product multiplies its
    factors' values."""
    if not isinstance(fn, tuple):
        return fn
    return lambda *t: math.prod(f(x) for f, x in zip(fn, t))


# the factored checks' 2-d source, one factor per axis
FACTORED_SOURCES = {"product-gaussian": (_gauss1, _gauss1)}

# Bounds of the factored checks against the dense route, in eps of the
# checked quantity; measured at most 0.8 (norms), 0.55 (lhs), 1.7 (rhs) and
# 5.0 (back-evaluated values) over the cases below.  The round-trip errors
# take the values' bound (measured 0.68).
NORM_ULPS = 2.0
VALUE_ULPS = 8.0


def _spy_back_evaluate(monkeypatch):
    """Keep every back-evaluation mutual_inverse_check makes."""
    backs, real = [], pl._back_evaluate

    def spy(*args):
        backs.append(real(*args))
        return backs[-1]

    monkeypatch.setattr(pl, "_back_evaluate", spy)
    return backs


@pytest.mark.parametrize("nodes_per_panel", [2, 8])
@pytest.mark.parametrize("name", sorted(FACTORED_SOURCES))
def test_factored_checks_match_dense_route(name, nodes_per_panel, monkeypatch):
    # the pinned 2-d geometries of plancherel-norm and mutual-inverse, and
    # of box-inversion
    fn, dense_fn = FACTORED_SOURCES[name], _on_mesh(FACTORED_SOURCES[name])
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=nodes_per_panel)
    norm_time, norm_freq, back = _dense_checks(_mesh_samples(box, dense_fn), box, 30.0)
    rep = pl.plancherel_norm_check(fn, box, 30.0)
    assert abs(rep.norm_time - norm_time) <= NORM_ULPS * EPS * norm_time
    assert abs(rep.norm_freq - norm_freq) <= NORM_ULPS * EPS * norm_freq

    backs = _spy_back_evaluate(monkeypatch)
    repm = pl.mutual_inverse_check(fn, box, 30.0)
    peak = np.max(np.abs(back))
    assert np.max(np.abs(backs[0] - back)) <= VALUE_ULPS * EPS * peak
    axes = [g.nodes for g in pl.default_probes(box)]
    err = np.max(np.abs(back - dense_fn(*np.meshgrid(*axes, indexing="ij"))))
    assert abs(repm.max_abs_err - err) <= VALUE_ULPS * EPS * peak

    boxb = pl.box_domain([1.0, 1.0], max_frequency=50.0, nodes_per_panel=nodes_per_panel)
    ts = (0.5, 0.25)
    repb = pl.box_inversion_check(fn, boxb, 50.0, ts)
    lhs_box = product_grid([build_grid(make_interval(0.0, tj), 16, 16) for tj in ts])
    lhs = integrate(lhs_box, _mesh_samples(lhs_box, dense_fn).ravel())
    rhs = _dense_box_inversion_rhs(_mesh_samples(boxb, dense_fn), boxb, 50.0, ts)
    assert abs(repb.lhs - lhs) <= NORM_ULPS * EPS * abs(lhs)
    assert abs(repb.rhs - rhs) <= VALUE_ULPS * EPS * abs(rhs)


def test_factored_sources_take_their_routes(monkeypatch):
    # a product is one vector per axis, for its samples and its transform,
    # and the box is never meshed
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    monkeypatch.setattr(ProductGrid, "mesh", _refuse)
    img, lattice, F = pl._forward(FACTORED_SOURCES["product-gaussian"], box, 30.0, 4.0)
    assert [v.shape for v in img] == [(g.size,) for g in box.axes]
    assert [v.shape for v in F] == [(g.size,) for g in lattice.axes]


def test_3d_product_checks_match_column_route(monkeypatch):
    fn = (_gauss1, lambda t: _gauss1(t - 0.5), lambda t: _gauss1(t) * np.cos(2.0 * t))
    box = pl.box_domain([2.0] * 3, max_frequency=5.0, nodes_per_panel=4)
    norm_time, norm_freq, back = _dense_checks(_mesh_samples(box, _on_mesh(fn)), box, 5.0)
    rep = pl.plancherel_norm_check(fn, box, 5.0)
    assert abs(rep.norm_time - norm_time) <= NORM_ULPS * EPS * norm_time
    assert abs(rep.norm_freq - norm_freq) <= NORM_ULPS * EPS * norm_freq
    backs = _spy_back_evaluate(monkeypatch)
    assert pl.mutual_inverse_check(fn, box, 5.0).n_probes == 64
    assert np.max(np.abs(backs[0] - back)) <= VALUE_ULPS * EPS * np.max(np.abs(back))
    boxb = pl.box_domain([1.0] * 3, max_frequency=5.0, nodes_per_panel=4)
    ts = (0.5, 0.25, 0.75)
    rhs = _dense_box_inversion_rhs(_mesh_samples(boxb, _on_mesh(fn)), boxb, 5.0, ts)
    assert abs(pl.box_inversion_check(fn, boxb, 5.0, ts).rhs - rhs) <= VALUE_ULPS * EPS * abs(rhs)


def test_product_source_needs_one_factor_per_axis():
    # too few or too many factors, and a callable of all axes on a box of 2
    # or 3: every check refuses the source with one line
    for ndim, source in (
        (2, (_gauss1,)),
        (2, (_gauss1,) * 3),
        (2, lambda x, y: _gauss1(x) * _gauss1(y)),
        (3, lambda x, y, z: _gauss1(x) * _gauss1(y) * _gauss1(z)),
    ):
        box = pl.box_domain([1.0] * ndim, max_frequency=5.0)
        message = f"^a source on {ndim} axes needs one factor per axis: a tuple of {ndim} one-argument callables$"
        for check in (pl.plancherel_norm_check, pl.mutual_inverse_check):
            with pytest.raises(ValueError, match=message):
                check(source, box, 5.0)
        with pytest.raises(ValueError, match=message):
            pl.box_inversion_check(source, box, 5.0, (0.5,) * ndim)


@pytest.mark.parametrize("nodes_per_panel", [2, 8])
def test_plancherel_suites_never_mesh_a_box(nodes_per_panel, monkeypatch):
    # every check samples, transforms and measures one axis at a time
    monkeypatch.setattr(ProductGrid, "mesh", _refuse)
    for name in ("plancherel-norm", "mutual-inverse", "box-inversion", "plancherel-3d"):
        report = run_suite(name, RunConfig(nodes_per_panel=nodes_per_panel))
        failed = [r.name for r in report.records if not r.passed]
        assert report.records and not failed, (report.suite, failed)
