"""Numerical Fourier transform pairs on boxes and the identities they obey."""

import math

import mpmath
import numpy as np
import pytest

from rkhskit import plancherel as pl
from rkhskit.numerics import build_grid, make_interval, product_grid

SQRT_2_OVER_PI = 0.7978845608028654
INV_PI = 0.3183098861837907
SQRT_PI_OVER_2 = 1.2533141373155003


def _gauss(t):
    return np.exp(-t * t / 2.0)


def test_box_domain_shapes():
    box = pl.box_domain((1.0, 2.0), max_frequency=10.0)
    assert box.ndim == 2
    assert box.half_widths == (1.0, 2.0)
    assert box.max_frequency == 10.0


def test_box_dimension_cap():
    with pytest.raises(ValueError, match="between 1 and 3"):
        pl.box_domain((1.0,) * 4, max_frequency=5.0)


def test_node_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        pl.box_domain((5000.0, 5000.0), max_frequency=50.0)


def test_box_cap_message():
    # 312 nodes per axis: the 3-d box would hold 30 M nodes
    with pytest.raises(ValueError, match="would hold 30371328 nodes, above the cap"):
        pl.box_domain((3.0, 3.0, 3.0), max_frequency=5.0)


def test_equal_half_widths_share_one_axis():
    box = pl.box_domain((2.0, 2.0, 3.0), max_frequency=5.0, nodes_per_panel=2)
    assert box.axes[0] is box.axes[1]
    assert box.axes[2] is not box.axes[0]
    assert box.shape == (box.axes[0].size, box.axes[0].size, box.axes[2].size)


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


def test_flat_window_transform_oracle():
    # transform of the indicator of (-1,1) is sqrt(2/pi) sin(x)/x
    box = pl.box_domain((1.0,), max_frequency=10.0)
    vals = pl.sample_on_box(box, lambda t: np.ones_like(t))
    got = pl.transform_at(vals, box.axes, np.array([0.0, 1.0, 2.5]), sign=-1.0)
    want = np.array(
        [SQRT_2_OVER_PI, SQRT_2_OVER_PI * math.sin(1.0), SQRT_2_OVER_PI * math.sin(2.5) / 2.5]
    )
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_transform_at_scalar_passthrough():
    box = pl.box_domain((1.0,), max_frequency=10.0)
    vals = pl.sample_on_box(box, lambda t: np.ones_like(t))
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
    rep = pl.mutual_inverse_check(
        lambda x, y: _gauss(x) * _gauss(y), box, radius=15.0, n_probes=16
    )
    assert rep.max_abs_err < 1e-2


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
        pl.sample_on_box(box1, lambda t: np.ones_like(t)), box1, lat1
    )
    f2 = pl.fourier_on_lattice(
        pl.sample_on_box(box2, lambda x, y: np.ones_like(x)), box2, lat2
    )
    np.testing.assert_allclose(f2, np.outer(f1, f1), atol=1e-12)


def _via_chirp(arr, axis, dst, src, sign):
    models = (pl._panel_model(src), pl._panel_model(dst))
    assert None not in models
    return pl._axis_chirp(arr, axis, dst, src, sign, models)


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
def test_pinned_2d_transforms_take_chirp_route(half_width, radius, rate, monkeypatch):
    box = pl.box_domain([half_width] * 2, max_frequency=radius)
    lattice = pl.box_domain([radius] * 2, max_frequency=rate)
    vals = pl.sample_on_box(box, lambda x, y: np.exp(-(x * x + 2.0 * y * y)) * (1.0 + 0.5j * np.sin(3.0 * x)))
    rows = np.r_[0 : lattice.shape[0] : 97, lattice.shape[0] - 1]
    g = lattice.axes[0]
    want = pl._axis_apply(vals, 0, g.nodes[rows], box.axes[0], -1.0)
    want = pl._axis_apply(want, 1, g.nodes[rows], box.axes[1], -1.0) / (2 * math.pi)
    monkeypatch.setattr(pl, "_axis_apply", _refuse)
    got = pl.fourier_on_lattice(vals, box, lattice)
    np.testing.assert_allclose(got[np.ix_(rows, rows)], want, rtol=0, atol=CHIRP_ATOL_2D)


@pytest.mark.parametrize("half_width, radius, rate", [(1.0, 50.0, 2.0), (4.0, 30.0, 4.0)])
def test_both_routes_against_exact_sum(half_width, radius, rate):
    # the quadrature sum itself, at 30 digits from the double nodes and
    # weights, at ten lattice nodes including the one nearest 0; both routes
    # round the phase x t, so they agree with it to rounding (measured:
    # dense 3.7e-16 and 4.7e-16, chirp 2.8e-16 and 1.2e-15 of max |F|)
    box = pl.box_domain([half_width], max_frequency=radius)
    lattice = pl.box_domain([radius], max_frequency=rate)
    src, dst = box.axes[0], lattice.axes[0]
    vals = pl.sample_on_box(box, lambda t: np.exp(-t * t) * (1.0 + 0.5j * np.sin(3.0 * t)))
    rows = np.linspace(0, dst.size - 1, 10).round().astype(int)
    rows[5] = np.argmin(np.abs(dst.nodes))
    with mpmath.workdps(30):
        ts = [mpmath.mpf(float(t)) for t in src.nodes]
        wf = [
            mpmath.mpf(float(w)) * mpmath.exp(-t * t) * (1 + 0.5j * mpmath.sin(3 * t))
            for t, w in zip(ts, src.weights)
        ]
        scale = 1 / mpmath.sqrt(2 * mpmath.pi)
        want = np.array([
            complex(scale * mpmath.fsum(c * mpmath.expj(-t * mpmath.mpf(float(x))) for t, c in zip(ts, wf)))
            for x in dst.nodes[rows]
        ])
    dense = pl._axis_apply(vals, 0, dst.nodes[rows], src, -1.0) / math.sqrt(2 * math.pi)
    chirp = _via_chirp(vals, 0, dst, src, -1.0)[rows] / math.sqrt(2 * math.pi)
    peak = np.max(np.abs(want))
    assert np.max(np.abs(dense - want)) <= 2.5e-15 * peak
    assert np.max(np.abs(chirp - want)) <= 2.5e-15 * peak


def test_grid_with_breakpoints_takes_dense_route(monkeypatch):
    src = build_grid(make_interval(-1.0, 1.0), 40, 8, breakpoints=(0.33,))
    assert pl._panel_model(src) is None
    box = product_grid([src])
    lattice = pl.box_domain((50.0,), max_frequency=1.0)
    vals = pl.sample_on_box(box, np.cos)
    want = pl._axis_apply(vals, 0, lattice.axes[0].nodes, src, -1.0) / math.sqrt(2 * math.pi)
    monkeypatch.setattr(pl, "_axis_chirp", _refuse)
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), want)


@pytest.mark.parametrize("ndim, n_probes", [(1, 50), (2, 49)])
def test_separable_back_evaluation_matches_transform_at(ndim, n_probes):
    box = pl.box_domain((4.0,) * ndim, max_frequency=8.0)
    lattice = pl.box_domain((8.0,) * ndim, max_frequency=4.0)
    F = pl.fourier_on_lattice(pl.sample_on_box(box, lambda *t: np.exp(-sum(v * v for v in t) / 2.0)), box, lattice)
    axes = pl.default_probes(box, n_probes=n_probes)
    got = pl._conjugate_on_tensor(F, lattice, axes)
    points = np.stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert got.size == points.shape[0] == n_probes
    want = pl.transform_at(F, lattice.axes, points, sign=+1.0)
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-12)
