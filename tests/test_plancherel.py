"""Numerical Fourier transform pairs on boxes and the identities they obey."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhskit import plancherel as pl
from rkhskit.numerics import build_grid, integrate, make_interval, product_grid

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


@pytest.mark.parametrize("max_frequency", [math.inf, math.nan, 0.0])
def test_box_domain_refuses_bad_max_frequency(max_frequency):
    with pytest.raises(ValueError, match="max_frequency must be positive and finite"):
        pl.box_domain((1.0,), max_frequency=max_frequency)


def test_node_cap_enforced():
    # a box keeps only its axes, so it is built; every dense array over it
    # is refused where it would be formed
    box = pl.box_domain((100.0, 100.0), max_frequency=50.0)
    assert box.size > pl.BOX_NODE_CAP
    dense = [
        box.mesh,
        lambda: box.nodes,
        lambda: box.weights,
        lambda: box.rho_at_nodes,
        lambda: pl.sample_on_box(box, np.add),
        lambda: pl.transform_at(np.zeros(1), box.axes, [[0.0, 0.0]], sign=1.0),
    ]
    for form in dense:
        with pytest.raises(ValueError, match="cap"):
            form()


def test_box_cap_message():
    # 312 nodes per axis: a dense array over the 3-d box, or a table on the
    # 3-d lattice, would hold 30 M nodes
    box = pl.box_domain((3.0, 3.0, 3.0), max_frequency=5.0)
    small = pl.box_domain((1.0, 1.0, 1.0), max_frequency=5.0, nodes_per_panel=1)
    lattice = pl.box_domain((5.0, 5.0, 5.0), max_frequency=3.0)
    message = "would hold 30371328 nodes, above the cap"
    with pytest.raises(ValueError, match=message):
        pl.sample_on_box(box, lambda x, y, z: x)
    with pytest.raises(ValueError, match=message):
        pl.fourier_on_lattice(np.zeros(small.shape), small, lattice)


def test_checks_refuse_a_dense_transform_above_the_cap():
    # the 979 k-node mesh of a dense source passes the cap, but its table on
    # the frequency lattice would not; the checks refuse it before forming it
    box = pl.box_domain((4.0, 0.25, 0.25), max_frequency=30.0, nodes_per_panel=2)
    assert box.size <= pl.BOX_NODE_CAP

    def source(x, y, z):
        return np.exp(-(x * x + y * y + z * z))

    for rate, check in (
        (4.0, lambda: pl.plancherel_norm_check(source, box, 30.0)),
        (4.0, lambda: pl.mutual_inverse_check(source, box, 30.0)),
        (8.0, lambda: pl.box_inversion_check(source, box, 30.0, (1.0, 0.1, 0.1))),
    ):
        lattice = pl.box_domain((30.0,) * 3, max_frequency=rate, nodes_per_panel=2)
        with pytest.raises(ValueError, match=f"would hold {lattice.size} nodes, above the cap"):
            check()


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
    rep = pl.mutual_inverse_check(lambda x, y: _gauss(x) * _gauss(y), box, radius=15.0)
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


def _spy_low_rank(monkeypatch):
    """Record the rank of every factorization fourier_on_lattice uses."""
    ranks, real = [], pl._low_rank

    def spy(arr):
        factors = real(arr)
        ranks.append(None if factors is None else factors[0].shape[1])
        return factors

    monkeypatch.setattr(pl, "_low_rank", spy)
    return ranks


def _column_route(vals, box, lattice, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(pl, "_low_rank", lambda arr: None)
        return pl.fourier_on_lattice(vals, box, lattice)


@pytest.mark.parametrize("half_width, radius, rate", [(4.0, 30.0, 4.0), (1.0, 50.0, 2.0)])
def test_pinned_2d_transforms_take_low_rank_route_with_chirp_axes(half_width, radius, rate, monkeypatch):
    box = pl.box_domain([half_width] * 2, max_frequency=radius)
    lattice = pl.box_domain([radius] * 2, max_frequency=rate)
    vals = pl.sample_on_box(box, lambda x, y: np.exp(-(x * x + 2.0 * y * y)) * (1.0 + 0.5j * np.sin(3.0 * x)))
    rows = np.r_[0 : lattice.shape[0] : 97, lattice.shape[0] - 1]
    g = lattice.axes[0]
    want = pl._axis_apply(vals, 0, g.nodes[rows], box.axes[0], -1.0)
    want = pl._axis_apply(want, 1, g.nodes[rows], box.axes[1], -1.0) / (2 * math.pi)
    monkeypatch.setattr(pl, "_axis_apply", _refuse)
    ranks = _spy_low_rank(monkeypatch)
    got = pl.fourier_on_lattice(vals, box, lattice)
    assert ranks == [8]
    np.testing.assert_allclose(got[np.ix_(rows, rows)], want, rtol=0, atol=CHIRP_ATOL_2D)


# 2-d sources of small numerical rank: by SVD of their samples on the pinned
# 2 448 x 2 448 box, 1, 23 and 15 singular values above 1e-14 of the largest.
LOW_RANK_SOURCES = {
    "product-gaussian": lambda x, y: np.exp(-(x * x + y * y)),
    "coupled-gaussian": lambda x, y: np.exp(-(x * x + y * y + x * y)),
    "cos-product": lambda x, y: np.cos(x * y) * np.exp(-(x * x + y * y) / 4.0),
}


@pytest.mark.parametrize("nodes_per_panel", [2, 8])
@pytest.mark.parametrize("name", sorted(LOW_RANK_SOURCES))
def test_low_rank_route_matches_column_route(name, nodes_per_panel, monkeypatch):
    # the pinned 2-d geometry; measured gaps 8.7e-16 to 2.0e-15 of max |F|
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=nodes_per_panel)
    lattice = pl.box_domain([30.0, 30.0], max_frequency=4.0, nodes_per_panel=nodes_per_panel)
    vals = pl.sample_on_box(box, LOW_RANK_SOURCES[name])
    want = _column_route(vals, box, lattice, monkeypatch)
    ranks = _spy_low_rank(monkeypatch)
    got = pl.fourier_on_lattice(vals, box, lattice)
    assert len(ranks) == 1 and ranks[0] is not None
    if name == "product-gaussian":
        assert ranks == [8]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_low_rank_factors_reach_the_floor():
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    arr = pl.sample_on_box(box, LOW_RANK_SOURCES["cos-product"])
    Q, B = pl._low_rank(arr)
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-14)
    assert np.linalg.norm(arr - Q @ B) <= pl._SKETCH_FLOOR * np.linalg.norm(arr)


def test_full_rank_samples_take_column_route(monkeypatch):
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    lattice = pl.box_domain([30.0, 30.0], max_frequency=4.0, nodes_per_panel=2)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal(box.shape) + 1j * rng.standard_normal(box.shape)
    assert pl._low_rank(vals) is None
    want = _column_route(vals, box, lattice, monkeypatch)
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), want)


def test_zero_samples_transform_to_zero():
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    lattice = pl.box_domain([30.0, 30.0], max_frequency=4.0, nodes_per_panel=2)
    vals = np.zeros(box.shape, dtype=complex)
    assert pl._low_rank(vals) is None
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), 0.0)


def test_low_rank_route_is_deterministic():
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    lattice = pl.box_domain([30.0, 30.0], max_frequency=4.0, nodes_per_panel=2)
    vals = pl.sample_on_box(box, LOW_RANK_SOURCES["coupled-gaussian"])
    first = pl.fourier_on_lattice(vals, box, lattice)
    assert first.tobytes() == pl.fourier_on_lattice(vals.copy(), box, lattice).tobytes()


def test_3d_box_takes_column_route(monkeypatch):
    box1 = pl.box_domain((2.0,), max_frequency=5.0, nodes_per_panel=4)
    box3 = pl.box_domain((2.0,) * 3, max_frequency=5.0, nodes_per_panel=4)
    lat1 = pl.box_domain((5.0,), max_frequency=2.0, nodes_per_panel=4)
    lat3 = pl.box_domain((5.0,) * 3, max_frequency=2.0, nodes_per_panel=4)
    monkeypatch.setattr(pl, "_low_rank", _refuse)
    f1 = pl.fourier_on_lattice(pl.sample_on_box(box1, _gauss), box1, lat1)
    f3 = pl.fourier_on_lattice(
        pl.sample_on_box(box3, lambda x, y, z: _gauss(x) * _gauss(y) * _gauss(z)), box3, lat3
    )
    np.testing.assert_allclose(f3, np.einsum("i,j,k->ijk", f1, f1, f1), rtol=0, atol=1e-14)


@pytest.mark.parametrize("half_width, radius, rate", [(1.0, 50.0, 2.0), (4.0, 30.0, 4.0), (6.0, 200.0, 6.0)])
def test_both_routes_against_exact_sum(half_width, radius, rate):
    # the quadrature sum of the double samples, weights and nodes at 30
    # digits, at lattice nodes from end to end and the one nearest 0; both
    # routes round their phases, so they agree with it to rounding (measured:
    # dense 3.7e-16, 4.7e-16 and 3.4e-16, chirp 2.1e-16, 1.2e-15 and 4.9e-16
    # of max |F|).  The pinned plancherel-norm box (6, 200, 6) has 24 448
    # nodes, so it takes two rows, the first and the one nearest 0, which
    # keeps its 30-digit sum near 1.5 s.
    box = pl.box_domain([half_width], max_frequency=radius)
    lattice = pl.box_domain([radius], max_frequency=rate)
    src, dst = box.axes[0], lattice.axes[0]
    vals = pl.sample_on_box(box, lambda t: np.exp(-t * t) * (1.0 + 0.5j * np.sin(3.0 * t)))
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
    assert np.max(np.abs(dense - want)) <= 2.5e-15 * peak
    assert np.max(np.abs(chirp - want)) <= 2.5e-15 * peak


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
    vals = pl.sample_on_box(box, np.cos)
    want = pl._axis_apply(vals, 0, lattice.axes[0].nodes, src, -1.0) / math.sqrt(2 * math.pi)
    monkeypatch.setattr(pl, "_axis_chirp", _refuse)
    np.testing.assert_array_equal(pl.fourier_on_lattice(vals, box, lattice), want)


@pytest.mark.parametrize("ndim, n_probes", [(1, 50), (2, 49)])
def test_separable_back_evaluation_matches_transform_at(ndim, n_probes):
    # 50 probes in 1-d and a 7 x 7 lattice in 2-d
    box = pl.box_domain((4.0,) * ndim, max_frequency=8.0)
    lattice = pl.box_domain((8.0,) * ndim, max_frequency=4.0)
    vals = pl.sample_on_box(box, lambda *t: np.exp(-sum(v * v for v in t) / 2.0))
    image = pl._transform(pl._dense_image(vals), box, lattice)
    F = image.dense()
    axes = pl.default_probes(box)
    got = pl._back_evaluate(image, lattice, axes)
    points = np.stack([c.ravel() for c in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert got.size == points.shape[0] == n_probes
    want = pl.transform_at(F, lattice.axes, points, sign=+1.0)
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-12)


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
    for j, (pts, g) in enumerate(zip(pl.default_probes(box), lattice.axes)):
        back = pl._axis_apply(back, j, pts, g, +1.0)
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


def _fixed_noise(*t):
    """Full-rank samples keyed on the shape alone, the same at every call."""
    rng = np.random.default_rng(t[0].shape)
    return rng.standard_normal(t[0].shape) + 1j * rng.standard_normal(t[0].shape)


def _gauss1(t):
    return np.exp(-(t * t))


def _on_mesh(fn):
    """A source as one callable of all axes: a product multiplies its
    factors' values."""
    if not isinstance(fn, tuple):
        return fn
    return lambda *t: math.prod(f(x) for f, x in zip(fn, t))


# the factored checks' 2-d sources: a product, as one factor per axis; two
# low-rank callables, factored by _low_rank; and full-rank samples, which
# keep identity factors
FACTORED_SOURCES = {
    "product-gaussian": (_gauss1, _gauss1),
    "coupled-gaussian": LOW_RANK_SOURCES["coupled-gaussian"],
    "cos-product": LOW_RANK_SOURCES["cos-product"],
    "full-rank": _fixed_noise,
}

# Bounds of the factored checks against the dense route, in eps of the
# checked quantity; measured at most 0.95 (norms, round-trip errors, lhs)
# and 5.7 (back-evaluated values and rhs) over the cases below.
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
    norm_time, norm_freq, back = _dense_checks(pl.sample_on_box(box, dense_fn), box, 30.0)
    rep = pl.plancherel_norm_check(fn, box, 30.0)
    assert abs(rep.norm_time - norm_time) <= NORM_ULPS * EPS * norm_time
    assert abs(rep.norm_freq - norm_freq) <= NORM_ULPS * EPS * norm_freq

    backs = _spy_back_evaluate(monkeypatch)
    repm = pl.mutual_inverse_check(fn, box, 30.0)
    peak = np.max(np.abs(back))
    assert np.max(np.abs(backs[0] - back)) <= VALUE_ULPS * EPS * peak
    axes = pl.default_probes(box)
    err = np.max(np.abs(back - dense_fn(*np.meshgrid(*axes, indexing="ij"))))
    assert abs(repm.max_abs_err - err) <= NORM_ULPS * EPS * peak

    boxb = pl.box_domain([1.0, 1.0], max_frequency=50.0, nodes_per_panel=nodes_per_panel)
    ts = (0.5, 0.25)
    repb = pl.box_inversion_check(fn, boxb, 50.0, ts)
    lhs_box = product_grid([build_grid(make_interval(0.0, tj), 16, 16) for tj in ts])
    lhs = integrate(lhs_box, pl.sample_on_box(lhs_box, dense_fn).ravel())
    rhs = _dense_box_inversion_rhs(pl.sample_on_box(boxb, dense_fn), boxb, 50.0, ts)
    assert abs(repb.lhs - lhs) <= NORM_ULPS * EPS * abs(lhs)
    assert abs(repb.rhs - rhs) <= VALUE_ULPS * EPS * abs(rhs)


def test_factored_sources_take_their_routes(monkeypatch):
    # a product never forms the mesh; low-rank callables are factored once;
    # full-rank samples keep identity factors
    box = pl.box_domain([4.0, 4.0], max_frequency=30.0, nodes_per_panel=2)
    with monkeypatch.context() as m:
        m.setattr(pl, "sample_on_box", _refuse)
        m.setattr(pl, "_low_rank", _refuse)
        img, _, F = pl._forward(FACTORED_SOURCES["product-gaussian"], box, 30.0, 4.0)
    assert img.core.shape == F.core.shape == (1, 1)
    assert [A.shape[1] for A in F.factors] == [1, 1]
    ranks = _spy_low_rank(monkeypatch)
    _, _, F = pl._forward(FACTORED_SOURCES["coupled-gaussian"], box, 30.0, 4.0)
    assert F.factors[1] is None and F.factors[0].shape[1] == F.core.shape[0] == ranks[0]
    _, _, F = pl._forward(FACTORED_SOURCES["full-rank"], box, 30.0, 4.0)
    assert ranks[1] is None and F.factors == (None, None)


def test_3d_product_checks_match_column_route(monkeypatch):
    fn = (_gauss1, lambda t: _gauss1(t - 0.5), lambda t: _gauss1(t) * np.cos(2.0 * t))
    box = pl.box_domain([2.0] * 3, max_frequency=5.0, nodes_per_panel=4)
    norm_time, norm_freq, back = _dense_checks(pl.sample_on_box(box, _on_mesh(fn)), box, 5.0)
    rep = pl.plancherel_norm_check(fn, box, 5.0)
    assert abs(rep.norm_time - norm_time) <= NORM_ULPS * EPS * norm_time
    assert abs(rep.norm_freq - norm_freq) <= NORM_ULPS * EPS * norm_freq
    backs = _spy_back_evaluate(monkeypatch)
    assert pl.mutual_inverse_check(fn, box, 5.0).n_probes == 64
    assert np.max(np.abs(backs[0] - back)) <= VALUE_ULPS * EPS * np.max(np.abs(back))
    boxb = pl.box_domain([1.0] * 3, max_frequency=5.0, nodes_per_panel=4)
    ts = (0.5, 0.25, 0.75)
    rhs = _dense_box_inversion_rhs(pl.sample_on_box(boxb, _on_mesh(fn)), boxb, 5.0, ts)
    assert abs(pl.box_inversion_check(fn, boxb, 5.0, ts).rhs - rhs) <= VALUE_ULPS * EPS * abs(rhs)


def test_product_source_needs_one_factor_per_axis():
    box = pl.box_domain([1.0, 1.0], max_frequency=5.0)
    for check in (pl.plancherel_norm_check, pl.mutual_inverse_check):
        with pytest.raises(ValueError, match="one factor per axis"):
            check((_gauss1,), box, 5.0)
    with pytest.raises(ValueError, match="one factor per axis"):
        pl.box_inversion_check((_gauss1,) * 3, box, 5.0, (0.5, 0.5))
