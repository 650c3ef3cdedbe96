"""Sobolev-type and bandlimited spaces, sinc identity, tensor products."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkhskit import spaces
from rkhskit.numerics import (
    HVector,
    build_grid,
    inner_weighted,
    inner_weighted_matrix,
    integrate,
    make_interval,
    norm_weighted,
    panels_for_oscillation,
    product_grid,
    sample,
    truncate_line,
)
from rkhskit.spaces import (
    RHO_REGISTRY,
    PaleyWienerSpace,
    SobolevSpace,
    sinc_gram,
    sinc_ratio,
    tensor_feature,
    tensor_kernel,
)
from rkhskit.spaces import _SINC_BAND, _SINC_BLOCK
from rkhskit.transforms import kernel_eval

LN15 = 0.4054651081081644  # log(1.5)
LN18 = 0.5877866649021191  # log(1.8)
INV_PI = 0.3183098861837907
PI_SIN1 = 2.643559064081456  # pi * sin(1)


# ---------------------------------------------------------------- sobolev


def test_const_weight_kernel_is_overlap_length():
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    assert s.kernel(0.5, 0.8) == pytest.approx(0.5, abs=1e-15)
    assert s.kernel(-0.5, 0.8) == 0.0
    assert s.kernel(-0.3, -0.7) == pytest.approx(0.3, abs=1e-15)
    assert s.kernel(0.8, 0.8) == pytest.approx(0.8, abs=1e-15)


def test_affine_weight_kernel_closed_form():
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0, rho=lambda t: 1.0 + t)
    # integral of 1/(1+t) from 0 to med
    assert s.kernel(0.5, 0.9) == pytest.approx(LN15, abs=1e-14)
    assert s.kernel(0.8, 0.8) == pytest.approx(LN18, abs=1e-14)
    assert s.kernel(-0.2, 0.4) == 0.0


def test_kernel_symmetry_and_psd():
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0, rho=lambda t: 1.0 + t)
    pts = np.linspace(-0.8, 0.8, 7)
    G = np.array([[s.kernel(x, y) for y in pts] for x in pts])
    np.testing.assert_allclose(G, G.T, atol=1e-14)
    assert np.linalg.eigvalsh(G).min() > -1e-12


def test_feature_map_quadrature_matches_kernel():
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    pts = [-0.7, -0.2, 0.4, 0.9]
    fm = s.feature_map(pts)
    for x in pts:
        for y in pts:
            assert abs(kernel_eval(fm, x, y) - s.kernel(x, y)) < 1e-12


def test_reproducing_property_small():
    s = SobolevSpace(make_interval(0.0, 1.0), 0.0, rho=lambda t: 1.0 + t)
    # evaluation points must sit on panel edges: the slope sections jump there
    ys = (0.2, 0.5, 0.9)
    fm = s.feature_map(ys)
    df = sample(fm.grid, np.cos)  # f = sin, f(0) = 0
    for y, slope in zip(ys, s.kernel_section_slope(ys, fm.grid)):
        lhs = inner_weighted(df, HVector(fm.grid, slope))
        assert abs(lhs - math.sin(y)) < 1e-8


def test_indefinite_transform_is_isometric():
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0, panels=32, nodes_per_panel=16)
    f = sample(s.grid, lambda t: np.cos(3.0 * t) + 0.4j * t * t * np.exp(t))
    lhs = s.norm_from_samples(sample(s.grid, lambda t: np.sin(3.0 * t) / 3.0 + 0.4j * (t * t - 2 * t + 2) * np.exp(t) - 0.8j))
    # norm of the primitive in the derivative norm equals the L2 norm of f
    rhs = norm_weighted(f)
    assert abs(lhs - rhs) / rhs < 1e-8


def test_anchor_must_lie_in_interval():
    with pytest.raises(ValueError, match="anchor"):
        SobolevSpace(make_interval(0.0, 1.0), 2.0)


def test_interval_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        SobolevSpace(make_interval(0.0, math.inf), 0.0)


def test_nonintegrable_weight_grows_under_refinement():
    # integrability of 1/rho toward c is only seen at grid resolution; a
    # failing weight shows up as diagonal kernel values that keep climbing
    ks = [
        SobolevSpace(make_interval(0.0, 1.0), 0.0, rho=lambda t: t, panels=p).kernel(0.5, 0.5)
        for p in (8, 32, 128)
    ]
    assert ks[0] < ks[1] < ks[2]
    assert ks[2] - ks[0] > 0.5


@pytest.mark.parametrize(
    "lo, hi, c, rho_name",
    [
        (-1.0, 1.0, 0.0, "const"),
        (0.0, 2.0, 0.7, "const"),
        (0.0, 1.0, 0.0, "affine"),
        (-1.0, 1.0, 0.0, "affine"),
        (-0.5, 3.0, 1.25, "affine"),
    ],
)
def test_registry_kernels_against_mpmath(lo, hi, c, rho_name):
    # the integral of 1/rho over (c, med{x, y, c}), across the whole interval;
    # affine on (-1, 1) at x = -0.999 sits next to the zero of rho
    s = SobolevSpace(make_interval(lo, hi), c, RHO_REGISTRY[rho_name])
    pts = [lo, lo + 0.001 * (hi - lo), *np.linspace(lo, hi, 9)[1:-1].tolist(), hi]
    if rho_name == "affine" and lo == -1.0:
        pts[0] = -0.999
    inv_rho = {"const": lambda t: 1, "affine": lambda t: 1 / (1 + t)}[rho_name]
    with mpmath.workdps(30):
        for x in pts:
            for y in pts:
                m = sorted((x, y, c))[1]
                want = float(abs(mpmath.quad(inv_rho, [mpmath.mpf(c), mpmath.mpf(m)])))
                assert abs(s.kernel(x, y) - want) <= 1e-14 * max(want, 1e-300)


def test_kernel_quadrature_route_matches_closed_form():
    # the bare rho callable carries no primitive, so the kernel integrates
    # 1/rho by Gauss quadrature on the space's own grid size
    affine = RHO_REGISTRY["affine"]
    closed = SobolevSpace(make_interval(0.0, 1.0), 0.0, affine)
    for panels, npp, rel in [(16, 16, 1e-14), (32, 4, 1e-13)]:
        quad = SobolevSpace(make_interval(0.0, 1.0), 0.0, affine.rho, panels=panels, nodes_per_panel=npp)
        for x, y in [(0.3, 0.9), (0.95, 0.95), (0.05, 0.6)]:
            assert quad.kernel(x, y) == pytest.approx(closed.kernel(x, y), rel=rel)
    # a coarse grid is visibly worse next to the zero of rho
    near = SobolevSpace(make_interval(-1.0, 1.0), 0.0, affine.rho, panels=8)
    assert abs(near.kernel(-0.999, -0.999) - math.log(1000.0)) > 1e-2


def test_closed_kernel_refuses_a_nonintegrable_endpoint():
    # rho = 1 + t vanishes at -1, where the integral of 1/rho diverges
    s = SobolevSpace(make_interval(-1.0, 1.0), 0.0, RHO_REGISTRY["affine"])
    assert s.kernel(-1.0, 0.5) == 0.0  # med{-1, 0.5, 0} is the anchor
    with pytest.raises(ValueError, match="not integrable"):
        s.kernel(-1.0, -1.0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        SobolevSpace(make_interval(0.0, 1.0), 0.0, rho=lambda t: 0.0 * t - 1.0)


def test_points_outside_interval_rejected():
    s = SobolevSpace(make_interval(0.0, 1.0), 0.0)
    with pytest.raises(ValueError, match="outside"):
        s.kernel(0.5, 1.5)


# ---------------------------------------------------------- paley-wiener


def test_pw_kernel_values():
    pw = PaleyWienerSpace(1.0)
    assert pw.kernel(0.0, 0.0).real == pytest.approx(INV_PI, abs=1e-15)
    assert abs(pw.kernel(0.0, math.pi)) < 1e-15
    assert pw.kernel(0.0, 1.0).real == pytest.approx(math.sin(1.0) / math.pi, abs=1e-15)


def test_pw_kernel_translation_invariance():
    pw = PaleyWienerSpace(2.0)
    for d in (0.3, 1.7):
        assert pw.kernel(1.1, 1.1 + d) == pytest.approx(pw.kernel(0.0, d), abs=1e-15)


def test_pw_kernel_series_branch_matches_formula():
    pw = PaleyWienerSpace(1.5)
    # just below the series cutoff the ratio formula is still well
    # conditioned, so the two branches must agree there
    d = 9.9e-5
    want = math.sin(1.5 * d) / (math.pi * d)
    assert pw.kernel(0.0, d).real == pytest.approx(want, abs=1e-15)
    assert pw.kernel(0.0, 0.0).real == pytest.approx(1.5 / math.pi, abs=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "a, x, y",
    [
        (1.0, 1e308, -1e308),  # x - conj(y) itself overflows
        (1.0, 0.0, 800j),  # finite argument, but |sin| ~ exp|Im z| / 2 overflows
        (1.0, 0.0, -800j),
        (1.0, 800j, 0.0),
        (1e8, 0.0, 7e-6j),  # sin(700 i) is finite, its quotient by pi |d| is not
    ],
)
def test_pw_kernel_refuses_an_overflowing_value(a, x, y):
    with pytest.raises(ValueError, match="overflows"):
        PaleyWienerSpace(a).kernel(x, y)


@pytest.mark.parametrize("a", [0.25, 1.0, 3.0, 8.0])
@pytest.mark.parametrize("max_frequency", [1.0, 8.0, 10.0, 40.0, 200.0])
def test_pw_gram_matches_closed_kernel(a, max_frequency):
    # the grid's 16-node panels span 2 pi of the Gram integrand's top
    # frequency 2 max_frequency: measured worst 33 eps of max|K| = a / pi
    # (20 on the earlier grid of four times the nodes); 8-node panels
    # spanning 2 pi give 1.7e5 to 3.9e5
    pw = PaleyWienerSpace(a, max_frequency=max_frequency)
    fm = pw.feature_map()
    pts = np.linspace(-max_frequency, max_frequency, 9)
    feats = np.array([fm.feature(x).values for x in pts])
    G = inner_weighted_matrix(fm.grid, feats, feats)
    K = np.array([[pw.kernel(x, y) for y in pts] for x in pts])
    assert np.max(np.abs(G - K)) <= 48.0 * np.finfo(float).eps * a / math.pi


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [5e307, 1e308, 1.7e308, -1.7e308])
def test_pw_kernel_at_far_real_points_against_mpmath(d):
    # pi d overflows above about 5.7e307; the value sin(d) / (pi d) is
    # subnormal there, so it is checked to a few subnormal units
    with mpmath.workdps(40):
        want = float(mpmath.sin(mpmath.mpf(d)) / (mpmath.pi * mpmath.mpf(d)))
    got = PaleyWienerSpace(1.0).kernel(d, 0.0)
    assert got.imag == 0.0 and want != 0.0
    assert abs(got.real - want) <= 4 * 5e-324


def test_pw_feature_rejects_complex_argument():
    pw = PaleyWienerSpace(1.0)
    with pytest.raises(ValueError, match="closed form"):
        pw.feature_map().feature(1.0 + 1.0j)


def test_pw_feature_rejects_unresolved_frequency():
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    with pytest.raises(ValueError, match="resolution"):
        pw.feature_map().feature(50.0)


def test_sinc_ratio_series_branch():
    a = 2.0
    # sin(a u)/u -> a as u -> 0, and the series agrees with the ratio
    # just below its cutoff
    assert sinc_ratio(a, 0.0) == pytest.approx(a, abs=1e-15)
    u = 9e-5
    assert sinc_ratio(a, u) == pytest.approx(math.sin(a * u) / u, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1.0, 2.0, 1e4])
def test_sinc_ratio_forms_its_series_on_small_entries_only(a):
    # a large |a u| next to the series entries overflowed z**4 in the
    # discarded series branch; the series entries keep their bits
    u = np.array([1e80, 0.0, 3e-5 / a, -9.9e-5 / a, 2.0, -1e300 / a])
    got = sinc_ratio(a, u)
    z = a * u[1:4]
    assert got[1:4].tolist() == (a * (1.0 - z * z / 6.0 + z ** 4 / 120.0)).tolist()
    assert got[[0, 4, 5]].tolist() == (np.sin(a * u[[0, 4, 5]]) / u[[0, 4, 5]]).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, u", [(2.0, 1e308), (4.0, -6e307), (1.0, math.inf), (1.0, math.nan)])
def test_sinc_ratio_refuses_a_scaled_argument_that_is_not_finite(a, u):
    # a u overflows (or is not a number), though sin(a u) / u may be finite
    with pytest.raises(ValueError, match="a u is not finite"):
        sinc_ratio(a, u)
    with pytest.raises(ValueError, match="a u is not finite"):
        sinc_ratio(a, np.array([0.0, 1.0, u]))
    with pytest.raises(ValueError, match="a u is not finite"):
        sinc_gram(a, (0.0, u), 10.0)


@pytest.mark.filterwarnings("error")
def test_sinc_gram_at_a_far_point():
    # the identity's right-hand side sinc_ratio(1, 1e308) no longer
    # overflows the series
    lhs = sinc_gram(1.0, (0.0, 1e308), 10.0)[0, 1]
    rhs = math.pi * sinc_ratio(1.0, 1e308)
    assert math.isfinite(lhs) and math.isfinite(rhs)


@pytest.mark.parametrize("a, u", [(1e4, 9e-5), (1e-6, 1.0)])
def test_sinc_ratio_and_pw_kernel_against_mpmath(a, u):
    # the series branches are keyed on the scaled argument a*u
    with mpmath.workdps(40):
        want = mpmath.sin(mpmath.mpf(a) * mpmath.mpf(u)) / mpmath.mpf(u)
        assert float(abs(sinc_ratio(a, u) - want) / want) <= 2e-16
        got = PaleyWienerSpace(a).kernel(u, 0.0)
        assert float(abs(got - want / mpmath.pi) / (want / mpmath.pi)) <= 2e-16


@given(
    log_a=st.floats(-6.0, 6.0),
    log_z=st.floats(-5.5, -2.5),
    negative=st.booleans(),
    angle=st.floats(0.0, math.pi),
)
def test_series_switches_against_mpmath(log_a, log_z, negative, angle):
    # the scaled argument z = a u runs a decade and a half either side of the
    # series cutoff |z| = 1e-4, at bandwidths over twelve decades; measured
    # worst over 3 000 draws: 1.1 eps (sinc_ratio), 1.5 eps (kernel at real
    # points) and 2.4 eps (kernel at complex points)
    a = 10.0 ** log_a
    u = math.copysign(10.0 ** log_z, -1.0 if negative else 1.0) / a
    d = abs(u) * complex(math.cos(angle), math.sin(angle))
    tol = 4 * np.finfo(float).eps
    pw = PaleyWienerSpace(a)
    with mpmath.workdps(40):
        want = mpmath.sin(a * mpmath.mpf(u)) / u
        assert abs(sinc_ratio(a, u) - want) <= tol * abs(want)
        assert abs(pw.kernel(u, 0.0) - want / mpmath.pi) <= tol * abs(want / mpmath.pi)
        want = mpmath.sin(a * mpmath.mpc(d)) / (mpmath.pi * d)
        assert abs(pw.kernel(d, 0.0) - want) <= tol * abs(want)


def test_sinc_gram_at_unit_offset():
    # the truncated tail is O(1/radius): the pairing sits within 4/radius
    # of pi sin(a(y - x))/(y - x)
    lhs = sinc_gram(1.0, (0.0, 1.0), 1000.0)[0, 1]
    rhs = math.pi * sinc_ratio(1.0, 1.0)
    assert rhs == pytest.approx(PI_SIN1, abs=1e-12)
    assert abs(lhs - rhs) <= 4.0 / 1000.0 + 1e-6


def test_sinc_gram_coincident_points_give_pi():
    lhs = sinc_gram(1.0, (0.0, 0.0), 1000.0)[0, 1]
    rhs = math.pi * sinc_ratio(1.0, 0.0)
    assert rhs == pytest.approx(math.pi, abs=1e-12)
    assert abs(lhs - math.pi) < 3e-3


def _sinc_pairing_on_own_grid(a, x, y, radius):
    # the per-pair reference: a fresh grid with breakpoints at x and y,
    # integrated by compensated summation
    window = truncate_line(radius)
    panels = panels_for_oscillation(window.length, 2.0 * a, minimum=16)
    g = build_grid(window, panels, 8, breakpoints=(x, y))
    return integrate(g, sinc_ratio(a, g.nodes - x) * sinc_ratio(a, g.nodes - y)).real


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_sinc_gram_matches_per_pair_quadrature(a):
    # 41-81 k nodes, so the blocked sum crosses block boundaries
    pts = [-2.0, 0.0, 0.4, math.pi]
    P = sinc_gram(a, pts, 1e3)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert abs(P[i, j] - _sinc_pairing_on_own_grid(a, x, y, 1e3)) <= 1e-12


def _sinc_window_grid(a, radius):
    # the one grid sinc_gram integrates on
    return spaces._oscillation_grid(truncate_line(radius), 2.0 * a, minimum=16)


def _quarter_phase_window_grid(a, radius):
    # the slow path's grid: 8-node panels spanning pi/4 of the integrand's
    # top frequency 2a, four times the nodes of the window grid
    window = truncate_line(radius)
    return build_grid(window, panels_for_oscillation(window.length, 2.0 * a, minimum=16), 8)


def _sinc_gram_per_entry(a, points, radius, grid=_sinc_window_grid):
    # the oracle: sinc_ratio on every (point, node) entry, in sinc_gram's blocks
    pts = np.asarray(points, dtype=float)
    g = grid(a, radius)
    P = np.zeros((pts.size, pts.size))
    for lo in range(0, g.size, _SINC_BLOCK):
        S = sinc_ratio(a, g.nodes[None, lo : lo + _SINC_BLOCK] - pts[:, None])
        P += (S * g.weights[lo : lo + _SINC_BLOCK]) @ S.T
    return P


def _sinc_gram_gap(a, points, radius, grid=_sinc_window_grid):
    """Largest gap of sinc_gram to the oracle on ``grid``, in units of eps max|P|."""
    P, want = sinc_gram(a, points, radius), _sinc_gram_per_entry(a, points, radius, grid)
    assert np.all(np.isfinite(P))
    return float(np.max(np.abs(P - want))) / (np.finfo(float).eps * float(np.max(np.abs(want))))


# the Gram matrices of the sinc suite (a = 1, 2) and of the restriction suite
SUITE_SINC_GEOMETRIES = [
    (1.0, tuple(np.linspace(-2.0, 2.0, 5))),
    (2.0, tuple(np.linspace(-2.0, 2.0, 5))),
    (1.0, (0.0, 1.5, math.pi)),
]


@pytest.mark.parametrize("a, points", SUITE_SINC_GEOMETRIES, ids=["sinc-a1", "sinc-a2", "restriction"])
def test_sinc_gram_matches_per_entry_oracle_at_suite_geometries(a, points):
    # measured 0.64 eps of max|P| on each
    assert _sinc_gram_gap(a, points, 1e3) <= 2.0


@pytest.mark.parametrize("radius", [1e3, 1e4])
@pytest.mark.parametrize("a, points", SUITE_SINC_GEOMETRIES, ids=["sinc-a1", "sinc-a2", "restriction"])
def test_sinc_gram_matches_the_quarter_phase_grid_at_suite_geometries(a, points, radius):
    # the window grid against the per-entry sum on the grid of four times the
    # nodes: measured 3.8-5.1 eps of max|P| at radius 1e3 and 8.3-10.8 at 1e4;
    # 8-node panels spanning 2 pi give 19-27 at 1e3
    assert _sinc_gram_gap(a, points, radius, _quarter_phase_window_grid) <= 16.0


def test_sinc_gram_point_on_a_block_edge_node():
    # node _SINC_BLOCK opens the second block of the 100 k-node window, so the
    # point's 0/0 entry is there and its band straddles the block edge;
    # measured 0.05 eps of max|P|
    x = float(_sinc_window_grid(1.0, 1e4).nodes[_SINC_BLOCK])
    assert _sinc_gram_gap(1.0, (x, 0.0), 1e4) <= 2.0


def test_sinc_gram_points_outside_the_window():
    # 1000.1 keeps part of its band inside the window, the others none;
    # measured 0.64 eps of max|P|
    assert _sinc_gram_gap(1.0, (1000.1, 1005.0, -1001.0, 3.0), 1e3) <= 2.0


@settings(max_examples=40)
@given(
    a=st.floats(0.1, 4.0),
    radius=st.floats(5.0, 300.0),
    scaled=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    on_node=st.none() | st.floats(0.0, 1.0, exclude_max=True),
)
def test_sinc_gram_matches_per_entry_oracle(a, radius, scaled, on_node):
    # points anywhere in twice the window, the first one possibly on a node;
    # both sides round sine arguments of size a |t| and a |x|, so the gap
    # grows with a max|x|: measured worst 0.30 eps (1 + a max|x|) max|P| over
    # 800 random geometries against the per-entry sum on the window grid, and
    # 0.69 over 200 against it on the quarter-phase grid (3 300 with 8-node
    # panels spanning 2 pi)
    pts = [s * radius for s in scaled]
    if on_node is not None:
        nodes = _sinc_window_grid(a, radius).nodes
        pts[0] = float(nodes[int(on_node * nodes.size)])
    bound = 2.0 * (1.0 + a * max(abs(x) for x in pts))
    assert _sinc_gram_gap(a, pts, radius) <= bound
    assert _sinc_gram_gap(a, pts, radius, _quarter_phase_window_grid) <= bound


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
def test_sinc_gram_refuses_a_half_width_that_is_not_positive(a):
    # each band reaches _SINC_BAND / a either side of its point
    with pytest.raises(ValueError, match="half-width"):
        sinc_gram(a, (0.0, 1.0), 100.0)


def test_sinc_gram_calls_the_quotient_on_band_entries_only(monkeypatch):
    # at radius 1e4 the three suite matrices have 1.8 M (point, node) entries;
    # only the 70 within _SINC_BAND / a of their point (4-8 a point) reach
    # sinc_ratio
    seen = []

    def counting(a, u):
        seen.append(a * np.asarray(u))
        return sinc_ratio(a, u)

    monkeypatch.setattr(spaces, "sinc_ratio", counting)
    band = 0
    for a, points in SUITE_SINC_GEOMETRIES:
        sinc_gram(a, points, 1e4)
        nodes = _sinc_window_grid(a, 1e4).nodes
        band += sum(int(np.sum(np.abs(nodes - x) <= _SINC_BAND / a)) for x in points)
    assert sum(z.size for z in seen) == band < 100
    assert max(float(np.max(np.abs(z))) for z in seen) <= _SINC_BAND


@pytest.mark.parametrize("a, points", SUITE_SINC_GEOMETRIES, ids=["sinc-a1", "sinc-a2", "restriction"])
def test_sinc_gram_streams_the_window_grid_bit_for_bit(a, points):
    # the blocks sinc_gram integrates over are the stored window grid's
    # nodes and weights, _SINC_BLOCK at a time
    window = truncate_line(1e4)
    g = _sinc_window_grid(a, 1e4)
    blocks = list(spaces._gauss_panel_blocks(
        window, spaces._oscillation_panels(window, 2.0 * a, 16), spaces._OSC_ORDER, _SINC_BLOCK // spaces._OSC_ORDER
    ))
    assert {t.size for t, _ in blocks[:-1]} == {_SINC_BLOCK}
    assert np.concatenate([t for t, _ in blocks]).tobytes() == g.nodes.tobytes()
    assert np.concatenate([w for _, w in blocks]).tobytes() == g.weights.tobytes()


def _stored_grid_refusal(a, points, radius):
    # what the stored window grid, then the scaled points, refuse
    with pytest.raises(ValueError) as err:
        _sinc_window_grid(a, radius)
        spaces._scaled(a, np.asarray(points, dtype=float))
    return str(err.value)


@pytest.mark.parametrize(
    "a, points, radius",
    [
        (8.0, (0.0,), 1e6),  # about 81 M nodes, above the node cap
        (1.0, (0.0, 1.0), 1e300),  # a panel count far above it
        (1.0, (0.0,), 1e308),  # a window whose length overflows
        (1.0, (0.0,), 0.0),
        (8.0, (0.0, 1e308), 10.0),  # a x overflows
        (8.0, (1e308,), 1e6),  # both: the window is refused first
    ],
)
def test_sinc_gram_refuses_every_window_the_stored_grid_refused(a, points, radius):
    # the streamed memory is flat, so only these refusals keep a huge
    # window from running block after block
    with pytest.raises(ValueError) as err:
        sinc_gram(a, points, radius)
    assert str(err.value) == _stored_grid_refusal(a, points, radius)


@pytest.mark.parametrize("a", [2.0, 8.0])
def test_sinc_gram_memory_does_not_grow_with_the_window(a):
    # the sinc suite's five points at radius 1e4: 0.2 M nodes at a = 2 and
    # 0.8 M at a = 8, whose stored grid alone took 4.9 and 19.6 MB; the
    # streamed blocks measured a traced peak of 1.23 MB at a = 2 and
    # 1.53 MB at a = 8
    pts = tuple(np.linspace(-2.0, 2.0, 5))
    tracemalloc.start()
    try:
        sinc_gram(a, pts, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_sinc_gram_memory_grows_by_the_edges_alone():
    # at (8, 4e4), 3.3 M nodes, the window's nodes and weights would take
    # 52 MB; only its panel edges, 8 bytes each, may grow past the fixed
    # buffers (traced peaks of 1.2 and 1.5 MB at (2, 1e4) and (8, 1e4),
    # and 2.7 MB here against this 3.1 MB bound)
    window = truncate_line(4e4)
    panels = spaces._oscillation_panels(window, 16.0, 16)
    pts = tuple(np.linspace(-2.0, 2.0, 5))
    tracemalloc.start()
    try:
        sinc_gram(8.0, pts, 4e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6 + 8 * (panels + 1)


# ----------------------------------------------------------------- tensor


def test_tensor_kernel_factorizes():
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    fm1 = pw.feature_map()
    # sobolev coordinates must be declared so the indicators stay
    # panel-aligned in the product quadrature
    fm2 = sob.feature_map([-0.6, -0.3, 0.5])
    prod = tensor_feature([fm1, fm2])
    for xs, ys in [((0.4, 0.5), (1.2, -0.3)), ((0.0, -0.6), (2.5, -0.3))]:
        want = pw.kernel(xs[0], ys[0]) * sob.kernel(xs[1], ys[1])
        got = kernel_eval(prod, xs, ys)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        closed = tensor_kernel([pw.kernel, sob.kernel], xs, ys)
        assert abs(closed - want) < 1e-15


def test_tensor_kernel_annihilates_on_zero_factor():
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    prod = tensor_feature([pw.feature_map(), sob.feature_map([-0.5, 0.5])])
    # the sobolev factor pairs points on opposite sides of the anchor, so
    # the whole product kernel vanishes
    assert abs(kernel_eval(prod, (0.4, 0.5), (1.2, -0.5))) < 1e-12


def test_tensor_arity_mismatch():
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    fm = sob.feature_map([0.5])
    prod = tensor_feature([fm, fm])
    with pytest.raises(ValueError, match="arity"):
        prod.feature((0.5,))


def test_product_grid_cap():
    g = build_grid(make_interval(0.0, 1.0), 200, 10)
    with pytest.raises(ValueError, match="would hold"):
        product_grid([g, g])


def test_tensor_feature_cap_message():
    fm = SobolevSpace(make_interval(-1.0, 1.0), 0.0).feature_map()
    with pytest.raises(ValueError, match="would hold .* above the cap"):
        tensor_feature([fm, fm, fm])
