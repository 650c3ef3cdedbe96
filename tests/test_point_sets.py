"""The point-set contract of feature maps: ``evaluate`` on a set of points
and ``closed_kernel`` on arrays of points are the stacked single calls."""

import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

from rkhskit.numerics import make_interval
from rkhskit.spaces import RHO_REGISTRY, PaleyWienerSpace, SobolevSpace, tensor_feature, tensor_kernel
from rkhskit.suites import RunConfig, run_suite
from rkhskit.transforms import build_span_basis

EPS = np.finfo(float).eps


def _hexes(arr):
    return [(z.real.hex(), z.imag.hex()) for z in np.asarray(arr, dtype=complex).ravel().tolist()]


def _pw_kernel_scalar(a, x, y):
    """The Paley-Wiener kernel in Python complex arithmetic, one entry."""
    d = complex(x) - complex(y).conjugate()
    z = a * d
    if abs(z) < 1e-4:
        return (a / math.pi) * (1.0 - z * z / 6.0 + z ** 4 / 120.0)
    return complex(np.sin(z) / math.pi / d)


def _maps():
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    return pw, sob, pw.feature_map(), sob.feature_map([-0.5, 0.3, 0.8])


def test_batched_features_are_the_stacked_single_features_bit_for_bit():
    pw, sob, pw_fm, sob_fm = _maps()
    pw_pts = [-10.0, -2.5, 0.0, 1e-7, 3.3, 10.0]
    sob_pts = [-1.0, -0.5, 0.0, 0.3, 0.8, 1.0]  # 0.0 is the anchor: the zero feature
    prod = tensor_feature([pw_fm, sob_fm])
    prod_pts = [(x, y) for x in pw_pts[:3] for y in sob_pts[:3]]
    for fm, pts in ((pw_fm, pw_pts), (sob_fm, sob_pts), (prod, prod_pts)):
        got = fm.evaluate(pts)
        assert got.shape == (len(pts), fm.grid.size) and got.dtype == complex
        assert got.tobytes() == np.stack([fm.feature(x).values for x in pts]).tobytes()
    assert not sob_fm.evaluate([0.0]).any()
    # and the single features are the one-point formulas
    for x in pw_pts:
        want = np.exp(1j * pw_fm.grid.nodes * x) / math.sqrt(2.0 * math.pi)
        assert pw_fm.feature(x).values.tobytes() == want.tobytes()
    for X in prod_pts:
        want = reduce(np.multiply.outer, [pw_fm.feature(X[0]).values, sob_fm.feature(X[1]).values]).ravel()
        assert prod.feature(X).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 1e4])
def test_pw_kernel_table_matches_the_scalar_kernel(a):
    # real points, pairs inside the Taylor branch (|a d| < 1e-4) and complex
    # points.  Against the kernel in Python complex arithmetic the table is
    # exact except in the Taylor branch at complex points, where numpy's
    # complex division rounds differently: measured worst 1e-10 eps |k|
    pw = PaleyWienerSpace(a)
    rng = np.random.default_rng(7)
    real = np.concatenate([rng.uniform(-5.0, 5.0, 12), 1e-5 / a * rng.standard_normal(6)])
    cplx = real + 1j * np.concatenate([rng.uniform(-2.0, 2.0, 12) / a, 1e-5 / a * rng.standard_normal(6)])
    for X in (real, cplx):
        K = pw.kernel(X[:, None], X[None, :])
        assert K.shape == (X.size, X.size)
        ones = [[pw.kernel(x, y) for y in X.tolist()] for x in X.tolist()]
        assert _hexes(K) == _hexes(ones)
        ref = np.array([[_pw_kernel_scalar(a, x, y) for y in X.tolist()] for x in X.tolist()])
        assert np.all(np.abs(K - ref) <= EPS * np.abs(ref))
        if X is real:
            assert _hexes(K) == _hexes(ref)


@pytest.mark.parametrize(
    "lo, hi, c, rho_name",
    [
        (-1.0, 1.0, 0.0, "const"),
        (0.0, 1.0, 0.0, "affine"),
        (-1.0, 1.0, 0.0, "affine"),
        (-0.5, 3.0, 1.25, "affine"),
    ],
)
def test_sobolev_kernel_table_matches_the_scalar_kernel(lo, hi, c, rho_name):
    # the closed kernel of the feature map broadcasts; each entry is the
    # one-entry kernel call bit for bit, and within 1 ulp of the median and
    # primitive taken with math.log1p, one entry at a time (numpy's log1p
    # differs from math's by 1 ulp on some arguments)
    sob = SobolevSpace(make_interval(lo, hi), c, RHO_REGISTRY[rho_name])
    fm = sob.feature_map()
    pts = np.linspace(lo, hi, 17)
    if rho_name == "affine" and lo == -1.0:
        pts = pts[1:]  # 1/rho is not integrable up to -1
    K = fm.closed_kernel(pts[:, None], pts[None, :])
    assert K.shape == (pts.size, pts.size)
    assert K.tolist() == [[sob.kernel(x, y) for y in pts.tolist()] for x in pts.tolist()]
    P = math.log1p if rho_name == "affine" else (lambda t: t)
    for row, x in zip(K.tolist(), pts.tolist()):
        for k, y in zip(row, pts.tolist()):
            want = abs(P(sorted((x, y, c))[1]) - P(c))
            assert abs(k - want) <= np.spacing(want)


def test_sobolev_kernel_table_refuses_the_nonintegrable_endpoint():
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0, RHO_REGISTRY["affine"])
    fm = sob.feature_map()
    # -1 against points on the other side of the anchor has median 0
    assert fm.closed_kernel(np.array([-1.0]), np.array([0.5, 1.0])).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="1/rho is not integrable from c = 0 to -1"):
        fm.closed_kernel(np.array([0.5, -1.0])[:, None], np.array([-1.0, 0.5])[None, :])


def test_sobolev_kernel_table_of_a_bare_weight_is_the_quadrature_entry_by_entry():
    bare = SobolevSpace(make_interval(0.0, 1.0), 0.0, RHO_REGISTRY["affine"].rho, panels=8)
    pts = np.array([0.0, 0.3, 0.9])
    K = bare.feature_map().closed_kernel(pts[:, None], pts[None, :])
    assert K.tolist() == [[bare.kernel(x, y) for y in pts.tolist()] for x in pts.tolist()]


def test_tensor_kernel_table_is_the_pairwise_product():
    pw, sob, pw_fm, sob_fm = _maps()
    prod = tensor_feature([pw_fm, sob_fm])
    X = np.array([(0.4, 0.5), (0.0, -0.5), (2.5, 0.3)])
    Y = np.array([(1.2, -0.3), (0.4, 0.8)])
    K = prod.closed_kernel(X[:, None], Y[None, :])
    assert K.shape == (3, 2)
    want = [[tensor_kernel([pw.kernel, sob.kernel], tuple(x), tuple(y)) for y in Y] for x in X]
    assert _hexes(K) == _hexes(want)
    for x, row in zip(X, want):
        for y, k in zip(Y, row):
            assert k == pw.kernel(x[0], y[0]) * sob.kernel(x[1], y[1])


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_a_bad_point_anywhere_in_a_set_gets_the_single_point_message():
    pw, sob, pw_fm, sob_fm = _maps()
    prod = tensor_feature([pw_fm, sob_fm])
    cases = [
        (pw_fm.evaluate, [0.0, 1.0], 1.0 + 1.0j, "closed form"),
        (pw_fm.evaluate, [0.0, 1.0], 50.0, "resolution"),
        (sob_fm.evaluate, [0.0, 0.5], 1.5, "outside"),
        (prod.evaluate, [(0.0, 0.5), (1.0, 0.3)], (1.0, -1.5), "outside"),
        (prod.evaluate, [(0.0, 0.5), (1.0, 0.3)], (50.0, 0.5), "resolution"),
    ]
    for evaluate, good, bad, word in cases:
        single = _message(lambda: evaluate([bad]))
        assert word in single
        for k in range(len(good) + 1):
            assert _message(lambda: evaluate([*good[:k], bad, *good[k:]])) == single
    table = sob_fm.closed_kernel
    single = _message(lambda: table(1.5, 0.5))
    assert single == _message(lambda: sob.kernel(1.5, 0.5)) == "point outside the interval"
    assert _message(lambda: table(np.array([0.0, 0.5, 1.5])[:, None], np.array([0.5, -0.5]))) == single


def test_pw_kernel_table_refuses_an_overflow_anywhere():
    pw = PaleyWienerSpace(1.0)
    with pytest.raises(ValueError, match="a \\(x - conj\\(y\\)\\) overflows"):
        pw.kernel(np.array([0.0, 1e308, 1.0]), np.array([0.5, -1e308, 0.0]))
    with pytest.raises(ValueError, match="kernel value overflows"):
        pw.kernel(np.array([0.0, 0.0, 1.0]), np.array([0.5, 800j, 0.0]))


def test_build_span_basis_evaluates_the_point_set_once():
    pw, sob, pw_fm, sob_fm = _maps()
    pts = [-0.5, 0.3, 0.8]
    for fm in (pw_fm, sob_fm):
        calls = []

        def evaluate(points, fm=fm):
            calls.append(list(points))
            return fm.evaluate(points)

        basis = build_span_basis(dataclasses.replace(fm, evaluate=evaluate), pts)
        assert calls == [pts]
        assert _hexes(basis.gram) == _hexes(build_span_basis(fm, pts).gram)


def test_kernel_section_slopes_of_a_set_are_the_single_point_rows_bit_for_bit():
    sob = SobolevSpace(make_interval(-0.5, 3.0), 1.25, RHO_REGISTRY["affine"])
    ys = np.array([-0.5, 0.4, 1.25, 2.0, 3.0])  # both sides of c = 1.25, and c itself
    grid = sob.feature_map(ys).grid
    rows = sob.kernel_section_slope(ys, grid)
    assert rows.shape == (ys.size, grid.size) and rows.dtype == complex
    for row, y in zip(rows, ys.tolist()):
        assert row.tobytes() == sob.kernel_section_slope(y, grid).tobytes()
    # sign(y - c) chi_(c,y)/rho: negative left of c, zero at c, positive right
    assert (rows[:2].real <= 0).all() and rows[:2].real.any()
    assert not rows[2].any()
    assert (rows[3:].real >= 0).all() and rows[3:].real.any()
    single = _message(lambda: sob.kernel_section_slope(3.5, grid))
    assert single == "point outside the interval"
    assert _message(lambda: sob.kernel_section_slope([0.4, 3.5, 2.0], grid)) == single


def test_reproducing_suite_takes_one_slope_table_per_case(monkeypatch):
    calls = []
    slope = SobolevSpace.kernel_section_slope

    def spy(self, points, grid):
        calls.append(np.shape(points))
        return slope(self, points, grid)

    monkeypatch.setattr(SobolevSpace, "kernel_section_slope", spy)
    assert all(r.passed for r in run_suite("reproducing", RunConfig(suite="reproducing")).records)
    assert calls == [(20,)] * 4
