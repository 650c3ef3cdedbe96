"""Feature maps, span bases, operator-range inner products, contraction."""

import math

import numpy as np
import pytest

from rkhskit.numerics import HVector, build_grid, inner_weighted, make_interval, sample
from rkhskit.spaces import PaleyWienerSpace, SobolevSpace, tensor_feature
from rkhskit.transforms import (
    build_span_basis,
    contraction_check,
    kernel_eval,
    opr_inner,
    project_span,
    span_combination,
    transform,
)

INV_PI = 0.3183098861837907


@pytest.fixture
def sobolev():
    space = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    pts = np.linspace(-0.9, 0.9, 9)
    fm = space.feature_map(pts)
    return space, fm, build_span_basis(fm, pts)


def test_kernel_eval_matches_closed_form_const_weight(sobolev):
    space, fm, _ = sobolev
    # same side of the base point: overlap length; opposite sides: zero
    assert abs(kernel_eval(fm, 0.45, 0.675) - 0.45) < 1e-14
    assert abs(kernel_eval(fm, -0.45, 0.675)) < 1e-14
    assert abs(kernel_eval(fm, -0.225, -0.675) - 0.225) < 1e-14


def test_pw_gram_at_zero_and_pi():
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, [0.0, math.pi])
    expect = np.array([[INV_PI, 0.0], [0.0, INV_PI]])
    np.testing.assert_allclose(basis.gram, expect, atol=1e-14)


def test_feature_norm_squared_is_diagonal_kernel(sobolev):
    space, fm, _ = sobolev
    phi = fm.feature(0.675)
    assert abs(inner_weighted(phi, phi).real - 0.675) < 1e-14


def test_degenerate_basis_rejected(sobolev):
    space, fm, _ = sobolev
    # the feature at the base point is the zero vector
    with pytest.raises(ValueError, match="degenerate"):
        build_span_basis(fm, [0.0])


def test_ridge_scales_with_gram_trace(sobolev):
    _, _, basis = sobolev
    expect = 1e-10 * np.trace(basis.gram).real / basis.size
    assert basis.ridge == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("family", ["sobolev-15", "paley-wiener-41"])
def test_span_solve_is_backward_stable(family):
    # the suites' two span bases; their ridged Grams have condition numbers
    # 6e10 and 3e10, so the residual is measured against ||A|| ||x|| rather
    # than the forward error (at most 0.64 eps over these right-hand sides)
    if family == "sobolev-15":
        pts = np.linspace(-0.9, 0.9, 15)
        basis = build_span_basis(SobolevSpace(make_interval(-1.0, 1.0), 0.0).feature_map(pts), pts)
    else:
        basis = build_span_basis(PaleyWienerSpace(1.0, max_frequency=22.0).feature_map(), np.arange(-20.0, 21.0))
    A = basis.gram + basis.ridge * np.eye(basis.size)
    norm_a = np.linalg.norm(A, 2)
    rng = np.random.default_rng(11)
    for _ in range(5):
        B = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
        for b in (B, B[:, 0]):
            x = basis.solve(b)
            assert x.shape == b.shape
            resid = np.linalg.norm(A @ x - b, axis=0)
            assert np.all(resid <= 1e-15 * norm_a * np.linalg.norm(x, axis=0))


def test_transform_is_linear(sobolev):
    space, fm, _ = sobolev
    g = fm.grid
    f1 = sample(g, lambda t: np.sin(3.0 * t))
    f2 = sample(g, lambda t: t * t)
    lhs = transform(HVector(g, 2.0 * f1.values - 1j * f2.values), fm)
    im1, im2 = transform(f1, fm), transform(f2, fm)
    for x in (-0.6, 0.1, 0.8):
        want = 2.0 * im1.at(x) - 1j * im2.at(x)
        assert abs(lhs.at(x) - want) < 1e-13


def test_transform_grid_mismatch(sobolev):
    space, fm, _ = sobolev
    other = build_grid(make_interval(-1.0, 1.0), 3, 4)
    with pytest.raises(ValueError, match="grid"):
        transform(sample(other, np.cos), fm)


def test_raw_image_at_agrees_with_inner_product(sobolev):
    space, fm, _ = sobolev
    f = sample(fm.grid, lambda t: np.exp(t))
    img = transform(f, fm)
    x = 0.55
    assert img.at(x) == inner_weighted(f, fm.feature(x))


def _assert_matches_at(img, points):
    got = img.at_many(points)
    want = np.array([img.at(x) for x in points])
    assert got.shape == (len(points),) and got.dtype == complex
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_at_many_matches_at_on_raw_sobolev_image(sobolev):
    space, fm, _ = sobolev
    img = transform(sample(fm.grid, lambda t: np.exp(t) + 1j * t), fm)
    # more points than one stacked block of features holds
    _assert_matches_at(img, list(np.linspace(-0.95, 0.95, 101)))


def test_at_many_matches_at_on_tensor_image():
    fm = PaleyWienerSpace(1.0, max_frequency=4.0).feature_map()
    prod = tensor_feature([fm, fm])
    g1 = sample(fm.grid, lambda t: np.exp(1j * t))
    g2 = sample(fm.grid, lambda t: np.cos(2.0 * t) + t)
    img = transform(HVector(prod.grid, np.kron(g1.values, g2.values)), prod)
    pts = [tuple(p) for p in np.random.default_rng(3).uniform(-4.0, 4.0, size=(7, 2))]
    _assert_matches_at(img, pts)


def test_at_many_matches_at_on_span_image(sobolev):
    space, fm, basis = sobolev
    coeffs = np.random.default_rng(5).standard_normal(basis.size) + 0.5j
    pts = [-0.8, -0.3, 0.1, 0.45, 0.9]
    _assert_matches_at(transform(span_combination(basis, coeffs), fm), pts)


def test_at_many_of_nothing_is_empty(sobolev):
    space, fm, _ = sobolev
    got = transform(sample(fm.grid, np.cos), fm).at_many([])
    assert got.shape == (0,) and got.dtype == complex


def test_at_many_rejects_out_of_range_frequency_like_at():
    fm = PaleyWienerSpace(1.0, max_frequency=4.0).feature_map()
    img = transform(sample(fm.grid, np.cos), fm)
    with pytest.raises(ValueError, match="beyond declared grid resolution"):
        img.at(4.5)
    with pytest.raises(ValueError, match="beyond declared grid resolution"):
        img.at_many([0.0, 4.5])


def test_project_span_recovers_member_coeffs():
    # pi-spaced points make the bandlimited Gram orthogonal, so projection
    # is numerically clean
    pw = PaleyWienerSpace(1.0, max_frequency=30.0)
    fm = pw.feature_map()
    pts = math.pi * np.arange(-4.0, 5.0)
    basis = build_span_basis(fm, pts)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    member = span_combination(basis, coeffs)
    got = project_span(member, basis)
    np.testing.assert_allclose(got, coeffs, atol=1e-8)


def test_opr_inner_refuses_wrong_coefficient_length(sobolev):
    # coefficients over another, smaller basis do not fit this one, on either side
    space, fm, basis = sobolev
    other = build_span_basis(fm, np.linspace(-0.8, 0.8, 5))
    c = np.ones(basis.size, dtype=complex)
    d = np.ones(other.size, dtype=complex)
    for args in ((c, d), (d, c), (c[:, None], c)):
        with pytest.raises(ValueError, match="coefficient length must match basis size"):
            opr_inner(basis, *args)


def test_opr_inner_reproduces_source_inner_product(sobolev):
    # the transform is a coisometry: on the span, image inner products
    # equal source inner products
    space, fm, basis = sobolev
    rng = np.random.default_rng(5)
    c1 = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    c2 = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    lhs = opr_inner(basis, c1, c2)
    rhs = inner_weighted(span_combination(basis, c1), span_combination(basis, c2))
    assert abs(lhs - rhs) < 1e-10


def test_contraction_on_random_vectors(sobolev):
    space, fm, basis = sobolev
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        v = HVector(fm.grid, rng.standard_normal(fm.grid.size) + 1j * rng.standard_normal(fm.grid.size))
        rep = contraction_check(v, basis)
        worst = min(worst, rep.slack)
        assert rep.norm_image <= rep.norm_source + 1e-8
    assert worst >= -1e-8


def test_contraction_equality_for_span_members(sobolev):
    space, fm, basis = sobolev
    rng = np.random.default_rng(9)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    rep = contraction_check(span_combination(basis, c), basis)
    assert abs(rep.slack) < 1e-6


@pytest.fixture(params=["sobolev", "paley-wiener"])
def any_basis(request, sobolev):
    if request.param == "sobolev":
        return sobolev[2]
    pw = PaleyWienerSpace(1.0, max_frequency=12.0)
    return build_span_basis(pw.feature_map(), [-2.0, -1.0, 0.0, 0.5, math.pi])


def test_feature_matrix_products_match_pairwise_loops(any_basis):
    # the one-product Gram, projection and combination against the
    # pairwise inner_weighted loops they replace
    basis = any_basis
    grid = basis.phi.grid
    feats = [HVector(grid, row) for row in basis.features]
    gram = np.array([[inner_weighted(fj, fi) for fj in feats] for fi in feats])
    np.testing.assert_allclose(basis.gram, gram, rtol=0, atol=1e-14)

    rng = np.random.default_rng(3)
    f = HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
    rhs = np.array([inner_weighted(f, ft) for ft in feats])
    # the Paley-Wiener Gram has condition number 3.6e4
    np.testing.assert_allclose(project_span(f, basis), basis.solve(rhs), rtol=0, atol=1e-11)

    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    acc = np.zeros(grid.size, dtype=complex)
    for ci, ft in zip(c, feats):
        acc = acc + ci * ft.values
    np.testing.assert_allclose(span_combination(basis, c).values, acc, rtol=0, atol=1e-14)


def test_project_span_grid_mismatch(sobolev):
    _, _, basis = sobolev
    other = build_grid(make_interval(-1.0, 1.0), 3, 4)
    with pytest.raises(ValueError, match="grid"):
        project_span(sample(other, np.cos), basis)
