"""Inverse-transform formulas: direct, through isometries, and coefficients."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from rkhskit import inversion as inv
from rkhskit.numerics import HVector, build_grid, cumulative_integral, inner_weighted, make_interval, sample
from rkhskit.spaces import PaleyWienerSpace, SobolevSpace
from rkhskit.transforms import build_span_basis, span_combination, transform


@pytest.fixture
def sobolev_setup():
    space = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    pts = np.linspace(-0.9, 0.9, 15)
    fm = space.feature_map(pts)
    basis = build_span_basis(fm, pts)
    return space, fm, basis


@pytest.fixture
def pw_setup():
    pw = PaleyWienerSpace(1.0, max_frequency=22.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, np.arange(-20.0, 21.0))
    return pw, fm, basis


def test_span_member_round_trip(sobolev_setup):
    space, fm, basis = sobolev_setup
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    image = transform(span_combination(basis, coeffs), fm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t in np.linspace(-0.95, 0.95, 20):
            got = inv.invert_at(image, float(t), basis)
            want = sum(c * space.kernel(float(t), float(x)) for c, x in zip(coeffs, basis.points))
            assert abs(got - want) < 1e-5


def test_coarse_basis_warning_between_points(sobolev_setup):
    space, fm, basis = sobolev_setup
    image = transform(span_combination(basis, np.ones(basis.size, dtype=complex)), fm)
    # between basis points the kernel section leaves the span visibly
    with pytest.warns(RuntimeWarning, match="coarse"):
        inv.invert_at(image, 0.31, basis)


def test_image_from_foreign_basis_rejected(sobolev_setup):
    space, fm, basis = sobolev_setup
    other = build_span_basis(fm, np.linspace(-0.5, 0.5, 5))
    from rkhskit.transforms import span_image

    image = span_image(other, np.ones(other.size, dtype=complex))
    with warnings.catch_warnings(), pytest.raises(ValueError, match="different span basis"):
        warnings.simplefilter("ignore", RuntimeWarning)
        inv.invert_at(image, 0.2, basis)


def test_invert_at_needs_a_closed_kernel(sobolev_setup):
    space, fm, basis = sobolev_setup
    bare = build_span_basis(dataclasses.replace(fm, closed_kernel=None), basis.points)
    image = transform(span_combination(bare, np.ones(bare.size, dtype=complex)), bare.phi)
    with pytest.raises(ValueError, match="closed kernel"):
        inv.invert_at(image, 0.2, bare)


def test_primitive_recovery_through_integral_sequence(pw_setup):
    pw, fm, basis = pw_setup
    seq = inv.indefinite_integral_sequence(fm, anchor=0.0)
    cases = [
        (lambda t: np.ones_like(t), lambda t: t),
        (np.cos, math.sin),
    ]
    for f, primitive in cases:
        image = transform(sample(fm.grid, f), fm)
        for t in (0.25, 0.5, 1.0):
            got = inv.generalized_invert_at(seq, image, t, basis)
            assert abs(got - primitive(t)) < 1e-4


def test_identity_sequence_agrees_with_direct(pw_setup):
    pw, fm, basis = pw_setup
    ident = inv.identity_sequence(fm)
    image = transform(sample(fm.grid, np.cos), fm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for t in (-0.5, 0.0, 0.7):
            direct = inv.invert_at(image, t, basis)
            viaseq = inv.generalized_invert_at(ident, image, t, basis)
            assert abs(direct - viaseq) < 1e-10


def test_exponential_system_is_orthonormal():
    grid = build_grid(make_interval(-math.pi, math.pi), 24, 12)
    ons = inv.exponential_system(grid, 16, math.pi)
    assert ons.orthonormality_defect() < 1e-10


def test_system_products_match_pairwise_loops():
    # random rows, so the defect is O(1) and every entry of the product counts
    grid = build_grid(make_interval(-1.0, 1.0), 16, 10)
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((6, grid.size)) + 1j * rng.standard_normal((6, grid.size))
    ons = inv.OrthonormalSystem(grid, rows)
    vecs = [HVector(grid, r) for r in rows]
    want = max(
        abs(inner_weighted(vecs[j], vecs[i]) - (1.0 if i == j else 0.0))
        for i in range(len(vecs))
        for j in range(i + 1)
    )
    assert abs(ons.orthonormality_defect() - want) <= 1e-13 * want

    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for upto in (1, 4, None):
        acc = np.zeros(grid.size, dtype=complex)
        for k in range(6 if upto is None else upto):
            acc = acc + coeffs[k] * rows[k]
        np.testing.assert_allclose(ons.reconstruct(coeffs, upto).values, acc, rtol=0, atol=1e-14)

    f = HVector(grid, rng.standard_normal(grid.size) + 0j)
    for n, v in enumerate(vecs):
        assert abs(ons.coefficient(f, n) - inner_weighted(f, v)) <= 1e-13


def test_exponential_system_rejects_empty():
    grid = build_grid(make_interval(-1.0, 1.0), 4, 8)
    with pytest.raises(ValueError, match="positive"):
        inv.exponential_system(grid, 0, 1.0)


def test_coefficients_recovered_through_transform():
    pts = math.pi * np.arange(-8.0, 9.0)
    pw = PaleyWienerSpace(1.0, max_frequency=30.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, pts)
    ons = inv.exponential_system(fm.grid, 12, 1.0)
    weights = np.array([(0.8 ** n) * (1.0 + 0.3j) for n in range(12)])
    f = ons.reconstruct(weights)
    image = transform(f, fm)
    for n in range(12):
        got = inv.fourier_coeff_invert(ons, fm, image, n, basis)
        direct = ons.coefficient(f, n)
        assert abs(got - direct) < 1e-6
        assert abs(direct - weights[n]) < 1e-6


def test_coefficient_index_out_of_range():
    grid = build_grid(make_interval(-1.0, 1.0), 8, 8)
    ons = inv.exponential_system(grid, 4, 1.0)
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, [0.0, 1.0])
    image = transform(sample(fm.grid, np.cos), fm)
    with pytest.raises(IndexError):
        inv.fourier_coeff_invert(ons, fm, image, 7, basis)


def test_reconstruction_error_is_monotone():
    grid = build_grid(make_interval(-1.0, 1.0), 16, 10)
    ons = inv.exponential_system(grid, 14, 1.0)
    f = sample(grid, lambda t: np.exp(-t * t) * (1.0 + 0.5j * t))
    coeffs = [ons.coefficient(f, n) for n in range(ons.count)]
    from rkhskit.numerics import HVector, norm_weighted

    errs = []
    for upto in range(1, ons.count + 1):
        approx = ons.reconstruct(coeffs, upto)
        errs.append(norm_weighted(HVector(grid, f.values - approx.values)))
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev + 1e-12


def test_restriction_isometry_bounds():
    pw = PaleyWienerSpace(1.0)
    rep = inv.restriction_isometry_check(pw, [0.0, 1.5, math.pi], 1000.0, [1.0, 0.5, -0.25])
    assert rep.max_kernel_err <= 4.0 / 1000.0
    assert rep.span_err <= 4.0 / 1000.0
    assert rep.max_abs_err == max(rep.max_kernel_err, rep.span_err)


def test_restriction_isometry_validates_inputs():
    pw = PaleyWienerSpace(1.0)
    with pytest.raises(ValueError, match="probe"):
        inv.restriction_isometry_check(pw, [], 100.0)
    with pytest.raises(ValueError, match="length"):
        inv.restriction_isometry_check(pw, [0.0, 1.0], 100.0, [1.0])


def _assert_batch_matches_points(recover, ts):
    got = recover(ts)
    want = np.array([recover(t) for t in ts.tolist()])
    assert isinstance(recover(ts.tolist()[0]), complex)
    assert got.shape == ts.shape and got.dtype == complex
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_invert_at_matches_points(sobolev_setup):
    space, fm, basis = sobolev_setup
    coeffs = np.random.default_rng(7).standard_normal(basis.size) + 0.3j
    image = transform(span_combination(basis, coeffs), fm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_batch_matches_points(
            lambda t: inv.invert_at(image, t, basis), np.linspace(-0.95, 0.95, 12)
        )


def test_batched_generalized_inversion_matches_points(pw_setup):
    pw, fm, basis = pw_setup
    image = transform(sample(fm.grid, np.cos), fm)
    cons = inv.exponential_system(fm.grid, 16, 1.0)
    cases = [
        (inv.indefinite_integral_sequence(fm, anchor=0.0), np.array([-0.5, 0.25, 0.5, 1.0])),
        (inv.identity_sequence(fm), np.linspace(-0.8, 0.8, 5)),
        (inv.cons_sequence(cons, fm), np.arange(16)),
    ]
    for seq, ts in cases:
        _assert_batch_matches_points(lambda t: inv.generalized_invert_at(seq, image, t, basis), ts)


def test_batched_invert_at_warns_for_the_off_basis_point(sobolev_setup):
    space, fm, basis = sobolev_setup
    image = transform(span_combination(basis, np.ones(basis.size, dtype=complex)), fm)
    # 0.3857... is a basis point, 0.31 lies between two
    ts = np.array([basis.points[10], 0.31])
    with pytest.warns(RuntimeWarning, match="coarse") as caught:
        inv.invert_at(image, ts, basis)
    assert [str(w.message) for w in caught] == ["basis too coarse for t=0.31"]


def test_identity_sequence_forms_one_section_per_point(pw_setup):
    pw, fm, basis = pw_setup
    calls = []

    def evaluate(t):
        calls.append(t)
        return fm.evaluate(t)

    spied = dataclasses.replace(fm, evaluate=evaluate)
    image = transform(sample(fm.grid, np.cos), fm)
    ts = np.linspace(-0.8, 0.8, 9)
    inv.generalized_invert_at(inv.identity_sequence(spied), image, ts, basis)
    assert calls == ts.tolist()  # 9 sections, not one per (feature row, point)


def test_s_apply_returns_the_row_by_point_matrix(pw_setup):
    pw, fm, basis = pw_setup
    cons = inv.exponential_system(fm.grid, 16, 1.0)
    rows = basis.features[:3]
    vecs = [HVector(fm.grid, r) for r in rows]
    ts = [-0.5, 0.25, 1.0]
    F = [cumulative_integral(fm.grid, r) for r in rows]
    cases = [
        (inv.identity_sequence(fm), ts, lambda i, t: inner_weighted(vecs[i], fm.feature(t))),
        (inv.indefinite_integral_sequence(fm, anchor=0.0), ts, lambda i, t: F[i](t) - F[i](0.0)),
        (inv.cons_sequence(cons, fm), [0, 5, 15], lambda i, n: cons.coefficient(vecs[i], n)),
    ]
    for seq, pts, want in cases:
        got = seq.s_apply(rows, pts)
        assert got.shape == (3, 3) and got.dtype == complex
        ref = np.array([[want(i, t) for t in pts] for i in range(3)])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)


def test_empty_points_give_empty_arrays(sobolev_setup, pw_setup):
    space, sfm, sbasis = sobolev_setup
    simage = transform(span_combination(sbasis, np.ones(sbasis.size, dtype=complex)), sfm)
    got = inv.invert_at(simage, np.array([]), sbasis)
    assert got.shape == (0,) and got.dtype == complex
    pw, fm, basis = pw_setup
    image = transform(sample(fm.grid, np.cos), fm)
    for seq in (
        inv.identity_sequence(fm),
        inv.indefinite_integral_sequence(fm, anchor=0.0),
        inv.cons_sequence(inv.exponential_system(fm.grid, 4, 1.0), fm),
    ):
        got = inv.generalized_invert_at(seq, image, np.array([]), basis)
        assert got.shape == (0,) and got.dtype == complex


def test_batched_coefficients_match_per_index_calls():
    pts = math.pi * np.arange(-8.0, 9.0)
    pw = PaleyWienerSpace(1.0, max_frequency=30.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, pts)
    ons = inv.exponential_system(fm.grid, 12, 1.0)
    image = transform(ons.reconstruct(np.linspace(1.0, 0.1, 12) + 0.3j), fm)
    got = inv.fourier_coeff_invert(ons, fm, image, np.arange(12), basis)
    want = [inv.fourier_coeff_invert(ons, fm, image, n, basis) for n in range(12)]
    assert got.shape == (12,) and got.dtype == complex
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for bad in (np.array([0, 12]), np.array([-1, 3])):
        with pytest.raises(IndexError):
            inv.fourier_coeff_invert(ons, fm, image, bad, basis)


def test_sequences_refuse_vectors_on_another_grid(pw_setup):
    pw, fm, basis = pw_setup
    image = transform(sample(fm.grid, np.cos), fm)
    same_size = dataclasses.replace(fm.grid, nodes=fm.grid.nodes + 0.5)
    for grid in (same_size, build_grid(make_interval(-1.0, 1.0), 8, 8)):
        cons = inv.exponential_system(grid, 4, 1.0)
        with pytest.raises(ValueError, match="different grids"):
            inv.fourier_coeff_invert(cons, fm, image, 1, basis)


def test_generalized_inversion_refuses_a_basis_on_another_grid(pw_setup):
    pw, fm, basis = pw_setup
    image = transform(sample(fm.grid, np.cos), fm)
    other = PaleyWienerSpace(1.0, max_frequency=10.0).feature_map()
    seq = inv.indefinite_integral_sequence(other, anchor=0.0)
    with pytest.raises(ValueError, match="different grids"):
        inv.generalized_invert_at(seq, image, 0.5, basis)
