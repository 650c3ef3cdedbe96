"""Inverse-transform formulas: direct, through isometries, and coefficients."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from rkhskit import inversion as inv
from rkhskit.numerics import (
    HVector,
    build_grid,
    cumulative_integral,
    inner_weighted,
    inner_weighted_matrix,
    make_interval,
    sample,
)
from rkhskit.spaces import PaleyWienerSpace, SobolevSpace, tensor_feature
from rkhskit.transforms import build_span_basis, opr_inner, project_span, span_combination, transform


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
    # features declared at other points break the grid elsewhere, so an
    # image of that basis lives on another grid than ``basis``
    space, fm, basis = sobolev_setup
    pts = np.linspace(-0.5, 0.5, 5)
    other = build_span_basis(space.feature_map(pts), pts)
    image = transform(span_combination(other, np.ones(other.size, dtype=complex)), other.phi)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="different grids"):
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
    seq = inv.indefinite_integral_sequence(fm)
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


def test_restriction_isometry_validates_inputs():
    pw = PaleyWienerSpace(1.0)
    with pytest.raises(ValueError, match="probe"):
        inv.restriction_isometry_check(pw, [], 100.0, [])
    with pytest.raises(ValueError, match="length"):
        inv.restriction_isometry_check(pw, [0.0, 1.0], 100.0, [1.0])


@pytest.mark.parametrize(
    "probes, message",
    [
        (0.5, "a point set has exactly one axis, not shape ()"),
        ([[0.0, 1.0]], "a point set has exactly one axis, not shape (1, 2)"),
        ([0.0, 1j], "points must be real"),
    ],
    ids=["scalar", "row", "complex"],
)
def test_restriction_isometry_reads_its_probes_as_sinc_gram_does(probes, message):
    # the probes are read before the coefficients, whose length is wrong here
    with pytest.raises(ValueError) as err:
        inv.restriction_isometry_check(PaleyWienerSpace(1.0), probes, 100.0, [1.0, 0.5, 0.25])
    assert str(err.value) == message


def _assert_batch_matches_points(recover, ts):
    # an array of points and the list of the same points are both a batch
    got = recover(ts)
    want = np.array([recover(t) for t in ts.tolist()])
    assert isinstance(recover(ts.tolist()[0]), complex)
    assert got.shape == ts.shape[:1] and got.dtype == complex
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(recover(ts.tolist()), want, rtol=0, atol=1e-12)


def test_batched_invert_at_matches_points(sobolev_setup):
    space, fm, basis = sobolev_setup
    coeffs = np.random.default_rng(7).standard_normal(basis.size) + 0.3j
    image = transform(span_combination(basis, coeffs), fm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_batch_matches_points(
            lambda t: inv.invert_at(image, t, basis), np.linspace(-0.95, 0.95, 12)
        )


def test_invert_at_on_a_product_map_takes_a_point_or_a_batch_of_points():
    # a (d,) array or a tuple is one point, a (k, d) array or a list of
    # points a batch, for invert_at and for the identity sequence alike
    pw = PaleyWienerSpace(1.0, max_frequency=4.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0, panels=8, nodes_per_panel=8)
    fm = tensor_feature([pw.feature_map(), sob.feature_map([-0.5, 0.5])])
    basis = build_span_basis(fm, [(x, y) for x in (-3.0, 0.0, 3.0) for y in (-0.5, 0.5)])
    image = transform(span_combination(basis, np.arange(1.0, 7.0) + 0.5j), fm)
    ts = np.array([(0.0, 0.5), (1.0, -0.2), (-2.0, 0.9)])
    direct = lambda t: inv.invert_at(image, t, basis)
    viaseq = lambda t: inv.generalized_invert_at(inv.identity_sequence(fm), image, t, basis)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for recover in (direct, viaseq):
            _assert_batch_matches_points(recover, ts)
            assert recover((1.0, -0.2)) == recover(ts[1])
            assert recover(ts.tolist()).tolist() == recover(ts).tolist()
    for bad in (0.5, np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
        for recover in (direct, viaseq):
            with pytest.raises(ValueError, match="t must be a point of shape \\(2,\\)"):
                recover(bad)


def test_coefficient_indices_on_a_product_map_are_scalar_points():
    # W's domain for a coefficient system is its index set, whatever the
    # feature map's arity: an integer is one index and an index array of any
    # length (d = 2 included) a batch, each giving the source's coefficient
    pw = PaleyWienerSpace(1.0, max_frequency=4.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0, panels=8, nodes_per_panel=8)
    fm = tensor_feature([pw.feature_map(), sob.feature_map([-0.5, 0.5])])
    basis = build_span_basis(fm, [(x, y) for x in (-3.0, 0.0, 3.0) for y in (-0.5, 0.5)])
    source = span_combination(basis, np.arange(1.0, 7.0) + 0.5j)
    image = transform(source, fm)
    F = fm.evaluate([(-3.0, -0.5), (0.0, 0.5), (3.0, -0.5)])
    L = np.linalg.cholesky(inner_weighted_matrix(fm.grid, F, F).T)
    cons = inv.OrthonormalSystem(fm.grid, np.linalg.solve(L, F))
    assert cons.orthonormality_defect() < 1e-10
    recover = lambda n: inv.fourier_coeff_invert(cons, fm, image, n, basis)
    for ns in (np.arange(3), np.array([2, 0])):
        _assert_batch_matches_points(recover, ns)
    for n in range(3):
        assert abs(recover(n) - cons.coefficient(source, n)) < 1e-8
    with pytest.raises(ValueError, match="t must be a point of shape \\(\\)"):
        recover(np.zeros((2, 2), dtype=int))


def test_batched_generalized_inversion_matches_points(pw_setup):
    pw, fm, basis = pw_setup
    image = transform(sample(fm.grid, np.cos), fm)
    cons = inv.exponential_system(fm.grid, 16, 1.0)
    cases = [
        (inv.indefinite_integral_sequence(fm), np.array([-0.5, 0.25, 0.5, 1.0])),
        (inv.identity_sequence(fm), np.linspace(-0.8, 0.8, 5)),
        (inv.cons_sequence(cons, fm), np.arange(16)),
    ]
    for seq, ts in cases:
        _assert_batch_matches_points(lambda t: inv.generalized_invert_at(seq, image, t, basis), ts)
        with pytest.raises(ValueError, match="t must be a point of shape \\(\\)"):
            inv.generalized_invert_at(seq, image, np.zeros((2, 2, 2)), basis)


def test_batched_pairing_and_residual_are_the_single_pairings_bit_for_bit(sobolev_setup, monkeypatch):
    # every point's value and coarse-basis residual is its own opr_inner
    # call on the batch's section coefficients, bit for bit
    space, fm, basis = sobolev_setup
    coeffs = np.random.default_rng(3).standard_normal(basis.size) - 0.7j
    image = transform(span_combination(basis, coeffs), fm)
    ts = np.linspace(-0.97, 0.97, 23)
    D = basis.solve(np.array([[complex(fm.closed_kernel(x, t)) for t in ts] for x in basis.points]))
    c = project_span(image.raw, basis)

    def hexes(values):
        return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]

    stacked = []

    def spy(basis_, cs, ds):
        out = opr_inner(basis_, cs, ds)
        stacked.append(out)
        return out

    monkeypatch.setattr(inv, "opr_inner", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = inv.invert_at(image, ts, basis)
    residual, pairing = stacked
    assert hexes(residual) == hexes(opr_inner(basis, d, d) for d in D.T)
    assert hexes(got) == hexes(pairing) == hexes(opr_inner(basis, c, d) for d in D.T)


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
    # one evaluate call holding the 9 points, not one per point or per
    # (feature row, point)
    assert calls == [ts.tolist()]


def test_invert_at_makes_one_kernel_table_call_per_batch(sobolev_setup, pw_setup):
    # the (basis x batch) table B and the diagonal k(t, t), one call each
    for space, fm, basis in (sobolev_setup, pw_setup):
        calls = []

        def closed_kernel(xs, ys, real=fm.closed_kernel):
            calls.append((np.shape(xs), np.shape(ys)))
            return real(xs, ys)

        spied = dataclasses.replace(fm, closed_kernel=closed_kernel)
        spied_basis = build_span_basis(spied, basis.points)
        image = transform(span_combination(spied_basis, np.ones(basis.size, dtype=complex)), spied)
        ts = np.linspace(-0.8, 0.8, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = inv.invert_at(image, ts, spied_basis)
            assert calls == [((basis.size, 1), (1, 9)), ((9,), (9,))]
            want = [inv.invert_at(image, float(t), spied_basis) for t in ts]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_non_integer_coefficient_index_is_refused():
    # int(1.7) would give coefficient 1, and [0.5, 2.9] coefficients 0 and 2
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    fm = pw.feature_map()
    basis = build_span_basis(fm, np.arange(-8.0, 9.0))
    ons = inv.exponential_system(fm.grid, 4, 1.0)
    image = transform(ons.reconstruct(np.ones(4)), fm)
    for bad in (1.7, np.array([0.5, 2.9]), np.array([1.0, np.nan])):
        with pytest.raises(IndexError, match="not an integer"):
            inv.fourier_coeff_invert(ons, fm, image, bad, basis)
        with pytest.raises(IndexError, match="not an integer"):
            inv.generalized_invert_at(inv.cons_sequence(ons, fm), image, bad, basis)
    # an integral float is that index
    two = inv.fourier_coeff_invert(ons, fm, image, 2, basis)
    assert inv.fourier_coeff_invert(ons, fm, image, 2.0, basis) == two


def test_s_apply_returns_the_row_by_point_matrix(pw_setup):
    pw, fm, basis = pw_setup
    cons = inv.exponential_system(fm.grid, 16, 1.0)
    rows = basis.features[:3]
    vecs = [HVector(fm.grid, r) for r in rows]
    ts = [-0.5, 0.25, 1.0]
    F = [cumulative_integral(fm.grid, r) for r in rows]
    cases = [
        (inv.identity_sequence(fm), ts, lambda i, t: inner_weighted(vecs[i], fm.feature(t))),
        (inv.indefinite_integral_sequence(fm), ts, lambda i, t: F[i](t) - F[i](0.0)),
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
        inv.indefinite_integral_sequence(fm),
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
    seq = inv.indefinite_integral_sequence(other)
    with pytest.raises(ValueError, match="different grids"):
        inv.generalized_invert_at(seq, image, 0.5, basis)
