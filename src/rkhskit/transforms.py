"""Feature maps, the integral transforms they induce, and Gram-matrix
machinery for inner products on the transform image.

A feature map phi sends points of a parameter set E into a Hilbert space
realized as grid samples (:class:`~rkhskit.numerics.HVector`).  The induced
transform of a vector f is the function x |-> <f, phi(x)>; its image carries
the unique inner product making the transform a coisometry, and on the span
of finitely many kernel sections that inner product is computed through the
Gram matrix of the corresponding feature vectors.

A :class:`FeatureMap` works on point sets, so every Gram matrix, section
table and image evaluation is one array call, not one call per point.

An element of that span is its coefficient array over a :class:`SpanBasis`,
and :func:`opr_inner` pairs two such arrays through the Gram matrix, or
stacks of them row by row.  The Gram matrix, projections and span
combinations are each one matrix product over the basis features, and
:meth:`TransformImage.at_many` evaluates an image at many points the same
way, summed in BLAS order.  The pairings (:meth:`TransformImage.at`,
:func:`kernel_eval`, :func:`opr_inner` and :func:`contraction_check`) form
their terms elementwise and add them with numpy's pairwise sum; the single
ones are the oracles of the batched calls.  A stack given to
:func:`opr_inner`, and ``_contraction_rows``, the row form of
:func:`contraction_check`, form every pairing exactly as the single call
does and sum each row the same way, so each pairing keeps the single
call's bits; ``_contraction_rows`` projects the whole stack in one matrix
product, which may round differently from the one-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import HVector, _inner_weighted_rows, inner_weighted, inner_weighted_matrix

__all__ = [
    "FeatureMap",
    "SpanBasis",
    "TransformImage",
    "transform",
    "kernel_eval",
    "build_span_basis",
    "project_span",
    "span_combination",
    "opr_inner",
    "ContractionReport",
    "contraction_check",
]

RIDGE_SCALE = 1e-10
_EVAL_BLOCK = 1 << 15  # entries stacked per block: features in at_many, pairing terms in opr_inner


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Map from a parameter set into grid-sampled Hilbert-space vectors.

    Both callables take point sets.  ``evaluate(points)`` returns the
    (k, N) complex matrix of the node values of phi at k points, every
    feature on the one ``grid`` fixed here; a bad point anywhere in the set
    is refused as a single bad point is.  ``closed_kernel(xs, ys)``, when
    present, returns <phi(y), phi(x)> without quadrature, broadcast over
    arrays of points xs and ys (the last axis holds a product map's
    coordinates); it is the only route that accepts parameters off the
    real domain (e.g. complex points).
    """

    grid: object
    evaluate: Callable[[Sequence], np.ndarray]
    closed_kernel: Callable[[object, object], np.ndarray] | None = None

    def feature(self, x) -> HVector:
        """phi(x), the one-row case of ``evaluate``."""
        return HVector(self.grid, self.evaluate([x])[0])


def kernel_eval(phi: FeatureMap, x, y) -> complex:
    """Kernel of the transform image by quadrature: k(x, y) = <phi(y), phi(x)>."""
    return inner_weighted(phi.feature(y), phi.feature(x))


@dataclass(frozen=True, eq=False)
class SpanBasis:
    """Feature vectors at finitely many points, their Gram matrix, and a solver.

    ``features`` holds the feature vectors as the rows of one (m, N) array
    on ``phi.grid``.  The ridge is relative, ``RIDGE_SCALE * trace(G) / m``;
    it absorbs numerically dependent sections (e.g. nearly coincident
    points) that an exact-arithmetic treatment never sees.  ``factor`` is
    the lower Cholesky factor L of G + ridge I, and :meth:`solve` applies
    (L L^H)^-1 as a solve with L and then one with L^H.
    """

    phi: FeatureMap
    points: tuple
    gram: np.ndarray
    ridge: float
    factor: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.points)

    def solve(self, b) -> np.ndarray:
        L = self.factor
        return np.linalg.solve(L.conj().T, np.linalg.solve(L, np.asarray(b, dtype=complex)))


def build_span_basis(phi: FeatureMap, points: Sequence) -> SpanBasis:
    """Assemble the Gram matrix G_ij = <phi(x_j), phi(x_i)> and factor it.

    A Gram matrix that is not positive definite even with the ridge raises
    ``numpy.linalg.LinAlgError``, a ``ValueError``.
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("a span basis needs at least one point")
    feats = phi.evaluate(pts)
    G = inner_weighted_matrix(phi.grid, feats, feats).T
    G = 0.5 * (G + G.conj().T)  # exactly Hermitian, with a real diagonal
    m = len(pts)
    ridge = RIDGE_SCALE * float(np.trace(G).real) / m
    if ridge <= 0.0:
        raise ValueError("degenerate basis: all features vanish")
    factor = np.linalg.cholesky(G + ridge * np.eye(m))
    return SpanBasis(phi, pts, G, ridge, factor, feats)


@dataclass(frozen=True, eq=False)
class TransformImage:
    """The transform of the grid vector ``raw``: the function x |-> <raw, phi(x)>
    on the parameter set, evaluated by quadrature against features."""

    phi: FeatureMap
    raw: HVector

    def at(self, x) -> complex:
        """Value at one point: the terms are formed elementwise and summed by
        numpy's pairwise sum (:func:`~rkhskit.numerics.inner_weighted`)."""
        return inner_weighted(self.raw, self.phi.feature(x))

    def at_many(self, points) -> np.ndarray:
        """Values at a sequence of points, each of the kind :meth:`at`
        accepts, as one complex array summed in BLAS order.

        Point features come from one ``evaluate`` call per block of at most
        ``_EVAL_BLOCK`` entries, so a large product feature is never held
        more than once.
        """
        pts = list(points)
        grid = self.phi.grid
        per = max(1, _EVAL_BLOCK // grid.size)
        vals = np.empty(len(pts), dtype=complex)
        for lo in range(0, len(pts), per):
            feats = self.phi.evaluate(pts[lo : lo + per])
            vals[lo : lo + per] = inner_weighted_matrix(grid, self.raw.values, feats)
        return vals


def transform(f: HVector, phi: FeatureMap) -> TransformImage:
    """The integral transform of f: the function x |-> <f, phi(x)>."""
    if f.grid != phi.grid:
        raise ValueError("vector and feature map live on different grids")
    return TransformImage(phi, f)


def span_combination(basis: SpanBasis, coeffs) -> HVector:
    """The Hilbert-space vector sum_i c_i phi(x_i)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (basis.size,):
        raise ValueError("coefficient length must match basis size")
    return HVector(basis.phi.grid, c @ basis.features)


def project_span(f: HVector, basis: SpanBasis) -> np.ndarray:
    """Ridge-regularized coefficients of the projection of f onto the span."""
    if f.grid != basis.phi.grid:
        raise ValueError("vectors live on different grids")
    return _project_rows(basis, f.values)


def _project_rows(basis: SpanBasis, rows) -> np.ndarray:
    """:func:`project_span` of each row of (R, N) node values on the basis
    grid, (R, m), in one matrix product and one solve; one vector (N,)
    gives its (m,) coefficients."""
    return basis.solve(inner_weighted_matrix(basis.phi.grid, rows, basis.features).T).T


def opr_inner(basis: SpanBasis, c, d) -> complex | np.ndarray:
    """Operator-range inner product of image elements over one span basis.

    For u = sum_i c_i k(., x_i) and v = sum_j d_j k(., x_j), given by their
    coefficient arrays, this is sum_ij conj(d_j) G_ji c_i, the inner product
    pulled back from the source space through the coisometry.  c and d are
    (m,) arrays or (R, m) stacks of equal R: two stacks are paired row by
    row, one array with every row of the other (other shapes raise
    ``ValueError``).  Two arrays give a complex number, else an (R,) array.
    Each pairing's terms are formed elementwise and added by numpy's
    pairwise sum, in blocks of ``_EVAL_BLOCK`` terms, so a row of a stack
    keeps the bits of its own single pairing.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if not (c.ndim in (1, 2) and d.ndim in (1, 2)):
        raise ValueError("coefficients must be (m,) or (R, m)")
    if c.shape[-1] != basis.size or d.shape[-1] != basis.size:
        raise ValueError("coefficient length must match basis size")
    if c.ndim == d.ndim == 2 and len(c) != len(d):
        raise ValueError("coefficient stacks must have the same number of rows")
    cs, ds = np.broadcast_arrays(np.atleast_2d(c), np.atleast_2d(d))
    m2 = basis.gram.size
    per = max(1, _EVAL_BLOCK // m2)
    out = np.empty(len(cs), dtype=complex)
    for lo in range(0, len(cs), per):
        terms = np.conj(ds[lo:lo + per])[:, :, None] * basis.gram * cs[lo:lo + per, None, :]
        out[lo:lo + per] = terms.reshape(-1, m2).sum(axis=1)
    return complex(out[0]) if c.ndim == d.ndim == 1 else out


@dataclass(frozen=True)
class ContractionReport:
    norm_source: float
    norm_image: float
    slack: float


def contraction_check(f: HVector, basis: SpanBasis) -> ContractionReport:
    """Compare the source norm of f against the image norm of its projection.

    slack = norm_source - norm_image is nonnegative up to ridge and
    rounding, and vanishes exactly when f lies in the span of the features.
    """
    if f.grid != basis.phi.grid:
        raise ValueError("vectors live on different grids")
    return _contraction_rows(basis, f.values)[0]


def _contraction_rows(basis: SpanBasis, rows) -> list:
    """:func:`contraction_check` of each row of (R, N) node values on the
    basis grid, or of one vector (N,): one projection product and solve,
    and one stacked sum for each norm."""
    c = np.atleast_2d(_project_rows(basis, rows))
    sq_source = _inner_weighted_rows(basis.phi.grid, rows, rows).real.tolist()
    sq_image = opr_inner(basis, c, c).real.tolist()
    reports = []
    for s, i in zip(sq_source, sq_image):
        norm_source = math.sqrt(max(s, 0.0))
        norm_image = math.sqrt(max(i, 0.0))
        reports.append(ContractionReport(norm_source, norm_image, norm_source - norm_image))
    return reports
