"""Feature maps, the integral transforms they induce, and Gram-matrix
machinery for inner products on the transform image.

A feature map phi sends points of a parameter set E into a Hilbert space
realized as grid samples (:class:`~rkhskit.numerics.HVector`).  The induced
transform of a vector f is the function x |-> <f, phi(x)>; its image carries
the unique inner product making the transform a coisometry, and on the span
of finitely many kernel sections that inner product is computed through the
Gram matrix of the corresponding feature vectors.

An element of that span is its coefficient array over a :class:`SpanBasis`,
and :func:`opr_inner` pairs two such arrays through the Gram matrix.  The
Gram matrix, projections and span combinations are each one matrix product
over the basis features, and :meth:`TransformImage.at_many` evaluates an
image at many points the same way.  ``fsum_complex``, the correctly
rounded sum (long sums by vectorized error-free extraction), stays in the
single pairings (:meth:`TransformImage.at`, :func:`kernel_eval`), the
oracles of the batched calls, and in :func:`opr_inner`, where coefficients
over a near-singular Gram cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import HVector, fsum_complex, inner_weighted, inner_weighted_matrix

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
_EVAL_BLOCK = 1 << 15  # feature entries stacked per block in TransformImage.at_many


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Map from a parameter set into grid-sampled Hilbert-space vectors.

    ``evaluate`` returns node values for a parameter point; every feature
    lives on the one ``grid`` fixed here.  ``closed_kernel``, when present,
    evaluates <phi(y), phi(x)> without quadrature and is the only route
    that accepts parameters off the real domain (e.g. complex points).
    """

    grid: object
    evaluate: Callable[[object], np.ndarray]
    closed_kernel: Callable[[object, object], complex] | None = None

    def feature(self, x) -> HVector:
        return HVector(self.grid, np.asarray(self.evaluate(x), dtype=complex))


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
    feats = np.stack([phi.feature(x).values for x in pts])
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
        """Value at one point, summed exactly by ``fsum_complex``."""
        return inner_weighted(self.raw, self.phi.feature(x))

    def at_many(self, points) -> np.ndarray:
        """Values at a sequence of points, each of the kind :meth:`at`
        accepts, as one complex array summed in BLAS order.

        Point features are stacked in blocks of at most ``_EVAL_BLOCK``
        entries, so a large product feature is never held more than once.
        """
        pts = list(points)
        grid = self.phi.grid
        per = max(1, _EVAL_BLOCK // grid.size)
        vals = np.empty(len(pts), dtype=complex)
        for lo in range(0, len(pts), per):
            feats = np.stack([self.phi.feature(x).values for x in pts[lo : lo + per]])
            vals[lo : lo + per] = inner_weighted_matrix(grid, self.raw.values, feats)
        return vals


def transform(f: HVector, phi: FeatureMap) -> TransformImage:
    """The integral transform of f: the function x |-> <f, phi(x)>."""
    if not f.grid.compatible_with(phi.grid):
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
    if not f.grid.compatible_with(basis.phi.grid):
        raise ValueError("vectors live on different grids")
    return basis.solve(inner_weighted_matrix(f.grid, f.values, basis.features))


def opr_inner(basis: SpanBasis, c, d) -> complex:
    """Operator-range inner product of two image elements over one span basis.

    For u = sum_i c_i k(., x_i) and v = sum_j d_j k(., x_j), given by their
    coefficient arrays, this is sum_ij conj(d_j) G_ji c_i, the inner product
    pulled back from the source space through the coisometry.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if c.shape != (basis.size,) or d.shape != (basis.size,):
        raise ValueError("coefficient length must match basis size")
    return fsum_complex(np.conj(d)[:, None] * basis.gram * c[None, :])


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
    c = project_span(f, basis)
    norm_source = math.sqrt(max(inner_weighted(f, f).real, 0.0))
    norm_image = math.sqrt(max(opr_inner(basis, c, c).real, 0.0))
    return ContractionReport(norm_source, norm_image, norm_source - norm_image)
