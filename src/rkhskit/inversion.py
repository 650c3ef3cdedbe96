"""Inverse-transform formulas.

When the span of the features is itself a reproducing kernel Hilbert space,
a transformed vector can be evaluated back on the source domain by pairing
its image with the transformed kernel sections.  The kernel and the
sections both come from the feature map: the kernel is its closed kernel,
and the section at t is its own feature phi(t).  The same recipe survives
composition with any isometry S into another RKHS W: the value (S f)(t) is
the image-space inner product of f-hat with the conjugate of the S-composed
features at t.  Orthonormal-coefficient recovery is the special case
W = little-l2 over an index set.

:func:`invert_at` and :func:`generalized_invert_at` read t the same way:
one point (of the basis points' shape, or of W's for a sequence), or an
array or list of points.  The (basis x batch) kernel table, the diagonal
k(t, t) and a sequence's map of the whole feature matrix at every point
are one call each, all kernel sections come from one solve with the Gram
factor, and the pairing with the image and the coarse-basis residual are
one stacked :func:`~rkhskit.transforms.opr_inner` call each, so each
point keeps the bits of its own single pairing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    HVector,
    ProductGrid,
    QuadGrid,
    cumulative_integral,
    inner_weighted_matrix,
)
from .spaces import PaleyWienerSpace, _point_set, sinc_gram
from .transforms import (
    FeatureMap,
    SpanBasis,
    TransformImage,
    opr_inner,
    project_span,
)

__all__ = [
    "TransformationSequence",
    "OrthonormalSystem",
    "invert_at",
    "generalized_invert_at",
    "identity_sequence",
    "indefinite_integral_sequence",
    "exponential_system",
    "cons_sequence",
    "fourier_coeff_invert",
    "RestrictionIsometryReport",
    "restriction_isometry_check",
]


@dataclass(frozen=True)
class TransformationSequence:
    """A feature map phi into H followed by an isometry S from H into an
    RKHS W.

    ``s_apply(rows, ts)`` takes grid vectors as the rows of an (m, N) array
    on ``phi.grid`` and a list of T points of W's domain, and returns the
    (m, T) complex array of (S rows[i])(ts[j]); pairing the rows with a
    vector on another grid raises ``ValueError``.  ``point_shape``, the
    shape of a point of W's domain, is () but on a product map's identity.
    """

    phi: FeatureMap
    s_apply: Callable[[np.ndarray, list], np.ndarray]
    point_shape: tuple = field(default=(), init=False)


def _read_points(shape: tuple, t) -> tuple:
    """(points, scalar): t as a (k, *shape) array of points of that shape,
    and whether t was one point; any other shape raises ``ValueError``."""
    scalar = np.shape(t) == shape
    if not (scalar or np.shape(t)[1:] == shape):
        raise ValueError(f"t must be a point of shape {shape} or an array of them, not shape {np.shape(t)}")
    return np.asarray(t).reshape(-1, *shape), scalar


def invert_at(image: TransformImage, t, basis: SpanBasis) -> complex | np.ndarray:
    """Evaluate the source of a transformed vector at t, one point of the
    basis points' shape (a float, or a (d,) array on a product map) or an
    array or list of them, (k,) or (k, d) (then an array of values).

    Pairs the image with the transform of the kernel section at t, both
    projected onto the span basis.  The section's projection coefficients
    come from the closed kernel of ``basis.phi`` at the basis points, so no
    quadrature against a possibly discontinuous feature enters here; a
    feature map without a closed kernel raises ``ValueError``.  Exact up to
    ridge when the source lies in the span; for anything else this
    evaluates the span projection of the source, and the kernel-section
    projection residual (relative, against ||k_t||) is worth watching,
    hence the warning, raised once per point where it exceeds 1e-3.
    """
    k = basis.phi.closed_kernel
    if k is None:
        raise ValueError("invert_at needs a feature map with a closed kernel")
    pts, scalar = _read_points(np.shape(basis.points)[1:], t)
    D = basis.solve(k(np.asarray(basis.points)[:, None], pts[None]))
    ktt = np.real(k(pts, pts))
    resid = np.sqrt(np.maximum(ktt - opr_inner(basis, D.T, D.T).real, 0.0))
    for s in pts[(ktt > 0.0) & (resid > 1e-3 * np.sqrt(np.maximum(ktt, 0.0)))].tolist():
        warnings.warn(f"basis too coarse for t={s!r}", RuntimeWarning, stacklevel=2)
    return opr_inner(basis, project_span(image.raw, basis), D.T[0] if scalar else D.T)


def generalized_invert_at(
    seq: TransformationSequence, image: TransformImage, t, basis: SpanBasis
) -> complex | np.ndarray:
    """Recover (S f)(t) from the transform of f through the sequence's
    isometry: the image-space inner product with the span projection of the
    pulled-back kernel section, assembled from conj((S phi(x_i))(t)).

    t is read as :func:`invert_at` reads it, against ``seq.point_shape``;
    ``s_apply`` runs once, on the feature matrix and the list of points.
    """
    if basis.phi.grid != seq.phi.grid:
        raise ValueError("basis features and sequence live on different grids")
    pts, scalar = _read_points(seq.point_shape, t)
    D = basis.solve(np.conj(seq.s_apply(basis.features, pts.tolist())))
    return opr_inner(basis, project_span(image.raw, basis), D.T[0] if scalar else D.T)


def identity_sequence(phi: FeatureMap) -> TransformationSequence:
    """S = identity; a row is evaluated at t by pairing it with phi(t), the
    kernel section of the image at t, every point's in one ``evaluate``
    call; on a product map of d factors a point is a (d,) array."""

    def s_apply(rows: np.ndarray, ts: list) -> np.ndarray:
        return inner_weighted_matrix(phi.grid, rows, phi.evaluate(ts))

    seq = TransformationSequence(phi, s_apply)
    if isinstance(phi.grid, ProductGrid):
        object.__setattr__(seq, "point_shape", (phi.grid.ndim,))  # frozen: set once, here
    return seq


def indefinite_integral_sequence(phi: FeatureMap) -> TransformationSequence:
    """S maps a grid vector to its primitive from 0; an isometry into the
    unit-weight Sobolev-type space anchored there, whose kernel is the
    overlap length |(0, med{t, u, 0})|."""

    def s_apply(rows: np.ndarray, ts: list) -> np.ndarray:
        F = cumulative_integral(phi.grid, rows)
        return F(np.asarray(ts, dtype=float)) - F(0.0)[:, None]

    return TransformationSequence(phi, s_apply)


@dataclass(frozen=True, eq=False)
class OrthonormalSystem:
    """Orthonormal grid vectors, the rows of ``members``, used as a coefficient basis."""

    grid: QuadGrid
    members: np.ndarray

    @property
    def count(self) -> int:
        return len(self.members)

    def coefficient(self, f: HVector, n: int) -> complex:
        return complex(inner_weighted_matrix(self.grid, f.values, self.members[n]))

    def orthonormality_defect(self) -> float:
        """Largest deviation of the pairwise inner products from identity."""
        P = inner_weighted_matrix(self.grid, self.members, self.members)
        return float(np.max(np.abs(P - np.eye(self.count))))

    def reconstruct(self, coeffs: Sequence[complex], upto: int | None = None) -> HVector:
        n = self.count if upto is None else int(upto)
        return HVector(self.grid, np.asarray(coeffs[:n], dtype=complex) @ self.members[:n])


def exponential_system(grid: QuadGrid, count: int, half_width: float) -> OrthonormalSystem:
    """Orthonormal complex exponentials exp(i pi m t / a) / sqrt(2 a) on
    (-a, a), with frequencies enumerated m = 0, 1, -1, 2, -2, ...

    Indexing is 0-based: member n carries frequency m_n in that enumeration.
    """
    if count < 1:
        raise ValueError("count must be positive")
    a = float(half_width)
    n = np.arange(count)
    m = np.where(n % 2, (n + 1) // 2, -(n // 2))  # n: 0 -> 0, 1 -> 1, 2 -> -1, 3 -> 2, ...
    omega = math.pi * m / a
    return OrthonormalSystem(grid, np.exp(1j * np.outer(omega, grid.nodes)) / math.sqrt(2.0 * a))


def cons_sequence(cons: OrthonormalSystem, phi: FeatureMap) -> TransformationSequence:
    """S maps h to its orthonormal coefficient sequence; W is little-l2 over
    the index set with the Kronecker-delta kernel.  An index that is not an
    integer, or not one of the system's, raises ``IndexError``."""

    def s_apply(rows: np.ndarray, ns: list) -> np.ndarray:
        idx = np.asarray(ns)
        if (idx != np.trunc(idx)).any():
            raise IndexError("coefficient index is not an integer")
        if ((idx < 0) | (idx >= cons.count)).any():
            raise IndexError("coefficient index out of range")
        if cons.grid != phi.grid:
            raise ValueError("orthonormal system and features live on different grids")
        return inner_weighted_matrix(cons.grid, rows, cons.members[idx.astype(int)])

    return TransformationSequence(phi, s_apply)


def fourier_coeff_invert(
    cons: OrthonormalSystem, phi: FeatureMap, image: TransformImage, n, basis: SpanBasis
) -> complex | np.ndarray:
    """n-th orthonormal coefficient of the source, recovered through the
    transform side rather than a direct inner product (0-based index).

    n is one index or an array or list of them (then an array of values);
    an index that is not an integer, or out of range, raises ``IndexError``."""
    return generalized_invert_at(cons_sequence(cons, phi), image, n, basis)


@dataclass(frozen=True)
class RestrictionIsometryReport:
    radius: float
    max_kernel_err: float
    span_norm_gram: float
    span_norm_window: float
    span_err: float


def restriction_isometry_check(
    pw: PaleyWienerSpace,
    probes: Sequence[float],
    radius: float,
    coeffs: Sequence[complex],
) -> RestrictionIsometryReport:
    """Check that restricting bandlimited functions to a window preserves the
    inner product: window L2 pairings of kernel sections reproduce kernel
    values, and the Gram norm of a span combination matches its window L2
    norm.  Both come from one :func:`~rkhskit.spaces.sinc_gram` matrix;
    discrepancies carry the O(1/radius) truncation tail.  Probes are read
    as :func:`~rkhskit.spaces.sinc_gram` reads its points, before the
    coefficients.
    """
    pts = _point_set(probes)
    if not pts.size:
        raise ValueError("need at least one probe point")
    cs = np.asarray(coeffs, dtype=complex)
    if cs.shape != (pts.size,):
        raise ValueError("coefficient length must match probes")
    pairings = sinc_gram(pw.a, pts, radius) / math.pi ** 2
    K = pw.kernel(pts[:, None], pts[None, :])
    max_kernel_err = float(np.max(np.abs(pairings - K.real)))
    gram_sq = (np.conj(cs) @ K @ cs).real
    window_sq = (np.conj(cs) @ pairings @ cs).real
    span_norm_gram = math.sqrt(max(gram_sq, 0.0))
    span_norm_window = math.sqrt(max(window_sq, 0.0))
    return RestrictionIsometryReport(
        radius=radius,
        max_kernel_err=max_kernel_err,
        span_norm_gram=span_norm_gram,
        span_norm_window=span_norm_window,
        span_err=abs(span_norm_gram - span_norm_window),
    )
