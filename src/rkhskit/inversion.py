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

:func:`invert_at` and :func:`generalized_invert_at` take one point or a 1-D
array of points.  A transformation sequence maps the whole feature matrix
at every point of the batch in one call, and all kernel sections of the
batch come from one solve with the Gram factor; the pairing with the image
and the coarse-basis residual stay per point on ``fsum_complex``, because
coefficients over a near-singular Gram cancel there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    HVector,
    QuadGrid,
    cumulative_integral,
    fsum_complex,
    inner_weighted_matrix,
)
from .spaces import PaleyWienerSpace, sinc_gram
from .transforms import (
    FeatureMap,
    SpanBasis,
    TransformImage,
    opr_inner,
    project_span,
    span_image,
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
    vector on another grid raises ``ValueError``.
    """

    phi: FeatureMap
    s_apply: Callable[[np.ndarray, list], np.ndarray]


def _as_span_coeffs(image: TransformImage, basis: SpanBasis) -> np.ndarray:
    if image.basis is basis and image.coeffs is not None:
        return image.coeffs
    if image.raw is not None:
        return project_span(image.raw, basis)
    raise ValueError("image was built over a different span basis")


def _batch(t) -> tuple:
    """(points, scalar): a 1-D array is a batch of points, anything else one point."""
    if isinstance(t, np.ndarray) and t.ndim == 1:
        return t.tolist(), False
    return [t], True


def _pair_with_sections(
    image: TransformImage, basis: SpanBasis, D: np.ndarray, scalar: bool
) -> complex | np.ndarray:
    """Pair the image with each column of section coefficients D by
    :func:`~rkhskit.transforms.opr_inner`."""
    u = span_image(basis, _as_span_coeffs(image, basis))
    vals = [opr_inner(u, span_image(basis, d)) for d in D.T]
    return vals[0] if scalar else np.array(vals, dtype=complex)


def invert_at(image: TransformImage, t, basis: SpanBasis) -> complex | np.ndarray:
    """Evaluate the source of a transformed vector at t, one point or a 1-D
    array of points (then an array of values).

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
    ts, scalar = _batch(t)
    B = np.array([[complex(k(x, s)) for s in ts] for x in basis.points])
    D = basis.solve(B)
    for s, d in zip(ts, D.T):
        ktt = complex(k(s, s)).real
        if ktt > 0.0:
            proj_sq = fsum_complex(np.conj(d)[:, None] * basis.gram * d[None, :]).real
            resid = math.sqrt(max(ktt - proj_sq, 0.0))
            if resid > 1e-3 * math.sqrt(ktt):
                warnings.warn(f"basis too coarse for t={s!r}", RuntimeWarning, stacklevel=2)
    return _pair_with_sections(image, basis, D, scalar)


def generalized_invert_at(
    seq: TransformationSequence, image: TransformImage, t, basis: SpanBasis
) -> complex | np.ndarray:
    """Recover (S f)(t) from the transform of f through the sequence's
    isometry: the image-space inner product with the span projection of the
    pulled-back kernel section, assembled from conj((S phi(x_i))(t)).

    t is one point or a 1-D array of points (then an array of values);
    ``s_apply`` runs once, on the whole feature matrix and every point.
    """
    if not basis.phi.grid.compatible_with(seq.phi.grid):
        raise ValueError("basis features and sequence live on different grids")
    ts, scalar = _batch(t)
    D = basis.solve(np.conj(seq.s_apply(basis.features, ts)))
    return _pair_with_sections(image, basis, D, scalar)


def identity_sequence(phi: FeatureMap) -> TransformationSequence:
    """S = identity; a row is evaluated at t by pairing it with phi(t), the
    kernel section of the image at t, formed once per point."""

    def s_apply(rows: np.ndarray, ts: list) -> np.ndarray:
        values = np.reshape([phi.feature(t).values for t in ts], (len(ts), phi.grid.size))
        return inner_weighted_matrix(phi.grid, rows, values)

    return TransformationSequence(phi, s_apply)


def indefinite_integral_sequence(phi: FeatureMap, anchor: float = 0.0) -> TransformationSequence:
    """S maps a grid vector to its primitive from ``anchor``; an isometry
    into the unit-weight Sobolev-type space anchored there, whose kernel is
    the overlap length |(anchor, med{t, u, anchor})|."""

    def s_apply(rows: np.ndarray, ts: list) -> np.ndarray:
        xs = np.asarray(ts, dtype=float)
        Fs = (cumulative_integral(phi.grid, row) for row in rows)
        return np.array([F(xs) - F(anchor) for F in Fs], dtype=complex).reshape(len(rows), xs.size)

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
    the index set with the Kronecker-delta kernel."""

    def s_apply(rows: np.ndarray, ns: list) -> np.ndarray:
        if not cons.grid.compatible_with(phi.grid):
            raise ValueError("orthonormal system and features live on different grids")
        members = cons.members[[int(n) for n in ns]]
        return inner_weighted_matrix(cons.grid, rows, members)

    return TransformationSequence(phi, s_apply)


def fourier_coeff_invert(
    cons: OrthonormalSystem, phi: FeatureMap, image: TransformImage, n, basis: SpanBasis
) -> complex | np.ndarray:
    """n-th orthonormal coefficient of the source, recovered through the
    transform side rather than a direct inner product (0-based index).

    n is one index or a 1-D array of indices (then an array of values)."""
    ns = np.asarray(n)
    if np.any((ns < 0) | (ns >= cons.count)):
        raise IndexError("coefficient index out of range")
    return generalized_invert_at(cons_sequence(cons, phi), image, n, basis)


@dataclass(frozen=True)
class RestrictionIsometryReport:
    radius: float
    max_kernel_err: float
    span_norm_gram: float
    span_norm_window: float
    span_err: float

    @property
    def max_abs_err(self) -> float:
        return max(self.max_kernel_err, self.span_err)


def restriction_isometry_check(
    pw: PaleyWienerSpace,
    probes: Sequence[float],
    radius: float,
    coeffs: Sequence[complex] | None = None,
) -> RestrictionIsometryReport:
    """Check that restricting bandlimited functions to a window preserves the
    inner product: window L2 pairings of kernel sections reproduce kernel
    values, and the Gram norm of a span combination matches its window L2
    norm.  Both come from one :func:`~rkhskit.spaces.sinc_gram` matrix;
    discrepancies carry the O(1/radius) truncation tail.
    """
    pts = [float(p) for p in probes]
    if not pts:
        raise ValueError("need at least one probe point")
    cs = np.ones(len(pts), dtype=complex) if coeffs is None else np.asarray(coeffs, dtype=complex)
    if cs.shape != (len(pts),):
        raise ValueError("coefficient length must match probes")
    pairings = sinc_gram(pw.a, pts, radius) / math.pi ** 2
    K = np.array([[pw.kernel(x, y) for y in pts] for x in pts])
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
