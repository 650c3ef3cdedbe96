"""Truncated Fourier transform pairs on boxes.

Everything here is direct quadrature: the forward transform integrates
f(t) exp(-i t.x) over a finite box, the conjugate transform integrates
against exp(+i t.x) over a finite frequency box, and the checks measure how
close the pair comes to a unitary on the window (norm preservation, mutual
inversion, and the indefinite-integral identity on N-dimensional boxes).
Multi-axis sums are evaluated by per-axis kernel contractions, which is
algebraically the same sum as over the full product grid.

The two boxes are the same kind of object, a
:class:`~rkhskit.numerics.ProductGrid` from :func:`box_domain`: a time box
resolving frequencies up to ``max_frequency``, or a frequency box of
half-width ``radius`` resolving times up to the time half-width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    ProductGrid,
    QuadGrid,
    build_grid,
    integrate,
    make_interval,
    panels_for_oscillation,
    product_grid,
)

__all__ = [
    "box_domain",
    "sample_on_box",
    "fourier_on_lattice",
    "transform_at",
    "indicator_hat",
    "PlancherelNormReport",
    "plancherel_norm_check",
    "MutualInverseReport",
    "mutual_inverse_check",
    "BoxInversionReport",
    "box_inversion_check",
    "BOX_NODE_CAP",
]

BOX_NODE_CAP = 10 ** 7
_TWO_PI = 2.0 * math.pi
# kernel blocks are materialized at most this many complex entries at a time
_CHUNK_ELEMS = 1 << 22


def _chunk_rows(ncols: int) -> int:
    return max(1, _CHUNK_ELEMS // max(ncols, 1))


def box_domain(
    half_widths: Sequence[float],
    *,
    max_frequency: float,
    nodes_per_panel: int = 8,
    min_panels: int = 8,
) -> ProductGrid:
    """Box prod_j (-a_j, a_j) with per-axis grids fine enough for
    exp(-i t x) factors up to |x| = max_frequency; pick max_frequency at
    least the frequency radius the transform will be evaluated on.

    Axes with equal half-widths share one grid.  A frequency box is built
    the same way, with the time half-width as its ``max_frequency``.
    """
    hws = tuple(half_widths)
    if not 1 <= len(hws) <= 3:
        raise ValueError("dimension must be between 1 and 3")
    grids = {}
    for a in hws:
        if not (math.isfinite(a) and a > 0):
            raise ValueError("half-widths must be positive and finite")
        if a not in grids:
            panels = panels_for_oscillation(2.0 * a, max_frequency, minimum=min_panels)
            grids[a] = build_grid(make_interval(-a, a), panels, nodes_per_panel)
    return product_grid([grids[a] for a in hws], cap=BOX_NODE_CAP, max_frequency=max_frequency)


def sample_on_box(box: ProductGrid, fn: Callable) -> np.ndarray:
    """Sample a vectorized callable of ndim arguments on the box grid."""
    return np.asarray(fn(*box.mesh()), dtype=complex)


def _axis_apply(arr: np.ndarray, axis: int, dst_nodes: np.ndarray, src: QuadGrid, sign: float) -> np.ndarray:
    """Contract exp(sign i x t) w(t) against one axis, chunked over x rows."""
    moved = np.moveaxis(arr, axis, 0)
    flat = moved.reshape(src.size, -1)
    out = np.empty((dst_nodes.size, flat.shape[1]), dtype=complex)
    wsrc = src.weights
    step = _chunk_rows(src.size)
    for i in range(0, dst_nodes.size, step):
        block = dst_nodes[i : i + step]
        K = np.exp(sign * 1j * np.outer(block, src.nodes)) * wsrc
        out[i : i + block.size] = K @ flat
    out = out.reshape((dst_nodes.size,) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def fourier_on_lattice(values: np.ndarray, box: ProductGrid, lattice: ProductGrid) -> np.ndarray:
    """Truncated Fourier transform of box samples, tabulated on the lattice.

    (2 pi)^(-N/2) * integral over the box of f(t) exp(-i t.x) dt, one kernel
    contraction per axis.
    """
    if lattice.ndim != box.ndim:
        raise ValueError("lattice and box dimensions differ")
    arr = np.asarray(values, dtype=complex).reshape(box.shape)
    for j, (dst, src) in enumerate(zip(lattice.axes, box.axes)):
        arr = _axis_apply(arr, j, dst.nodes, src, sign=-1.0)
    return arr * _TWO_PI ** (-box.ndim / 2.0)


def transform_at(values: np.ndarray, src_axes: Sequence[QuadGrid], points, sign: float) -> np.ndarray:
    """The same truncated transform evaluated at arbitrary points.

    ``sign=-1`` is the forward kernel exp(-i t.x) integrated over time
    samples; ``sign=+1`` is the conjugate kernel integrated over frequency
    samples.  Points are an (M, N) array (or scalars for N = 1).
    """
    grid = product_grid(src_axes, cap=BOX_NODE_CAP)
    n = grid.ndim
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0
    if pts.ndim <= 1 and n == 1:
        pts = np.atleast_1d(pts)[:, None]
    pts = np.atleast_2d(pts)
    if pts.shape[1] != n:
        raise ValueError("point arity must match the grid dimension")
    nodes = grid.nodes.T
    weighted = np.asarray(values, dtype=complex).ravel() * grid.weights
    out = np.empty(pts.shape[0], dtype=complex)
    step = _chunk_rows(weighted.size)
    for i in range(0, pts.shape[0], step):
        block = pts[i : i + step]
        E = np.exp(sign * 1j * (block @ nodes))
        out[i : i + block.shape[0]] = E @ weighted
    out = out * _TWO_PI ** (-n / 2.0)
    return complex(out[0]) if scalar else out


def indicator_hat(t: float, x) -> np.ndarray:
    """(exp(i t x) - 1) / (i x), the oriented transform of the indicator of
    (0, t), with the removable singularity filled by its series."""
    xs = np.asarray(x, dtype=float)
    z = t * xs
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, xs)
    series = t * (1.0 + 1j * z / 2.0 - z ** 2 / 6.0 - 1j * z ** 3 / 24.0)
    out = np.where(small, series, (np.exp(1j * t * safe) - 1.0) / (1j * safe))
    return out if xs.ndim else complex(out)


def _forward(fn: Callable, box: ProductGrid, radius: float, rate: float, nodes_per_panel: int):
    """Samples of fn on the box, the frequency box (-radius, radius)^N
    resolving times up to ``rate``, and the transform tabulated on it."""
    if box.max_frequency is not None and radius > box.max_frequency * (1.0 + 1e-12):
        raise ValueError(
            f"box resolves frequencies up to {box.max_frequency:g}, "
            f"below the requested radius {radius:g}"
        )
    vals = sample_on_box(box, fn)
    lattice = box_domain((radius,) * box.ndim, max_frequency=rate, nodes_per_panel=nodes_per_panel)
    return vals, lattice, fourier_on_lattice(vals, box, lattice)


def _lattice_norm(values: np.ndarray, grid: ProductGrid) -> float:
    # lattices run to millions of nodes; pairwise summation is plenty here
    sq = float(np.sum(np.abs(np.asarray(values).ravel()) ** 2 * grid.weights))
    return math.sqrt(max(sq, 0.0))


@dataclass(frozen=True)
class PlancherelNormReport:
    radius: float
    norm_time: float
    norm_freq: float

    @property
    def rel_err(self) -> float:
        return abs(self.norm_freq - self.norm_time) / self.norm_time


def plancherel_norm_check(
    fn: Callable,
    box: ProductGrid,
    radius: float,
    *,
    freq_rate: float | None = None,
    nodes_per_panel: int = 8,
) -> PlancherelNormReport:
    """Window L2 norm of f against the L2 norm of its truncated transform
    over the frequency box; rel_err carries truncation tails plus quadrature.

    The box must have been built with max_frequency >= radius.
    """
    rate = freq_rate if freq_rate is not None else max(box.half_widths)
    vals, lattice, F = _forward(fn, box, radius, rate, nodes_per_panel)
    return PlancherelNormReport(
        radius=radius,
        norm_time=_lattice_norm(vals, box),
        norm_freq=_lattice_norm(F, lattice),
    )


@dataclass(frozen=True)
class MutualInverseReport:
    radius: float
    n_probes: int
    max_abs_err: float


def default_probes(box: ProductGrid, n_probes: int = 50, margin: float = 0.1) -> np.ndarray:
    """Probe lattice strictly inside the box, margin*a_j away from the edges."""
    per_axis = max(2, int(round(n_probes ** (1.0 / box.ndim))))
    if box.ndim == 1:
        per_axis = n_probes
    axes = [
        np.linspace(-(1.0 - margin) * a, (1.0 - margin) * a, per_axis)
        for a in box.half_widths
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def mutual_inverse_check(
    fn: Callable,
    box: ProductGrid,
    radius: float,
    probes: np.ndarray | None = None,
    *,
    freq_rate: float | None = None,
    nodes_per_panel: int = 8,
    n_probes: int = 50,
) -> MutualInverseReport:
    """Forward then conjugate transform, compared with f at interior probes.

    The conjugate transform runs over the truncated frequency box, so the
    discrepancy carries the inversion tail (roughly 1/radius scaled by the
    smoothness of f) on top of quadrature error.
    """
    rate = freq_rate if freq_rate is not None else max(box.half_widths)
    vals, lattice, F = _forward(fn, box, radius, rate, nodes_per_panel)
    if probes is None:
        probes = default_probes(box, n_probes=n_probes)
    back = transform_at(F, lattice.axes, probes, sign=+1.0)
    ref = np.asarray(fn(*[probes[:, j] for j in range(box.ndim)]), dtype=complex)
    err = float(np.max(np.abs(back - ref)))
    return MutualInverseReport(radius=radius, n_probes=probes.shape[0], max_abs_err=err)


@dataclass(frozen=True)
class BoxInversionReport:
    radius: float
    t: tuple
    lhs: complex
    rhs: complex

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)


def box_inversion_check(
    fn: Callable,
    box: ProductGrid,
    radius: float,
    t: Sequence[float],
    *,
    freq_rate: float | None = None,
    nodes_per_panel: int = 8,
    lhs_panels: int = 16,
) -> BoxInversionReport:
    """Indefinite-integral inversion identity on a box.

    lhs integrates f over (0, t_1) x ... x (0, t_N) by fresh quadrature;
    rhs pushes the box-truncated transform of f back through the product of
    indicator transforms:

        (2 pi)^(-N/2) * integral of F(x) prod_j (exp(i t_j x_j) - 1)/(i x_j) dx

    over the frequency box.  Their gap carries the O(1/radius) tail.
    """
    ts = tuple(float(v) for v in t)
    if len(ts) != box.ndim:
        raise ValueError("t arity must match the box dimension")
    for tj, a in zip(ts, box.half_widths):
        if not 0.0 < tj < a:
            raise ValueError("t must lie strictly inside the positive box")

    lhs_box = product_grid(
        [build_grid(make_interval(0.0, tj), lhs_panels, 16) for tj in ts], cap=BOX_NODE_CAP
    )
    lhs = integrate(lhs_box, np.asarray(fn(*lhs_box.mesh()), dtype=complex).ravel())

    rate = freq_rate if freq_rate is not None else 2.0 * max(box.half_widths)
    _, lattice, arr = _forward(fn, box, radius, rate, nodes_per_panel)
    for tj, g in zip(ts, lattice.axes):
        hat = indicator_hat(tj, g.nodes) * g.weights
        arr = np.tensordot(arr, hat, axes=([0], [0]))
        # contracting axis 0 each round walks through the original axes in order
    rhs = complex(arr) * _TWO_PI ** (-box.ndim / 2.0)
    return BoxInversionReport(radius=radius, t=ts, lhs=lhs, rhs=rhs)
