"""Truncated Fourier transform pairs on boxes.

The forward transform integrates f(t) exp(-i t.x) over a finite box by
quadrature, the conjugate transform integrates against exp(+i t.x) over a
finite frequency box, and the checks measure how close the pair comes to a
unitary on the window (norm preservation, mutual inversion, and the
indefinite-integral identity on N-dimensional boxes).

Multi-axis sums are evaluated one axis at a time, which is algebraically
the same sum as over the full product grid.  Each axis contraction has two
routes to the same quadrature sum.  The dense one materializes the kernel
exp(+-i x t) w(t) in blocks.  The chirp-z one serves composite
Gauss-Legendre grids with uniform panels on both sides: there x t splits
into per-node phases and a term in the panel lag q - p alone, so the sum
over source panels is a convolution done by FFT (Bluestein's chirp-z
identity), one FFT column per data column and with no approximation; its
error is the rounding of its double-precision phases (:func:`_axis_chirp`).
:func:`fourier_on_lattice` takes the chirp-z route when both grids have
uniform panels and a cost model fitted to timings of both routes says it is
cheaper; grids with breakpoints and very small grids stay dense, and the
dense route is the tests' oracle.  :func:`transform_at` evaluates the dense
sum at arbitrary points, and :func:`mutual_inverse_check` evaluates the
same sum on its probe lattice one axis at a time.

Box samples of smooth functions have small numerical rank, so a 2-D
forward transform first tries to factor its samples as Q @ B with k columns
(:func:`_low_rank`, a blocked randomized range finder that stops on the
exact residual); it then contracts Q along axis 0 and B along axis 1, k
columns each instead of a whole side, and multiplies the two.  Samples that
do not reach the residual floor within the column cap, and every 1-D and
3-D box, take the column route above, one contraction per axis over all
columns; that route is the oracle of the factored one.  No suite transforms
a 3-D box.

The two boxes are the same kind of object, a
:class:`~rkhskit.numerics.ProductGrid` from :func:`box_domain`: a time box
resolving frequencies up to ``max_frequency``, or a frequency box of
half-width ``radius`` resolving times up to the time half-width.  The
checks take everything but the radius from the time box: the frequency box
gets the Gauss order of the time box's axes, and resolves times up to its
largest half-width; :func:`box_inversion_check` doubles that, since its
integrand F(x) times the indicator transforms oscillates at up to
a_j + t_j < 2 a_j.
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
# nodes off the uniform-panel model by more than this many ulps of the
# interval end mean the panels are not uniform
_UNIFORM_ULPS = 64
# the low-rank route sketches 2-D samples this many columns at a time, stops
# once the residual is this far below the samples in Frobenius norm, gives
# up past this many columns (or an eighth of the shorter side), and updates
# the residual in row blocks of about this many entries
_SKETCH_BLOCK = 8
_SKETCH_FLOOR = 1e-14
_SKETCH_CAP = 32
_SKETCH_CHUNK = 1 << 18
# probes of mutual_inverse_check, spread over the axes by default_probes
_N_PROBES = 50


def _chunk_rows(ncols: int) -> int:
    return max(1, _CHUNK_ELEMS // max(ncols, 1))


def box_domain(
    half_widths: Sequence[float],
    *,
    max_frequency: float,
    nodes_per_panel: int = 8,
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
    if not (math.isfinite(max_frequency) and max_frequency > 0):
        raise ValueError("max_frequency must be positive and finite")
    grids = {}
    for a in hws:
        if not (math.isfinite(a) and a > 0):
            raise ValueError("half-widths must be positive and finite")
        if a not in grids:
            panels = panels_for_oscillation(2.0 * a, max_frequency, minimum=8)
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


def _panel_model(g: QuadGrid):
    """(centre, panel width, offsets) with nodes = centre + h (p - (P-1)/2 + beta_k)
    for panel p and node k, or None when the panels are not uniform.

    Uniform means the model reproduces every node up to rounding, so a grid
    built with interior breakpoints (unequal panels) gets None.
    """
    P, n = g.n_panels, g.nodes_per_panel
    lo, hi = float(g.panel_edges[0]), float(g.panel_edges[-1])
    centre, h = 0.5 * (lo + hi), (hi - lo) / P
    shift = np.arange(P) - (P - 1) / 2.0
    # offsets from the middle panel, where h * shift is smallest and the
    # subtraction below cancels least
    mid = P // 2
    beta = (g.nodes[mid * n : (mid + 1) * n] - centre) / h - shift[mid]
    model = centre + h * (shift[:, None] + beta)
    err = np.max(np.abs(model - g.nodes.reshape(P, n)))
    if err > _UNIFORM_ULPS * np.finfo(float).eps * max(abs(lo), abs(hi)):
        return None
    return centre, h, beta


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b >= n, a length numpy's FFT handles at full speed."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best


def _axis_chirp(arr: np.ndarray, axis: int, dst: QuadGrid, src: QuadGrid, sign: float, models) -> np.ndarray:
    """The contraction of :func:`_axis_apply` over uniform-panel grids, by
    chirp-z transforms over the panel index.

    With t = tc + h tau, tau = p' + beta_k, and x = xc + H sigma,
    sigma = q' + alpha_l (p', q' centred panel indices),

        x t = xc t + tc (x - xc) + theta (tau^2 + sigma^2 - (sigma - tau)^2) / 2,

    theta = H h.  The last term depends on the panel pair only through
    q - p, so the sum over source panels is a linear convolution, done by
    FFT; the sum over the n source offsets is an (n x m) product per
    frequency bin.  The identity is exact; what is left is rounding.

    Phases are formed in double precision and passed to exp unreduced (libm
    reduces them exactly), so each is off by eps times its size, up to
    theta (P + Q)^2 / 8 = R a (P + Q)^2 / (2 P Q) radians at radius R and
    half-width a.  Against a 30-digit sum, relative to max |F|: a centred
    Gaussian within 1.2e-15 at the pinned geometries and 2e-14 at
    (a, R) = (200, 50); an off-centre packet up to 5.5e-14 and 6e-13 there,
    as with 80-bit phases.
    """
    (tc, h, beta), (xc, H, alpha) = models
    P, n = src.n_panels, src.nodes_per_panel
    Q, m = dst.n_panels, dst.nodes_per_panel
    theta = sign * H * h
    L = _fft_len(P + Q - 1)

    tau = (np.arange(P) - (P - 1) / 2)[:, None] + beta
    t = src.nodes.reshape(P, n)
    pre = src.weights.reshape(P, n) * np.exp(1j * (sign * xc * t + theta * tau ** 2 / 2))
    sigma = (np.arange(Q) - (Q - 1) / 2)[:, None] + alpha
    x = dst.nodes.reshape(Q, m)
    post = np.exp(1j * (sign * tc * (x - xc) + theta * sigma ** 2 / 2))
    # chirp over the panel lag j = q - p, wrapped into the circular buffer
    lag = np.arange(-(P - 1), Q)
    gap = (lag - (Q - P) / 2)[:, None, None] + (alpha - beta[:, None])
    chirp = np.zeros((L, n, m), dtype=complex)
    chirp[lag % L] = np.exp(1j * (-theta * gap ** 2 / 2))
    spec = np.fft.fft(chirp, axis=0).transpose(0, 2, 1)  # (L, m, n)

    moved = np.moveaxis(arr, axis, -1)
    flat = moved.reshape(-1, P, n)
    out = np.empty((flat.shape[0], Q, m), dtype=complex)
    # about four (L, n or m) arrays per column are live; a chunk keeps them
    # under half of _CHUNK_ELEMS entries
    step = max(1, _CHUNK_ELEMS // (8 * L * max(n, m)))
    for c in range(0, flat.shape[0], step):
        block = np.fft.fft(flat[c : c + step] * pre, n=L, axis=1)  # (k, L, n)
        mixed = np.matmul(spec, block.transpose(1, 2, 0))  # (L, m, k)
        back = np.fft.ifft(mixed, axis=0)[:Q]  # (Q, m, k)
        out[c : c + step] = back.transpose(2, 0, 1) * post
    out = out.reshape(moved.shape[:-1] + (dst.size,))
    return np.moveaxis(out, -1, axis)


def _chirp_pays(P: int, n: int, Q: int, m: int, cols: int) -> bool:
    """Whether :func:`_axis_chirp` beats :func:`_axis_apply` for P panels of
    n source nodes, Q panels of m target nodes and ``cols`` columns.

    Costs in ns, fitted to 161 timings of both routes (numpy 2.4, OpenBLAS
    on one thread, 2-core x86-64): the dense route pays per kernel entry
    for the exponential and per entry and column for the product; the
    chirp route pays for its chirp spectrum, and per column for the FFTs,
    the (n x m) products per bin and the node phases.

    The per-column term was fitted when the chirp route transformed two
    FFT columns per data column; it now transforms one, so the model
    overstates the chirp cost and keeps borderline axes dense on purpose.
    The axes of a factored 2-D transform see at most _SKETCH_CAP columns;
    only full-rank 2-D samples still bring a whole side of columns here.
    """
    L = _fft_len(P + Q - 1)
    dense = 3.5e4 + P * n * Q * m * (44.0 + 0.2 * cols)
    per_col = L * (2.0 * n * m + 4.5 * (n + m) * math.log2(L)) + 17.0 * (P * n + Q * m)
    chirp = 1.9e5 + 124.0 * L * n * m + cols * per_col
    return chirp < dense


def _axis_contract(arr: np.ndarray, axis: int, dst: QuadGrid, src: QuadGrid, sign: float) -> np.ndarray:
    """One axis of a truncated transform: :func:`_axis_chirp` when both
    grids have uniform panels and it is the cheaper route, else
    :func:`_axis_apply`."""
    cols = arr.size // src.size
    if _chirp_pays(src.n_panels, src.nodes_per_panel, dst.n_panels, dst.nodes_per_panel, cols):
        models = (_panel_model(src), _panel_model(dst))
        if None not in models:
            return _axis_chirp(arr, axis, dst, src, sign, models)
    return _axis_apply(arr, axis, dst.nodes, src, sign)


def _frobenius(arr: np.ndarray) -> float:
    return math.sqrt(np.vdot(arr, arr).real)


def _low_rank(arr: np.ndarray):
    """(Q, B) with orthonormal columns Q and arr = Q @ B up to a residual of
    at most _SKETCH_FLOOR of arr in Frobenius norm, or None.

    A blocked randomized range finder (Halko, Martinsson & Tropp, SIAM
    Rev. 53, 2011, in the residual-updating form of Martinsson & Voronin,
    SIAM J. Sci. Comput. 38, 2016): each block sketches the residual with
    _SKETCH_BLOCK Gaussian columns, orthogonalizes the sketch against the
    earlier blocks, and subtracts its projection from the residual.  The
    stopping test reads that residual itself, so the accuracy does not rest
    on the random draw; the draw is keyed on the shape, so equal inputs
    give equal factors.  None for an all-zero array, and when the columns
    would pass the cap before the residual reaches the floor.
    """
    cap = min(_SKETCH_CAP, min(arr.shape) // 8)
    norm = _frobenius(arr)
    if cap < _SKETCH_BLOCK or norm == 0.0:
        return None
    rng = np.random.default_rng(arr.shape)
    resid = arr.copy()
    step = max(1, _SKETCH_CHUNK // arr.shape[1])
    Q = np.empty((arr.shape[0], 0), dtype=complex)
    blocks = []
    while Q.shape[1] < cap:
        Y = resid @ rng.standard_normal((arr.shape[1], _SKETCH_BLOCK))
        for _ in range(2):
            # twice, since a sketch of a residual near the floor keeps the
            # earlier blocks' rounding, which the first QR can amplify
            Y = np.linalg.qr(Y - Q @ (Q.conj().T @ Y))[0]
        B = Y.conj().T @ resid
        for i in range(0, resid.shape[0], step):
            resid[i : i + step] -= Y[i : i + step] @ B
        Q = np.hstack([Q, Y])
        blocks.append(B)
        if _frobenius(resid) <= _SKETCH_FLOOR * norm:
            return Q, np.vstack(blocks)
    return None


def fourier_on_lattice(values: np.ndarray, box: ProductGrid, lattice: ProductGrid) -> np.ndarray:
    """Truncated Fourier transform of box samples, tabulated on the lattice.

    (2 pi)^(-N/2) * integral over the box of f(t) exp(-i t.x) dt, one kernel
    contraction per axis.  2-D samples that :func:`_low_rank` factors as
    Q @ B are contracted through their k factor columns, Q along axis 0 and
    B along axis 1, and F is the product of the two; other 2-D samples, and
    1-D and 3-D ones, are contracted column by column.
    """
    if lattice.ndim != box.ndim:
        raise ValueError("lattice and box dimensions differ")
    arr = np.asarray(values, dtype=complex).reshape(box.shape)
    factors = _low_rank(arr) if box.ndim == 2 else None
    if factors is not None:
        (dst0, dst1), (src0, src1) = lattice.axes, box.axes
        left = _axis_contract(factors[0], 0, dst0, src0, sign=-1.0)
        right = _axis_contract(factors[1], 1, dst1, src1, sign=-1.0)
        return (left * _TWO_PI ** -1.0) @ right
    for j, (dst, src) in enumerate(zip(lattice.axes, box.axes)):
        arr = _axis_contract(arr, j, dst, src, sign=-1.0)
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
    (0, t), with the removable singularity filled by its series.

    Away from it the value is taken as 2 sin(z/2) exp(i z/2) / x, z = t x,
    which does not cancel for small z the way exp(i z) - 1 does.
    """
    xs = np.asarray(x, dtype=float)
    z = t * xs
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, xs)
    half = 0.5 * t * safe
    series = t * (1.0 + 1j * z / 2.0 - z ** 2 / 6.0 - 1j * z ** 3 / 24.0)
    out = np.where(small, series, 2.0 * np.sin(half) * np.exp(1j * half) / safe)
    return out if xs.ndim else complex(out)


def _forward(fn: Callable, box: ProductGrid, radius: float, rate: float):
    """Samples of fn on the box, the frequency box (-radius, radius)^N
    resolving times up to ``rate`` at the box's Gauss order, and the
    transform tabulated on it."""
    if box.max_frequency is not None and radius > box.max_frequency * (1.0 + 1e-12):
        raise ValueError(
            f"box resolves frequencies up to {box.max_frequency:g}, "
            f"below the requested radius {radius:g}"
        )
    vals = sample_on_box(box, fn)
    lattice = box_domain(
        (radius,) * box.ndim, max_frequency=rate, nodes_per_panel=box.axes[0].nodes_per_panel
    )
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


def plancherel_norm_check(fn: Callable, box: ProductGrid, radius: float) -> PlancherelNormReport:
    """Window L2 norm of f against the L2 norm of its truncated transform
    over the frequency box; rel_err carries truncation tails plus quadrature.

    The box must have been built with max_frequency >= radius; the
    frequency box resolves times up to the largest time half-width.
    """
    vals, lattice, F = _forward(fn, box, radius, max(box.half_widths))
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


def default_probes(box: ProductGrid) -> list:
    """Per-axis coordinates of a probe lattice strictly inside the box,
    0.1 a_j away from the edges; the probes are their tensor product, about
    _N_PROBES of them (7 x 7 in 2-D)."""
    per_axis = max(2, int(round(_N_PROBES ** (1.0 / box.ndim))))
    return [
        np.linspace(-0.9 * a, 0.9 * a, per_axis)
        for a in box.half_widths
    ]


def _conjugate_on_tensor(F: np.ndarray, lattice: ProductGrid, probe_axes: Sequence[np.ndarray]) -> np.ndarray:
    """``transform_at(F, lattice.axes, points, sign=+1)`` at the tensor
    lattice of the per-axis probe coordinates, one axis at a time; the
    result has one axis per probe axis."""
    back = F
    for j, (pts, g) in enumerate(zip(probe_axes, lattice.axes)):
        back = _axis_apply(back, j, pts, g, sign=+1.0)
    return back * _TWO_PI ** (-lattice.ndim / 2.0)


def mutual_inverse_check(fn: Callable, box: ProductGrid, radius: float) -> MutualInverseReport:
    """Forward then conjugate transform, compared with f at the
    :func:`default_probes` lattice.

    The conjugate transform runs over the truncated frequency box, so the
    discrepancy carries the inversion tail (roughly 1/radius scaled by the
    smoothness of f) on top of quadrature error.  The probe lattice is
    evaluated one axis at a time, the same sum as :func:`transform_at` at
    each probe.  The frequency box is the one of :func:`plancherel_norm_check`.
    """
    _, lattice, F = _forward(fn, box, radius, max(box.half_widths))
    axes = default_probes(box)
    back = _conjugate_on_tensor(F, lattice, axes)
    ref = np.asarray(fn(*np.meshgrid(*axes, indexing="ij")), dtype=complex)
    err = float(np.max(np.abs(back - ref)))
    return MutualInverseReport(radius=radius, n_probes=back.size, max_abs_err=err)


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
    fn: Callable, box: ProductGrid, radius: float, t: Sequence[float]
) -> BoxInversionReport:
    """Indefinite-integral inversion identity on a box.

    lhs integrates f over (0, t_1) x ... x (0, t_N) by fresh quadrature;
    rhs pushes the box-truncated transform of f back through the product of
    indicator transforms:

        (2 pi)^(-N/2) * integral of F(x) prod_j (exp(i t_j x_j) - 1)/(i x_j) dx

    over the frequency box, which resolves times up to twice the largest
    time half-width.  Their gap carries the O(1/radius) tail.
    """
    ts = tuple(float(v) for v in t)
    if len(ts) != box.ndim:
        raise ValueError("t arity must match the box dimension")
    for tj, a in zip(ts, box.half_widths):
        if not 0.0 < tj < a:
            raise ValueError("t must lie strictly inside the positive box")

    lhs_box = product_grid(
        [build_grid(make_interval(0.0, tj), 16, 16) for tj in ts], cap=BOX_NODE_CAP
    )
    lhs = integrate(lhs_box, np.asarray(fn(*lhs_box.mesh()), dtype=complex).ravel())

    _, lattice, arr = _forward(fn, box, radius, 2.0 * max(box.half_widths))
    for tj, g in zip(ts, lattice.axes):
        hat = indicator_hat(tj, g.nodes) * g.weights
        arr = np.tensordot(arr, hat, axes=([0], [0]))
        # contracting axis 0 each round walks through the original axes in order
    rhs = complex(arr) * _TWO_PI ** (-box.ndim / 2.0)
    return BoxInversionReport(radius=radius, t=ts, lhs=lhs, rhs=rhs)
