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
error is the rounding of its double-precision phases (:func:`_build_plan`).
An axis takes the chirp-z route when both grids have uniform panels and at
least ``_CHIRP_MIN_NODES`` nodes, else the dense route, the tests' oracle;
the route depends on the two grids alone, not on the data.
:func:`transform_at` evaluates the dense sum at arbitrary points, and
:func:`mutual_inverse_check` the conjugate sum on its probe lattice by the
same contraction, onto probe axes of one-node panels: 50 probes in 1-D take
the chirp-z route, 7 or 4 per axis in 2-D or 3-D the dense one.

A chirp-z contraction is a plan and its application.  The plan
(:func:`_build_plan`) reads the two grids and the sign alone: the
pre-chirp times the source weights, the post-chirp and the FFT of the
(L, n, m) lag chirp.  Applying it (:func:`_axis_chirp`) takes one FFT per
data column, a matmul, an inverse FFT and the post-chirp.  Plans are kept
in one module-level cache, ``_PLANS``, keyed on the sign and on every
panel edge, node and weight of both grids, so an equal key fixes the plan
bit for bit, and a hit and a miss apply the same read-only arrays.  The
cache drops its least recently used plans above ``_PLAN_CACHE_BYTES``
(32 MiB) of plans and keys.  The Plancherel suites build 9 plans: 13.8 MB
of arrays and 2 MB of keys at 8 nodes per panel, of which the pair of the
(6, 200) box takes 7.1 MB, and 1.3 MB of arrays at 2 nodes per panel.

The checks take a source as its factors: a tuple of one-argument
callables, one per axis, whose product it is; on a 1-D box a plain callable
is read as the tuple of itself.  Samples and transforms are one complex
vector per axis, so a box is never meshed and a product on a 2 448^3-node
box costs three 1-D transforms.  A norm is the product of the per-axis
weighted norms, the back-evaluation of :func:`mutual_inverse_check` is the
outer product of the per-axis back-evaluations on its probe lattice (at
most ``_N_PROBES`` points), and the indicator integral of
:func:`box_inversion_check` a product of per-axis dot products.  The
(2 pi)^(-N/2) scale is multiplied in once where each result is used.
:func:`fourier_on_lattice` transforms dense samples, one contraction per
axis over all columns; it is the tests' oracle of the per-axis checks, and
refuses its table above ``BOX_NODE_CAP`` nodes before forming it, not when
the box is built.

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
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import (
    ProductGrid,
    QuadGrid,
    build_grid,
    integrate,
    make_interval,
    panels_for_oscillation,
    product_grid,
    require_node_cap,
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
# probes of mutual_inverse_check, spread over the axes by default_probes
_N_PROBES = 50
# the chirp-z route's floor on each grid's node count; onto fewer (the 2-d
# and 3-d probe axes) the dense sum is faster and rounds less
_CHIRP_MIN_NODES = 8
# chirp-z plans by (sign, source grid, target grid), least recently used
# first, and the bytes of plans and keys they may hold in all: about twice
# the 15.8 MB that the Plancherel suites keep at 8 nodes per panel
_PLANS: OrderedDict = OrderedDict()
_PLAN_CACHE_BYTES = 32 << 20


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
    the same way, with the time half-width as its ``max_frequency``.  The
    box holds only its axes; a dense array over more than ``BOX_NODE_CAP``
    nodes is refused where it is formed (``ProductGrid.require_dense``).
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
    return ProductGrid(tuple(grids[a] for a in hws), float(max_frequency), BOX_NODE_CAP)


def sample_on_box(box: ProductGrid, fn: Callable) -> np.ndarray:
    """Sample a vectorized callable of ndim arguments on the box grid (the
    whole mesh, so at most ``box.cap`` nodes)."""
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


class _ChirpPlan(NamedTuple):
    """The half of a chirp-z contraction that reads the two grids alone:
    the source weights times the pre-chirp, the post-chirp and the FFT of
    the lag chirp.  Its arrays are read-only."""

    pre: np.ndarray  # (P, n)
    post: np.ndarray  # (Q, m)
    spec: np.ndarray  # (L, m, n)


def _build_plan(dst: QuadGrid, src: QuadGrid, sign: float) -> _ChirpPlan | None:
    """The plan of the contraction of :func:`_axis_apply` from src to dst by
    chirp-z transforms over the panel index, or None when either grid's
    panels are not uniform.

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
    models = (_panel_model(src), _panel_model(dst))
    if None in models:
        return None
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
    spec = np.fft.fft(chirp, axis=0)
    for a in (pre, post, spec):
        a.flags.writeable = False
    return _ChirpPlan(pre, post, spec.transpose(0, 2, 1))


def _grid_key(g: QuadGrid) -> tuple:
    """Every number of the grid that a plan reads, bit for bit."""
    return g.nodes_per_panel, np.concatenate([g.panel_edges, g.nodes, g.weights]).tobytes()


def _chirp_plan(dst: QuadGrid, src: QuadGrid, sign: float) -> _ChirpPlan | None:
    """The chirp-z plan from src to dst, or None for the dense route: when
    either grid has fewer than ``_CHIRP_MIN_NODES`` nodes or panels that are
    not uniform.

    Plans are kept in ``_PLANS``, keyed on the sign and every number of
    both grids, so an equal key means an equal plan, and a hit and a miss
    apply the same arrays.  The least recently used plans are dropped once
    the plans and their keys hold more than ``_PLAN_CACHE_BYTES``; a plan
    larger than that alone is applied and not kept.
    """
    if min(src.size, dst.size) < _CHIRP_MIN_NODES:
        return None
    key = (float(sign), *_grid_key(src), *_grid_key(dst))
    if key in _PLANS:
        _PLANS.move_to_end(key)
        return _PLANS[key]
    plan = _build_plan(dst, src, sign)
    if plan is not None and _entry_bytes((key, plan)) <= _PLAN_CACHE_BYTES:
        _PLANS[key] = plan
        while sum(map(_entry_bytes, _PLANS.items())) > _PLAN_CACHE_BYTES:
            _PLANS.popitem(last=False)
    return plan


def _entry_bytes(entry: tuple) -> int:
    """Bytes of a (key, plan) item of ``_PLANS``: its grid bytes and arrays."""
    key, plan = entry
    return sum(len(k) for k in key if isinstance(k, bytes)) + sum(a.nbytes for a in plan)


def _axis_chirp(arr: np.ndarray, axis: int, plan: _ChirpPlan) -> np.ndarray:
    """Apply a plan of :func:`_build_plan` along one axis: one FFT per data
    column, an (m x n) product per frequency bin, an inverse FFT and the
    post-chirp."""
    (P, n), (Q, m) = plan.pre.shape, plan.post.shape
    L = plan.spec.shape[0]
    moved = np.moveaxis(arr, axis, -1)
    flat = moved.reshape(-1, P, n)
    out = np.empty((flat.shape[0], Q, m), dtype=complex)
    # about four (L, n or m) arrays per column are live; a chunk keeps them
    # under half of _CHUNK_ELEMS entries
    step = max(1, _CHUNK_ELEMS // (8 * L * max(n, m)))
    for c in range(0, flat.shape[0], step):
        block = np.fft.fft(flat[c : c + step] * plan.pre, n=L, axis=1)  # (k, L, n)
        mixed = np.matmul(plan.spec, block.transpose(1, 2, 0))  # (L, m, k)
        back = np.fft.ifft(mixed, axis=0)[:Q]  # (Q, m, k)
        out[c : c + step] = back.transpose(2, 0, 1) * plan.post
    out = out.reshape(moved.shape[:-1] + (Q * m,))
    return np.moveaxis(out, -1, axis)


def _axis_contract(arr: np.ndarray, axis: int, dst: QuadGrid, src: QuadGrid, sign: float) -> np.ndarray:
    """One axis of a truncated transform: :func:`_axis_chirp` when
    :func:`_chirp_plan` gives a plan, else :func:`_axis_apply`.  The route
    reads the two grids alone, so a factor of a product source takes the
    route of its dense samples' columns."""
    plan = _chirp_plan(dst, src, sign)
    if plan is None:
        return _axis_apply(arr, axis, dst.nodes, src, sign)
    return _axis_chirp(arr, axis, plan)


def _sample(fn: Callable | tuple, axes: Sequence[QuadGrid]) -> list:
    """The source on each axis: one complex vector per axis, of which it is
    the outer product.  ``fn`` is a tuple of one-argument callables, one
    per axis, or on a single axis a plain callable."""
    factors = fn if isinstance(fn, tuple) else (fn,)
    if len(factors) != len(axes):
        n = len(axes)
        raise ValueError(f"a source on {n} axes needs one factor per axis: a tuple of {n} one-argument callables")
    return [np.asarray(f(g.nodes), dtype=complex) for f, g in zip(factors, axes)]


def _contract(
    vecs: Sequence[np.ndarray], dst_axes: Sequence[QuadGrid], src_axes: Sequence[QuadGrid], sign: float
) -> list:
    """The kernel exp(sign i x t) w(t) contracted with each axis's vector by
    :func:`_axis_contract`, from the source axis's nodes t to the target
    axis's nodes x; the (2 pi)^(-N/2) scale is left to the caller."""
    return [_axis_contract(v, 0, dst, src, sign) for v, dst, src in zip(vecs, dst_axes, src_axes)]


def _outer(vecs: Sequence[np.ndarray]) -> np.ndarray:
    """The dense array of per-axis vectors: their outer product."""
    return reduce(np.multiply.outer, vecs)


def fourier_on_lattice(values: np.ndarray, box: ProductGrid, lattice: ProductGrid) -> np.ndarray:
    """Truncated Fourier transform of box samples, tabulated on the lattice.

    (2 pi)^(-N/2) * integral over the box of f(t) exp(-i t.x) dt, one kernel
    contraction per axis over all columns.  The lattice's node cap bounds
    the largest table along the way, and is checked before any is formed.
    """
    if lattice.ndim != box.ndim:
        raise ValueError("lattice and box dimensions differ")
    arr = np.asarray(values, dtype=complex).reshape(box.shape)
    tables = [lattice.shape[: j + 1] + box.shape[j + 1 :] for j in range(box.ndim)]
    require_node_cap(max(map(math.prod, tables)), lattice.cap)
    for j, (dst, src) in enumerate(zip(lattice.axes, box.axes)):
        arr = _axis_contract(arr, j, dst, src, -1.0)
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


def _forward(fn: Callable | tuple, box: ProductGrid, radius: float, rate: float):
    """The source sampled on each axis of the box, the frequency box
    (-radius, radius)^N resolving times up to ``rate`` at the box's Gauss
    order, and each axis's transform onto it.  The transform is
    (2 pi)^(-N/2) times the outer product of the per-axis vectors."""
    if box.max_frequency is not None and radius > box.max_frequency * (1.0 + 1e-12):
        raise ValueError(
            f"box resolves frequencies up to {box.max_frequency:g}, "
            f"below the requested radius {radius:g}"
        )
    img = _sample(fn, box.axes)
    lattice = box_domain(
        (radius,) * box.ndim, max_frequency=rate, nodes_per_panel=box.axes[0].nodes_per_panel
    )
    return img, lattice, _contract(img, lattice.axes, box.axes, -1.0)


def _norm(vecs: Sequence[np.ndarray], grid: ProductGrid) -> float:
    """L2 norm over the grid of the outer product of per-axis vectors: the
    product of their weighted norms."""
    return math.sqrt(math.prod(float(np.sum(g.weights * np.abs(v) ** 2)) for v, g in zip(vecs, grid.axes)))


@dataclass(frozen=True)
class PlancherelNormReport:
    radius: float
    norm_time: float
    norm_freq: float

    @property
    def rel_err(self) -> float:
        return abs(self.norm_freq - self.norm_time) / self.norm_time


def plancherel_norm_check(fn: Callable | tuple, box: ProductGrid, radius: float) -> PlancherelNormReport:
    """Window L2 norm of f against the L2 norm of its truncated transform
    over the frequency box; rel_err carries truncation tails plus quadrature.

    f is a tuple of ndim one-argument callables whose product it is, or on
    a 1-D box a plain callable; it is sampled, transformed and measured one
    axis at a time.  The box must have been built with max_frequency >=
    radius; the frequency box resolves times up to the largest time
    half-width.
    """
    img, lattice, F = _forward(fn, box, radius, max(box.half_widths))
    return PlancherelNormReport(
        radius=radius,
        norm_time=_norm(img, box),
        norm_freq=_norm(F, lattice) * _TWO_PI ** (-box.ndim / 2.0),
    )


@dataclass(frozen=True)
class MutualInverseReport:
    radius: float
    n_probes: int
    max_abs_err: float


def default_probes(box: ProductGrid) -> list:
    """Per-axis probe grids strictly inside the box: about _N_PROBES probes
    in all (7 x 7 in 2-D), k per axis at ``linspace(-0.9 a_j, 0.9 a_j, k)``.

    Each axis is a grid of k equal panels with one Gauss node each, so its
    nodes are the panel midpoints, the linspace points up to rounding, and
    the back-evaluation onto it can take the chirp-z route.
    """
    per_axis = max(2, int(round(_N_PROBES ** (1.0 / box.ndim))))
    grids = []
    for a in box.half_widths:
        d = 1.8 * a / (per_axis - 1)
        grids.append(build_grid(make_interval(-0.9 * a - d / 2, 0.9 * a + d / 2), per_axis, 1))
    return grids


def _back_evaluate(F: Sequence[np.ndarray], lattice: ProductGrid, probes: Sequence[QuadGrid]) -> np.ndarray:
    """``transform_at`` with ``sign=+1`` of the transform whose per-axis
    vectors :func:`_forward` returns as F, at the tensor lattice of the
    probe grids' nodes: each axis by :func:`_axis_contract`, then the outer
    product times both transforms' (2 pi)^(-N/2).  The result has one axis
    per probe axis."""
    return _outer(_contract(F, probes, lattice.axes, +1.0)) * _TWO_PI ** -len(probes)


def mutual_inverse_check(fn: Callable | tuple, box: ProductGrid, radius: float) -> MutualInverseReport:
    """Forward then conjugate transform, compared with f at the
    :func:`default_probes` lattice.

    The conjugate transform runs over the truncated frequency box, so the
    discrepancy carries the inversion tail (roughly 1/radius scaled by the
    smoothness of f) on top of quadrature error.  It is evaluated one axis
    at a time, on each axis's transform vector, by the same per-axis
    contraction as the forward transform: the dense sum of
    :func:`transform_at` onto fewer than ``_CHIRP_MIN_NODES`` probes an
    axis, else the chirp-z route.  f and the frequency box are those of
    :func:`plancherel_norm_check`; the reference values are the outer
    product of the factors' values on the probe axes.
    """
    _, lattice, F = _forward(fn, box, radius, max(box.half_widths))
    probes = default_probes(box)
    back = _back_evaluate(F, lattice, probes)
    ref = _outer(_sample(fn, probes))
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
    fn: Callable | tuple, box: ProductGrid, radius: float, t: Sequence[float]
) -> BoxInversionReport:
    """Indefinite-integral inversion identity on a box.

    lhs integrates f over (0, t_1) x ... x (0, t_N) by fresh quadrature,
    one axis at a time (f as in :func:`plancherel_norm_check`); rhs pushes
    the box-truncated transform of f back through the product of indicator
    transforms:

        (2 pi)^(-N/2) * integral of F(x) prod_j (exp(i t_j x_j) - 1)/(i x_j) dx

    over the frequency box, which resolves times up to twice the largest
    time half-width.  Each indicator integral is a dot product with its
    axis's transform vector.  Their gap carries the O(1/radius) tail.
    """
    ts = tuple(float(v) for v in t)
    if len(ts) != box.ndim:
        raise ValueError("t arity must match the box dimension")
    for tj, a in zip(ts, box.half_widths):
        if not 0.0 < tj < a:
            raise ValueError("t must lie strictly inside the positive box")

    _, lattice, F = _forward(fn, box, radius, 2.0 * max(box.half_widths))
    axes = [build_grid(make_interval(0.0, tj), 16, 16) for tj in ts]
    lhs = math.prod(integrate(g, v) for g, v in zip(axes, _sample(fn, axes)))
    # each axis integrates against its weighted indicator transform
    dots = (np.dot(indicator_hat(tj, g.nodes) * g.weights, v) for tj, g, v in zip(ts, lattice.axes, F))
    rhs = complex(math.prod(dots) * _TWO_PI ** -box.ndim)
    return BoxInversionReport(radius=radius, t=ts, lhs=lhs, rhs=rhs)
