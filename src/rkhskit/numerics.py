"""Quadrature substrate: intervals over the extended reals, composite
Gauss-Legendre grids, their Cartesian products, and weighted complex inner
products.

Extended reals are represented as plain IEEE floats, so ``math.inf`` and
``-math.inf`` are legal interval endpoints.  Only comparison and the median
are ever applied to endpoints (no infinite arithmetic); an infinite interval
must be truncated (:func:`truncate_line`) before a grid can live on it.

Grids carry three aligned arrays: nodes, plain quadrature weights for
integration against ``dt``, and samples of a positive weight function ``rho``
used by the weighted inner product.  The panel decomposition is kept around
so per-panel polynomial operations (interpolation, differentiation,
cumulative integration) remain available after construction.

A :class:`ProductGrid` is the one multi-axis grid: a time box, a frequency
lattice and the grid of a tensor feature map are all products of
one-dimensional grids.  It keeps only the axes; the flattened nodes,
weights and weight samples (row-major, last axis fastest) are built on
first use, so per-axis consumers such as the Fourier contractions never
pay for them.  Its node cap is enforced where a dense array over it is
formed (:meth:`ProductGrid.require_dense`); :func:`product_grid` also
refuses a grid above its cap at once.

Scalar pairings are summed by :func:`fsum_complex`, the correctly rounded
sum of each part (``math.fsum``), which does not depend on the order of
the terms, so repeated runs agree bit for bit.  Long parts first go
through vectorized error-free extraction, which reduces them without
error to a few terms of the same exact sum; ``math.fsum`` rounds that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, lru_cache, reduce
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre

__all__ = [
    "Interval",
    "QuadGrid",
    "ProductGrid",
    "HVector",
    "med3",
    "make_interval",
    "truncate_line",
    "build_grid",
    "product_grid",
    "require_node_cap",
    "PRODUCT_NODE_CAP",
    "sample",
    "integrate",
    "inner_weighted",
    "inner_weighted_matrix",
    "norm_weighted",
    "fsum_complex",
    "panels_for_oscillation",
    "cumulative_integral",
    "derivative_values",
]


def med3(x: float, y: float, z: float) -> float:
    """Median of three extended reals: the middle value of the sorted triple."""
    if math.isnan(x) or math.isnan(y) or math.isnan(z):
        raise ValueError("median of NaN is undefined")
    return sorted((float(x), float(y), float(z)))[1]


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi) with lo <= hi; empty exactly when lo == hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("NaN endpoint")
        if self.lo > self.hi:
            raise ValueError("endpoints out of order; use make_interval")

    @property
    def empty(self) -> bool:
        return self.lo == self.hi

    @property
    def finite(self) -> bool:
        """Both endpoints and the length hi - lo are finite floats."""
        return math.isfinite(self.hi - self.lo)

    @property
    def length(self) -> float:
        return 0.0 if self.empty else self.hi - self.lo


def make_interval(a: float, b: float) -> Interval:
    """Open interval between two extended reals taken in either order.

    ``make_interval(a, b)`` with ``a < b`` is the usual open interval,
    ``a == b`` gives the empty set, and reversed endpoints give the set of
    points strictly between ``b`` and ``a``.  In particular the endpoints
    may be infinite: ``make_interval(math.inf, -math.inf)`` is the whole
    line.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("NaN endpoint")
    a, b = float(a), float(b)
    return Interval(a, b) if a <= b else Interval(b, a)


def truncate_line(radius: float) -> Interval:
    """Symmetric finite window (-radius, radius) standing in for the line."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive and finite")
    return Interval(-float(radius), float(radius))


@dataclass(frozen=True, eq=False)
class QuadGrid:
    """Composite Gauss-Legendre discretization of a finite open interval."""

    interval: Interval
    nodes: np.ndarray
    weights: np.ndarray
    rho_at_nodes: np.ndarray
    panel_edges: np.ndarray
    nodes_per_panel: int

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def n_panels(self) -> int:
        return self.panel_edges.size - 1

    def compatible_with(self, other: object) -> bool:
        """True when the two grids are interchangeable node for node."""
        if self is other:
            return True
        return (
            type(other) is QuadGrid
            and self.nodes_per_panel == other.nodes_per_panel
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.rho_at_nodes, other.rho_at_nodes)
        )


# size limits of one grid, checked before anything is allocated: as many
# nodes as the largest Fourier box (plancherel.BOX_NODE_CAP), and Gauss
# orders whose (n x n) Vandermonde matrix stays small
_GRID_NODE_CAP = 10 ** 7
_MAX_GAUSS_ORDER = 128


@lru_cache(maxsize=64)
def _gauss_rule(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes, weights and Vandermonde matrix
    ``legvander(nodes, n - 1)`` of order n, built once per order."""
    xi, om = legendre.leggauss(n)
    return tuple(_frozen(arr) for arr in (xi, om, legendre.legvander(xi, n - 1)))


def build_grid(
    interval: Interval,
    panels: int,
    nodes_per_panel: int,
    rho: Callable | None = None,
    breakpoints: Sequence[float] = (),
) -> QuadGrid:
    """Build a composite Gauss-Legendre grid on a finite nonempty interval.

    Parameters
    ----------
    interval:
        Finite, nonempty open interval.  Infinite intervals must go through
        :func:`truncate_line` first.
    panels:
        Panel budget.  Panels are spread over the segments cut by
        ``breakpoints`` proportionally to length, at least one per segment,
        so the realized count can slightly exceed the request.
    nodes_per_panel:
        Gauss-Legendre order per panel; polynomials of degree up to
        ``2 * nodes_per_panel - 1`` are integrated exactly panelwise.
        At most 128, and (panels + segments) * nodes_per_panel <= 10^7.
    rho:
        Optional vectorized weight function, called once on the node
        array; it must return one finite, strictly positive value per
        node.  Defaults to 1.
    breakpoints:
        Interior points forced onto panel boundaries, so that indicator
        factors switching there are constant on every panel.
    """
    if interval.empty:
        raise ValueError("cannot build a grid on an empty interval")
    if not interval.finite:
        raise ValueError("requires truncated interval")
    if panels < 1 or nodes_per_panel < 1:
        raise ValueError("panels and nodes_per_panel must be positive")
    if nodes_per_panel > _MAX_GAUSS_ORDER:
        raise ValueError(f"nodes_per_panel {nodes_per_panel} exceeds the limit of {_MAX_GAUSS_ORDER}")

    lo, hi = interval.lo, interval.hi
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    # no segment gets more than one panel beyond its share of the budget;
    # that bound is checked in integers, before any float product
    size = (panels + len(cuts) + 1) * nodes_per_panel
    if size > _GRID_NODE_CAP:
        raise ValueError(f"grid of up to {Decimal(size):.3g} nodes exceeds the limit of {_GRID_NODE_CAP:.0e}")
    seg_edges = np.array([lo, *cuts, hi])
    seg_len = np.diff(seg_edges)
    counts = np.maximum(1.0, np.rint(panels * seg_len / (hi - lo))).astype(int)
    pieces = [
        np.linspace(left, right, k + 1)[:-1]
        for left, right, k in zip(seg_edges[:-1], seg_edges[1:], counts)
    ]
    panel_edges = np.append(np.concatenate(pieces), hi)

    xi, om, _ = _gauss_rule(nodes_per_panel)
    lefts = panel_edges[:-1, None]
    widths = np.diff(panel_edges)[:, None]
    nodes = (lefts + widths * (xi + 1.0) / 2.0).ravel()
    weights = (widths * om / 2.0).ravel()

    rho_vals = np.ones_like(nodes) if rho is None else np.asarray(rho(nodes), dtype=float)
    if rho_vals.shape != nodes.shape:
        raise ValueError("weight function must return one value per node")
    if not np.all(np.isfinite(rho_vals)) or np.any(rho_vals <= 0.0):
        raise ValueError("invalid weight function")

    for arr in (nodes, weights, rho_vals, panel_edges):
        arr.setflags(write=False)
    return QuadGrid(interval, nodes, weights, rho_vals, panel_edges, nodes_per_panel)


PRODUCT_NODE_CAP = 10 ** 6


def require_node_cap(size: int, cap: int) -> None:
    """Refuse (ValueError) a dense array over ``size`` grid nodes above ``cap``."""
    if size > cap:
        raise ValueError(f"product grid would hold {size} nodes, above the cap {cap}")


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """Cartesian product of one-dimensional grids, row-major node ordering.

    ``max_frequency`` records the largest conjugate variable the axes were
    built to resolve: frequencies for a time box, times for a frequency
    box; None when unknown.  ``cap`` bounds the nodes of any dense array
    over the grid: the mesh, the flattened nodes, weights and weight
    samples, and the callers' own dense arrays (:meth:`require_dense`).
    """

    axes: tuple
    max_frequency: float | None = None
    cap: int = PRODUCT_NODE_CAP

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(g.size for g in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def half_widths(self) -> tuple:
        return tuple(g.interval.hi for g in self.axes)

    def require_dense(self) -> None:
        """Refuse (ValueError) a dense array over the grid above its cap."""
        require_node_cap(self.size, self.cap)

    def mesh(self) -> list:
        """Per-axis node coordinates broadcast to the full grid shape."""
        self.require_dense()
        return np.meshgrid(*[g.nodes for g in self.axes], indexing="ij")

    @cached_property
    def nodes(self) -> np.ndarray:
        """(size, ndim) array of node coordinates."""
        return _frozen(np.stack([m.ravel() for m in self.mesh()], axis=-1))

    @cached_property
    def weights(self) -> np.ndarray:
        self.require_dense()
        return _frozen(reduce(np.kron, [g.weights for g in self.axes]))

    @cached_property
    def rho_at_nodes(self) -> np.ndarray:
        self.require_dense()
        return _frozen(reduce(np.kron, [g.rho_at_nodes for g in self.axes]))

    def compatible_with(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(other) is ProductGrid
            and self.ndim == other.ndim
            and all(a.compatible_with(b) for a, b in zip(self.axes, other.axes))
        )


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def product_grid(
    grids: Sequence[QuadGrid], cap: int = PRODUCT_NODE_CAP, max_frequency: float | None = None
) -> ProductGrid:
    """Product of one-dimensional grids, refused when it would hold more
    than ``cap`` nodes."""
    axes = tuple(grids)
    if not axes:
        raise ValueError("need at least one factor grid")
    grid = ProductGrid(axes, None if max_frequency is None else float(max_frequency), cap)
    grid.require_dense()
    return grid


@dataclass(frozen=True, eq=False)
class HVector:
    """Samples of a square-integrable function at the nodes of a grid."""

    grid: QuadGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError("values length must match grid")
        object.__setattr__(self, "values", vals)


def sample(grid: QuadGrid, fn: Callable) -> HVector:
    """Sample a vectorized callable at the grid nodes (one call on the
    node array, which must return one value per node)."""
    return HVector(grid, fn(grid.nodes))


_FSUM_CUTOFF = 300  # parts shorter than this go to math.fsum whole (measured crossover)
_FSUM_BLOCK = 1 << 14  # terms per extraction block, which bounds the temporaries
_FSUM_LEVELS = 3  # extraction levels per block before its remainders go to math.fsum
_FSUM_HUGE = 2.0 ** 900  # from here up (and for inf, nan) math.fsum takes the whole part


def _fsum_real(part: np.ndarray) -> float:
    """``math.fsum(part)``, with long parts first reduced, without error, to
    a few terms of the same exact sum.

    Each block takes ExtractVector (Rump, Ogita and Oishi, Accurate
    floating-point summation part I, SIAM J. Sci. Comput. 31(1), 2008):
    with ``|x| < 2^e`` and ``sigma = 2^(e + M)``, ``2^M >= len + 2``, the high
    parts ``q = (sigma + x) - sigma`` are multiples of ``2^-53 sigma``
    whose sum stays below ``sigma``, so ``sum(q)`` is exact in any order,
    and so is ``x - q``.  Each level shrinks the remainders by ``2^(M - 53)``.
    """
    if part.size < _FSUM_CUTOFF:
        return math.fsum(part)
    heads: list[float] = []
    x = np.empty(min(part.size, _FSUM_BLOCK))
    q = np.empty_like(x)
    for start in range(0, part.size, _FSUM_BLOCK):
        block = part[start:start + _FSUM_BLOCK]
        xb, qb = x[:block.size], q[:block.size]
        xb[...] = block
        shift = (block.size + 1).bit_length()  # ceil(log2(len + 2))
        m = max(xb.max(), -xb.min())
        if not m < _FSUM_HUGE:
            # non-finite or near overflow: math.fsum's own exceptions and
            # order-dependent intermediate overflow
            return math.fsum(part)
        for _ in range(_FSUM_LEVELS):
            if m == 0:
                break
            sigma = math.ldexp(1.0, math.frexp(m)[1] + shift)
            np.add(xb, sigma, out=qb)
            qb -= sigma
            heads.append(float(qb.sum()))
            xb -= qb
            m = max(xb.max(), -xb.min())
        if m:
            heads.extend(xb[xb != 0].tolist())
    return math.fsum(heads)


def fsum_complex(terms: np.ndarray) -> complex:
    """Correctly rounded sum of complex terms, part by part: exactly
    ``complex(math.fsum(re), math.fsum(im))``, so it does not depend on the
    order of the terms.  Long parts are first reduced by vectorized
    error-free extraction (:func:`_fsum_real`)."""
    arr = np.asarray(terms, dtype=complex).ravel()
    return complex(_fsum_real(arr.real), _fsum_real(arr.imag))


def _require_same_grid(f: HVector, g: HVector) -> None:
    if not f.grid.compatible_with(g.grid):
        raise ValueError("vectors live on different grids")


def integrate(grid: QuadGrid | ProductGrid, values) -> complex:
    """Integral of node samples against dt; the weight rho is not applied."""
    if isinstance(values, HVector):
        if not values.grid.compatible_with(grid):
            raise ValueError("vector lives on a different grid")
        vals = values.values
    else:
        vals = np.asarray(values)
        if vals.shape != (grid.size,):
            raise ValueError("values length must match grid")
    return fsum_complex(vals * grid.weights)


def inner_weighted(f: HVector, g: HVector) -> complex:
    """Weighted inner product sum_i f_i conj(g_i) rho_i w_i.

    Conjugate-linear in the second argument.  Summed by
    :func:`fsum_complex`, correctly rounded, so repeated runs agree bit
    for bit.
    """
    _require_same_grid(f, g)
    return fsum_complex(f.values * np.conj(g.values) * (f.grid.rho_at_nodes * f.grid.weights))


def inner_weighted_matrix(grid: QuadGrid | ProductGrid, rows, others) -> np.ndarray:
    """Entry (i, j) is :func:`inner_weighted` of ``rows[i]`` and ``others[j]``
    (node values, (m, N) and (n, N)), all in one matrix product summed in
    BLAS order; a 1-D argument is one vector and drops its axis."""
    return (np.asarray(rows) * (grid.rho_at_nodes * grid.weights)) @ np.conj(others).T


def norm_weighted(f: HVector) -> float:
    """Weighted L2 norm of a grid vector."""
    return math.sqrt(max(inner_weighted(f, f).real, 0.0))


def panels_for_oscillation(length: float, rate: float, minimum: int = 1) -> int:
    """Panel count keeping panel width below pi/(4*rate).

    ``rate`` is the largest angular frequency of any ``exp(i * rate * t)``
    factor in the integrand; the bound keeps well under a quarter period
    per panel so Gauss panels stay in their superconvergent regime.
    """
    if rate <= 0:
        return max(1, minimum)
    count = 4.0 * rate * length / math.pi
    if not math.isfinite(count):
        raise ValueError(f"panel count for rate {rate:g} over length {length:g} is not finite")
    return max(minimum, math.ceil(count))


def _panel_coeffs(grid: QuadGrid, values) -> np.ndarray:
    """Legendre coefficients of the per-panel interpolant, shape (n, panels),
    or (n, rows, panels) for an (rows, N) stack of samples.

    With n Gauss nodes per panel the discrete transform recovers the
    coefficients of any polynomial of degree n-1 exactly.
    """
    n = grid.nodes_per_panel
    _, om, V = _gauss_rule(n)
    v = np.asarray(values, dtype=complex)
    v = v.reshape(v.shape[:-1] + (grid.n_panels, n))
    coeffs = ((v * om) @ V) * ((2.0 * np.arange(n) + 1.0) / 2.0)
    return np.moveaxis(coeffs, -1, 0)


def derivative_values(grid: QuadGrid, values) -> np.ndarray:
    """Derivative of the per-panel interpolant evaluated at the grid nodes.

    Spectrally accurate for integrands smooth within each panel; this is
    the route to first-derivative norms that avoids finite differencing.
    """
    n = grid.nodes_per_panel
    if n < 2:
        raise ValueError("need at least 2 nodes per panel to differentiate")
    xi = _gauss_rule(n)[0]
    C = _panel_coeffs(grid, values)
    D = legendre.legval(xi, legendre.legder(C, axis=0), tensor=True)
    widths = np.diff(grid.panel_edges)
    return (D * (2.0 / widths)[:, None]).ravel()


def cumulative_integral(grid: QuadGrid, values) -> Callable:
    """Primitive F with F(x) = integral of the samples from interval.lo to x.

    Whole panels contribute their Gauss integrals; the trailing partial
    panel is integrated through the interpolant's Legendre antiderivative,
    so F is quadrature-grade accurate anywhere in the closed interval, not
    just at panel edges.  The returned callable accepts scalars or arrays.

    ``values`` is one row of N node samples, or an (rows, N) stack of them;
    the primitive of a stack returns one row per sample row, (rows,) at a
    scalar and (rows, len(x)) at an array, each row the same numbers as
    the primitive of that row alone.
    """
    C = _panel_coeffs(grid, values)
    Cint = legendre.legint(C, lbnd=-1, axis=0)
    widths = np.diff(grid.panel_edges)
    steps = np.cumsum(widths * C[0], axis=-1)
    prefix = np.concatenate((np.zeros(steps.shape[:-1] + (1,), dtype=complex), steps), axis=-1)
    edges = grid.panel_edges
    lo, hi = grid.interval.lo, grid.interval.hi
    slack = 1e-12 * (hi - lo)

    def primitive(x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if np.any(xs < lo - slack) or np.any(xs > hi + slack):
            raise ValueError("evaluation point outside the grid interval")
        idx = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, widths.size - 1)
        t = np.clip(2.0 * (xs - edges[idx]) / widths[idx] - 1.0, -1.0, 1.0)
        part = (widths[idx] / 2.0) * legendre.legval(t, Cint[..., idx], tensor=False)
        out = prefix[..., idx] + part
        if not scalar:
            return out
        return complex(out[0]) if out.ndim == 1 else out[:, 0]

    return primitive
