"""Quadrature substrate: intervals over the extended reals, composite
Gauss-Legendre grids, their Cartesian products, and weighted complex inner
products.

Extended reals are represented as plain IEEE floats, so ``math.inf`` and
``-math.inf`` are legal interval endpoints.  Only comparisons are ever
applied to endpoints (no infinite arithmetic); an infinite interval must
be truncated (:func:`truncate_line`) before a grid can live on it.

Grids carry three aligned arrays: nodes, plain quadrature weights for
integration against ``dt``, and samples of a positive weight function ``rho``
used by the weighted inner product.  The panel decomposition is kept around
so per-panel polynomial operations (interpolation, differentiation,
cumulative integration) remain available after construction.  A sum over
a long window that needs only nodes and weights can walk the same grid a
block of panels at a time instead (:func:`_gauss_panel_blocks`), so that
the grid is never stored, only its panel edges.

Grids are values: :attr:`QuadGrid.key`, the Gauss order and the bytes of
every array, is a grid's one identity.  Vectors pair only on equal grids,
and the chirp-z plans of :mod:`rkhskit.plancherel` are cached by key.

A :class:`ProductGrid` is the one multi-axis grid: a time box, a frequency
lattice and the grid of a tensor feature map are all products of
one-dimensional grids.  It keeps only the axes; the flattened nodes,
weights and weight samples (row-major, last axis fastest) are built on
first use, so per-axis consumers such as the Fourier contractions never
pay for them.  A dense array over any product holds at most ``NODE_CAP``
(10^7, also the limit of one grid) nodes, refused where it is formed
(:meth:`ProductGrid.require_dense`); :func:`product_grid`, the grid of a
tensor feature map, also refuses a product above ``PRODUCT_NODE_CAP``
(10^6) at once.

Scalar pairings are plain numpy sums: :func:`integrate` and
:func:`inner_weighted` form their terms elementwise and add them with
``ndarray.sum`` (numpy's pairwise sum).  A stack of pairings sums each row
the same way, so each entry keeps the bits of its single call.  The
result depends on the order of the terms and on the numpy build, not on
the run: one build on one machine gives the same bits every time.
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
    "make_interval",
    "truncate_line",
    "build_grid",
    "product_grid",
    "require_node_cap",
    "NODE_CAP",
    "PRODUCT_NODE_CAP",
    "sample",
    "integrate",
    "inner_weighted",
    "inner_weighted_matrix",
    "norm_weighted",
    "panels_for_oscillation",
    "cumulative_integral",
    "derivative_values",
]


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

    @property
    def interval(self) -> Interval:
        """The interval between the outer panel edges."""
        return Interval(float(self.panel_edges[0]), float(self.panel_edges[-1]))

    @cached_property
    def key(self) -> tuple:
        """Gauss order and the bytes of the panel edges, nodes, weights and
        weight samples, formed once per grid."""
        arrays = (self.panel_edges, self.nodes, self.weights, self.rho_at_nodes)
        return self.nodes_per_panel, np.concatenate(arrays).tobytes()

    @cached_property
    def rho_weights(self) -> np.ndarray:
        """``rho_at_nodes * weights``, the factor of every weighted pairing,
        formed once per grid and read-only."""
        return _frozen(self.rho_at_nodes * self.weights)

    def __eq__(self, other: object) -> bool:
        if type(other) is not QuadGrid:
            return NotImplemented
        return self is other or self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


# size limits, checked before anything is allocated: the nodes of one grid
# or of a Fourier box, and Gauss orders whose (n x n) Vandermonde matrix
# stays small
NODE_CAP = 10 ** 7
_MAX_GAUSS_ORDER = 128


@lru_cache(maxsize=64)
def _gauss_rule(n: int) -> tuple:
    """Read-only Gauss-Legendre nodes, weights and Vandermonde matrix
    ``legvander(nodes, n - 1)`` of order n, and the rule on the unit
    panel, (nodes + 1) / 2 and weights / 2, built once per order."""
    xi, om = legendre.leggauss(n)
    arrays = (xi, om, legendre.legvander(xi, n - 1), (xi + 1.0) / 2.0, om / 2.0)
    return tuple(_frozen(arr) for arr in arrays)


def _require_grid(interval: Interval, panels: int, nodes_per_panel: int, segments: int = 1) -> None:
    """Refuse (ValueError) what :func:`build_grid` cannot build: an empty or
    infinite interval, a panel count or Gauss order out of range, or more
    than ``NODE_CAP`` nodes over ``segments`` segments."""
    if interval.empty:
        raise ValueError("cannot build a grid on an empty interval")
    if not interval.finite:
        raise ValueError("requires truncated interval")
    if panels < 1 or nodes_per_panel < 1:
        raise ValueError("panels and nodes_per_panel must be positive")
    if nodes_per_panel > _MAX_GAUSS_ORDER:
        raise ValueError(f"nodes_per_panel {nodes_per_panel} exceeds the limit of {_MAX_GAUSS_ORDER}")
    # no segment gets more than one panel beyond its share of the budget;
    # that bound is checked in integers, before any float product
    size = (panels + segments) * nodes_per_panel
    if size > NODE_CAP:
        raise ValueError(f"grid of up to {Decimal(size):.3g} nodes exceeds the limit of {NODE_CAP:.0e}")


def _gauss_panels(edges: np.ndarray, nodes_per_panel: int) -> tuple:
    """Nodes and weights of the Gauss rule of order ``nodes_per_panel`` on
    each panel between consecutive ``edges``, panel after panel (halving
    is exact, so these are the bits of ``lefts + widths * (xi + 1) / 2``)."""
    u, h = _gauss_rule(nodes_per_panel)[3:]
    widths = np.diff(edges)[:, None]
    return (widths * u + edges[:-1, None]).ravel(), (widths * h).ravel()


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
    lo, hi = interval.lo, interval.hi
    cuts = sorted({float(b) for b in breakpoints if lo < b < hi})
    _require_grid(interval, panels, nodes_per_panel, len(cuts) + 1)
    seg_edges = np.array([lo, *cuts, hi])
    seg_len = np.diff(seg_edges)
    counts = np.maximum(1.0, np.rint(panels * (seg_len / (hi - lo)))).astype(int)
    pieces = [
        np.linspace(left, right, k + 1)[:-1]
        for left, right, k in zip(seg_edges[:-1], seg_edges[1:], counts)
    ]
    panel_edges = np.append(np.concatenate(pieces), hi)
    nodes, weights = _gauss_panels(panel_edges, nodes_per_panel)

    rho_vals = np.ones_like(nodes) if rho is None else np.asarray(rho(nodes), dtype=float)
    if rho_vals.shape != nodes.shape:
        raise ValueError("weight function must return one value per node")
    if not np.all(np.isfinite(rho_vals)) or np.any(rho_vals <= 0.0):
        raise ValueError("invalid weight function")

    for arr in (nodes, weights, rho_vals, panel_edges):
        arr.setflags(write=False)
    return QuadGrid(nodes, weights, rho_vals, panel_edges, nodes_per_panel)


def _gauss_panel_blocks(interval: Interval, panels: int, nodes_per_panel: int, block_panels: int):
    """The nodes and weights of ``build_grid(interval, panels,
    nodes_per_panel)``, bit for bit, ``block_panels`` panels at a time.

    Returns an iterator of (nodes, weights) pairs whose concatenation is
    the grid's, so that a sum over a long window never stores it: only
    its panel edges, ``np.linspace(lo, hi, panels + 1)`` as in
    :func:`build_grid`, are held, at 8 bytes a panel.  What
    :func:`build_grid` refuses is refused here, with the same message, at
    the call rather than at the first block.
    """
    _require_grid(interval, panels, nodes_per_panel)
    edges = np.linspace(interval.lo, interval.hi, panels + 1)
    return (
        _gauss_panels(edges[p0 : p0 + block_panels + 1], nodes_per_panel)
        for p0 in range(0, panels, block_panels)
    )


PRODUCT_NODE_CAP = 10 ** 6


def require_node_cap(size: int, cap: int) -> None:
    """Refuse (ValueError) a dense array over ``size`` grid nodes above ``cap``."""
    if size > cap:
        raise ValueError(f"product grid would hold {size} nodes, above the cap {cap}")


@dataclass(frozen=True)
class ProductGrid:
    """Cartesian product of one-dimensional grids, row-major node ordering.

    A product is its axes: products with equal axes are equal.  Any dense
    array over it, the mesh, the flattened nodes, weights and weight
    samples and the callers' own (:meth:`require_dense`), is refused above
    ``NODE_CAP`` nodes.
    """

    axes: tuple

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("need at least one factor grid")

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
        """Refuse (ValueError) a dense array over the grid above ``NODE_CAP``."""
        require_node_cap(self.size, NODE_CAP)

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
        return _frozen(reduce(np.multiply.outer, [g.weights for g in self.axes]).ravel())

    @cached_property
    def rho_at_nodes(self) -> np.ndarray:
        self.require_dense()
        return _frozen(reduce(np.multiply.outer, [g.rho_at_nodes for g in self.axes]).ravel())

    rho_weights = QuadGrid.rho_weights


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def product_grid(grids: Sequence[QuadGrid]) -> ProductGrid:
    """Product of one-dimensional grids, refused when it would hold more
    than ``PRODUCT_NODE_CAP`` nodes."""
    grid = ProductGrid(tuple(grids))
    require_node_cap(grid.size, PRODUCT_NODE_CAP)
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


def _require_same_grid(f: HVector, g: HVector) -> None:
    if f.grid != g.grid:
        raise ValueError("vectors live on different grids")


def integrate(grid: QuadGrid | ProductGrid, values) -> complex:
    """Integral of node samples against dt; the weight rho is not applied."""
    vals = np.asarray(values)
    if vals.shape != (grid.size,):
        raise ValueError("values length must match grid")
    return complex((vals * grid.weights).sum())


def inner_weighted(f: HVector, g: HVector) -> complex:
    """Weighted inner product sum_i f_i conj(g_i) rho_i w_i.

    Conjugate-linear in the second argument.  The terms are formed
    elementwise and summed by numpy's pairwise sum, so repeated runs on
    one numpy build agree bit for bit.
    """
    _require_same_grid(f, g)
    return complex(_inner_weighted_rows(f.grid, f.values, g.values)[0])


def _inner_weighted_rows(grid: QuadGrid | ProductGrid, rows, others) -> np.ndarray:
    """Entry i is :func:`inner_weighted` of ``rows[i]`` and ``others[i]``
    (complex node values, (R, N) each, or one vector (N,) paired with every
    row of the other), each entry formed and summed as the single pairing
    is; conj(others), rows times it and the weights are formed in place in
    one buffer."""
    terms = np.empty(np.broadcast(rows, others).shape, dtype=complex)
    np.multiply(rows, np.conjugate(others, out=terms), out=terms)
    terms *= grid.rho_weights
    return terms.reshape(-1, grid.size).sum(axis=1)


def inner_weighted_matrix(grid: QuadGrid | ProductGrid, rows, others) -> np.ndarray:
    """Entry (i, j) is :func:`inner_weighted` of ``rows[i]`` and ``others[j]``
    (node values, (m, N) and (n, N)), all in one matrix product summed in
    BLAS order; a 1-D argument is one vector and drops its axis."""
    return (np.asarray(rows) * grid.rho_weights) @ np.conj(others).T


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
    _, om, V = _gauss_rule(n)[:3]
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
