"""Concrete Hilbert-space families and their kernels.

Two families carry most of the weight: first-order weighted Sobolev spaces
on an interval (members vanish at an anchor point, the norm is the weighted
L2 norm of the derivative) and bandlimited spaces with the sine-quotient
kernel, whose sections are paired all at once on one window grid
(:func:`sinc_gram`).  Tensor products of feature maps close the set under
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    HVector,
    Interval,
    QuadGrid,
    _gauss_panel_blocks,
    build_grid,
    cumulative_integral,
    derivative_values,
    integrate,
    make_interval,
    norm_weighted,
    panels_for_oscillation,
    product_grid,
    truncate_line,
)
from .transforms import FeatureMap

__all__ = [
    "Weight",
    "RHO_REGISTRY",
    "SobolevSpace",
    "PaleyWienerSpace",
    "sinc_ratio",
    "sinc_gram",
    "tensor_feature",
    "tensor_kernel",
]


@dataclass(frozen=True)
class Weight:
    """A weight rho with a primitive of 1/rho, so that Sobolev kernels under
    it come in closed form; calling it samples rho.  Both callables are
    applied to arrays; the primitive may return inf or NaN where 1/rho is
    not integrable."""

    rho: Callable
    inv_primitive: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.rho(t)


RHO_REGISTRY: dict[str, Weight] = {
    "const": Weight(lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: t),
    "affine": Weight(lambda t: 1.0 + np.asarray(t, dtype=float), np.log1p),
}

_SINC_BLOCK = 1 << 13  # quadrature nodes per block of the sinc Gram sum
_SINC_BAND = 0.5  # |a (t - x)| up to which sinc_gram keeps the direct quotient
_OSC_ORDER = 16  # Gauss nodes per panel of the sinc window and Paley-Wiener grids
_OSC_PHASE = 2.0 * math.pi  # phase of the integrand's top frequency across one such panel


def _oscillation_panels(interval: Interval, rate: float, minimum: int) -> int:
    """Number of ``_OSC_ORDER``-node panels on ``interval``, each spanning at
    most ``_OSC_PHASE`` of an integrand whose top angular frequency is
    ``rate``, and at least ``minimum`` of them.

    :func:`panels_for_oscillation` keeps a phase of pi/4 of its rate per
    panel, so it is handed ``rate * (pi/4) / _OSC_PHASE`` (rate / 8, exactly).
    Measured against the Paley-Wiener closed kernel and against the sinc
    Gram on four times the nodes, 16-node panels still hold at 4 pi per
    panel and first lose accuracy at 8 pi, four times the phase used here;
    8-node panels lose it at 2 pi.
    """
    return panels_for_oscillation(interval.length, rate * (math.pi / 4.0 / _OSC_PHASE), minimum)


def _oscillation_grid(interval: Interval, rate: float, minimum: int) -> QuadGrid:
    """Gauss grid of the panels of :func:`_oscillation_panels`."""
    return build_grid(interval, _oscillation_panels(interval, rate, minimum), _OSC_ORDER)


class SobolevSpace:
    """Absolutely continuous functions vanishing at an anchor c, with
    derivative in the rho-weighted L2 space of a finite open interval.

    The kernel at (x, y) is the integral of 1/rho over the interval from c
    to the median of {x, y, c}.  A :class:`Weight` (every registry weight)
    carries a primitive P of 1/rho, and the kernel is then |P(med) - P(c)|;
    any other weight is integrated by Gauss quadrature with the space's
    ``panels`` and ``nodes_per_panel``.  Features are the scaled indicators
    chi_(c,x)/rho, so transforms and evaluations are small quadratures.
    Integrability of 1/rho toward c is checked at grid resolution only: a
    weight that fails it shows up as kernel values that keep growing as
    ``panels`` is refined rather than as a constructor error.
    """

    def __init__(
        self,
        interval: Interval,
        c: float,
        rho: Callable | None = None,
        *,
        panels: int = 32,
        nodes_per_panel: int = 16,
    ) -> None:
        if interval.empty or not interval.finite:
            raise ValueError("need a finite nonempty interval; truncate first")
        if not (math.isfinite(c) and interval.lo <= c <= interval.hi):
            raise ValueError("anchor c must be finite and lie in the closed interval")
        self.interval = interval
        self.c = float(c)
        self.rho = RHO_REGISTRY["const"] if rho is None else rho
        self.panels = int(panels)
        self.nodes_per_panel = int(nodes_per_panel)
        self.grid = build_grid(interval, panels, nodes_per_panel, self.rho, breakpoints=(self.c,))
        if not np.all(np.isfinite(1.0 / self.grid.rho_at_nodes)):
            raise ValueError("invalid weight function")

    def _require_points(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        if not ((self.interval.lo <= x) & (x <= self.interval.hi)).all():
            raise ValueError("point outside the interval")
        return x

    def kernel(
        self, x: float, y: float, *, panels: int | None = None, nodes_per_panel: int | None = None
    ) -> float:
        """Kernel value at one pair of points: the one-entry :meth:`_kernel_table`."""
        return float(self._kernel_table(float(x), float(y), panels, nodes_per_panel))

    def _kernel_table(
        self, xs, ys, panels: int | None = None, nodes_per_panel: int | None = None
    ) -> np.ndarray:
        """The integral of 1/rho over (c, med{x, y, c}), broadcast over arrays
        of points xs and ys.

        Closed form |P(med) - P(c)| for a :class:`Weight`, its primitive
        applied to the whole array; any other weight is integrated by Gauss
        quadrature with ``panels`` and ``nodes_per_panel`` (the space's own
        by default), one entry at a time.  Endpoint arguments mean the
        continuous extension; where that is infinite (1/rho not integrable
        up to the point) the closed form raises ``ValueError``.
        """
        x, y = self._require_points(xs), self._require_points(ys)
        med = np.maximum(np.minimum(x, y), np.minimum(np.maximum(x, y), self.c))
        if not isinstance(self.rho, Weight):
            quad = lambda m: self._quadrature_kernel(m, panels, nodes_per_panel)
            return np.vectorize(quad, otypes=[float])(med)
        P = self.rho.inv_primitive
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.abs(P(med) - P(self.c))
        if not np.isfinite(k).all():
            m = med[~np.isfinite(k)][0]
            raise ValueError(f"1/rho is not integrable from c = {self.c:g} to {m:g}")
        return k

    def _quadrature_kernel(self, m: float, panels: int | None, nodes_per_panel: int | None) -> float:
        seg = make_interval(self.c, m)
        if seg.empty:
            return 0.0
        g = build_grid(seg, panels or self.panels, nodes_per_panel or self.nodes_per_panel, self.rho)
        return float(integrate(g, 1.0 / g.rho_at_nodes).real)

    def _feature_values(self, points, grid: QuadGrid) -> np.ndarray:
        """chi_(c,x)/rho at the grid nodes: a row per point of a set, or one vector."""
        x = self._require_points(points)[..., None]
        ind = (grid.nodes > np.minimum(self.c, x)) & (grid.nodes < np.maximum(self.c, x))
        return np.where(ind, 1.0 / grid.rho_at_nodes, 0.0).astype(complex)

    def feature_map(self, points: Sequence[float] = ()) -> FeatureMap:
        """Feature map phi(x) = chi_(c,x)/rho on a grid of the space's
        ``panels`` and ``nodes_per_panel``, with panel breaks at c and at
        every declared point.

        Kernels and transforms between declared points are then panel-exact;
        undeclared points pick up an O(panel width) indicator error, so
        declare every point that accuracy depends on.
        """
        pts = self._require_points(points).ravel().tolist()
        g = build_grid(self.interval, self.panels, self.nodes_per_panel, self.rho, breakpoints=(self.c, *pts))
        return FeatureMap(
            grid=g,
            evaluate=lambda points: self._feature_values(points, g),
            closed_kernel=self._kernel_table,
        )

    def kernel_section_slope(self, points, grid: QuadGrid) -> np.ndarray:
        """Derivative representative of the kernel section at y,
        sign(y - c) * chi_(c,y)/rho at the grid nodes: a row per point of a
        set, or one vector, as :meth:`_feature_values`.

        Pairing a member's derivative samples with the row of y under the
        weighted inner product evaluates the member at y.
        """
        y = self._require_points(points)
        return np.where(y >= self.c, 1.0, -1.0)[..., None] * self._feature_values(y, grid)

    def indefinite_transform(self, f: HVector) -> Callable:
        """Transform of an L2 vector into this space: x maps to the integral
        of f over the set between c and x (nonnegative orientation on both
        sides of c)."""
        F = self._primitive(f)

        def fhat(x):
            xs = np.asarray(x, dtype=float)
            out = np.atleast_1d(F(np.atleast_1d(xs)))
            flip = np.atleast_1d(xs) < self.c
            out = np.where(flip, -out, out)
            return complex(out[0]) if xs.ndim == 0 else out

        return fhat

    def _primitive(self, f: HVector) -> Callable:
        if not (f.grid.interval.lo == self.interval.lo and f.grid.interval.hi == self.interval.hi):
            raise ValueError("vector must live on a grid over the space's interval")
        F0 = cumulative_integral(f.grid, f.values)
        Fc = F0(self.c)
        return lambda x: F0(x) - Fc

    def norm_from_samples(self, u: HVector) -> float:
        """Space norm of a member given by node samples.

        Differentiates the per-panel interpolants spectrally and takes the
        weighted norm of the derivative; the grid must carry this space's
        weight.
        """
        return norm_weighted(HVector(u.grid, derivative_values(u.grid, u.values)))


class PaleyWienerSpace:
    """Bandlimited functions: the image of the windowed oscillatory transform
    on L2(-a, a), with kernel sin(a(x - conj(y))) / (pi (x - conj(y))).

    The kernel is closed-form; the grid that features live on is built on
    first use, so a wide window costs nothing until features are needed.
    """

    def __init__(self, a: float, *, max_frequency: float = 40.0) -> None:
        if not (math.isfinite(a) and a > 0):
            raise ValueError("half-width a must be positive and finite")
        if not (math.isfinite(max_frequency) and max_frequency > 0):
            raise ValueError("max_frequency must be positive and finite")
        self.a = float(a)
        self.max_frequency = float(max_frequency)

    @cached_property
    def grid(self) -> QuadGrid:
        """Grid on (-a, a) resolving exp(i t x) up to |x| = max_frequency.

        A Gram entry integrates exp(i t (x - y)), whose top frequency is
        2 max_frequency; the grid has 16-node panels, each spanning 2 pi of
        it, and at least 8 of them (:func:`_oscillation_grid`).
        """
        return _oscillation_grid(make_interval(-self.a, self.a), 2.0 * self.max_frequency, minimum=8)

    def kernel(self, x, y) -> complex | np.ndarray:
        """Closed-form kernel, broadcast over arrays of points x and y (one
        complex value for two scalars); accepts complex arguments.  Raises
        ``ValueError`` where a (x - conj(y)) or a kernel value overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            d = np.asarray(x, dtype=complex) - np.conj(np.asarray(y, dtype=complex))
            z = self.a * d
            # Taylor branch through the removable singularity at x = conj(y),
            # formed only where it is taken, so no large z overflows it
            small = np.abs(z) < 1e-4
            zs = np.where(small, z, 0.0)
            # dividing by pi first keeps pi d from overflowing at |d| near the float range
            k = np.where(
                small,
                (self.a / math.pi) * (1.0 - zs * zs / 6.0 + zs ** 4 / 120.0),
                np.sin(z) / math.pi / np.where(small, 1.0, d),
            )
        for what, value in (("a (x - conj(y))", z), ("kernel value", k)):
            if not np.isfinite(value).all():
                at = d[~np.isfinite(value)][0]
                raise ValueError(f"{what} overflows at a = {self.a:g}, x - conj(y) = {at}")
        return complex(k) if k.ndim == 0 else k

    def _feature_values(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=complex)
        if (x.imag != 0.0).any():
            raise ValueError("complex evaluation via closed form only")
        if (np.abs(x.real) > self.max_frequency).any():
            raise ValueError(
                "frequency beyond declared grid resolution; rebuild with larger max_frequency"
            )
        return np.exp(1j * self.grid.nodes * x.real[..., None]) / math.sqrt(2.0 * math.pi)

    def feature_map(self) -> FeatureMap:
        """phi(x)(t) = exp(i t x) / sqrt(2 pi) on (-a, a), real x only."""
        return FeatureMap(
            grid=self.grid,
            evaluate=self._feature_values,
            closed_kernel=self.kernel,
        )


def _scaled(a: float, u: np.ndarray) -> np.ndarray:
    """a u, refused with ``ValueError`` where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = a * u
    if not np.all(np.isfinite(z)):
        raise ValueError(f"a u is not finite at a = {a:g}")
    return z


def sinc_ratio(a: float, u) -> np.ndarray:
    """sin(a u) / u with the removable singularity filled by its series.
    Raises ``ValueError`` where a u is not finite."""
    arr = np.asarray(u, dtype=float)
    z = _scaled(a, arr)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, arr)
    zs = np.where(small, z, 0.0)  # the series only where it is taken, so no large z overflows it
    series = a * (1.0 - zs * zs / 6.0 + zs ** 4 / 120.0)
    out = np.where(small, series, np.sin(a * safe) / safe)
    return out if arr.ndim else float(out)


@np.errstate(divide="ignore", invalid="ignore")  # set once per call, not once per block
def sinc_gram(a: float, points: Sequence[float], radius: float) -> np.ndarray:
    """Entry (i, j) is the integral over (-radius, radius) of s_i s_j, with
    s_i(t) = sin(a(t - x_i)) / (t - x_i) the sine-quotient sections.

    The integrand is entire, so one grid without breakpoints serves every
    pair: 16-node Gauss panels, each spanning 2 pi of the integrand's top
    frequency 2a, and at least 16 of them (:func:`_oscillation_panels`).
    That grid is never stored: its nodes and weights are made
    ``_SINC_BLOCK`` (2^13) at a time from the panel edges, bit for bit
    those of :func:`build_grid`, and each block's sections are formed in
    two reused (points x block) buffers and added into the matrix.  Memory
    is O(m^2 + m * 2^13 + P) for m points and P panels: the edges alone
    grow with the window, at 8 bytes a panel.  A window above
    build_grid's node cap is refused with its message before any block is
    made.

    Numerators come from sin(a(t - x)) = sin(at) cos(ax) - cos(at) sin(ax),
    so sines and cosines are taken once per node and once per point, and an
    entry costs two products, two subtractions and a division.  Nodes within
    ``_SINC_BAND / a`` of a point, a closed band that the sorted nodes give
    as one index range, go through :func:`sinc_ratio` instead: the band
    holds the removable singularity, any node equal to the point, and the
    nodes where the two products cancel.  Against :func:`sinc_ratio` on
    every entry (the tests' oracle) the matrix stays within
    2 eps (1 + a max|x_i|) max|P|, and against it on 8-node panels of a
    quarter of the width within 16 eps max|P| at the suite geometries.
    Raises ``ValueError`` where a x_i is not finite.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError("half-width a must be positive and finite")
    pts = np.asarray(points, dtype=float)
    window = truncate_line(radius)
    blocks = _gauss_panel_blocks(
        window, _oscillation_panels(window, 2.0 * a, minimum=16), _OSC_ORDER, _SINC_BLOCK // _OSC_ORDER
    )
    ax = _scaled(a, pts)
    sin_x, cos_x = np.sin(ax)[:, None], np.cos(ax)[:, None]
    band_lo, band_hi = pts - _SINC_BAND / a, pts + _SINC_BAND / a
    P = np.zeros((pts.size, pts.size))
    # two (points x block) buffers, reused by every block: the sections S
    # and a scratch T
    buf_s, buf_t = np.empty(pts.size * _SINC_BLOCK), np.empty(pts.size * _SINC_BLOCK)
    for t, w in blocks:
        S = buf_s[: pts.size * t.size].reshape(pts.size, t.size)
        T = buf_t[: pts.size * t.size].reshape(pts.size, t.size)
        at = a * t
        np.multiply(np.sin(at), cos_x, out=S)
        S -= np.multiply(np.cos(at), sin_x, out=T)
        S /= np.subtract(t, pts[:, None], out=T)  # band entries may divide by zero; overwritten below
        b0 = np.searchsorted(t, band_lo, side="left")
        b1 = np.searchsorted(t, band_hi, side="right")
        for i in np.flatnonzero(b0 < b1):
            S[i, b0[i] : b1[i]] = sinc_ratio(a, t[b0[i] : b1[i]] - pts[i])
        P += np.multiply(S, w, out=T) @ S.T
    return P


def tensor_feature(maps: Sequence[FeatureMap]) -> FeatureMap:
    """Feature map of the product: phi(x_1..x_N) is the outer product of the
    factor features, flattened to match the product grid ordering.

    The kernel of the product map factors into the product of the factor
    kernels, so a closed kernel is attached whenever every factor has one.
    """
    ms = tuple(maps)
    if not ms:
        raise ValueError("need at least one factor map")
    pgrid = product_grid([m.grid for m in ms])

    def evaluate(points):
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != len(ms):
            raise ValueError("arity mismatch: point length must equal factor count")
        # row i is reduce(np.multiply.outer, ...) of the factor rows i, flattened
        outer_rows = lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(pts), -1)
        return reduce(outer_rows, [m.evaluate(col) for m, col in zip(ms, pts.T)])

    closed = None
    if all(m.closed_kernel is not None for m in ms):
        kernels = [m.closed_kernel for m in ms]

        def closed(xs, ys):
            return tensor_kernel(kernels, xs, ys)

    return FeatureMap(grid=pgrid, evaluate=evaluate, closed_kernel=closed)


def tensor_kernel(kernels: Sequence[Callable], xs, ys) -> complex | np.ndarray:
    """Product kernel prod_i k_i(x_i, y_i), broadcast over arrays of points
    whose last axis holds the coordinates (one complex value for two
    points); each k_i broadcasts the same way."""
    ks = tuple(kernels)
    xs, ys = np.asarray(xs), np.asarray(ys)
    if not (xs.ndim and ys.ndim and len(ks) == xs.shape[-1] == ys.shape[-1]):
        raise ValueError("arity mismatch: kernels and points must align")
    out = np.asarray(1.0 + 0.0j)
    for i, k in enumerate(ks):
        out = out * k(xs[..., i], ys[..., i])
    return complex(out) if out.ndim == 0 else out
