"""Concrete Hilbert-space families and their kernels.

Two families carry most of the weight: first-order weighted Sobolev spaces
on an interval (members vanish at an anchor point, the norm is the weighted
L2 norm of the derivative) and bandlimited spaces with the sine-quotient
kernel, whose sections are paired all at once on one window grid
(:func:`sinc_gram`).  Tensor products of feature maps close the set under
products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .numerics import (
    HVector,
    Interval,
    QuadGrid,
    build_grid,
    cumulative_integral,
    derivative_values,
    inner_weighted,
    integrate,
    make_interval,
    med3,
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
    "SincIdentityReport",
    "sinc_gram",
    "sinc_identity_check",
    "tensor_feature",
    "tensor_kernel",
]


@dataclass(frozen=True)
class Weight:
    """A weight rho with a primitive of 1/rho, so that Sobolev kernels under
    it come in closed form; calling it samples rho."""

    rho: Callable
    inv_primitive: Callable[[float], float]

    def __call__(self, t):
        return self.rho(t)


RHO_REGISTRY: dict[str, Weight] = {
    "const": Weight(lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: t),
    "affine": Weight(lambda t: 1.0 + np.asarray(t, dtype=float), math.log1p),
}

_SINC_BLOCK = 1 << 15  # quadrature nodes per block of the sinc Gram sum
_SINC_BAND = 0.5  # |a (t - x)| up to which sinc_gram keeps the direct quotient
_OSC_ORDER = 16  # Gauss nodes per panel of the sinc window and Paley-Wiener grids
_OSC_PHASE = 2.0 * math.pi  # phase of the integrand's top frequency across one such panel


def _oscillation_grid(interval: Interval, rate: float, minimum: int) -> QuadGrid:
    """Gauss grid of ``_OSC_ORDER``-node panels, each spanning at most
    ``_OSC_PHASE`` of an integrand whose top angular frequency is ``rate``.

    :func:`panels_for_oscillation` keeps a phase of pi/4 of its rate per
    panel, so it is handed ``rate * (pi/4) / _OSC_PHASE`` (rate / 8, exactly).
    Measured against the Paley-Wiener closed kernel and against the sinc
    Gram on four times the nodes, 16-node panels still hold at 4 pi per
    panel and first lose accuracy at 8 pi, four times the phase used here;
    8-node panels lose it at 2 pi.
    """
    panels = panels_for_oscillation(interval.length, rate * (math.pi / 4.0 / _OSC_PHASE), minimum)
    return build_grid(interval, panels, _OSC_ORDER)


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

    def _require_point(self, x: float) -> float:
        x = float(x)
        if not (self.interval.lo <= x <= self.interval.hi):
            raise ValueError("point outside the interval")
        return x

    def kernel(
        self, x: float, y: float, *, panels: int | None = None, nodes_per_panel: int | None = None
    ) -> float:
        """Kernel value, the integral of 1/rho over (c, med{x, y, c}).

        Closed form for a :class:`Weight`; any other weight is integrated by
        Gauss quadrature with ``panels`` and ``nodes_per_panel``, each
        defaulting to the space's own.  Endpoint arguments mean the
        continuous extension; where that is infinite (1/rho not integrable
        up to the point) the closed form raises ``ValueError``.
        """
        m = med3(self._require_point(x), self._require_point(y), self.c)
        if isinstance(self.rho, Weight):
            P = self.rho.inv_primitive
            try:
                return abs(float(P(m)) - float(P(self.c)))
            except ValueError:
                raise ValueError(f"1/rho is not integrable from c = {self.c:g} to {m:g}") from None
        seg = make_interval(self.c, m)
        if seg.empty:
            return 0.0
        g = build_grid(seg, panels or self.panels, nodes_per_panel or self.nodes_per_panel, self.rho)
        return float(integrate(g, 1.0 / g.rho_at_nodes).real)

    def _feature_values(self, x, grid: QuadGrid) -> np.ndarray:
        x = self._require_point(x)
        lo, hi = min(self.c, x), max(self.c, x)
        ind = (grid.nodes > lo) & (grid.nodes < hi)
        return np.where(ind, 1.0 / grid.rho_at_nodes, 0.0).astype(complex)

    def feature_map(self, points: Sequence[float] = ()) -> FeatureMap:
        """Feature map phi(x) = chi_(c,x)/rho on a grid of the space's
        ``panels`` and ``nodes_per_panel``, with panel breaks at c and at
        every declared point.

        Kernels and transforms between declared points are then panel-exact;
        undeclared points pick up an O(panel width) indicator error, so
        declare every point that accuracy depends on.
        """
        pts = tuple(self._require_point(p) for p in points)
        g = build_grid(self.interval, self.panels, self.nodes_per_panel, self.rho, breakpoints=(self.c, *pts))
        return FeatureMap(
            grid=g,
            evaluate=lambda x: self._feature_values(x, g),
            closed_kernel=lambda x, y: complex(self.kernel(x, y)),
        )

    def kernel_section_slope(self, y: float, grid: QuadGrid) -> HVector:
        """Derivative representative of the kernel section at y:
        sign(y - c) * chi_(c,y)/rho.

        Pairing a member's derivative samples with this under the weighted
        inner product evaluates the member at y.
        """
        sgn = 1.0 if y >= self.c else -1.0
        return HVector(grid, sgn * self._feature_values(y, grid))

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
        du = HVector(u.grid, derivative_values(u.grid, u.values))
        return math.sqrt(max(inner_weighted(du, du).real, 0.0))


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

    def kernel(self, x, y) -> complex:
        """Closed-form kernel; accepts complex arguments.  Raises
        ``ValueError`` where a (x - conj(y)) or the kernel value overflows."""
        d = complex(x) - complex(y).conjugate()
        z = self.a * d
        if not cmath.isfinite(z):
            raise ValueError(f"a (x - conj(y)) overflows at a = {self.a:g}, x - conj(y) = {d}")
        if abs(z) < 1e-4:
            # Taylor branch through the removable singularity at x = conj(y)
            return (self.a / math.pi) * (1.0 - z * z / 6.0 + z ** 4 / 120.0)
        with np.errstate(over="ignore", invalid="ignore"):
            # dividing by pi first keeps pi d from overflowing at |d| near the float range
            k = complex(np.sin(z) / math.pi / d)
        if not cmath.isfinite(k):
            raise ValueError(f"kernel value overflows at a = {self.a:g}, x - conj(y) = {d}")
        return k

    def _feature_values(self, x) -> np.ndarray:
        x = complex(x)
        if x.imag != 0.0:
            raise ValueError("complex evaluation via closed form only")
        if abs(x.real) > self.max_frequency:
            raise ValueError(
                "frequency beyond declared grid resolution; rebuild with larger max_frequency"
            )
        return np.exp(1j * self.grid.nodes * x.real) / math.sqrt(2.0 * math.pi)

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


@dataclass(frozen=True)
class SincIdentityReport:
    a: float
    x: float
    y: float
    radius: float
    lhs: float
    rhs: float
    abs_err: float


def sinc_gram(a: float, points: Sequence[float], radius: float) -> np.ndarray:
    """Entry (i, j) is the integral over (-radius, radius) of s_i s_j, with
    s_i(t) = sin(a(t - x_i)) / (t - x_i) the sine-quotient sections.

    The integrand is entire, so one grid without breakpoints serves every
    pair: 16-node Gauss panels, each spanning 2 pi of the integrand's top
    frequency 2a, and at least 16 of them (:func:`_oscillation_grid`).
    Sections are formed over fixed-size blocks of nodes, so none is stored
    whole on the 0.1-0.2 M-node windows the checks use.

    Numerators come from sin(a(t - x)) = sin(at) cos(ax) - cos(at) sin(ax),
    so sines and cosines are taken once per node and once per point, and an
    entry costs two products, two subtractions and a division.  Nodes within
    ``_SINC_BAND / a`` of a point, a closed band that the sorted nodes give
    as one index range, go through :func:`sinc_ratio` instead: the band
    holds the removable singularity, any node equal to the point, and the
    nodes where the two products cancel; it spans 4-8 nodes a point.
    Against :func:`sinc_ratio` on every entry (the tests' oracle) the
    matrix moves by at most about eps (1 + a max|x_i|) max|P|, and against
    it on 8-node panels of a quarter of the width by at most 11 eps max|P|
    at the suite geometries.  The three suite matrices at radius 1e4 (1.8 M
    entries, 70 of them in bands) take 0.03 s instead of 0.12 s on the grid
    of four times the nodes (2-core x86-64 Xeon, one BLAS thread).
    Raises ``ValueError`` where a x_i is not finite.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError("half-width a must be positive and finite")
    pts = np.asarray(points, dtype=float)
    g = _oscillation_grid(truncate_line(radius), 2.0 * a, minimum=16)
    ax = _scaled(a, pts)
    sin_x, cos_x = np.sin(ax)[:, None], np.cos(ax)[:, None]
    band_lo = np.searchsorted(g.nodes, pts - _SINC_BAND / a, side="left")
    band_hi = np.searchsorted(g.nodes, pts + _SINC_BAND / a, side="right")
    P = np.zeros((pts.size, pts.size))
    for lo in range(0, g.size, _SINC_BLOCK):
        t = g.nodes[lo : lo + _SINC_BLOCK]
        with np.errstate(divide="ignore", invalid="ignore"):
            # band entries may divide by zero here; they are overwritten below
            S = (np.sin(a * t) * cos_x - np.cos(a * t) * sin_x) / (t - pts[:, None])
        b0 = np.maximum(band_lo - lo, 0)
        b1 = np.minimum(band_hi - lo, t.size)
        for i in np.flatnonzero(b0 < b1):
            S[i, b0[i] : b1[i]] = sinc_ratio(a, t[b0[i] : b1[i]] - pts[i])
        P += (S * g.weights[lo : lo + _SINC_BLOCK]) @ S.T
    return P


def sinc_identity_check(a: float, x: float, y: float, radius: float) -> SincIdentityReport:
    """Quadrature check of the sine-product integral identity.

    Integrates sin(a(t-x)) sin(a(t-y)) / ((t-x)(t-y)) over (-radius, radius)
    and compares with pi sin(a(y-x))/(y-x).  The truncated tail is O(1/radius),
    so the discrepancy should sit below 4/radius plus quadrature noise.
    """
    lhs = float(sinc_gram(a, (x, y), radius)[0, 1])
    rhs = float(math.pi * sinc_ratio(a, y - x))
    return SincIdentityReport(a, x, y, radius, lhs, rhs, abs(lhs - rhs))


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

    def evaluate(xs):
        xs = tuple(xs)
        if len(xs) != len(ms):
            raise ValueError("arity mismatch: point length must equal factor count")
        return reduce(np.kron, [m.feature(x).values for m, x in zip(ms, xs)])

    closed = None
    if all(m.closed_kernel is not None for m in ms):
        kernels = [m.closed_kernel for m in ms]

        def closed(xs, ys):
            return tensor_kernel(kernels, xs, ys)

    return FeatureMap(grid=pgrid, evaluate=evaluate, closed_kernel=closed)


def tensor_kernel(kernels: Sequence[Callable], xs, ys) -> complex:
    """Product kernel prod_i k_i(x_i, y_i) for tuple arguments."""
    ks = tuple(kernels)
    xs = tuple(xs)
    ys = tuple(ys)
    if not (len(ks) == len(xs) == len(ys)):
        raise ValueError("arity mismatch: kernels and points must align")
    out = complex(1.0)
    for k, x, y in zip(ks, xs, ys):
        out *= complex(k(x, y))
    return out
