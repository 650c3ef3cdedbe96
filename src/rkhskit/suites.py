"""Verification suites behind the command line interface.

Each suite builds the scenario its acceptance tolerance was pinned for,
measures the relevant defects, and returns a Report of uniform records.
Scenario parameters default to the checked configuration; RunConfig can
override the knobs that stay meaningful (radius, grid sizes, seed).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Callable, get_args, get_type_hints

import numpy as np

from . import inversion as inv
from . import plancherel as pl
from .numerics import (
    HVector,
    inner_weighted,
    inner_weighted_matrix,
    make_interval,
    norm_weighted,
    sample,
)
from .reporting import Report, make_record
from .spaces import (
    RHO_REGISTRY,
    PaleyWienerSpace,
    SobolevSpace,
    sinc_gram,
    sinc_ratio,
    tensor_feature,
    tensor_kernel,
)
from .transforms import (
    build_span_basis,
    contraction_check,
    kernel_eval,
    span_combination,
    transform,
)

__all__ = ["RunConfig", "ConfigError", "SOURCES", "SUITES", "run_suite", "suite_names"]


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2 in the CLI)."""


@dataclass
class RunConfig:
    suite: str = "all"
    seed: int = 42
    radius: float | None = None
    panels: int | None = None
    nodes_per_panel: int | None = None
    out: str | None = None

    def validate(self) -> "RunConfig":
        for name, hint in get_type_hints(RunConfig).items():
            _require_type(name, getattr(self, name), hint)
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise ConfigError("radius must be positive and finite")
        for name in ("panels", "nodes_per_panel"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be a positive integer")
        return self


# JSON numbers arrive as int or float; a float field takes either
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def _require_type(name: str, value, hint) -> None:
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kinds[0]]):
        raise ConfigError(f"{name} must be of type {kinds[0].__name__}, got {value!r}")


# Named scenario sources of the suites and of the command line; "one"
# takes one array per axis, so it also serves the 2-d boxes.
SOURCES: dict[str, Callable] = {
    "one": lambda *t: np.ones_like(t[0]),
    "cos": np.cos,
    "window": lambda t: np.ones_like(t) / math.sqrt(2.0 * math.pi),
    "wave": lambda t: np.exp(1j * math.pi * t) / math.sqrt(2.0),
}


def _gauss(t):
    return np.exp(-(t * t))


def _gauss2(t1, t2):
    return _gauss(t1) * _gauss(t2)


# Smooth test functions vanishing at 0, with their derivatives.
_SMOOTH_PAIRS = (
    ("t", lambda t: t, SOURCES["one"]),
    ("t^2", lambda t: t * t, lambda t: 2.0 * t),
    ("sin", np.sin, np.cos),
)


def suite_reproducing(cfg: RunConfig) -> Report:
    """Kernel sections evaluate members pointwise in the Sobolev family."""
    rep = Report("reproducing", cfg.seed, {"tolerance": 1e-6})
    cases = [
        (make_interval(0.0, 1.0), "const"),
        (make_interval(0.0, 1.0), "affine"),
        (make_interval(-1.0, 1.0), "const"),
        (make_interval(-1.0, 1.0), "affine"),
    ]
    for interval, rho_name in cases:
        space = SobolevSpace(interval, 0.0, RHO_REGISTRY[rho_name])
        pad = 0.05 * interval.length
        ys = np.linspace(interval.lo + pad, interval.hi - pad, 20)
        fm = space.feature_map(ys)
        for fname, f, fprime in _SMOOTH_PAIRS:
            df = sample(fm.grid, fprime)
            worst = 0.0
            for y in ys:
                lhs = inner_weighted(df, space.kernel_section_slope(y, fm.grid))
                worst = max(worst, abs(lhs - complex(f(y))))
            rep.add(
                make_record(
                    f"reproducing ({interval.lo:g},{interval.hi:g}) rho={rho_name} f={fname}",
                    worst,
                    0.0,
                    1e-6,
                )
            )
    return rep


def suite_isometry(cfg: RunConfig) -> Report:
    """The indefinite transform preserves norms into the Sobolev family."""
    panels = cfg.panels or 32
    npp = cfg.nodes_per_panel or 16
    rep = Report("isometry", cfg.seed, {"panels": panels, "nodes_per_panel": npp, "tolerance": 1e-8})
    cases = [
        (make_interval(0.0, 1.0), "const"),
        (make_interval(0.0, 1.0), "affine"),
        (make_interval(-1.0, 1.0), "const"),
    ]

    def smooth(t):
        return np.cos(3.0 * t) + 0.4j * t * t * np.exp(t)

    for interval, rho_name in cases:
        space = SobolevSpace(interval, 0.0, RHO_REGISTRY[rho_name], panels=panels, nodes_per_panel=npp)
        f = sample(space.grid, smooth)
        fhat = space.indefinite_transform(f)
        g = HVector(space.grid, fhat(space.grid.nodes))
        norm_source = norm_weighted(f)
        norm_image = space.norm_from_samples(g)
        rel = abs(norm_image - norm_source) / norm_source
        rep.add(
            make_record(
                f"isometry ({interval.lo:g},{interval.hi:g}) rho={rho_name}",
                rel,
                0.0,
                1e-8,
            )
        )
    return rep


_BASIS_SIZE = 15  # Sobolev span points of the contraction and inversion scenarios


def _sobolev_setup():
    space = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    pts = np.linspace(-0.9, 0.9, _BASIS_SIZE)
    fm = space.feature_map(pts)
    basis = build_span_basis(fm, pts)
    return space, fm, basis


def suite_contraction(cfg: RunConfig) -> Report:
    """Transforming never grows the norm; span members keep it exactly."""
    rep = Report("contraction", cfg.seed, {"random_draws": 100, "basis_size": _BASIS_SIZE})
    space, fm, basis = _sobolev_setup()
    rng = np.random.default_rng(cfg.seed)
    min_slack = math.inf
    for _ in range(100):
        vals = rng.standard_normal(fm.grid.size) + 1j * rng.standard_normal(fm.grid.size)
        res = contraction_check(HVector(fm.grid, vals), basis)
        min_slack = min(min_slack, res.slack)
    rep.add(make_record("slack nonnegative (worst violation)", max(0.0, -min_slack), 0.0, 1e-8,
                        detail=f"min slack {min_slack:.3e}"))
    worst_eq = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        member = span_combination(basis, coeffs)
        res = contraction_check(member, basis)
        worst_eq = max(worst_eq, abs(res.slack))
    rep.add(make_record("span member equality |slack|", worst_eq, 0.0, 1e-6))
    return rep


def suite_kernels(cfg: RunConfig) -> Report:
    """Kernel identities: closed forms vs Gram quadrature, and tensors."""
    rep = Report("kernels", cfg.seed, {})
    space = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    space_aff = SobolevSpace(make_interval(0.0, 1.0), 0.0, RHO_REGISTRY["affine"])
    cases = [
        ("const", space, np.linspace(-0.9, 0.9, 10)),
        ("affine", space_aff, np.linspace(0.05, 0.95, 10)),
    ]
    for rho_name, sob, lattice in cases:
        # the Gram matrix is the quadrature route: features have breaks at the lattice
        G = build_span_basis(sob.feature_map(lattice), lattice).gram
        K = np.array([[sob.kernel(x, y) for y in lattice] for x in lattice])
        worst = float(np.max(np.abs(G - K)))
        rep.add(make_record(f"sobolev kernel vs closed form ({rho_name})", worst, 0.0, 1e-10))

    pw = PaleyWienerSpace(1.0, max_frequency=12.0)
    pts = np.array([-2.0, -1.0, 0.0, 0.5, math.pi])
    basis = build_span_basis(pw.feature_map(), pts)
    K = np.array([[pw.kernel(x, y) for y in pts] for x in pts])
    rep.add(
        make_record(
            "bandlimited Gram vs closed kernel",
            float(np.max(np.abs(basis.gram - K))),
            0.0,
            1e-10,
        )
    )

    sob_fm = space.feature_map((0.3, -0.5, 0.8))
    pw_fm = pw.feature_map()
    prod = tensor_feature([pw_fm, sob_fm])
    pairs = [((0.5, 0.3), (1.0, -0.5)), ((0.0, 0.8), (0.0, 0.8)), ((2.0, -0.5), (-1.0, 0.3))]
    worst_rel = _worst_factorization(prod, pw_fm, sob_fm, pairs)
    rep.add(make_record("tensor kernel factorization (relative)", worst_rel, 0.0, 1e-12))
    return rep


def _worst_factorization(prod, fm1, fm2, pairs) -> float:
    """Largest relative gap between the kernel of ``prod``, the tensor
    feature map of fm1 and fm2, and the product of their kernels, over
    (X, Y) point pairs."""
    worst_rel = 0.0
    for X, Y in pairs:
        k2 = kernel_eval(prod, X, Y)
        k11 = kernel_eval(fm1, X[0], Y[0])
        k12 = kernel_eval(fm2, X[1], Y[1])
        scale = max(abs(k2), abs(k11 * k12), 1e-30)
        worst_rel = max(worst_rel, abs(k2 - k11 * k12) / scale)
    return worst_rel


def suite_sinc(cfg: RunConfig) -> Report:
    """Oscillatory integral identity behind the bandlimited kernel."""
    radius = cfg.radius or 1e4
    tol = 4.0 / radius + 1e-6
    rep = Report("sinc", cfg.seed, {"radius": radius, "tolerance": tol})
    lattice = np.linspace(-2.0, 2.0, 5)  # x = 0 is entry 2
    grams = {a: sinc_gram(a, lattice, radius) for a in (1.0, 2.0)}
    for a, P in grams.items():
        worst = float(np.max(np.abs(P - math.pi * sinc_ratio(a, lattice[None, :] - lattice[:, None]))))
        rep.add(make_record(f"sine-product identity a={a:g}", worst, 0.0, tol))
    rep.add(make_record("coincident-point value vs pi", float(grams[1.0][2, 2]), math.pi, 3e-3))
    return rep


def suite_inversion(cfg: RunConfig) -> Report:
    """Round trip: transform a span member, evaluate it back pointwise."""
    probes = np.linspace(-0.95, 0.95, 50)
    rep = Report("inversion", cfg.seed, {"basis_size": _BASIS_SIZE, "probes": probes.size})
    space, fm, basis = _sobolev_setup()
    rng = np.random.default_rng(cfg.seed)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    member = span_combination(basis, coeffs)
    image = transform(member, fm)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # the coarse-basis warning is benign here: the source is in the span
        got = inv.invert_at(image, probes, basis)
    want = np.array(
        [sum(c * space.kernel(t, x) for c, x in zip(coeffs, basis.points)) for t in probes.tolist()]
    )
    worst = float(np.max(np.abs(got - want), initial=0.0))
    rep.add(make_record("span member round trip", worst, 0.0, 1e-5))
    return rep


def _pw_setup(max_frequency: float, points: np.ndarray):
    pw = PaleyWienerSpace(1.0, max_frequency=max_frequency)
    fm = pw.feature_map()
    basis = build_span_basis(fm, points)
    return pw, fm, basis


def suite_generalized_inversion(cfg: RunConfig) -> Report:
    """Inversion through an isometry into the primitive's Sobolev space."""
    rep = Report("generalized-inversion", cfg.seed, {"basis": "integers in [-20, 20]"})
    _, fm, basis = _pw_setup(22.0, np.arange(-20.0, 21.0))
    seq = inv.indefinite_integral_sequence(fm, anchor=0.0)

    cases = [
        ("f = 1", SOURCES["one"], lambda t: t),
        ("f = cos", SOURCES["cos"], np.sin),
    ]
    ts = np.array([0.25, 0.5, 1.0])
    for name, f, primitive in cases:
        image = transform(sample(fm.grid, f), fm)
        got = inv.generalized_invert_at(seq, image, ts, basis)
        worst = float(np.max(np.abs(got - primitive(ts))))
        rep.add(make_record(f"primitive recovery {name}", worst, 0.0, 1e-4))

    # identity sequence: quadrature and closed-kernel section paths coincide
    # on smooth features
    ident = inv.identity_sequence(fm)
    image = transform(sample(fm.grid, np.cos), fm)
    ts = np.linspace(-0.8, 0.8, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        direct = inv.invert_at(image, ts, basis)
    viaseq = inv.generalized_invert_at(ident, image, ts, basis)
    worst = float(np.max(np.abs(direct - viaseq)))
    rep.add(make_record("identity sequence agrees with direct inversion", worst, 0.0, 1e-10))
    return rep


def suite_cons(cfg: RunConfig) -> Report:
    """Orthonormal coefficients recovered through the transform side."""
    rep = Report("cons", cfg.seed, {"count": 16})
    points = math.pi * np.arange(-8.0, 9.0)
    pw, fm, basis = _pw_setup(30.0, points)
    cons = inv.exponential_system(fm.grid, 16, 1.0)
    rep.add(make_record("orthonormality defect", cons.orthonormality_defect(), 0.0, 1e-10))

    weights = np.array([(0.8 ** n) * (1.0 + 0.3j) for n in range(16)])
    f = cons.reconstruct(weights)
    image = transform(f, fm)
    inverted = inv.fourier_coeff_invert(cons, fm, image, np.arange(16), basis)
    direct = inner_weighted_matrix(fm.grid, f.values, cons.members)
    worst = float(np.max(np.abs(inverted - direct)))
    rep.add(make_record("inverted vs direct coefficients", worst, 0.0, 1e-6))

    norms = []
    for upto in range(1, 17):
        partial = cons.reconstruct(inverted, upto)
        diff = HVector(fm.grid, f.values - partial.values)
        norms.append(norm_weighted(diff))
    increases = [norms[i + 1] - norms[i] for i in range(len(norms) - 1)]
    rep.add(
        make_record(
            "reconstruction error monotone (worst increase)",
            max(0.0, max(increases)),
            0.0,
            1e-12,
            detail=f"final error {norms[-1]:.3e}",
        )
    )
    return rep


def suite_restriction(cfg: RunConfig) -> Report:
    """Restriction to the line preserves bandlimited inner products."""
    radius = cfg.radius or 1e4
    rep = Report("restriction", cfg.seed, {"radius": radius})
    pw = PaleyWienerSpace(1.0, max_frequency=8.0)
    res = inv.restriction_isometry_check(pw, [0.0, 1.5, math.pi], radius, coeffs=[1.0, 0.5, -0.25])
    rep.add(make_record("kernel pairings vs kernel values", res.max_kernel_err, 0.0, 3e-3))
    rep.add(
        make_record(
            "span norm: Gram vs window L2",
            res.span_err,
            0.0,
            3e-3,
            detail=f"gram {res.span_norm_gram:.6f} window {res.span_norm_window:.6f}",
        )
    )
    return rep


def suite_plancherel_norm(cfg: RunConfig) -> Report:
    """Norm preservation of the truncated transform."""
    radius = cfg.radius or 200.0
    npp = cfg.nodes_per_panel or 8
    rep = Report("plancherel-norm", cfg.seed, {"radius": radius})
    box = pl.box_domain([6.0], max_frequency=radius, nodes_per_panel=npp)
    res = pl.plancherel_norm_check(_gauss, box, radius)
    rep.add(make_record("gaussian norm preserved (rel err)", res.rel_err, 0.0, 5e-3))
    rep.add(
        make_record(
            "gaussian squared norm",
            res.norm_time ** 2,
            math.sqrt(math.pi / 2.0),
            5e-3,
        )
    )

    boxw = pl.box_domain([1.0], max_frequency=radius, nodes_per_panel=npp)
    window = SOURCES["window"]
    res2 = pl.plancherel_norm_check(window, boxw, radius)
    rep.add(make_record("window feature: time squared norm", res2.norm_time ** 2, 1.0 / math.pi, 1e-10))
    rep.add(make_record("window feature: freq squared norm", res2.norm_freq ** 2, 1.0 / math.pi, 3e-3))

    # res2 is already the check at `radius`; reuse it rather than rerun it
    rels = [
        res2.rel_err
        if r == radius
        else pl.plancherel_norm_check(window, boxw, r).rel_err
        for r in (50.0, 100.0, 200.0)
    ]
    worst_inc = max(0.0, max(rels[i + 1] - rels[i] for i in range(len(rels) - 1)))
    rep.add(
        make_record(
            "window feature: rel err nonincreasing in radius",
            worst_inc,
            0.0,
            1e-12,
            detail=f"rel errs {['%.2e' % r for r in rels]}",
        )
    )

    radius2 = 30.0
    box1 = pl.box_domain([4.0], max_frequency=radius2, nodes_per_panel=npp)
    res1 = pl.plancherel_norm_check(_gauss, box1, radius2)
    box2 = pl.box_domain([4.0, 4.0], max_frequency=radius2, nodes_per_panel=npp)
    res2d = pl.plancherel_norm_check(_gauss2, box2, radius2)
    rep.add(make_record("2-d gaussian norm preserved (rel err)", res2d.rel_err, 0.0, 1e-2))
    rep.add(
        make_record(
            "2-d freq norm factorizes (rel err)",
            abs(res2d.norm_freq - res1.norm_freq ** 2) / res1.norm_freq ** 2,
            0.0,
            1e-10,
        )
    )
    return rep


def suite_mutual_inverse(cfg: RunConfig) -> Report:
    """Conjugate transform undoes the transform at interior probes."""
    radius = cfg.radius or 200.0
    npp = cfg.nodes_per_panel or 8
    rep = Report("mutual-inverse", cfg.seed, {"radius": radius})
    box = pl.box_domain([6.0], max_frequency=radius, nodes_per_panel=npp)
    res = pl.mutual_inverse_check(_gauss, box, radius)
    rep.add(make_record("gaussian round trip (max err)", res.max_abs_err, 0.0, 5e-3))

    boxw = pl.box_domain([1.0], max_frequency=radius, nodes_per_panel=npp)
    resw = pl.mutual_inverse_check(SOURCES["wave"], boxw, radius)
    rep.add(make_record("windowed wave round trip (max err)", resw.max_abs_err, 0.0, 2e-2))

    radius2 = 30.0
    box2 = pl.box_domain([4.0, 4.0], max_frequency=radius2, nodes_per_panel=npp)
    res2 = pl.mutual_inverse_check(_gauss2, box2, radius2)
    rep.add(make_record("2-d gaussian round trip (max err)", res2.max_abs_err, 0.0, 1e-2))
    return rep


def suite_box_inversion(cfg: RunConfig) -> Report:
    """Indefinite-integral identity through the truncated transform pair."""
    radius = cfg.radius or 200.0
    npp = cfg.nodes_per_panel or 8
    rep = Report("box-inversion", cfg.seed, {"radius": radius})
    box = pl.box_domain([1.0], max_frequency=radius, nodes_per_panel=npp)
    one = SOURCES["one"]
    res = pl.box_inversion_check(one, box, radius, [0.5])
    rep.add(
        make_record(
            "1-d constant: identity gap",
            res.abs_err,
            0.0,
            5e-3,
            detail=f"lhs {res.lhs.real:.6f}",
        )
    )
    rep.add(make_record("1-d constant: lhs oracle", res.lhs.real, 0.5, 1e-12))

    resc = pl.box_inversion_check(SOURCES["cos"], box, radius, [0.5])
    rep.add(make_record("1-d cosine: identity gap", resc.abs_err, 0.0, 5e-3))
    rep.add(make_record("1-d cosine: lhs oracle", resc.lhs.real, math.sin(0.5), 1e-12))

    radius2 = 50.0
    box2 = pl.box_domain([1.0, 1.0], max_frequency=radius2, nodes_per_panel=npp)
    res2 = pl.box_inversion_check(one, box2, radius2, [0.5, 0.25])
    rep.add(make_record("2-d constant: identity gap", res2.abs_err, 0.0, 2e-2))
    rep.add(make_record("2-d constant: lhs oracle", res2.lhs.real, 0.125, 1e-12))

    points = np.arange(-20.0, 21.0)
    pw, fm, basis = _pw_setup(22.0, points)
    seq = inv.indefinite_integral_sequence(fm, anchor=0.0)
    image = transform(sample(fm.grid, one), fm)
    gen = inv.generalized_invert_at(seq, image, 0.5, basis)
    rep.add(
        make_record(
            "agrees with sequence inversion",
            abs(res.rhs - gen),
            0.0,
            1e-3,
            detail=f"box {res.rhs.real:.6f} sequence {gen.real:.6f}",
        )
    )
    return rep


def suite_tensor(cfg: RunConfig) -> Report:
    """Transforms and kernels of products factor into their parts."""
    rep = Report("tensor", cfg.seed, {})
    pw = PaleyWienerSpace(1.0, max_frequency=10.0)
    fm = pw.feature_map()
    prod = tensor_feature([fm, fm])

    f1 = sample(fm.grid, lambda t: np.exp(1j * t))
    f2 = sample(fm.grid, lambda t: np.cos(2.0 * t))
    fprod = HVector(prod.grid, np.kron(f1.values, f2.values))
    im1 = transform(f1, fm)
    im2 = transform(f2, fm)
    improd = transform(fprod, prod)
    rng = np.random.default_rng(cfg.seed)
    pairs = rng.uniform(-8.0, 8.0, size=(25, 2))
    got = improd.at_many(pairs)
    worst = float(np.max(np.abs(got - im1.at_many(pairs[:, 0]) * im2.at_many(pairs[:, 1]))))
    rep.add(make_record("transform of product factorizes", worst, 0.0, 1e-10))

    worst_rel = _worst_factorization(prod, fm, fm, [((x1, x2), (0.5, -0.25)) for x1, x2 in pairs[:5]])
    rep.add(make_record("product kernel factorizes (relative)", worst_rel, 0.0, 1e-12))

    k = tensor_kernel([pw.kernel, pw.kernel], (1.0, math.pi), (0.0, 0.0))
    rep.add(make_record("zero factor annihilates the product", abs(k), 0.0, 1e-12))
    return rep


SUITES: dict[str, Callable] = {
    "reproducing": suite_reproducing,
    "isometry": suite_isometry,
    "contraction": suite_contraction,
    "kernels": suite_kernels,
    "sinc": suite_sinc,
    "inversion": suite_inversion,
    "generalized-inversion": suite_generalized_inversion,
    "cons": suite_cons,
    "restriction": suite_restriction,
    "plancherel-norm": suite_plancherel_norm,
    "mutual-inverse": suite_mutual_inverse,
    "box-inversion": suite_box_inversion,
    "tensor": suite_tensor,
}


def suite_names() -> list:
    return [*SUITES, "all"]


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run one suite (or all of them, concatenating prefixed records)."""
    cfg.validate()
    if name != "all" and name not in SUITES:
        raise ConfigError(f"unknown suite '{name}'; known: {suite_names()}")
    if name != "all":
        return SUITES[name](cfg)
    merged = Report("all", cfg.seed, {"suites": list(SUITES)})
    for sub, fn in SUITES.items():
        for rec in fn(cfg).records:
            merged.add(replace(rec, name=f"{sub}: {rec.name}"))
    return merged
