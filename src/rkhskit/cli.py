"""Command line interface.

Subcommands: kernel (tabulate kernel values as CSV), transform (tabulate a
transformed vector), invert (recover source values and compare against a
reference), verify (run a verification suite and emit a JSON report), and
report (print the report schema, validate or summarize a report file).

Exit codes: 0 on success, 1 when a verification check fails, 2 for bad
input (any ValueError, configuration errors included), reported as one
``error:`` line on stderr.  Verification output on stdout is
timestamp-free, so identical configurations print identical bytes under a
fixed BLAS thread count (e.g. OPENBLAS_NUM_THREADS=1, set before the
process starts).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import fields

import jsonschema
import numpy as np

from . import inversion as inv
from .numerics import HVector, cumulative_integral, make_interval, sample
from .reporting import REPORT_SCHEMA
from .spaces import RHO_REGISTRY, PaleyWienerSpace, SobolevSpace
from .suites import SOURCES, ConfigError, RunConfig, _pw_setup, _sobolev_setup, run_suite, suite_names
from .transforms import project_span, span_combination, transform

PASS_EXIT, FAIL_EXIT, CONFIG_EXIT = 0, 1, 2


def _nonnegative_int(text: str) -> int:
    """argparse type for counts: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return n


def _parse_points(text: str) -> list:
    if not text.strip():
        return []
    try:
        pts = [float(v) for v in text.split(",")]
        if all(math.isfinite(p) for p in pts):
            return pts
    except ValueError:
        pass
    raise ConfigError(f"could not parse point list {text!r} as finite numbers")


def _open_out(path):
    if path in (None, "-"):
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_csv(out_path, header, rows):
    with _open_out(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(z) -> str:
    v = float(z)
    if v == 0.0:
        v = 0.0
        # drop the sign of negative zero, it is noise in CSV output
    return format(v, ".12g")


def _sobolev_from_args(args) -> SobolevSpace:
    if args.rho not in RHO_REGISTRY:
        raise ConfigError(f"unknown rho '{args.rho}'; known: {sorted(RHO_REGISTRY)}")
    return SobolevSpace(make_interval(args.lo, args.hi), args.c, RHO_REGISTRY[args.rho])


def cmd_kernel(args) -> int:
    if args.points:
        pts = _parse_points(args.points)
    else:
        if args.family == "pw":
            pts = list(np.linspace(-2.0, 2.0, args.grid_probe))
        else:
            lo, hi = args.lo, args.hi
            pad = 0.05 * (hi - lo)
            pts = list(np.linspace(lo + pad, hi - pad, args.grid_probe))
    if not pts:
        raise ConfigError("no probe points")
    space = PaleyWienerSpace(args.a) if args.family == "pw" else _sobolev_from_args(args)
    rows = []
    for x in pts:
        for y in pts:
            k = complex(space.kernel(x, y))
            rows.append([_fmt(x), _fmt(y), _fmt(k.real), _fmt(k.imag)])
    _write_csv(args.out, ["x", "y", "re", "im"], rows)
    return PASS_EXIT


def cmd_transform(args) -> int:
    if args.f not in SOURCES:
        raise ConfigError(f"unknown source '{args.f}'; known: {sorted(SOURCES)}")
    fn = SOURCES[args.f]
    if args.family == "pw":
        space = PaleyWienerSpace(args.a, max_frequency=args.max_frequency)
        fm = space.feature_map()
        default_probes = np.linspace(-8.0, 8.0, args.grid_probe)
    else:
        space = _sobolev_from_args(args)
        fm = space.feature_map()
        pad = 0.05 * (args.hi - args.lo)
        default_probes = np.linspace(args.lo + pad, args.hi - pad, args.grid_probe)
    probes = _parse_points(args.points) if args.points else list(default_probes)
    image = transform(sample(fm.grid, fn), fm)
    rows = []
    for x in probes:
        v = image.at(float(x))
        rows.append([_fmt(x), _fmt(v.real), _fmt(v.imag)])
    _write_csv(args.out, ["x", "re", "im"], rows)
    return PASS_EXIT


def _emit_grid_template(out_path, grid) -> None:
    """CSV template for --input: the quadrature nodes with zero values."""
    _write_csv(out_path, ["t", "re", "im"], [[_fmt(t), "0", "0"] for t in grid.nodes])


def _read_samples_csv(path, grid) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "re", "im"]:
                raise ConfigError("input CSV must start with header t,re,im")
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if len(rows) != grid.size:
        raise ConfigError(f"expected {grid.size} sample rows, found {len(rows)}")
    ts = np.empty(grid.size)
    vals = np.empty(grid.size, dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != 3:
            raise ConfigError(f"row {i + 2}: expected 3 fields")
        try:
            t, re, im = (float(v) for v in row)
        except ValueError:
            raise ConfigError(f"row {i + 2}: could not parse floats") from None
        if not all(math.isfinite(v) for v in (t, re, im)):
            raise ConfigError(f"row {i + 2}: non-finite value")
        ts[i], vals[i] = t, complex(re, im)
    if not np.allclose(ts, grid.nodes, rtol=0.0, atol=1e-9):
        raise ConfigError("sample abscissae do not match the grid nodes; use --emit-grid")
    return vals


def cmd_invert(args) -> int:
    probes = _parse_points(args.probes) if args.probes is not None else None
    if args.mode == "sobolev-span":
        space, fm, basis = _sobolev_setup()
    else:
        _, fm, basis = _pw_setup(22.0, np.arange(-20.0, 21.0))
    if args.emit_grid:
        _emit_grid_template(args.out, fm.grid)
        return PASS_EXIT
    source = HVector(fm.grid, _read_samples_csv(args.input, fm.grid)) if args.input else None
    if args.mode == "sobolev-span":
        if source is not None:
            coeffs = project_span(source, basis)
        elif args.f == "span":
            rng = np.random.default_rng(args.seed)
            coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
            source = span_combination(basis, coeffs)
        else:
            raise ConfigError("mode sobolev-span needs --f span or --input FILE")
        recover = lambda image, t: inv.invert_at(image, t, basis)
        reference = lambda t: sum(c * space.kernel(t, float(x)) for c, x in zip(coeffs, basis.points))
        default_probes = np.linspace(-0.95, 0.95, args.probe_count)
    else:
        seq = inv.indefinite_integral_sequence(fm, anchor=0.0)
        if source is not None:
            F = cumulative_integral(fm.grid, source.values)
            F0 = F(0.0)
            reference = lambda t: F(t) - F0
        elif args.f in ("one", "cos"):
            source = sample(fm.grid, SOURCES[args.f])
            reference = (lambda t: complex(t)) if args.f == "one" else (lambda t: complex(math.sin(t)))
        else:
            raise ConfigError("mode pw-primitive needs --f one, --f cos, or --input FILE")
        recover = lambda image, t: inv.generalized_invert_at(seq, image, t, basis)
        default_probes = [0.25, 0.5, 1.0]
    ts = np.asarray(default_probes if probes is None else probes, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = recover(transform(source, fm), ts)
    rows = []
    for t, g in zip(ts.tolist(), got):
        ref = complex(reference(t))
        rows.append([_fmt(v) for v in (t, g.real, g.imag, ref.real, ref.imag, abs(g - ref))])
    _write_csv(args.out, ["t", "recovered_re", "recovered_im", "reference_re", "reference_im", "abs_err"], rows)
    return PASS_EXIT


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, value)
    for name in ("suite", "seed", "radius", "panels", "nodes_per_panel", "out"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg.validate()


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    report = run_suite(cfg.suite, cfg)
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        print(
            f"{status} {rec.name}: measured={rec.measured!r} "
            f"expected={rec.expected!r} tolerance={rec.tolerance!r}"
        )
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(r.passed for r in report.records)}/{len(report.records)} records)")
    if cfg.out:
        report.write(cfg.out)
    return PASS_EXIT if report.passed else FAIL_EXIT


def cmd_report(args) -> int:
    if args.schema:
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return PASS_EXIT
    path = args.validate or args.summarize
    if not path:
        raise ConfigError("report needs --schema, --validate FILE, or --summarize FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from None
    try:
        jsonschema.validate(data, REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        print(f"invalid report: {exc.message}", file=sys.stderr)
        return FAIL_EXIT
    if args.validate:
        print("report is valid")
        return PASS_EXIT
    n = len(data["records"])
    n_pass = sum(r["pass"] for r in data["records"])
    print(f"suite {data['suite']} seed {data['seed']}: {n_pass}/{n} records pass")
    worst = sorted(
        data["records"], key=lambda r: abs(r["measured"] - r["expected"]) - r["tolerance"]
    )
    for rec in worst[-3:]:
        print(f"  {'PASS' if rec['pass'] else 'FAIL'} {rec['name']}: measured={rec['measured']!r}")
    return PASS_EXIT if data["pass"] else FAIL_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkhskit",
        description="Integral transforms of Hilbert spaces: kernels, inversion, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="tabulate kernel values as CSV (x,y,re,im)")
    p_kernel.add_argument("--family", choices=["pw", "sobolev"], required=True)
    p_kernel.add_argument("--a", type=float, default=1.0, help="bandlimit half-width (pw)")
    p_kernel.add_argument("--rho", default="const", help="weight name (sobolev)")
    p_kernel.add_argument("--lo", type=float, default=-1.0)
    p_kernel.add_argument("--hi", type=float, default=1.0)
    p_kernel.add_argument("--c", type=float, default=0.0, help="anchor point (sobolev)")
    p_kernel.add_argument("--grid-probe", type=_nonnegative_int, default=5, help="probes per axis")
    p_kernel.add_argument("--points", help="explicit comma-separated probe list")
    p_kernel.add_argument("--out", help="output path (default stdout)")
    p_kernel.set_defaults(fn=cmd_kernel)

    p_tr = sub.add_parser("transform", help="tabulate a transformed vector as CSV (x,re,im)")
    p_tr.add_argument("--family", choices=["pw", "sobolev"], required=True)
    p_tr.add_argument("--f", default="window", help=f"source name: {sorted(SOURCES)}")
    p_tr.add_argument("--a", type=float, default=1.0)
    p_tr.add_argument("--max-frequency", type=float, default=40.0)
    p_tr.add_argument("--rho", default="const")
    p_tr.add_argument("--lo", type=float, default=-1.0)
    p_tr.add_argument("--hi", type=float, default=1.0)
    p_tr.add_argument("--c", type=float, default=0.0)
    p_tr.add_argument("--grid-probe", type=_nonnegative_int, default=9)
    p_tr.add_argument("--points", help="explicit comma-separated probe list")
    p_tr.add_argument("--out", help="output path (default stdout)")
    p_tr.set_defaults(fn=cmd_transform)

    p_inv = sub.add_parser(
        "invert", help="recover source values; CSV (t, recovered, reference, abs_err)"
    )
    p_inv.add_argument("--mode", choices=["sobolev-span", "pw-primitive"], required=True)
    p_inv.add_argument("--f", default="span", help="builtin source: span, one, or cos")
    p_inv.add_argument("--input", help="CSV of source samples at the grid nodes (t,re,im)")
    p_inv.add_argument("--probes", help="comma-separated evaluation points (empty for none)")
    p_inv.add_argument("--probe-count", type=_nonnegative_int, default=9)
    p_inv.add_argument("--seed", type=int, default=42)
    p_inv.add_argument("--emit-grid", action="store_true", help="print the grid nodes and exit")
    p_inv.add_argument("--out", help="output path (default stdout)")
    p_inv.set_defaults(fn=cmd_invert)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", default=None, help=f"one of {suite_names()}")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--radius", type=float, default=None)
    p_ver.add_argument("--panels", type=int, default=None)
    p_ver.add_argument("--nodes-per-panel", dest="nodes_per_panel", type=int, default=None)
    p_ver.add_argument("--config", help="JSON file of run configuration (flags win)")
    p_ver.add_argument("--out", help="write the JSON report here")
    p_ver.set_defaults(fn=cmd_verify)

    p_rep = sub.add_parser("report", help="report schema and report-file tools")
    p_rep.add_argument("--schema", action="store_true", help="print the JSON schema")
    p_rep.add_argument("--validate", help="validate a report file against the schema")
    p_rep.add_argument("--summarize", help="summarize a report file")
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT


if __name__ == "__main__":
    sys.exit(main())
