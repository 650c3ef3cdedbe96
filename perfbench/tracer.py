"""In-memory span tracer for the rkhskit package modules.

Tracing wraps, from outside the package, the public functions of each
module (its ``__all__``) and the public methods of the classes it defines.
A wrapper replaces the function in every package namespace that imported it
by name, so a call is seen whichever module makes it. Each span records its
name, start, end and parent; spans stay in memory until the run ends.

Some spans also count work. The counts are exact, and those named
``kernel_exps`` and ``madds`` are computed from argument shapes, not
measured inside the kernels.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("numerics", "transforms", "spaces", "inversion", "plancherel", "reporting", "suites")


def _callable_key(fn):
    """Stable identity of a weight function across processes."""
    if fn is None:
        return None
    code = getattr(fn, "__code__", None)
    return (code.co_filename, code.co_firstlineno) if code is not None else repr(fn)


def _count_build_grid(a, result):
    key = (
        a["interval"].lo,
        a["interval"].hi,
        int(a["panels"]),
        int(a["nodes_per_panel"]),
        _callable_key(a["rho"]),
        tuple(sorted(float(b) for b in a["breakpoints"])),
    )
    return {"nodes": result.size}, key


def _count_fsum(a, result):
    return {"terms": int(np.size(a["terms"]))}, None


def _count_fourier(a, result):
    # _axis_apply contracts one axis at a time: exp(-i x t) for every
    # (lattice node, box node) pair, then a (m x n) @ (n x rest) product.
    shape = list(a["box"].shape)
    exps = madds = 0
    for j, dst in enumerate(a["lattice"].axes):
        m, n = dst.size, shape[j]
        exps += m * n
        madds += m * math.prod(shape)
        shape[j] = m
    return {"kernel_exps": exps, "madds": madds}, None


def _count_transform_at(a, result):
    axes = tuple(a["src_axes"])
    pts = np.asarray(a["points"], dtype=float)
    probes = pts.size if (pts.ndim <= 1 and len(axes) == 1) else np.atleast_2d(pts).shape[0]
    return {"madds": probes * math.prod(g.size for g in axes)}, None


def _count_span_basis(a, result):
    return {"gram_entries": result.size ** 2}, None


def _count_sinc_ratio(a, result):
    return {"points": int(np.size(a["u"]))}, None


def _count_sobolev_kernel(a, result):
    s = a["self"]
    key = (
        s.interval.lo,
        s.interval.hi,
        s.c,
        _callable_key(s.rho),
        float(a["x"]),
        float(a["y"]),
        a["panels"],
        a["nodes_per_panel"],
    )
    return {}, key


COUNTERS = {
    "numerics.build_grid": _count_build_grid,
    "numerics.fsum_complex": _count_fsum,
    "plancherel.fourier_on_lattice": _count_fourier,
    "plancherel.transform_at": _count_transform_at,
    "transforms.build_span_basis": _count_span_basis,
    "spaces.sinc_ratio": _count_sinc_ratio,
    "spaces.SobolevSpace.kernel": _count_sobolev_kernel,
}

PRIMITIVE = "numerics.cumulative_integral.primitive"

# (metric prefix, span name, fields); "calls" and "s" come from the spans,
# the other fields from the counters or from derived ratios.
PER_LAYER = (
    ("plancherel.fourier_on_lattice", "plancherel.fourier_on_lattice",
     ("calls", "s", "kernel_exps", "madds", "madds_per_s")),
    ("plancherel.transform_at", "plancherel.transform_at", ("calls", "s", "madds")),
    ("plancherel.sample_on_box", "plancherel.sample_on_box", ("s",)),
    ("numerics.build_grid", "numerics.build_grid", ("calls", "s", "nodes", "distinct_ratio")),
    ("numerics.inner_weighted", "numerics.inner_weighted", ("calls", "s")),
    ("numerics.fsum_complex", "numerics.fsum_complex", ("calls", "s", "terms")),
    ("numerics.cumulative_integral", "numerics.cumulative_integral", ("calls", "s")),
    ("numerics.cumulative_integral.primitive", PRIMITIVE, ("calls", "s")),
    ("transforms.build_span_basis", "transforms.build_span_basis", ("calls", "s", "gram_entries")),
    ("transforms.project_span", "transforms.project_span", ("calls", "s")),
    ("transforms.TransformImage.at", "transforms.TransformImage.at", ("calls", "s")),
    ("transforms.kernel_eval", "transforms.kernel_eval", ("calls", "s")),
    ("spaces.SobolevSpace.kernel", "spaces.SobolevSpace.kernel", ("calls", "s", "distinct_ratio")),
    ("spaces.tensor_feature", "spaces.tensor_feature", ("s",)),
    ("spaces.sinc_identity_check", "spaces.sinc_identity_check", ("calls", "s")),
    ("spaces.sinc_ratio", "spaces.sinc_ratio", ("calls", "s", "points")),
    ("inversion.restriction_isometry_check", "inversion.restriction_isometry_check", ("calls", "s")),
    ("inversion.invert_at", "inversion.invert_at", ("calls", "s")),
    ("inversion.generalized_invert_at", "inversion.generalized_invert_at", ("calls", "s")),
    ("reporting.make_record", "reporting.make_record", ("calls",)),
    ("reporting.to_json", "reporting.Report.to_json", ("s",)),
    ("reporting.validate", "reporting.validate", ("s",)),
)

# Counts that must repeat exactly between two passes with the same seed.
EXACT_FIELDS = ("calls", "nodes", "terms", "kernel_exps", "madds", "gram_entries", "points")


class Tracer:
    """Installs span wrappers on the rkhskit modules and keeps the spans."""

    def __init__(self) -> None:
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list = []
        self.counts: dict = defaultdict(int)  # (span name, field) -> total
        self.keys: dict = defaultdict(set)  # span name -> distinct argument keys

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (for benchmark-side calls)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        if counter is not None:
            params = inspect.signature(fn).parameters
            names = tuple(params)
            defaults = {k: p.default for k, p in params.items()}
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                bound = dict(defaults)
                bound.update(zip(names, args))
                bound.update(kwargs)
                fields, key = counter(bound, result)
                for field, value in fields.items():
                    tracer.counts[name, field] += value
                if key is not None:
                    tracer.keys[name].add(key)
            if name == "numerics.cumulative_integral":
                result = tracer.wrap(PRIMITIVE, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def _patch(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self) -> None:
        """Wrap every public function and method of the package modules."""
        mods = {name: importlib.import_module(f"rkhskit.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("rkhskit"), importlib.import_module("rkhskit.cli")]
        namespaces += mods.values()
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for key, value in list(vars(obj).items()):
                        if not key.startswith("_") and inspect.isfunction(value):
                            self._patch(obj, key, self.wrap(f"{layer}.{attr}.{key}", value))
        for suite, fn in list(mods["suites"].SUITES.items()):
            self._patch(mods["suites"].SUITES, suite, self.wrap(f"suites.{suite}", fn))

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- metrics ---------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count that must repeat between passes with the same seed."""
        out = {f"{name}.calls": n for name, n in Counter(s[0] for s in self.spans).items()}
        for (name, field), value in self.counts.items():
            if field in EXACT_FIELDS:
                out[f"{name}.{field}"] = value
        return out

    def layer_metrics(self, suite_names, pass_wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        def has_ancestor(i, pred):
            p = self.spans[i][3]
            while p >= 0:
                if pred(self.spans[p][0]):
                    return True
                p = self.spans[p][3]
            return False

        calls = defaultdict(int)
        total = defaultdict(float)  # outermost spans only, so recursion is not counted twice
        self_s = defaultdict(float)
        plancherel_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[layer] += dur - child_time[i]
            if not has_ancestor(i, lambda other: other == name):
                total[name] += dur
            if layer == "plancherel" and not has_ancestor(i, lambda other: other.startswith("plancherel.")):
                plancherel_s += dur

        out = {}
        for prefix, span, fields in PER_LAYER:
            for field in fields:
                if field == "calls":
                    value = calls[span]
                elif field == "s":
                    value = total[span]
                elif field == "distinct_ratio":
                    value = len(self.keys.get(span, ())) / calls[span] if calls[span] else 0.0
                elif field == "madds_per_s":
                    value = self.counts.get((span, "madds"), 0) / total[span] if total[span] else 0.0
                else:
                    value = self.counts.get((span, field), 0)
                out[f"{prefix}.{field}"] = value
        for suite in suite_names:
            out[f"suites.{suite}.s"] = total[f"suites.{suite}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["plancherel.pass_share"] = plancherel_s / pass_wall
        return out

    def dump(self) -> dict:
        """Spans as plain data: a name table and (name, start, end, parent) rows."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]
        return {"names": names, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}
