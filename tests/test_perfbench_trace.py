"""The benchmark still fits the package: one traced pass of each workload
runs, every report passes, uninstalling the tracer puts every patched name
back, and each workload suite produces exactly the records the benchmark
expects.  A pass that finds every chirp-z plan cached counts the same work
as one that builds them.

A change that drops a parameter a tracer counter reads from a signature
(say, the keywords of ``SobolevSpace.kernel``), or that adds a record to a
workload suite, fails here, not only in a benchmark run: every counter
whose function still exists is called once through its wrapper, whether
or not a workload pass reaches it.
"""

import importlib
import importlib.util
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Import a perfbench module from its file without writing byte code there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _current(target, key):
    return target[key] if isinstance(target, dict) else getattr(target, key)


@pytest.mark.parametrize("workload", ["fourier", "gram", "quadrature"])
def test_traced_pass_of_each_workload(workload):
    from rkhskit.suites import run_suite

    tracer_mod, workloads = _load("tracer"), _load("workloads")
    tracer = tracer_mod.Tracer()
    configs = workloads.suite_configs(workload, 11)
    tracer.install()
    patched = list(tracer._patches)
    try:
        reports = [(suite, run_suite(suite, cfg)) for suite, cfg in configs]
    finally:
        tracer.uninstall()
    assert patched
    for target, key, original in patched:
        assert _current(target, key) is original, key
    for suite, report in reports:
        failed = [r.name for r in report.records if not r.passed]
        assert report.records and not failed, (suite, failed)
    counts = tracer.exact_counts()
    for suite, _ in configs:
        assert counts[f"suites.{suite}.calls"] == 1


@pytest.mark.parametrize("workload", ["fourier", "gram", "quadrature"])
def test_workload_suites_produce_the_frozen_records(workload):
    # the benchmark gate counts a record it does not expect as failed
    from rkhskit.suites import run_suite

    workloads = _load("workloads")
    expected = workloads.expected_records()
    for suite, cfg in workloads.suite_configs(workload, 11):
        assert [r.name for r in run_suite(suite, cfg).records] == expected[suite], suite


def test_exact_counts_repeat_with_a_warm_plan_cache(monkeypatch):
    # the in-process form of the check run.py --trace 1 makes against a
    # fresh interpreter: a pass that builds every chirp-z plan and one that
    # finds them all cached call the same public functions as often
    from rkhskit import plancherel as pl
    from rkhskit.suites import run_suite

    tracer_mod, workloads = _load("tracer"), _load("workloads")
    monkeypatch.setattr(pl, "_PLANS", OrderedDict())
    builds, build = [], pl._build_plan
    monkeypatch.setattr(pl, "_build_plan", lambda *args: builds.append(args) or build(*args))
    counts, built = [], []
    for _ in range(2):
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            for suite, cfg in workloads.suite_configs("fourier", 11):
                run_suite(suite, cfg)
        finally:
            tracer.uninstall()
        counts.append(tracer.exact_counts())
        built.append(len(builds))
    assert built[0] > 0 and built[1] == built[0]
    assert counts[0] == counts[1]


def _counted_calls():
    """One sample call per tracer counter, keyed by its span name."""
    from rkhskit.numerics import make_interval
    from rkhskit.plancherel import box_domain
    from rkhskit.spaces import SobolevSpace

    box = box_domain((1.0,), max_frequency=2.0)
    sob = SobolevSpace(make_interval(-1.0, 1.0), 0.0)
    return {
        "numerics.build_grid": lambda fn: fn(make_interval(0.0, 1.0), 4, 8),
        "plancherel.fourier_on_lattice": lambda fn: fn(np.ones(box.size), box, box),
        "plancherel.transform_at": lambda fn: fn(np.ones(box.size), box.axes, [0.5, 1.0], -1.0),
        "transforms.build_span_basis": lambda fn: fn(sob.feature_map(), [-0.5, 0.5]),
        "spaces.sinc_ratio": lambda fn: fn(1.0, np.array([0.0, 1.0])),
        "spaces.SobolevSpace.kernel": lambda fn: fn(sob, 0.2, 0.5),
    }


def _resolve(name: str):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"rkhskit.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def test_every_tracer_counter_reads_its_function_signature():
    tracer_mod = _load("tracer")
    calls = _counted_calls()
    live = {name: fn for name in tracer_mod.COUNTERS if (fn := _resolve(name)) is not None}
    assert set(live) <= set(calls), "add a sample call for each new counter"
    for name, fn in live.items():
        tracer = tracer_mod.Tracer()
        calls[name](tracer.wrap(name, fn))
        assert [span[0] for span in tracer.spans] == [name]
        assert tracer.keys[name] or any(span == name for span, _ in tracer.counts), name
