"""The benchmark still fits the package: one traced pass of each workload
runs, every report passes, uninstalling the tracer puts every patched name
back, and each workload suite produces exactly the records the benchmark
expects.  A pass that finds every chirp-z plan cached counts the same work
as one that builds them.

A change that drops a parameter a tracer counter reads from a signature
(say, the keywords of ``SobolevSpace.kernel``), or that adds a record to a
workload suite, fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from collections import OrderedDict
from pathlib import Path

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
