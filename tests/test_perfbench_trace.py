"""The benchmark still fits the package: one traced pass of each workload
runs, every report passes, uninstalling the tracer puts every patched name
back, and each workload suite produces exactly the records the benchmark
expects.

A change that drops a parameter a tracer counter reads from a signature
(say, the keywords of ``SobolevSpace.kernel``), or that adds a record to a
workload suite, fails here, not only in a benchmark run.
"""

import importlib.util
import sys
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
