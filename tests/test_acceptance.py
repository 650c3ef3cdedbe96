"""Acceptance gate: the pinned desk-scale scenarios, one test per criterion.

Each test runs its scenario at the documented default parameters, requires
every check record to pass at the pinned tolerance, and enforces the
runtime budget.  The printed line per criterion shows the worst margin.
"""

import os
import subprocess
import sys
import time

from rkhskit.suites import RunConfig, run_suite


def _run(name, budget_s, label):
    t0 = time.perf_counter()
    rep = run_suite(name, RunConfig(suite=name))
    elapsed = time.perf_counter() - t0
    failed = [r for r in rep.records if not r.passed]
    worst = max(
        (abs(r.measured - r.expected) - r.tolerance for r in rep.records),
        default=float("-inf"),
    )
    status = "PASS" if not failed else "FAIL"
    print(f"acceptance {label}: {status} ({len(rep.records)} records, "
          f"worst margin {worst:+.3e}, {elapsed:.2f}s)")
    assert not failed, [f"{r.name}: {r.measured} vs {r.expected} (tol {r.tolerance})" for r in failed]
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    return rep


def test_01_reproducing_property():
    # kernel sections evaluate members pointwise, two weights x two windows
    _run("reproducing", 5.0, "01 reproducing property")


def test_02_isometry_of_indefinite_transform():
    _run("isometry", 1.0, "02 isometry")


def test_03_contraction_and_equality_case():
    _run("contraction", 10.0, "03 contraction")


def test_04_kernel_identities():
    _run("kernels", 5.0, "04 kernel identities")


def test_05_sine_product_integral_identity():
    _run("sinc", 0.5, "05 sinc identity")


def test_06_span_inversion_round_trip():
    _run("inversion", 2.0, "06 inversion")


def test_07_generalized_inversion_primitives():
    _run("generalized-inversion", 2.0, "07 generalized inversion")


def test_08_orthonormal_coefficients():
    _run("cons", 10.0, "08 orthonormal coefficients")


def test_09_plancherel_at_desk_scale():
    t0 = time.perf_counter()
    _run("plancherel-norm", 3.0, "09a norm preservation")
    _run("mutual-inverse", 3.0, "09b mutual inverse")
    _run("box-inversion", 1.5, "09c box inversion")
    total = time.perf_counter() - t0
    print(f"acceptance 09 plancherel total: {total:.1f}s")
    assert total < 6.0


def test_10_verification_is_deterministic():
    # two full runs of the everything-suite must print identical bytes
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "rkhskit.cli", "verify", "--suite", "all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    identical = first.stdout == second.stdout
    status = "PASS" if first.returncode == 0 and identical else "FAIL"
    lines = len(first.stdout.splitlines())
    print(f"acceptance 10 determinism: {status} ({lines} lines per run)")
    assert first.returncode == 0, first.stderr.decode()[-2000:]
    assert second.returncode == 0
    assert identical
