"""Benchmark workloads: which verification suites each one runs, and why.

A workload is a tuple of (suite name, RunConfig overrides). One pass runs
every suite of the workload once through ``rkhskit.suites.run_suite``, the
path ``rkhskit verify`` takes. The seed is never part of the overrides: the
benchmark passes its own ``--seed`` as ``RunConfig.seed``.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = {
    # Dense truncated Fourier pairs: fourier_on_lattice and transform_at take
    # almost the whole pass, the other layers almost nothing. At the pinned
    # order of 8 nodes per panel one pass takes about 96 s on a 2-core Xeon,
    # too long for a benchmark run of at most 180 s with set-up and a
    # median over passes, so the workload runs 2 nodes per panel. Radii,
    # panel counts, probes and tolerances stay pinned; every record passes
    # with the same worst margin as at order 8.
    "fourier": (
        ("plancherel-norm", {"nodes_per_panel": 2}),
        ("mutual-inverse", {"nodes_per_panel": 2}),
        ("box-inversion", {"nodes_per_panel": 2}),
    ),
    # Many small grids, kernels, Gram assemblies and span solves, and short
    # compensated sums; no Plancherel call at all.
    "gram": (
        ("reproducing", {}),
        ("isometry", {}),
        ("contraction", {}),
        ("kernels", {}),
        ("inversion", {}),
        ("generalized-inversion", {}),
        ("cons", {}),
        ("tensor", {}),
    ),
    # The numerics layer used the other way: a few dozen one-off grids of
    # 0.4-0.8 M nodes with breakpoints, long compensated sums and sinc_ratio.
    "quadrature": (
        ("sinc", {}),
        ("restriction", {}),
    ),
}

_EXPECTED_PATH = Path(__file__).with_name("expected_records.json")


def expected_records() -> dict:
    """Record names each suite must produce, keyed by suite name."""
    with open(_EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def suite_configs(workload: str, seed: int) -> list:
    """(suite name, RunConfig) pairs of one pass of the workload."""
    from rkhskit.suites import RunConfig

    return [
        (suite, RunConfig(suite=suite, seed=seed, **overrides).validate())
        for suite, overrides in WORKLOADS[workload]
    ]
