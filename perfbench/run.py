"""rkhskit benchmark: one workload in this process, every record checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fourier --seed 1 --seconds 25 --trace 0

Each pass runs the workload's verification suites once through
``rkhskit.suites.run_suite`` (the path of ``rkhskit verify``), serialises
every report with ``Report.to_json`` and validates it against
``REPORT_SCHEMA``. Passes repeat until ``--seconds`` is used up; pass k runs
with ``RunConfig.seed = seed + k``. Every pass is gated: each expected record
must be present and pass at its pinned tolerance, and a suite that raises
fails all of its records.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced passes at the workload seed, asserts that
the exact work counts repeat between traced passes and in a fresh
interpreter (``count_probe.py``), and writes the spans of the last traced
pass under ``.perfbench-out/``. Metric names and units come from
``BENCHMARK.json``. The exit code is 1 when any check fails.

BLAS and OpenMP run one thread: the caps are set before numpy loads, here
and in every child process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_PASSES = 2
MIN_TRACED_PASSES = 1  # count_probe.py runs one more, in a fresh interpreter
SETUP_REPEATS = 7


def child_env() -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_facts() -> dict:
    import importlib.util
    import platform

    import numpy as np
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError):
        openblas = "unknown"
    threadpoolctl = importlib.util.find_spec("threadpoolctl") is not None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        # without threadpoolctl, cli._thread_limit is a null context: RKHS_THREADS does nothing
        "threadpoolctl_imports": threadpoolctl,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter until rkhskit and
    rkhskit.cli are imported and the workload's configs are built."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    env = child_env()
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first spawn warms the byte-code cache and is not counted
            times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_pass(workload: str, seed: int, tracer=None) -> tuple:
    """One pass: every suite of the workload, serialised and validated.

    Returns (wall seconds, [(suite, Report or the exception raised)]).
    """
    import jsonschema
    from rkhskit.reporting import REPORT_SCHEMA
    from rkhskit.suites import run_suite
    from workloads import suite_configs

    configs = suite_configs(workload, seed)
    outcomes = []
    t0 = time.perf_counter()
    for suite, cfg in configs:
        try:
            report = run_suite(suite, cfg)
            doc = json.loads(report.to_json())
            if tracer is None:
                jsonschema.validate(doc, REPORT_SCHEMA)
            else:
                tracer.call("reporting.validate", jsonschema.validate, doc, REPORT_SCHEMA)
            outcomes.append((suite, report))
        except Exception as exc:  # a raising suite counts as failed records
            traceback.print_exc(file=sys.stderr)
            outcomes.append((suite, exc))
    return time.perf_counter() - t0, outcomes


def gate(outcomes, expected: dict) -> tuple:
    """Check one pass. Returns (attempted, failed, failed_share, headroom, problems).

    A record that is missing, duplicated, unexpected or lost to an
    exception counts as failed, with headroom -1. failed_share is the
    failed records plus the suites that raised, over the records expected.
    """
    attempted = failed = raised = 0
    headroom = float("inf")
    problems = []
    for suite, outcome in outcomes:
        want = expected[suite]
        if isinstance(outcome, Exception):
            attempted += len(want)
            failed += len(want)
            raised += 1
            headroom = min(headroom, -1.0)
            problems.append(f"{suite}: raised {type(outcome).__name__}: {outcome}")
            continue
        got = {}
        for rec in outcome.records:
            got.setdefault(rec.name, []).append(rec)
        names = set(want) | set(got)
        attempted += len(names)
        for name in sorted(names):
            recs = got.get(name, [])
            if name not in want or len(recs) != 1:
                failed += 1
                headroom = min(headroom, -1.0)
                problems.append(f"{suite}: record {name!r} appears {len(recs)} times, expected {int(name in want)}")
                continue
            rec = recs[0]
            headroom = min(headroom, 1.0 - abs(rec.measured - rec.expected) / rec.tolerance)
            if not rec.passed:
                failed += 1
                problems.append(
                    f"{suite}: FAIL {name}: measured={rec.measured!r} expected={rec.expected!r} "
                    f"tolerance={rec.tolerance!r}"
                )
    n_expected = sum(len(expected[suite]) for suite, _ in outcomes)
    return attempted, failed, (failed + raised) / n_expected, headroom, problems


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: str, seed: int, seconds: float, expected: dict) -> tuple:
    setup_s = measure_setup(workload, seed)
    walls, attempted, failed, problems = [], 0, 0, []
    headroom = None
    worst_share = 0.0  # per pass, so more passes do not dilute a failure
    start = time.perf_counter()
    while True:
        wall, outcomes = run_pass(workload, seed + len(walls))
        a, f, share, h, p = gate(outcomes, expected)
        if headroom is None:  # the pass at --seed, so it does not depend on the pass count
            headroom = h
        worst_share = max(worst_share, share)
        walls.append(wall)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "tolerance_headroom": headroom,
        "passed_share": 1.0 - worst_share,
    }
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"{workload} failed_share = {worst_share:.6g} ratio (worst pass)")
    return metrics, attempted, failed, problems


def probe_counts(workload: str, seed: int) -> dict:
    """Exact counts of one traced pass in a fresh interpreter."""
    probe = [sys.executable, str(Path(__file__).with_name("count_probe.py")), workload, str(seed)]
    done = subprocess.run(probe, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_traced(workload: str, seed: int, seconds: float, expected: dict) -> tuple:
    from tracer import Tracer
    from workloads import WORKLOADS

    all_suites = [s for w in WORKLOADS.values() for s, _ in w]
    tracer = Tracer()
    untraced, traced, layer_runs, counts = [], [], [], []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    while True:
        trace_this = bool(untraced) and (len(traced) < MIN_TRACED_PASSES or len(traced) <= len(untraced))
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                wall, outcomes = run_pass(workload, seed, tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            layer_runs.append(tracer.layer_metrics(all_suites, wall))
            counts.append(tracer.exact_counts())
        else:
            wall, outcomes = run_pass(workload, seed)
            untraced.append(wall)
        a, f, _, _, p = gate(outcomes, expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_TRACED_PASSES and elapsed + statistics.median(untraced + traced) > seconds:
            break

    counts.append(probe_counts(workload, seed))
    for i, other in enumerate(counts[1:], start=1):
        if other != counts[0]:
            where = "in a fresh interpreter" if i == len(counts) - 1 else f"in traced pass {i}"
            diff = sorted(k for k in set(other) | set(counts[0]) if other.get(k) != counts[0].get(k))
            problems.append(f"exact counts differ {where} from traced pass 0: {diff[:10]}")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)

    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    print(f"passes untraced {len(untraced)}, traced {len(traced)} and 1 in a fresh interpreter; "
          f"exact counts repeat: {all(c == counts[0] for c in counts)}")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "rkhskit" / "__init__.py").is_file():
        print(f"error: no rkhskit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)  # before anything below loads numpy
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, expected_records

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    import rkhskit

    if not Path(rkhskit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: rkhskit imported from {rkhskit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    facts = machine_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    expected = expected_records()
    run = run_traced if args.trace else run_untraced
    values, attempted, failed, problems = run(args.workload, args.seed, args.seconds, expected)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are not both measured and in BENCHMARK.json",
              file=sys.stderr)
        return 2
    for line in problems:
        print(line, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
