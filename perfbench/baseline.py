"""Run every workload once untraced and once traced, print each metric with
its unit, and write the results to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seed 42]

Each run is its own process (perfbench/run.py), so every workload starts
from a fresh interpreter with the BLAS caps in place, and lasts run_seconds
from BENCHMARK.json. Exits 1 when any check of any run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # run.py exits 1 when a check fails but still prints its result, so read it first
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise subprocess.CalledProcessError(done.returncode, cmd, done.stdout, done.stderr)
    facts = next(json.loads(ln[len("facts "):]) for ln in lines if ln.startswith("facts "))
    return facts, json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    out = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        facts, untraced = run(workload, args.seed, seconds, 0)
        _, traced = run(workload, args.seed, seconds, 1)
        out["facts"] = facts
        failed_share = 1.0 - untraced["metrics"]["passed_share"]["value"]
        correct = untraced["correct"] and traced["correct"]
        ok = ok and correct
        out["workloads"][workload] = {
            "correct": correct,
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "failed_share": failed_share,
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        for name, m in untraced["metrics"].items():
            print(f"{workload:<11} {name:<20} {m['value']:>12.6g} {m['unit']}")
        print(f"{workload:<11} {'failed_share':<20} {failed_share:>12.6g} ratio")
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
