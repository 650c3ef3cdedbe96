"""Exact-count probe: one traced pass of a workload in a fresh interpreter.

Run by run.py with the BLAS caps and PYTHONPATH pointing at the sources;
prints the pass's exact work counts as one JSON object, so the parent can
check that they repeat across processes with the same seed.

    python3 perfbench/count_probe.py <workload> <seed>
"""

import json
import sys

from run import run_pass
from tracer import Tracer

tracer = Tracer()
tracer.install()
run_pass(sys.argv[1], int(sys.argv[2]), tracer)
print(json.dumps(tracer.exact_counts(), sort_keys=True))
