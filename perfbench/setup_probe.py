"""Set-up probe: import rkhskit and rkhskit.cli, build the workload's configs.

Run in a fresh interpreter by run.py with PYTHONPATH pointing at the
sources; prints the monotonic clock when set-up is done, so the parent can
time the whole start-up from the moment it spawned this process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import rkhskit  # noqa: F401
import rkhskit.cli  # noqa: F401
from workloads import suite_configs

suite_configs(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
