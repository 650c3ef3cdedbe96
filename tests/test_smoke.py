"""Whole-program smoke checks: the demos run to completion, and importing
the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


@pytest.mark.parametrize(
    "name",
    [
        "01_weighted_quadrature.py",
        "02_sobolev_kernels.py",  # closed-form kernels and refinement through the constructor
        "03_bandlimited_sinc.py",  # sinc_gram against pi * sinc_ratio
        "04_inversion_walkthrough.py",  # span bases and inversion on feature matrices
        # its 8-wide box at radius 25 has 4075 time panels against 510
        # frequency panels, a geometry no suite pins
        "05_fourier_unitarity.py",
    ],
)
def test_demo_runs(name):
    demo = ROOT / "demos" / name
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


@pytest.fixture(scope="module")
def loaded_beyond_numpy():
    # the top-level modules that `import rkhskit, rkhskit.cli` loads beyond a
    # bare `import numpy`, minus the standard library, in one fresh interpreter
    code = (
        "import sys, numpy; before = set(sys.modules); import rkhskit, rkhskit.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names) - {'numpy'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return proc.stdout.decode().strip()


def test_import_loads_only_the_stdlib_and_numpy(loaded_beyond_numpy):
    # start-up time is what every command pays: beyond a bare numpy import,
    # the package and its CLI load only standard-library modules
    assert loaded_beyond_numpy == "['rkhskit']"


def test_import_loads_no_scipy(loaded_beyond_numpy):
    # the package needs only numpy; scipy.linalg alone would take more
    # than half of the package's import time
    assert "'scipy'" not in loaded_beyond_numpy


def test_import_loads_no_jsonschema(loaded_beyond_numpy):
    # only `rkhskit report` validates against the schema; importing
    # jsonschema at start-up cost every other command about 60 ms
    assert "'jsonschema'" not in loaded_beyond_numpy
