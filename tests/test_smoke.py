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
        "03_bandlimited_sinc.py",  # sinc_gram through sinc_identity_check
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


def test_import_loads_no_scipy():
    # the package needs only numpy; scipy.linalg alone would take more
    # than half of the package's import time
    code = "import sys, rkhskit, rkhskit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.decode().strip() == "[]"


def test_import_loads_no_jsonschema():
    # only `rkhskit report` validates against the schema; importing
    # jsonschema at start-up cost every other command about 60 ms
    code = "import sys, rkhskit, rkhskit.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.decode().strip() == "False"
