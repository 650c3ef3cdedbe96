"""Whole-program smoke checks: the Fourier demo runs to completion, and
importing the package stays light."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_fourier_demo_runs():
    # its 8-wide box at radius 25 has 4075 time panels against 510
    # frequency panels, a geometry no suite pins
    demo = ROOT / "demos" / "05_fourier_unitarity.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone takes over a second to import
    code = "import sys, rkhskit, rkhskit.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.decode().strip() == "False"
