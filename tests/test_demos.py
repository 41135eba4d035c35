"""Each demo runs to completion against the current public API.

The demos import names that no test imports the same way, so a renamed or
deleted name could break one unseen.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["barrier_pricing_curves.py",
                                  "bond_and_forward_volatility.py",
                                  "kernel_gallery.py",
                                  "monte_carlo_verification.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # run in a scratch directory: barrier_pricing_curves.py writes ./out
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
