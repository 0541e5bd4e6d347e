"""The quick demos run to the end against the package in this checkout.

desk_tuning.py runs a desk-scale tuning and is left to the acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["certification_sizes.py", "shaping_curves.py", "pvtol_closed_loop.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    # the checkout's package, not whatever the inherited PYTHONPATH finds
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
