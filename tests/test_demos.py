"""Smoke test of the demo scripts: each must run to completion.

The three take about 6 s together on a 2-core x86-64 box.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["01_coherent_image.py", "02_speckle_statistics.py",
                                    "03_ghost_reconstruction.py"])
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
