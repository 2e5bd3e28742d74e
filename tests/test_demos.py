"""Smoke test of the demo scripts and the README's library quick start:
each must run to completion.

The three demos and the quick start take about 5 s together on a 2-core
x86-64 box.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", ["01_coherent_image.py", "02_speckle_statistics.py",
                                    "03_ghost_reconstruction.py"])
def test_demo_runs(tmp_path, script):
    proc = _run(tmp_path, [str(ROOT / "demos" / script)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    # the README's code block as written, so that the example cannot go stale
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run(tmp_path, ["-c", code + "assert gmap.shape == se.shape == (256, 256)\n"])
    assert proc.returncode == 0, proc.stderr
