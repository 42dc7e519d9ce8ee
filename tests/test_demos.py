"""Smoke tests for the demos that exercise the library APIs.

Each demo runs as its own process with `src` on the import path and must
exit cleanly, so an API change that breaks a demo fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_render_room.py",
                                  "02_progressive_densify.py",
                                  "03_sampling_refine.py",
                                  "04_voxel_retrieval.py",
                                  "05_losses.py",
                                  "06_full_pipeline.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
