"""Smoke test: the quick demos run to completion as standalone scripts.

Each demo runs in a fresh interpreter with `PYTHONPATH=src`, the way the
README tells a reader to run it, and must exit 0. Demos 04 (one training
step) and 05 (a full incremental protocol) are left out: each takes 10-15 s
and trains through code that the engine and acceptance tests already cover,
while the four below take under a second each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_autodiff_basics.py",
    "02_cosine_classifier.py",
    "03_synthetic_data_and_protocols.py",
    "06_herding_vs_random.py",
])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
