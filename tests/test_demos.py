"""Smoke test of the demos: each runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_crosscheck_demo_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "oracle_crosscheck.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
