"""Smoke test of the demos: each runs to completion in a fresh interpreter
and writes nothing into the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Files a demo writes into the output directory given as its argument.
OUTPUTS = {"reference_table": ["scaled_polarizabilities.csv", "scaled_polarizabilities.json"]}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    outputs = OUTPUTS.get(demo.stem, [])
    before = sorted(demo.parent.iterdir())
    proc = subprocess.run(
        [sys.executable, str(demo)] + ([str(tmp_path)] if outputs else []),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert sorted(p.name for p in tmp_path.iterdir()) == outputs
    assert sorted(demo.parent.iterdir()) == before
