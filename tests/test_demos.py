"""Each demo script prints exactly what it printed when its golden file
was written: the demos are the README's worked examples, so a changed
witness, number or layout shows up here as a diff."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert [demo.stem for demo in DEMOS] == sorted(path.stem for path in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_matches_golden(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
