"""The benchmark's output checks (`perfbench/checks.py`) against this source
tree. `perfbench/selftest.py` runs the idcodes commands on small graphs,
requires every check to accept their outputs and to reject each output
corrupted in one place; a change that alters what a command prints, or
what the checks parse, fails here before it fails a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
    assert r.stdout.splitlines()[-1] == "all cases as expected"
