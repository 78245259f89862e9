"""The benchmark harness's self-tests, run from the repository root.

They trace a lensfill command through perfbench/traced.py, so they also
fail when a layer function that the tracer wraps by name is renamed.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    res = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
