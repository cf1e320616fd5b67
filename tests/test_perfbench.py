"""The benchmark's output checks still judge good and corrupted outputs right.

Runs `perfbench/selftest.py` (about a second on tiny models) so that a change
to the program that breaks a benchmark check shows up in the test suite; the
benchmark itself stays out of it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
