"""The benchmark's self-test runs a traced operation through the package.

perfbench/selftest.py traces one certify and one optimize operation, which
calls the wrapped ``BoundedSimplex.run`` and ``dual_run``, and checks the
benchmark's metric names and its gate. Running it here makes a change to
those signatures or to the CLI fail this suite, not only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
