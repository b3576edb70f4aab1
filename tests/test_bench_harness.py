"""The benchmark harness's own tests, run as part of the suite.

bench/tests installs the harness's tracer, which wraps library functions
by name (parsing.parse_polynomial among them), so a rename in src/ fails
here instead of breaking a later benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unittests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
