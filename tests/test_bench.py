"""The benchmark's self-test: every workload at K=2, untraced and traced.

It checks the exact call count of every traced layer, so a renamed layer or
a loop that changes its calls fails here as well as in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_test_passes():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
