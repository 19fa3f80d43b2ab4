"""Tier-1 smoke test of the benchmark harness against the package.

perfbench/tracer.py wraps kernels.drive and kernels.genus1_drive by name and
reads their return values; one quick torus_closing run (about 5 s) fails
here if that contract breaks.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_quick_torus_closing():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick",
         "--workload", "torus_closing"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["quick"] == "ok"
