"""Smoke test of the benchmark's quick mode.

    python3 -m pytest perfbench/test_quick.py

Quick mode runs one op of every workload in both modes and checks the
result schema against BENCHMARK.json.  Two quick runs with one seed must
report identical solver counts.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick(seed):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick",
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_mode_schema_and_repeatable_counts():
    first = _quick(7)
    assert first["quick"] == "ok"
    assert set(first["counts"]) == {"g1_sweep", "torus_closing",
                                    "willmore_sg", "g2_lattice"}
    assert first["counts"]["torus_closing"]["kernels.drive.accepted_steps"] > 0
    assert first["counts"]["g2_lattice"][
        "genus2.contour_integrals.calls_per_lattice"] > 0
    assert _quick(7)["counts"] == first["counts"]
