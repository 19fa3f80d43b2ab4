"""Tier-1 smoke test of the benchmark harness against the package.

perfbench/tracer.py wraps kernels.drive and kernels.genus1_drive, the
reduced-flow entry points (genus1_flow, genus1_period) and the genus2 entry
points (build_cycles, contour_integrals, solve_b_omega, period_lattice,
mu_at_roots), by name and reads their return values; one quick run each of
torus_closing, willmore_sg and g2_lattice (about 5 s each) fails here if
that contract breaks.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--quick",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["quick"] == "ok"
    return result["counts"][workload]


def test_perfbench_quick_torus_closing():
    _quick("torus_closing")


def test_perfbench_quick_willmore_sg():
    # the tracer reads the record count at index 1 of genus1_drive's result
    counts = _quick("willmore_sg")
    assert counts["kernels.genus1_drive.records"] > 0


def test_perfbench_quick_g2_lattice():
    # one moment-table quadrature per cycle
    counts = _quick("g2_lattice")
    assert counts["genus2.contour_integrals.calls_per_lattice"] == 4.0
