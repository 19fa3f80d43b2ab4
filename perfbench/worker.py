"""One workload process of the benchmark; started by run.py, not by hand.

    worker.py --workload W --seed S --mode setup|measure|trace
              [--seconds N] [--quick]

Every mode first sets up: imports sgtori and sgtori.cli, makes the seeded
input stream and runs one warm-up op on a fixed input, then prints READY.
All modes then time the CPU probe, which scales the set-up time to the
reference host speed; `setup` prints it and exits.  `measure` runs ops in a
closed loop (one caller; the next op starts when the previous one returns)
until the timed ops add up to N seconds and the last block of inputs is
whole, checking each output outside the timed region and timing the CPU
probe between ops.  `trace` runs the first ops of the stream once untraced
and once with the span tracer installed, then the workload's probe inputs,
if it has any.  Both print one JSON object as their last line.
"""

import argparse
import itertools
import json
from importlib import metadata
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def cpu_probe():
    """Seconds for a small fixed mix of interpreter and NumPy work (about
    10 ms): the benchmark's yardstick of host speed."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    a = np.linspace(0.0, 1.0, 10_000)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


def run_op(wl, inp):
    """(seconds, problems, output); the check runs outside the timed span."""
    t0 = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception as e:  # an op that raises counts as failed
        return time.perf_counter() - t0, [f"{type(e).__name__}: {e}"], None
    return time.perf_counter() - t0, None, out


def measure(wl, inputs, seconds, block):
    """Closed loop over the inputs until `seconds` of timed ops, ending on a
    whole block of `block` ops so that every run meets the same mix of
    inputs; the CPU probe runs, untimed, before each op and after the last."""
    lat = []
    probes = []
    failures = []
    timed = 0.0
    for inp in inputs:
        probes.append(cpu_probe())
        dt, problems, out = run_op(wl, inp)
        timed += dt
        lat.append(dt)
        if problems is None:
            problems = wl.check(inp, out)
        if problems:
            failures.append({"input": repr(inp)[:200], "problems": problems})
        if timed >= seconds and len(lat) % block == 0:
            break
    probes.append(cpu_probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"attempted": len(lat), "failed": len(failures), "timed_s": timed,
            "latencies_s": lat, "probes_s": probes, "peak_rss_mb": rss_mb,
            "failures": failures[:5]}


def failures_of(wl, inp_outs):
    failures = []
    for inp, (_, problems, out) in inp_outs:
        if problems is None:
            problems = wl.check(inp, out)
        if problems:
            failures.append({"input": repr(inp)[:200], "problems": problems})
    return failures


def trace(wl, inputs, n_ops):
    from tracer import Tracer
    ops = list(itertools.islice(inputs, n_ops))

    t0 = time.perf_counter()
    for inp in ops:
        run_op(wl, inp)
    untraced = time.perf_counter() - t0

    tr = Tracer().install()
    try:
        outs = []
        t0 = time.perf_counter()
        for inp in ops:
            outs.append(run_op(wl, inp))
        traced = time.perf_counter() - t0
    finally:
        tr.close()
    # checks call into the package too; run them with the tracer removed
    failures = failures_of(wl, zip(ops, outs))
    metrics = tr.metrics()
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["trace.covered_frac"] = tr.covered_s() / traced
    # inputs the op is known to fail on, kept apart from the timed ops
    probe = wl.probe_inputs() if hasattr(wl, "probe_inputs") else []
    probe_failures = failures_of(wl, ((p, run_op(wl, p)) for p in probe))
    metrics["probe.inputs"] = len(probe)
    metrics["probe.failed"] = len(probe_failures)
    return {"attempted": n_ops, "failed": len(failures), "metrics": metrics,
            "traced_s": traced, "untraced_s": untraced,
            "failures": failures[:5], "probe_failures": probe_failures}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import sgtori
    import sgtori.cli  # noqa: F401  (part of set-up: the CLI's import cost)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(np.random.default_rng(args.seed))
    _, problems, out = run_op(wl, wl.warmup_input())
    print("READY", flush=True)
    problems = problems or wl.check(wl.warmup_input(), out)
    if problems:
        sys.exit(f"warm-up op failed: {problems}")
    probe_s = statistics.median(cpu_probe() for _ in range(5))
    if args.mode == "setup":
        print(json.dumps({"cpu_probe_s": probe_s}), flush=True)
        return

    from sgtori import kernels
    try:
        numba_version = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba_version = "absent"
    facts = {"kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
             "numba": numba_version,
             "python": sys.version.split()[0],
             "numpy": np.__version__,
             "sgtori": sgtori.__version__,
             "cpu_probe_s": probe_s}
    if args.mode == "measure":
        res = measure(wl, inputs, args.seconds,
                      1 if args.quick else wl.block)
    else:
        res = trace(wl, inputs, 1 if args.quick else wl.trace_ops)
    res["facts"] = facts
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
