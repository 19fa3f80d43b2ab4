"""The sgtori benchmark: four seeded workloads, end-to-end and traced runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload g1_sweep --seed 1 --seconds 22
    python3 perfbench/run.py --workload g2_lattice --seed 1 --trace 1
    python3 perfbench/run.py --quick          # every workload, one op each

`--trace 0` measures the end-to-end metrics of BENCHMARK.json: setup time
(the median of seven fresh processes, each timed from interpreter start
through `import sgtori`, `sgtori.cli`, making the input stream and one
warm-up op), then a closed loop of ops for `--seconds` seconds of timed work
in the last of those processes, ending on a whole block of the workload's
inputs.  The timed metrics are taken at a reference host speed: each op's
wall time is scaled by REF_PROBE_S over the mean time of the CPU probe runs
just before and just after it.  A shared virtual machine's speed drifts
by a third from one minute to the next, and an op's time drifts with it, so
plain wall figures of runs a few minutes apart differ by more than a change
worth seeing.  `ops_per_s_ref` is ops over the scaled timed seconds,
`op_p50_ms_ref` the median scaled op latency; the plain wall figures
`ops_per_s` and `op_p50_ms` are on the facts line.  `setup_s` is scaled
the same way, each sample by the CPU probe timed in its process right after
set-up; the plain samples are on the facts line.

`--trace 1` runs the first ops of the input stream once untraced and once
with every public entry point wrapped (see tracer.py), then the workload's
probe inputs (g2_lattice: draws the op is known to fail on), then the eight
README commands as subprocesses; it reports the per-layer metrics.

The program runs from `src/` of the checkout with the BLAS and OpenMP thread
variables set to 1.  The line before the last carries the run facts (git
sha, kernel path, versions, nproc, seed, thread variables, CPU probe); the
last line is the result.  `--quick` runs both modes of every workload on
one op, checks the result schema against BENCHMARK.json and prints the
solver counts, which must repeat exactly for one seed.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cli_check  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
# the CPU probe's time on the host the timed metrics are scaled to; about its
# time on a 2-core x86-64 virtual machine with Python 3.11 and NumPy 2.4
REF_PROBE_S = 0.010
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a run must end within 180 s; quick mode runs every workload twice
RUN_BUDGET_S = 170.0
QUICK_BUDGET_S = 900.0
# the counts that must repeat exactly between two traced runs of one seed
REPEATABLE_COUNTS = ("kernels.drive.accepted_steps",
                     "kernels.genus1_drive.records",
                     "genus2.contour_integrals.calls_per_lattice",
                     "weierstrass.kernel_from_r.calls")


class BenchError(Exception):
    pass


def program_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(workload, seed, mode, deadline, seconds=0.0, quick=False):
    """Start one worker that must end by `deadline` (time.monotonic());
    return (setup seconds, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(float(seconds))]
    if quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{workload} {mode}: worker set-up failed")
        rest, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: worker exit {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def git_sha():
    """HEAD of the checkout, read from its .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "absent (not a git checkout)"


def run_facts(seed, worker_facts):
    facts = {"git_sha": git_sha(), "seed": seed,
             "nproc": len(os.sched_getaffinity(0)),
             "threads": {v: program_env()[v] for v in THREAD_VARS}}
    facts.update(worker_facts)
    return facts


def end_to_end(workload, seed, seconds, quick, deadline):
    n_setup = 0 if quick else SETUP_SAMPLES - 1
    setups = [run_worker(workload, seed, "setup", deadline)
              for _ in range(n_setup)]
    setup_s, res = run_worker(workload, seed, "measure", deadline, seconds,
                              quick)
    setups.append((setup_s, res["facts"]))
    lat = res["latencies_s"]
    probes = res["probes_s"]
    ref = [dt * REF_PROBE_S * 2.0 / (p0 + p1)
           for dt, p0, p1 in zip(lat, probes, probes[1:])]
    ok = res["attempted"] - res["failed"]
    metrics = {
        "ops_per_s_ref": (ok / sum(ref), "1/s"),
        "op_p50_ms_ref": (1e3 * statistics.median(ref), "ms"),
        "setup_s": (statistics.median(t * REF_PROBE_S / r["cpu_probe_s"]
                                      for t, r in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_frac": (ok / res["attempted"], "fraction"),
    }
    facts = run_facts(seed, res["facts"])
    facts.update({"ops": len(lat), "timed_s": res["timed_s"],
                  "ops_per_s": ok / res["timed_s"],
                  "op_p50_ms": 1e3 * statistics.median(lat),
                  "op_probe_p50_s": statistics.median(probes),
                  "setup_samples_s": [t for t, _ in setups],
                  "failures": res["failures"]})
    # a percentile is quoted only with at least ten samples beyond it
    if len(lat) >= 100:
        facts["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    return res["attempted"], res["failed"], metrics, facts


def per_layer_units():
    """Unit of every per-layer metric, in BENCHMARK.json order."""
    units = {}
    for name in tracer.metric_names():
        units[name] = ("s" if name.endswith("_s") else
                       "ratio" if name.endswith(("_ratio", "change_max")) else
                       "count")
    units["trace.overhead_frac"] = "fraction"
    units["trace.covered_frac"] = "fraction"
    units["probe.inputs"] = "count"
    units["probe.failed"] = "count"
    for cmd in cli_check.COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
        units[f"cli.{cmd}.exit_ok"] = "bool"
        units[f"cli.{cmd}.parse_ok"] = "bool"
    return units


def traced(workload, seed, quick, deadline):
    _, res = run_worker(workload, seed, "trace", deadline, quick=quick)
    values = dict(res["metrics"])
    values.update(cli_check.run_all(ROOT, program_env(), deadline))
    units = per_layer_units()
    metrics = {name: (values[name], units[name]) for name in units}
    facts = run_facts(seed, res["facts"])
    facts.update({"traced_s": res["traced_s"],
                  "untraced_s": res["untraced_s"],
                  "failures": res["failures"],
                  "probe_failures": res["probe_failures"]})
    return res["attempted"], res["failed"], metrics, facts


def result_line(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def check_schema(result, spec):
    """Raise BenchError unless `result` carries exactly the metrics of
    `spec` (a BENCHMARK.json metric list) with their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise BenchError("attempted/failed must be whole numbers")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise BenchError(f"metrics differ: {sorted(set(want) ^ set(got))}")
    for k, v in result["metrics"].items():
        if not (isinstance(v["value"], (int, float))
                and math.isfinite(v["value"])):
            raise BenchError(f"{k} is not a finite number")


def quick(seed, workloads, deadline):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    summary = {}
    for wl in workloads:
        for key, out in (("end_to_end",
                          end_to_end(wl, seed, 0.0, True, deadline)),
                         ("per_layer", traced(wl, seed, True, deadline))):
            attempted, failed, metrics, _ = out
            check_schema(result_line(attempted, failed, metrics), spec[key])
            if failed:
                raise BenchError(f"{wl} {key}: {failed} ops failed")
        summary[wl] = {c: metrics[c][0] for c in REPEATABLE_COUNTS}
    print(json.dumps({"quick": "ok", "counts": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sgtori", "__init__.py")):
        sys.exit("perfbench: no src/sgtori in this checkout; nothing to run")
    if args.workload is None and not args.quick:
        ap.error("--workload is required unless --quick is given")
    start = time.monotonic()
    try:
        if args.quick:
            quick(args.seed,
                  [args.workload] if args.workload else list(WORKLOADS),
                  start + QUICK_BUDGET_S)
            return
        deadline = start + RUN_BUDGET_S
        if args.trace:
            out = traced(args.workload, args.seed, False, deadline)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, False,
                             deadline)
        attempted, failed, metrics, facts = out
    except BenchError as e:
        sys.exit(f"perfbench: {e}")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result_line(attempted, failed, metrics)))


if __name__ == "__main__":
    main()
