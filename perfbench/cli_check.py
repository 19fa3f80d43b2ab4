"""The README's eight CLI commands, run once each as subprocesses.

Each command's wall time, whether it exits 0, and whether its stdout parses
in the format the command promises (strict JSON, CSV with a JSON config
header, or OBJ for immersion-export) are recorded; nothing here gates the
benchmark.
"""

import json
import math
import subprocess
import sys
import time

COMMANDS = {
    "classify": (["classify", "--gamma", "2"], "json"),
    "flow": (["flow", "--gamma", "2", "--to", "1", "0"], "json"),
    "lattice": (["lattice", "--gamma", "2"], "json"),
    "tau": (["tau", "--r", "1.0", "--t", "0"], "json"),
    "willmore": (["willmore", "--r", "0.7", "--t", "0.3"], "json"),
    "figure3": (["figure3", "--r-list", "0.3,0.5,0.7,0.9", "--t-steps", "64"],
                "csv"),
    "figure4": (["figure4", "--r-list", "0.9,1.0", "--t-steps", "64",
                 "--jobs", "2"], "csv"),
    "immersion-export": (["immersion-export", "--r", "0.7", "--t", "0.2",
                          "--grid", "24"], "obj"),
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _finite_floats(fields):
    return all(math.isfinite(float(f)) for f in fields)


def parses(text, fmt):
    """True when stdout is well-formed in the command's format."""
    try:
        if fmt == "json":
            strict_json(text)
            return True
        lines = text.splitlines()
        if fmt == "csv":
            if not lines[0].startswith("# config: "):
                return False
            strict_json(lines[0][len("# config: "):])
            width = len(lines[1].split(","))
            return len(lines) > 2 and all(
                len(row.split(",")) == width and _finite_floats(row.split(","))
                for row in lines[2:])
        # obj: comments, 4-coordinate vertices and triangle faces
        for line in lines:
            kind, *fields = line.split()
            if kind == "v":
                if len(fields) != 4 or not _finite_floats(fields):
                    return False
            elif kind == "f":
                if len(fields) != 3 or not all(f.isdigit() for f in fields):
                    return False
            elif kind != "#":
                return False
        return bool(lines)
    except (ValueError, IndexError):
        return False


def run_all(root, env, deadline):
    """Per-layer metrics cli.<command>.{wall_s, exit_ok, parse_ok}; exit_ok
    is 1 for exit code 0 and 0 otherwise, also for a command still running
    at `deadline` (time.monotonic()), which is killed."""
    out = {}
    for name, (argv, fmt) in COMMANDS.items():
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sgtori.cli", *argv], cwd=root,
                env=env, capture_output=True, text=True,
                timeout=max(0.1, deadline - time.monotonic()))
            exit_ok, ok = proc.returncode == 0, parses(proc.stdout, fmt)
        except subprocess.TimeoutExpired:
            exit_ok, ok = False, False
        out[f"cli.{name}.wall_s"] = time.perf_counter() - t0
        out[f"cli.{name}.exit_ok"] = int(exit_ok)
        out[f"cli.{name}.parse_ok"] = int(ok)
    return out
