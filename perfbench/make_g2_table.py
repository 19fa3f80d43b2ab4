"""Write g2_potentials.json, the generic inputs of the g2_lattice workload.

    python3 perfbench/make_g2_table.py

Potentials (alpha, beta, gamma) are drawn with alpha, beta complex and the
real and imaginary parts and ln gamma normal with standard deviation 0.25,
from a fixed generator, until N_DRAWS_OK draws pass.  Each draw runs the
g2_lattice op and its check once.  With standard deviation 1 single ops took
up to a minute (NumPy path on a 2-core virtual machine), longer than a
benchmark run, and about 5% of them failed.

Each passing draw is stored with its work: the number of branch-tracking
passes (genus2._track_nu calls) its op makes, which sets most of the op's
time and, unlike a timing, repeats exactly.  Draws with at most SLOW_FACTOR
times the median work go under "generic"; the workload takes the same
number of them from each work stratum.  The dearer ones go under "dear",
dearest first; every run executes them in that order, one per block, so
each run meets the same tail.  Draws that raise or miss the check go under
"failing" with the error: the end-to-end runs must not fail, so the traced
run executes them as a probe of that defect (mu_at_roots, see the roadmap)
and reports how many still fail.
"""

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from sgtori import genus2  # noqa: E402
from workloads import G2_TABLE, G2Lattice  # noqa: E402

TABLE_SEED = 20170802
SIGMA = 0.25
N_DRAWS_OK = 160
SLOW_FACTOR = 3.0


def count_calls(module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)


def main():
    wl = G2Lattice()
    rng = np.random.default_rng(TABLE_SEED)
    tracks = [0]
    count_calls(genus2, "_track_nu", tracks)
    passed, work, failing = [], [], []
    while len(passed) < N_DRAWS_OK:
        x = SIGMA * rng.normal(size=5)
        row = [float(x[0]), float(x[1]), float(x[2]), float(x[3]),
               math.exp(x[4])]
        inp = ("potential", tuple(row))
        tracks[0] = 0
        try:
            out = wl.op(inp)
            n = tracks[0]
            problems = wl.check(inp, out)
        except Exception as e:  # record every failure, whatever its type
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            failing.append({"potential": row, "problems": problems})
        else:
            passed.append(row)
            work.append(n)
    limit = SLOW_FACTOR * float(np.median(work))
    generic = [(n, row) for row, n in zip(passed, work) if n <= limit]
    dear = sorted(((n, row) for row, n in zip(passed, work) if n > limit),
                  reverse=True)
    doc = {"about": "alpha = a0 + i a1, beta = b0 + i b1, gamma; "
                    "see make_g2_table.py",
           "seed": TABLE_SEED, "sigma": SIGMA,
           "generic": [row for _, row in generic],
           "work": [n for n, _ in generic],
           "dear": [row for _, row in dear],
           "dear_work": [n for n, _ in dear],
           "failing": failing}
    with open(G2_TABLE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{len(generic)} generic, {len(dear)} dear, {len(failing)} failing")


if __name__ == "__main__":
    main()
