"""The four seeded workloads of the sgtori benchmark.

Each workload turns a seed into an endless stream of inputs (floats,
potentials or roots), runs one op per input, and checks each op's output
against a reference that does not come from the op's own code path.  The
stream comes in blocks of `block` inputs that each cover the workload's
input range evenly; a timed run ends on a whole block.  No input repeats
within a run of the benchmark's length, so a memo keyed on an op's input
cannot show a gain that the traffic a workload stands for would not see.

Why these four (each exercises a different layer of the package):

- g1_sweep: genus-one closed forms through Weierstrass functions; many t per
  r, as the figure sweeps do, so a per-r cache would show here.  One op is
  a whole sweep.
- torus_closing: frame-ODE immersions on long frame states; the stepper
  (kernels.drive) dominates and Weierstrass work is small.
- willmore_sg: Willmore energy by three routes plus the sinh-Gordon residual;
  many short stepper calls on tiny states, and no r is ever repeated.
- g2_lattice: genus-two period lattices and monodromy signs; the only
  workload that runs the genus2 module.
"""

import importlib
import itertools
import json
import math
import os

import numpy as np

TWO_PI_SQ = 2.0 * math.pi ** 2
_HERE = os.path.dirname(os.path.abspath(__file__))
G2_TABLE = os.path.join(_HERE, "g2_potentials.json")


def _sg(name):
    return importlib.import_module(f"sgtori.{name}")


def _in_fundamental_domain(tau, eps=1e-9):
    return (tau.imag > 0.0 and abs(tau.real) <= 0.5 + eps
            and abs(tau) >= 1.0 - eps)


def _real_half_period(r):
    """omega = pi / (2 AGM(sqrt(e1 - e3), sqrt(e1 - e2))) with e1 - e3 = 1/r
    and e1 - e2 = 1/r - r; computed here so that making inputs never calls
    into the package."""
    a, b = math.sqrt(1.0 / r), math.sqrt(1.0 / r - r)
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def _latin(rng, n, lo, hi):
    """n stratified draws on [lo, hi] in shuffled order (one per stratum)."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


class G1Sweep:
    """One sweep of the genus-one family, as figure3 and figure4 compute it:
    for each of n_r values of r, n_t values of t, and at each (r, t) point
    Genus1Data.from_rt -> tau_tilde -> tau_hat -> willmore_explicit_g1, i.e.
    one figure-3 row plus one figure-4 row.

    The op is a whole sweep (about a second), not one point (a few
    milliseconds).  On a shared 2-core virtual machine the speed changed in
    phases of a fraction of a second, up to 2x; point latencies then fell
    into a fast and a slow cluster, and their median jumped between the two
    from run to run.
    """

    name = "g1_sweep"
    block = 1
    trace_ops = 2
    n_r, n_t = 6, 64

    def inputs(self, rng):
        """Sweeps over the same n_r values of r (r = 1 among them), each
        with n_t fresh stratified t values per r, so (r, t) never repeats."""
        rs = list(np.sort(_latin(rng, self.n_r - 1, 0.05, 1.0))) + [1.0]
        tmax = [1.5 if r == 1.0 else 0.9 * _real_half_period(r) for r in rs]
        while True:
            yield tuple((float(r), float(t)) for r, tm in zip(rs, tmax)
                        for t in np.sort(_latin(rng, self.n_t, -tm, tm)))

    def warmup_input(self):
        return ((0.5, 0.3), (1.0, 0.3))

    def op(self, inp):
        g1, modular, imm = _sg("genus1"), _sg("modular"), _sg("immersion")
        out = []
        for r, t in inp:
            d = g1.Genus1Data.from_rt(r, t)
            tt = g1.tau_tilde(d)
            out.append((d, tt, modular.tau_hat(tt),
                        imm.willmore_explicit_g1(d)))
        return out

    def check(self, inp, out):
        legendre_defect = _sg("weierstrass").legendre_defect
        miss = []
        for (r, t), (d, tt, th, w) in zip(inp, out):
            if r == 1.0:
                x = math.tanh(t)
                if abs(tt - (1j - x) / (1 - 1j * x)) > 1e-9:
                    miss.append(f"({r}, {t}): tau_tilde off the r = 1 "
                                "closed form")
                ref_w = TWO_PI_SQ * (2.0 * math.cosh(t) ** 2 - 1.0)
                if abs(w - ref_w) > 1e-8 * ref_w:
                    miss.append(f"({r}, {t}): W off the r = 1 closed form")
            elif legendre_defect(d.kernel) > 1e-10:
                miss.append(f"({r}, {t}): Legendre defect above 1e-10")
            if not _in_fundamental_domain(th):
                miss.append(f"({r}, {t}): tau_hat outside the fundamental "
                            "domain")
        return miss


class TorusClosing:
    """One torus: closing_points_g1 -> immersion (6x6, h = 0.01) ->
    periodicity_defect -> conformality_defect, (r, t) in the box of
    acceptance criterion 09."""

    name = "torus_closing"
    block = 8
    trace_ops = 8

    def inputs(self, rng):
        return _box_blocks(rng, (0.45, 0.75), (-0.28, 0.28), self.block)

    def warmup_input(self):
        return (0.6, 0.1)

    def op(self, inp):
        g1, imm = _sg("genus1"), _sg("immersion")
        d = g1.Genus1Data.from_rt(*inp)
        cd = imm.closing_points_g1(d)
        grid = imm.immersion(cd, n=6, h=0.01)
        per = imm.periodicity_defect(cd, n_samples=2)
        conf = imm.conformality_defect(grid)
        return float(np.max(np.abs(cd.mu_hat + 1.0))), per, conf

    def check(self, inp, out):
        closing, per, conf = out
        miss = []
        if not closing <= 1e-8:
            miss.append(f"closing defect {closing:.1e} above 1e-8")
        if not per <= 1e-5:
            miss.append(f"periodicity defect {per:.1e} above 1e-5")
        if not conf <= 1e-4:
            miss.append(f"conformality defect {conf:.1e} above 1e-4")
        return miss


class WillmoreSG:
    """One genus-one solution checked two ways: willmore_report (explicit,
    residue, direct with n = 128) at a fresh (r, t), and the sinh-Gordon
    residual of trajectory_grid at h and h/2 from a lifted reduced state on
    the same level set (as acceptance criterion 04)."""

    name = "willmore_sg"
    block = 8
    trace_ops = 8
    window = 0.16

    def inputs(self, rng):
        for r, t in _box_blocks(rng, (0.40, 0.95), (-0.5, 0.5),
                               self.block):
            yield (r, t, 0.4 + 0.3 * float(rng.random()))

    def warmup_input(self):
        return (0.6, 0.2, 0.58)

    def op(self, inp):
        r, t, frac = inp
        g1, imm, lax = _sg("genus1"), _sg("immersion"), _sg("laxflows")
        d = g1.Genus1Data.from_rt(r, t)
        rep = imm.willmore_report(d, n_direct=128)
        # reduced state on the level set a1_hat = r + 1/r
        a_hat = frac * math.sqrt(r + 1.0 / r - 2.0)
        target = r + 1.0 / r - a_hat * a_hat
        b_hat = math.sqrt(0.5 * (target + math.sqrt(target * target - 4.0)))
        p0 = g1.lift_genus1_potential(lax.Genus1State(a_hat, b_hat), r,
                                      d.phi, 0.0, 0.0)
        res = []
        for h in (0.02, 0.01):
            n = int(round(self.window / h)) + 1
            tr = lax.trajectory_grid(p0, 0.0, 0.0, n, n, h, h, tol=1e-12)
            res.append(lax.sinh_gordon_residual(tr))
        return rep.agreement, res[0] / res[1]

    def check(self, inp, out):
        agree, ratio = out
        miss = []
        if not agree["explicit_vs_residue"] <= 1e-6:
            miss.append("explicit vs residue above 1e-6")
        if not agree["direct_vs_explicit"] <= 1e-3:
            miss.append("direct vs explicit above 1e-3")
        if not 3.5 <= ratio <= 4.5:
            miss.append(f"residual ratio {ratio:.3f} outside [3.5, 4.5]")
        return miss


class G2Lattice:
    """One genus-two datum: classify -> HyperCurve -> build_cycles ->
    period_lattice -> reduce -> mu_at_roots(omega1).

    Inputs come in blocks of nine.  The first is the next of the dear
    potentials of g2_potentials.json (over 3x the median work, dearest
    first, the same for every seed), so every run meets the same tail.
    Six are generic potentials from the same table (normal draws, see
    make_g2_table.py), one from each sixth of it sorted by work, so that
    every seed gets the same mix of cheap and dear ops.  Two sit near the
    genus-one boundary: acceptance criterion 07's quartic, whose unital
    double root is split by eps, log-uniform in [1e-3, 1e-2] and in
    [1e-2, 1e-1].  (At other genus-one quartics the distance to the genus-one
    lattice is still O(eps^2) but with another constant, so the check's
    4 eps^2 holds for this one.)  The generic and split inputs of a block
    are shuffled; a generic potential repeats only after every one of its
    stratum has run, which takes longer than a run.
    """

    name = "g2_lattice"
    block = 9
    trace_ops = 9
    cost_strata = 6

    @staticmethod
    def table():
        with open(G2_TABLE) as fh:
            return json.load(fh)

    def inputs(self, rng):
        doc = self.table()
        strata = np.array_split(np.argsort(doc["work"], kind="stable"),
                                self.cost_strata)
        picks = [_shuffled_forever(rng, s) for s in strata]
        for dear in itertools.cycle(doc["dear"]):
            block = [("potential", tuple(doc["generic"][next(p)]))
                     for p in picks]
            for decade in (-3.0, -2.0):
                block.append(("split", 10.0 ** (decade + rng.random())))
            yield ("potential", tuple(dear))
            yield from (block[k] for k in rng.permutation(len(block)))

    def probe_inputs(self):
        """Draws on which the op is known to fail; run by the traced run."""
        return [("potential", tuple(f["potential"]))
                for f in self.table()["failing"]]

    def warmup_input(self):
        return ("split", 1e-2)

    @staticmethod
    def split_roots(eps):
        """Roots of acceptance criterion 07's quartic: the double root 1 of
        the genus-one quartic with roots 0.5, 2, 1, 1, split by eps."""
        return [0.5, 2.0, 1.0 - eps, 1.0 / (1.0 - eps)]

    def op(self, inp):
        pot, g2, modular = _sg("potentials"), _sg("genus2"), _sg("modular")
        kind, x = inp
        if kind == "potential":
            p = pot.Potential(complex(x[0], x[1]), complex(x[2], x[3]), x[4])
            quartic = pot.spectral_poly(p)
        else:
            quartic = pot.quartic_from_roots(self.split_roots(x))
        curve = g2.HyperCurve.from_quartic(pot.classify(quartic))
        cycles = g2.build_cycles(curve)
        lat = g2.period_lattice(curve, cycles)
        tau = modular.reduce(lat.omega1, lat.omega2).tau
        _, devs = g2.mu_at_roots(curve, lat, lat.omega1)
        return lat.omega1, lat.omega2, tau, max(devs)

    def check(self, inp, out):
        w1, w2, tau, dev = out
        miss = []
        if not _in_fundamental_domain(tau):
            miss.append("tau outside the fundamental domain")
        if not dev <= 1e-4:
            miss.append(f"mu_at_roots deviation {dev:.1e} above 1e-4")
        kind, eps = inp
        if kind == "split":
            pot, g1 = _sg("potentials"), _sg("genus1")
            base = pot.classify(pot.quartic_from_roots(self.split_roots(0.0)))
            ref = g1.lattice_g1(g1.Genus1Data.from_quartic(base))
            dist = _sg("modular").lattice_distance((w1, w2), ref)
            # the distance is about 1.64 eps^2 for this quartic
            if not dist <= 4.0 * eps ** 2:
                miss.append(f"distance to genus one {dist:.1e} above 4 eps^2")
        return miss


def _shuffled_forever(rng, items):
    """The items in a fresh random order, again and again."""
    while True:
        yield from rng.permutation(items)


def _box_blocks(rng, r_box, t_box, block):
    """Endless (r, t) pairs in blocks of `block` Latin-hypercube draws over
    the box, so that every stretch of `block` consecutive ops covers the box
    evenly."""
    while True:
        r = _latin(rng, block, *r_box)
        t = _latin(rng, block, *t_box)
        yield from ((float(a), float(b)) for a, b in zip(r, t))


WORKLOADS = {w.name: w for w in (G1Sweep(), TorusClosing(), WillmoreSG(),
                                 G2Lattice())}
