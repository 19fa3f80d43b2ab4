"""Span tracer that wraps sgtori's public entry points from outside.

Each wrapped entry point `<module>.<function>` records one span per call.
A span's self time is its duration minus the time covered by its child
spans.  A few entry points also record counts read from their arguments or
return values (solver steps, quadrature calls).  Nothing inside the package
is changed; the wrappers are installed by rebinding names and removed again
when the tracer is closed.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> wrapped entry points; "Class.method" names a classmethod
LAYERS = {
    "weierstrass": ("kernel_from_r", "wp_all", "wp", "wp_prime", "wzeta",
                    "wp_small"),
    "genus1": ("Genus1Data.from_rt", "tau_tilde", "c_constant", "lattice_g1"),
    "modular": ("reduce", "tau_hat"),
    "kernels": ("drive", "genus1_drive"),
    "laxflows": ("frame_at", "trajectory_grid", "genus1_flow",
                 "genus1_period"),
    "immersion": ("closing_points_g1", "immersion", "periodicity_defect",
                  "conformality_defect", "willmore_residue_g1",
                  "willmore_direct_g1"),
    "genus2": ("build_cycles", "contour_integrals", "solve_b_omega",
               "period_lattice", "mu_at_roots"),
    "potentials": ("classify", "spectral_poly"),
}


def entry_points():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Per-layer metric names the tracer reports, in a fixed order."""
    names = []
    for ep in entry_points():
        names += [f"{ep}.calls", f"{ep}.self_s"]
    names += [f"{mod}.self_s" for mod in LAYERS]
    names += ["weierstrass.kernel_from_r.distinct_ratio",
              "kernels.drive.accepted_steps",
              "kernels.drive.state_len_mean",
              "kernels.genus1_drive.records",
              "laxflows.genus1_flow.calls_per_period",
              "genus2.contour_integrals.calls_per_lattice",
              "genus2.contour_integrals.change_max"]
    return names


class Tracer:
    """Collects spans and counts while installed; see `install`/`close`."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.root_s = 0.0
        self.counts = Counter()
        self.change_max = 0.0
        self.kernel_rs = set()
        self._stack = []          # [name, child time] per open span
        self._active = Counter()  # open spans per name
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self._active[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.root_s += dur
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def inside(self, name):
        return self._active[name] > 0

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every entry point in LAYERS, rebinding each name in every
        sgtori module that holds it (``from .x import f`` copies f)."""
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if (n == "sgtori" or n.startswith("sgtori."))
                       and m is not None]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"sgtori.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    setattr(cls, meth, wrapped)
                    self._undo.append((cls, meth, original))
                    continue
                original = getattr(mod, fn_name)
                wrapped = self._wrap(name, original)
                for m in pkg_modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, original))
        return self

    def close(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        layer_self = Counter()
        for ep in entry_points():
            out[f"{ep}.calls"] = self.calls[ep]
            out[f"{ep}.self_s"] = self.self_s[ep]
            layer_self[ep.split(".")[0]] += self.self_s[ep]
        for mod in LAYERS:
            out[f"{mod}.self_s"] = layer_self[mod]
        n_kernel = self.calls["weierstrass.kernel_from_r"]
        n_drive = self.calls["kernels.drive"]
        n_period = self.calls["laxflows.genus1_period"]
        n_lattice = self.calls["genus2.period_lattice"]
        out["weierstrass.kernel_from_r.distinct_ratio"] = (
            len(self.kernel_rs) / n_kernel if n_kernel else 0.0)
        out["kernels.drive.accepted_steps"] = self.counts["drive_accepted"]
        out["kernels.drive.state_len_mean"] = (
            self.counts["drive_state_len"] / n_drive if n_drive else 0.0)
        out["kernels.genus1_drive.records"] = self.counts["genus1_records"]
        out["laxflows.genus1_flow.calls_per_period"] = (
            self.counts["flow_in_period"] / n_period if n_period else 0.0)
        out["genus2.contour_integrals.calls_per_lattice"] = (
            self.counts["contour_in_lattice"] / n_lattice
            if n_lattice else 0.0)
        out["genus2.contour_integrals.change_max"] = self.change_max
        return out

    def covered_s(self):
        """Wrapped time: the sum of all self times equals the root spans."""
        return self.root_s


# -- counts read at the span boundaries ---------------------------------------

def _on_kernel_from_r(tr, args, result):
    tr.kernel_rs.add(float(args[0]))


def _on_drive(tr, args, result):
    # drive(y, cx, cy, length, ...) -> (status, n_accepted, h_min)
    tr.counts["drive_accepted"] += int(result[1])
    tr.counts["drive_state_len"] += len(args[0])


def _on_genus1_drive(tr, args, result):
    # genus1_drive(...) -> (status, n_records)
    tr.counts["genus1_records"] += int(result[1])


def _on_genus1_flow(tr, args, result):
    if tr.inside("laxflows.genus1_period"):
        tr.counts["flow_in_period"] += 1


def _on_contour_integrals(tr, args, result):
    # contour_integrals(...) -> (values, achieved change)
    if tr.inside("genus2.period_lattice"):
        tr.counts["contour_in_lattice"] += 1
    tr.change_max = max(tr.change_max, float(result[1]))


_HOOKS = {
    "weierstrass.kernel_from_r": _on_kernel_from_r,
    "kernels.drive": _on_drive,
    "kernels.genus1_drive": _on_genus1_drive,
    "laxflows.genus1_flow": _on_genus1_flow,
    "genus2.contour_integrals": _on_contour_integrals,
}
