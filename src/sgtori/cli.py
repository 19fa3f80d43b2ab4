"""Command-line front end: classification, flows, lattices and figure data.

Every command echoes its configuration and prints a machine-readable JSON
result (or writes CSV with the configuration in a header comment).  Exit
codes: 0 ok, 2 domain error, 3 numerical failure.
"""

import argparse
import json
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from . import errors
from .genus1 import Genus1Data, figure3_rows, tau_tilde
from .genus2 import HyperCurve, period_lattice
from .immersion import (closing_points_g1, export_obj, figure4_rows,
                        immersion, willmore_report)
from .laxflows import integrate_flow
from .modular import reduce as reduce_lattice, tau_hat
from .potentials import Potential, SpectralClass, SpectralQuartic, classify, spectral_poly


def _fmt(x):
    return float(f"{x:.17g}")


def _c(z):
    return [_fmt(z.real), _fmt(z.imag)]


def _emit(config, result, out=None):
    doc = {"config": config, "result": result}
    try:
        text = json.dumps(doc, sort_keys=True, allow_nan=False)
    except ValueError:
        raise errors.ConsistencyError("result holds a non-finite value") \
            from None
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, config, header, rows):
    lines = ["# config: " + json.dumps(config, sort_keys=True), header]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quartic_from_args(args):
    if (args.a1 is None) != (args.a2 is None):
        raise errors.DomainError("--a1 and --a2 must be given together")
    if args.a1 is not None:
        return SpectralQuartic(complex(args.a1[0], args.a1[1]), args.a2)
    p = Potential(complex(*args.alpha), complex(*args.beta), args.gamma)
    return spectral_poly(p)


def cmd_classify(args):
    q = classify(_quartic_from_args(args), tol=args.tol)
    _emit(_config(args, "classify"), q.to_json_dict(), args.out)
    return 0


def cmd_flow(args):
    p = Potential(complex(*args.alpha), complex(*args.beta), args.gamma)
    res = integrate_flow(p, [tuple(args.to)], tol=args.tol)
    end = res.states[-1]
    _emit(_config(args, "flow"), {
        "final": end.to_json_dict(),
        "drift_a1": _fmt(res.drift_a1),
        "drift_a2": _fmt(res.drift_a2),
        "tol": args.tol,
    }, args.out)
    return 0


def cmd_lattice(args):
    q = classify(_quartic_from_args(args), tol=args.tol)
    curve = HyperCurve.from_quartic(q)
    lat = period_lattice(curve)
    _emit(_config(args, "lattice"), lat.to_json_dict(), args.out)
    return 0


def _genus1_from_args(args):
    if getattr(args, "phi", None) is not None:
        return Genus1Data.from_rphi(args.r, args.phi)
    return Genus1Data.from_rt(args.r, args.t)


def cmd_tau(args):
    if args.r is not None:
        d = _genus1_from_args(args)
        tt = tau_tilde(d)
    else:
        q = classify(_quartic_from_args(args), tol=args.tol)
        if q.cls in (SpectralClass.M22, SpectralClass.M23):
            tt = tau_tilde(Genus1Data.from_quartic(q))
        else:
            lat = period_lattice(HyperCurve.from_quartic(q))
            tt = reduce_lattice(lat.omega1, lat.omega2).tau
    th = tau_hat(tt)
    _emit(_config(args, "tau"), {"tau_tilde": _c(tt), "tau_hat": _c(th)},
          args.out)
    return 0


def cmd_willmore(args):
    d = _genus1_from_args(args)
    rep = willmore_report(d, n_direct=args.grid)
    agree = rep.agreement
    _emit(_config(args, "willmore"), {
        "explicit": _fmt(rep.w_explicit),
        "residue": _fmt(rep.w_residue),
        "direct": _fmt(rep.w_direct),
        "rel_explicit_vs_residue": _fmt(agree["explicit_vs_residue"]),
        "rel_direct_vs_explicit": _fmt(agree["direct_vs_explicit"]),
    }, args.out)
    return 0


def _fig3_block(r_and_steps):
    r, steps = r_and_steps
    return figure3_rows([r], steps)


def _fig4_block(r_and_steps):
    r, steps = r_and_steps
    return figure4_rows([r], steps)


def _figure(args, name, block_fn, header):
    r_list = [float(s) for s in args.r_list.split(",") if s]
    jobs = [(r, args.t_steps) for r in r_list]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            blocks = list(ex.map(block_fn, jobs))
    else:
        blocks = [block_fn(j) for j in jobs]
    rows = [row for block in blocks for row in block]
    _write_csv(args.out, _config(args, name), header, rows)
    return 0


def cmd_figure3(args):
    return _figure(args, "figure3", _fig3_block, "r,t,re_tau_tilde,im_tau_tilde")


def cmd_figure4(args):
    return _figure(args, "figure4", _fig4_block,
                   "r,t,re_tau_hat,im_tau_hat,willmore")


def cmd_immersion_export(args):
    d = Genus1Data.from_rt(args.r, args.t)
    cd = closing_points_g1(d)
    grid = immersion(cd, n=args.grid, h=args.h, tol=args.tol)
    if args.out:
        with open(args.out, "w") as fh:
            export_obj(grid, fh)
    else:
        export_obj(grid, sys.stdout)
    return 0


def _config(args, name):
    cfg = {"command": name}
    for key in ("r", "t", "phi", "alpha", "beta", "gamma", "a1", "a2",
                "grid", "tol", "jobs", "r_list", "t_steps",
                "to", "h"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    return cfg


def finite_float(text):
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return n


def nonzero_float(text):
    x = finite_float(text)
    if x == 0.0:
        raise argparse.ArgumentTypeError(f"must be non-zero: {text!r}")
    return x


class _Parser(argparse.ArgumentParser):
    """argparse takes an argument for a negative number, not an option, only
    in fixed point ("-0.00001"); this parser, and the subparsers it makes,
    take the exponent form ("-1e-05") too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser():
    ap = _Parser(
        prog="sgtori",
        description="spectral data, period lattices and Willmore energies "
                    "of low-genus sinh-Gordon tori")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=finite_float, default=1e-8)
        p.add_argument("--out", default=None)

    def add_potential(p):
        p.add_argument("--alpha", type=finite_float, nargs=2,
                       default=(0.0, 0.0), metavar=("RE", "IM"))
        p.add_argument("--beta", type=finite_float, nargs=2,
                       default=(0.0, 0.0), metavar=("RE", "IM"))
        p.add_argument("--gamma", type=finite_float, default=1.0)
        p.add_argument("--a1", type=finite_float, nargs=2, default=None,
                       metavar=("RE", "IM"))
        p.add_argument("--a2", type=finite_float, default=None)

    p = sub.add_parser("classify", help="spectral quartic and stratum")
    add_common(p)
    add_potential(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("flow", help="integrate the commuting flows")
    add_common(p)
    add_potential(p)
    p.add_argument("--to", type=finite_float, nargs=2, required=True,
                   metavar=("X", "Y"))
    p.set_defaults(fn=cmd_flow, tol=1e-10)

    p = sub.add_parser("lattice", help="numerical period lattice (genus two)")
    add_common(p)
    add_potential(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("tau", help="conformal classes tau-tilde and tau-hat")
    add_common(p)
    add_potential(p)
    p.add_argument("--r", type=finite_float, default=None)
    p.add_argument("--t", type=finite_float, default=0.0)
    p.add_argument("--phi", type=finite_float, default=None)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("willmore", help="Willmore energy by three routes")
    add_common(p)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--t", type=finite_float, default=0.0)
    p.add_argument("--phi", type=finite_float, default=None)
    p.add_argument("--grid", type=positive_int, default=192)
    p.set_defaults(fn=cmd_willmore)

    for name, fn, text in (
            ("figure3", cmd_figure3, "tau-tilde sweep CSV"),
            ("figure4", cmd_figure4, "Willmore-vs-conformal-class sweep CSV")):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--r-list", dest="r_list", required=True)
        p.add_argument("--t-steps", dest="t_steps", type=positive_int,
                       default=64)
        p.add_argument("--jobs", type=positive_int, default=1)
        p.set_defaults(fn=fn)

    p = sub.add_parser("immersion-export", help="OBJ mesh of the immersion")
    add_common(p)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--t", type=finite_float, default=0.0)
    p.add_argument("--grid", type=positive_int, default=24)
    p.add_argument("--h", type=nonzero_float, default=0.05)
    p.set_defaults(fn=cmd_immersion_export, tol=1e-10)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (errors.DomainError, ValueError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2
    except errors.SgtoriError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
