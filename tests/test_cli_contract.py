"""The CLI's exit-code contract under generated argv.

Every argv, whatever its values, ends in exit 0 with strict output (JSON;
CSV for figure3 and figure4; an OBJ mesh for immersion-export), 2 for a
domain or usage error, or 3 for a numerical failure, and never in a
traceback.  Values mix NaN, infinities, zero and huge numbers with ordinary
ones; the ordinary ones are bounded, and grids and sweeps kept small, so
that no example runs a long flow.
"""

import contextlib
import io
import json
import math
from datetime import timedelta

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sgtori.cli import main  # noqa: E402

SPECIAL = ("nan", "inf", "-inf", "0", "-0", "1e300", "-1e300", "1e-300")
JSON_COMMANDS = ("classify", "flow", "lattice", "tau", "willmore")
COMMANDS = JSON_COMMANDS + ("figure3", "figure4", "immersion-export")


def mixed(ordinary, special):
    """The ordinary strategy five times in six, a special value otherwise
    (more often and hardly any argv would get past the parser)."""
    return st.one_of(*[ordinary] * 5, st.sampled_from(special))


def written(floats):
    """Floats written in fixed point ("-0.000010") or, as often, with an
    exponent ("-1.000000e-05")."""
    return st.one_of(floats.map("{:.6f}".format), floats.map("{:.6e}".format))


def number(lo, hi):
    """A float argument in [lo, hi], or a special one."""
    return mixed(written(st.floats(lo, hi)), SPECIAL)


def r_number():
    """An --r value: uniform in [0, 1.1] or, as often, log-uniform in
    [1e-6, 1], which reaches the elongated lattices of small r; or a special
    one."""
    log_uniform = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)
    return mixed(st.one_of(written(st.floats(0.0, 1.1)), written(log_uniform)),
                 SPECIAL)


def count(hi):
    """An integer argument in [1, hi], or 0, negative or malformed."""
    return mixed(st.integers(1, hi).map(str), ("0", "-1", "x"))


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(COMMANDS))
    argv = [cmd]

    def maybe(flag, *values, required=False):
        # a required option is left out one time in ten
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv.append(flag)
            argv.extend(draw(v) for v in values)

    small = number(-2.0, 2.0)
    maybe("--tol", mixed(st.sampled_from(("1e-6", "1e-8", "1e-10")),
                         SPECIAL + ("-1",)))
    if cmd in ("classify", "flow", "lattice", "tau"):
        maybe("--alpha", small, small)
        maybe("--beta", small, small)
        maybe("--gamma", number(0.5, 2.0))
        # --a1 and --a2 drawn independently, so often unpaired
        maybe("--a1", number(-10.0, 10.0), number(-10.0, 10.0))
        maybe("--a2", number(-10.0, 10.0))
    if cmd == "flow":
        maybe("--to", small, small, required=True)
    if cmd in ("tau", "willmore", "immersion-export"):
        maybe("--r", r_number(), required=cmd != "tau")
        maybe("--t", small)
    if cmd in ("tau", "willmore"):
        maybe("--phi", number(-4.0, 4.0))
    if cmd == "willmore":
        maybe("--grid", count(12))
    if cmd in ("figure3", "figure4"):
        rs = draw(st.lists(r_number(), min_size=0, max_size=2))
        maybe("--r-list", st.just(",".join(rs)), required=True)
        maybe("--t-steps", count(3))
        maybe("--jobs", mixed(st.just("1"), ("0", "x")))
    if cmd == "immersion-export":
        maybe("--grid", count(4))
        maybe("--h", number(-0.2, 0.2))
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the JSON")


def _check_csv(out):
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    json.loads(lines[0][len("# config: "):], parse_constant=_reject_constant)
    width = len(lines[1].split(","))
    for line in lines[2:]:
        values = [float(v) for v in line.split(",")]
        assert len(values) == width
        assert all(math.isfinite(v) for v in values)


def _check_obj(out):
    lines = out.splitlines()
    assert lines[0].startswith("# immersion mesh")
    for line in lines[1:]:
        kind, *fields = line.split()
        if kind == "v":
            values = [float(v) for v in fields]
            assert len(values) == 4
            assert all(math.isfinite(v) for v in values)
        else:
            assert kind == "f" and len(fields) == 3
            assert all(int(v) >= 1 for v in fields)


@settings(max_examples=300, deadline=timedelta(seconds=2),
          derandomize=True, database=None)
@given(cli_argv())
def test_generated_argv_keep_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse's usage errors
            code = stop.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return
    if argv[0] in JSON_COMMANDS:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    elif argv[0] == "immersion-export":
        _check_obj(out.getvalue())
    else:
        _check_csv(out.getvalue())
