import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sgtori.cli import main
from sgtori.weierstrass import kernel_from_r


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_clifford(capsys):
    code, out, _ = run(capsys, "classify", "--gamma", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class"] == "M2_3"
    assert doc["config"]["gamma"] == 1.0


def test_classify_gamma_two(capsys):
    code, out, _ = run(capsys, "classify", "--gamma", "2")
    assert code == 0
    assert json.loads(out)["result"]["class"] == "M2_1"


def test_classify_rejects_non_member(capsys):
    code, _, err = run(capsys, "classify", "--a1", "1", "0", "--a2", "-10")
    assert code == 2
    assert "domain error" in err


def test_tau_clifford_anchor(capsys):
    code, out, _ = run(capsys, "tau", "--r", "1.0", "--t", "0")
    assert code == 0
    th = json.loads(out)["result"]["tau_hat"]
    assert abs(th[0]) < 1e-10 and abs(th[1] - 1.0) < 1e-10


def test_tau_from_quartic_m21(capsys):
    code, out, _ = run(capsys, "tau", "--gamma", "2")
    assert code == 0
    tt = json.loads(out)["result"]["tau_tilde"]
    assert tt[1] > 0


def test_flow_reports_drift(capsys):
    code, out, _ = run(capsys, "flow", "--gamma", "2", "--to", "1", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["drift_a1"] + doc["result"]["drift_a2"] <= 1e-9


def test_lattice_json(capsys):
    code, out, _ = run(capsys, "lattice", "--gamma", "2")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["class"] == "M2_1"
    assert res["bperiod_residual"] <= 1e-7


def test_willmore_three_routes(capsys):
    code, out, _ = run(capsys, "willmore", "--r", "1", "--t", "1",
                       "--grid", "64")
    assert code == 0
    res = json.loads(out)["result"]
    ref = 2 * math.pi ** 2 * math.cosh(2.0)
    assert abs(res["explicit"] - ref) <= 1e-8 * ref
    assert res["rel_explicit_vs_residue"] <= 1e-6
    assert res["rel_direct_vs_explicit"] <= 1e-3


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    rows = [[float(v) for v in l.split(",")] for l in lines[2:]]
    return header, rows


def test_figure3_r1_unit_modulus(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _, _ = run(capsys, "figure3", "--r-list", "1.0",
                     "--t-steps", "8", "--out", str(out))
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["r", "t", "re_tau_tilde", "im_tau_tilde"]
    for row in rows:
        assert abs(math.hypot(row[2], row[3]) - 1.0) < 1e-12


def test_figure3_continuity_near_degenerate(tmp_path, capsys):
    paths = {}
    for r in ("0.999", "1.0"):
        p = tmp_path / f"fig3_{r}.csv"
        code, _, _ = run(capsys, "figure3", "--r-list", r, "--t-steps", "6",
                         "--out", str(p))
        assert code == 0
        paths[r] = _read_csv(p)[1]
    # compare tau values at matching t inside [-1, 1]
    for row_a in paths["0.999"]:
        if abs(row_a[1]) > 1.0:
            continue
        row_b = min(paths["1.0"], key=lambda rb: abs(rb[1] - row_a[1]))
        if abs(row_b[1] - row_a[1]) > 0.2:
            continue
        d = math.hypot(row_a[2] - row_b[2], row_a[3] - row_b[3])
        assert d <= 2e-2

    def tau_of(r, t):
        from sgtori.genus1 import Genus1Data, tau_tilde
        return tau_tilde(Genus1Data.from_rt(r, t))

    for t in (-1.0, 0.0, 1.0):
        assert abs(tau_of(0.999, t) - tau_of(1.0, t)) <= 1e-2


def test_figure4_anchor_and_symmetry(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code, _, _ = run(capsys, "figure4", "--r-list", "1.0",
                     "--t-steps", "6", "--out", str(out))
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["r", "t", "re_tau_hat", "im_tau_hat", "willmore"]
    ws = [row[4] for row in rows]
    assert np.allclose(ws, ws[::-1], rtol=1e-9)


def test_figure_determinism_and_jobs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    run(capsys, "figure3", "--r-list", "0.5,0.8", "--t-steps", "4",
        "--out", str(a))
    run(capsys, "figure3", "--r-list", "0.5,0.8", "--t-steps", "4",
        "--out", str(b), "--jobs", "2")
    run(capsys, "figure3", "--r-list", "0.5,0.8", "--t-steps", "4",
        "--out", str(c))
    # identical config -> bit-identical output
    assert a.read_bytes() == c.read_bytes()
    # worker pool changes only the config echo, never the rows or their order
    assert a.read_text().split("\n")[1:] == b.read_text().split("\n")[1:]


def test_figure3_stdout_identical_with_cold_and_warm_kernel_memo(capsys):
    argv = ("figure3", "--r-list", "0.3,0.9,1.0", "--t-steps", "5")
    kernel_from_r.cache_clear()
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a.count("\n") == 2 + 3 * 5
    assert out_a.encode() == out_b.encode()


FIGURE4_R07_R1_T3 = """\
# config: {"command": "figure4", "jobs": 1, "r_list": "0.7,1.0", "t_steps": 3, "tol": 1e-08}
r,t,re_tau_hat,im_tau_hat,willmore
0.69999999999999996,-0.92653103379238844,-0.15641615823110433,5.9787809056610044,61.133081354857254
0.69999999999999996,0,0.0078934682496804107,0.99996884609421266,19.893189236590349
0.69999999999999996,0.92653103379238844,0.15641615823110433,5.9787809056610044,61.133081354857254
1,-1,-3.0763125792299061e-15,7.3890560989306531,74.262766300956841
1,0,-2.2204460492503131e-16,1,19.739208802178716
1,1,3.0763125792299061e-15,7.3890560989306531,74.262766300956841
"""

WILLMORE_R07_T03 = (
    '{"config": {"command": "willmore", "grid": 192, '
    '"r": 0.7, "t": 0.3, "tol": 1e-08}, "result": '
    '{"direct": 23.566966749095357, "explicit": 23.566966749093385, '
    '"rel_direct_vs_explicit": 8.366609554494877e-14, '
    '"rel_explicit_vs_residue": 2.529128081004695e-12, '
    '"residue": 23.56696674915299}}\n')


def test_figure4_stdout_pinned(capsys):
    code, out, _ = run(capsys, "figure4", "--r-list", "0.7,1.0",
                       "--t-steps", "3")
    assert code == 0
    assert out == FIGURE4_R07_R1_T3


def test_willmore_stdout_pinned(capsys):
    code, out, _ = run(capsys, "willmore", "--r", "0.7", "--t", "0.3")
    assert code == 0
    assert out == WILLMORE_R07_T03


def run_process(*argv):
    """The CLI in a fresh interpreter, on this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "sgtori.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=30)


def test_flow_step_budget_exits_3():
    proc = run_process("flow", "--gamma", "2", "--to", "1e6", "0")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("flow", "--gamma", "1e150", "--to", "1", "0"),
    ("flow", "--gamma", "1e-150", "--to", "1", "0"),
    ("flow", "--gamma", "1e-300", "--to", "1", "0"),
    ("flow", "--gamma", "2", "--alpha", "1e200", "0", "--to", "1", "0"),
])
def test_extreme_potentials_end_in_typed_errors(capsys, argv):
    # determinant mismatch -> ConsistencyError (3); overflow -> DomainError (2)
    code, out, err = run(capsys, *argv)
    assert code in (2, 3)
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("willmore", "--r", "0.7", "--grid", "0"),
    ("lattice", "--gamma", "2", "--tol", "nan"),
    ("flow", "--gamma", "inf", "--to", "1", "0"),
    ("figure4", "--r-list", "0.7", "--t-steps", "0"),
    ("figure3", "--r-list", "0.7", "--jobs", "0"),
    ("figure4", "--r-list", "0.7", "--jobs", "-3"),
    ("willmore", "--r", "0.7", "--jobs", "2"),
    ("willmore", "--r", "0.7", "--format", "csv"),
    ("figure3", "--r-list", "0.7", "--format", "json"),
])
def test_parser_rejects_non_finite_and_empty_grids(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [("classify", "--a2", "1"),
                                  ("classify", "--a1", "0", "0"),
                                  ("lattice", "--a1", "0", "0")])
def test_a1_and_a2_come_together(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--a1 and --a2" in err


@pytest.mark.parametrize("argv", [("willmore", "--r", "0.7", "--t", "50"),
                                  ("tau", "--r", "0.7", "--t", "5"),
                                  ("tau", "--r", "0.7", "--t", "-1.6")])
def test_t_outside_the_family_is_a_domain_error(capsys, argv):
    # omega = 1.544 at r = 0.7; t in [-omega, omega] covers the family once
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error:") and "[-omega, omega]" in err


def test_tau_tiny_r_is_a_numerical_failure(capsys):
    # z_+ leaves the unit circle at r = 1e-9: lam_h = e3 - wp(z_+) is a
    # difference of two numbers near -3e8 (the invariant g3 overflows only
    # at r < 2e-103)
    code, out, err = run(capsys, "tau", "--r", "1e-9")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "r = 1e-09" in err


@pytest.mark.parametrize("argv, at", [
    pytest.param(("tau", "--r", "1", "--t", "1e300"), "r = 1.0, t = 1e+300",
                 id="tau-t1e300"),
    pytest.param(("willmore", "--r", "1", "--t", "1e300", "--grid", "8"),
                 "r = 1.0, t = 1e+300", id="willmore-t1e300"),
    pytest.param(("willmore", "--r", "1", "--t", "400", "--grid", "8"),
                 "r = 1.0, t = 400.0", id="willmore-t400"),
])
def test_overflowing_family_point_is_a_numerical_failure(capfd, argv, at):
    # sin(v)^2 overflows at r = 1 and the values at z_+ are NaN: the checks in
    # Genus1Data.from_rt fail on NaN, before LAPACK sees one (capfd, not
    # capsys: LAPACK writes its complaints to the file descriptor)
    code = main(list(argv))
    out, err = capfd.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and at in err


def test_overflow_at_r1_prints_only_the_failure_line():
    # sin(v)^2 overflows in the Weierstrass evaluator at r = 1, t = 400 and
    # the values are NaN; no warning about it may reach stderr (a
    # subprocess, since pytest would capture warnings raised in process)
    proc = run_process("tau", "--r", "1", "--t", "400")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: z_+ left the unit-circle "
                           "component at r = 1.0, t = 400.0\n")


def test_figure4_small_r(capsys):
    code, _, _ = run(capsys, "figure4", "--r-list", "0.003", "--t-steps", "8")
    assert code == 0


def test_immersion_export_rejects_zero_h(capsys):
    # a negative h mirrors the patch and stays allowed
    with pytest.raises(SystemExit) as exc:
        main(["immersion-export", "--r", "0.7", "--h", "0"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--h" in out.err
    code, out, _ = run(capsys, "immersion-export", "--r", "0.7", "--grid",
                       "2", "--h", "-0.05")
    assert code == 0 and out.count("\nv ") == 4


def test_negative_values_in_exponent_form(capsys):
    fixed = run(capsys, "flow", "--to", "-0.00001", "0.1")
    assert fixed[0] == 0
    assert run(capsys, "flow", "--to", "-1e-05", "0.1") == fixed
    code, out, _ = run(capsys, "classify", "--alpha", "0.3", "-1e-300")
    assert code == 0
    assert json.loads(out)["config"]["alpha"] == [0.3, -1e-300]


def test_emit_refuses_non_finite_values(capsys):
    from sgtori.cli import _emit
    from sgtori.errors import ConsistencyError
    with pytest.raises(ConsistencyError):
        _emit({"command": "x"}, {"value": float("nan")})
    assert capsys.readouterr().out == ""


def test_immersion_export(tmp_path, capsys):
    out = tmp_path / "mesh.obj"
    code, _, _ = run(capsys, "immersion-export", "--r", "0.7", "--t", "0.2",
                     "--grid", "3", "--h", "0.05", "--out", str(out))
    assert code == 0
    txt = out.read_text()
    assert txt.count("\nv ") + txt.startswith("v ") == 9
    assert txt.count("\nf ") == 8


# sha256 of stdout.  The immersion mesh is built by the frame sweep
# (integrate_frame) and the flow by frame_at on an empty frame list; both
# outputs are pinned to the bit.  The ids name the command, so a re-pin
# keeps the test names.
@pytest.mark.parametrize("argv, digest", [
    pytest.param(
        ["immersion-export", "--r", "0.7", "--t", "0.2", "--grid", "6"],
        "e9ae7d4ead775b0c7c9f724ad6f23471eff51f56b17bdd53330b55a0b508feeb",
        id="immersion-export"),
    pytest.param(
        ["flow", "--gamma", "2", "--alpha", "0.3", "0.1", "--to", "1.3",
         "-0.7"],
        "66f9000d45829fa2da35faf55e4bd755923523fa99bd56965878cba8fdc44c2b",
        id="flow"),
])
def test_stdout_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
