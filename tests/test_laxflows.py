import io
import math

import numpy as np
import pytest

from sgtori import kernels
from sgtori.errors import GridTooSmallError
from sgtori.genus1 import Genus1Data, lattice_g1, lift_genus1_potential, lift_state
from sgtori.laxflows import (Genus1State, bracket_matrices, frame_at,
                             genus1_flow, genus1_interpolant, genus1_period,
                             integrate_flow, integrate_frame,
                             lax_vector_fields, sinh_gordon_residual,
                             trajectory_grid)
from sgtori.potentials import (Potential, SpectralQuartic, classify, eval_zeta,
                               fixed_point_potential, spectral_poly,
                               u_matrix, v_matrix)


def state_on_level(alpha_hat, r):
    """Genus-1 state with the level a1_hat = r + 1/r."""
    target = r + 1.0 / r - alpha_hat ** 2
    b2 = 0.5 * (target + math.sqrt(target * target - 4.0))
    return Genus1State(alpha_hat, math.sqrt(b2))


class TestVectorFields:
    def test_explicit_tangent(self):
        tx, ty = lax_vector_fields(Potential(1.0, 0.0, 1.0))
        assert abs(tx[0]) < 1e-15 and abs(tx[1]) < 1e-15
        assert abs(tx[2] + 2.0) < 1e-15
        assert abs(ty[0]) < 1e-15 and abs(ty[1] - 4.0j) < 1e-15
        assert abs(ty[2]) < 1e-15

    def test_matches_bracket_matrices(self):
        p = Potential(0.4 - 0.3j, 0.2 + 0.5j, 1.4)
        (dax, dbx, dgx), _ = lax_vector_fields(p)
        for lam in (0.7, 1.0 + 0.5j, -1.3):
            bx, _ = bracket_matrices(p, lam)
            a_t = dax * lam - np.conj(dax) * lam ** 2
            b_t = dgx / p.gamma ** 2 + dbx * lam - dgx * lam ** 2
            assert abs(bx[0, 0] - a_t) < 1e-12
            assert abs(bx[0, 1] - b_t) < 1e-12

    def test_finite_difference_oracle(self):
        p = Potential(1.0, 0.0, 1.0)
        (dax, dbx, dgx), (day, dby, dgy) = lax_vector_fields(p)
        h = 1e-6
        fwd = integrate_flow(p, [(h, 0.0)], tol=1e-12).states[-1]
        bwd = integrate_flow(p, [(-h, 0.0)], tol=1e-12).states[-1]
        assert abs((fwd.alpha - bwd.alpha) / (2 * h) - dax) < 1e-7
        assert abs((fwd.beta - bwd.beta) / (2 * h) - dbx) < 1e-7
        assert abs((fwd.gamma - bwd.gamma) / (2 * h) - dgx) < 1e-7
        fwd = integrate_flow(p, [(0.0, h)], tol=1e-12).states[-1]
        bwd = integrate_flow(p, [(0.0, -h)], tol=1e-12).states[-1]
        assert abs((fwd.beta - bwd.beta) / (2 * h) - dby) < 1e-7


class TestFlow:
    def test_fixed_point_constant(self):
        p = fixed_point_potential(classify(SpectralQuartic(0.0, 2.0)))
        res = integrate_flow(p, [(0.7, 0.4), (1.5, -0.3)], tol=1e-10)
        end = res.states[-1]
        assert abs(end.alpha - p.alpha) + abs(end.beta - p.beta) == 0.0
        assert end.gamma == p.gamma

    def test_conservation(self):
        res = integrate_flow(Potential(0.0, 0.0, 2.0), [(1.0, 0.0)], tol=1e-10)
        assert res.drift_a1 + res.drift_a2 <= 1e-9
        # self-consistency oracle: rerun at tol/100
        tight = integrate_flow(Potential(0.0, 0.0, 2.0), [(1.0, 0.0)], tol=1e-12)
        a, b = res.states[-1], tight.states[-1]
        assert abs(a.alpha - b.alpha) + abs(a.beta - b.beta) + abs(a.gamma - b.gamma) < 1e-8

    def test_commutativity(self):
        p = Potential(0.0, 0.0, 2.0)
        e1 = integrate_flow(p, [(1.0, 0.0), (1.0, 1.0)], tol=1e-10).states[-1]
        e2 = integrate_flow(p, [(0.0, 1.0), (1.0, 1.0)], tol=1e-10).states[-1]
        defect = (abs(e1.alpha - e2.alpha) + abs(e1.beta - e2.beta)
                  + abs(e1.gamma - e2.gamma))
        assert defect <= 1e-8

    def test_gamma_positive_along_trajectory(self):
        tr = trajectory_grid(Potential(0.0, 0.0, 2.0), 0, 0, 5, 5, 0.3, 0.3,
                             tol=1e-10)
        assert np.all(tr.gamma_grid() > 0)


class TestFrame:
    def test_identity_at_origin(self):
        p = Potential(0.0, 0.0, 2.0)
        fg = integrate_frame(p, (0.0, 0.0, 2, 2, 0.3, 0.3),
                             lambda_samples=[1.0, np.exp(0.7j)], tol=1e-10)
        assert np.max(np.abs(fg.frames[0, 0, 0] - np.eye(2))) < 1e-12

    def test_constant_coefficient_case_is_matrix_exponential(self):
        p = fixed_point_potential(classify(SpectralQuartic(0.0, 2.0)))
        lam = np.exp(0.5j)
        F, _ = frame_at(p, 0.3, 0.7, [lam], tol=1e-12)
        m = 0.3 * u_matrix(p, lam) + 0.7 * v_matrix(p, lam)
        w = np.sqrt(complex(-np.linalg.det(m)))
        expm = np.cosh(w) * np.eye(2) + (np.sinh(w) / w) * m
        assert np.max(np.abs(F[0] - expm)) < 1e-10

    def test_det_one_and_conjugation(self):
        d = Genus1Data.from_rt(0.6, 0.2)
        p0 = lift_state(state_on_level(0.0, 0.6), d.phi)
        lams = np.array([np.exp(0.3j), np.exp(2.1j)])
        fg = integrate_frame(p0, (0.0, 0.0, 3, 3, 0.2, 0.2), lams, tol=1e-11)
        z0 = {lam: eval_zeta(p0, lam) for lam in lams}
        for j in range(3):
            for i in range(3):
                for k, lam in enumerate(lams):
                    F = fg.frames[j, i, k]
                    assert abs(np.linalg.det(F) - 1.0) <= 1e-10
                    zt = eval_zeta(fg.states[j][i], lam)
                    conj = np.linalg.solve(F, z0[lam] @ F)
                    assert np.max(np.abs(conj - zt)) <= 1e-8

    @pytest.mark.parametrize("hx", [0.01, -0.02])
    def test_one_drive_per_column_and_row(self, monkeypatch, hx):
        # 17 x 17 nodes: one call to the grid origin, one up the column and
        # one along each row, each at the stepper's own pace with the nodes
        # read off its dense output.  1,174 (hx = 0.01) and 2,029
        # (hx = -0.02) evaluations; landing on every node took 3,757.
        d = Genus1Data.from_rt(0.6, 0.2)
        p0 = lift_state(state_on_level(0.3, 0.6), d.phi)
        lams = np.array([np.exp(0.3j), np.exp(2.1j)])
        calls = []
        evals = []
        drive = kernels.drive
        rhs = kernels.rhs

        def counted(*args):
            calls.append(args)
            return drive(*args)

        def counted_rhs(*args):
            evals.append(None)
            return rhs(*args)

        monkeypatch.setattr(kernels, "drive", counted)
        monkeypatch.setattr(kernels, "rhs", counted_rhs)
        fg = integrate_frame(p0, (0.05, 0.05, 17, 17, hx, 0.01), lams,
                             tol=1e-12)
        assert len(calls) == 19
        assert len(evals) <= 2_500
        monkeypatch.undo()
        for j, i in ((0, 16), (16, 0), (7, 11), (16, 16)):
            x, y = 0.05 + i * hx, 0.05 + j * 0.01
            F, p = frame_at(p0, x, y, lams, tol=1e-12)
            assert np.max(np.abs(fg.frames[j, i] - F)) <= 1e-10
            assert abs(fg.states[j][i].gamma - p.gamma) <= 1e-10

    def test_monodromy_commutes_with_initial_potential(self):
        d = Genus1Data.from_rt(0.7, 0.3)
        p0 = lift_state(state_on_level(0.0, 0.7), d.phi)
        w1, w2 = lattice_g1(d)
        lams = np.array([np.exp(1j * th) for th in (0.4, 1.3, 2.9)])
        for w in (w1, w2):
            F, _ = frame_at(p0, w.real, w.imag, lams, tol=1e-11)
            for k, lam in enumerate(lams):
                z0 = eval_zeta(p0, lam)
                comm = F[k] @ z0 - z0 @ F[k]
                assert np.max(np.abs(comm)) <= 1e-6


def test_gamma_gradient_identity_and_critical_points():
    # grad gamma = gamma * (-2 Re alpha, 2 Im alpha): finite-difference check,
    # then the off-diagonality of critical points follows
    p = Potential(0.3 + 0.2j, 0.1j, 1.2)
    h = 1e-6
    gx = (integrate_flow(p, [(h, 0)], tol=1e-12).states[-1].gamma
          - integrate_flow(p, [(-h, 0)], tol=1e-12).states[-1].gamma) / (2 * h)
    gy = (integrate_flow(p, [(0, h)], tol=1e-12).states[-1].gamma
          - integrate_flow(p, [(0, -h)], tol=1e-12).states[-1].gamma) / (2 * h)
    assert abs(gx - (-2 * p.alpha.real * p.gamma)) < 1e-7
    assert abs(gy - (2 * p.alpha.imag * p.gamma)) < 1e-7
    # scan a trajectory for near-critical nodes
    tr = trajectory_grid(Potential(0.0, 0.0, 2.0), 0, 0, 40, 1, 0.05, 0.05,
                         tol=1e-10)
    for row in tr.states:
        for st in row:
            grad = 2.0 * st.gamma * abs(st.alpha)
            if grad < 1e-8:
                assert abs(st.alpha) <= 1e-6


class TestSinhGordon:
    def test_constant_solution(self):
        p = fixed_point_potential(classify(SpectralQuartic(0.0, 2.0)))
        tr = trajectory_grid(p, 0, 0, 5, 5, 0.01, 0.01, tol=1e-10)
        assert sinh_gordon_residual(tr) < 1e-12

    def test_grid_too_small(self):
        p = Potential(0.0, 0.0, 2.0)
        tr = trajectory_grid(p, 0, 0, 2, 2, 0.01, 0.01, tol=1e-8)
        with pytest.raises(GridTooSmallError):
            sinh_gordon_residual(tr)

    def test_second_order_m21(self):
        p = Potential(0.0, 0.0, 2.0)
        window = 0.16
        res = {}
        for h in (0.02, 0.01):
            n = int(round(window / h)) + 1
            tr = trajectory_grid(p, 0, 0, n, n, h, h, tol=1e-12)
            res[h] = sinh_gordon_residual(tr)
        ratio = res[0.02] / res[0.01]
        assert 3.8 <= ratio <= 4.2


def _mpmath_period(mp, s):
    # pi / (2 AGM(1/sqrt(rho), sqrt(rho))) at 30 digits on the level of s
    with mp.workdps(30):
        a, b = mp.mpf(s.alpha_hat), mp.mpf(s.beta_hat)
        big_a = a * a + b * b + 1 / (b * b)
        rho = 2 / (big_a + mp.sqrt((big_a - 2) * (big_a + 2)))
        return mp.pi / (2 * mp.agm(1 / mp.sqrt(rho), mp.sqrt(rho)))


class TestGenus1Flow:
    def test_stationary(self):
        orbit = genus1_flow(Genus1State(0.0, 1.0), 3.0)
        assert abs(orbit.final.alpha_hat) < 1e-12
        assert abs(orbit.final.beta_hat - 1.0) < 1e-12

    def test_level_conservation(self):
        s = Genus1State(0.0, 2.0)
        assert abs(s.a1_hat - 4.25) < 1e-15
        orbit = genus1_flow(s, 5.0, tol=1e-10)
        drift = abs(orbit.final.a1_hat - 4.25)
        assert drift <= 1e-9
        tight = genus1_flow(s, 5.0, tol=1e-12)
        assert abs(orbit.final.beta_hat - tight.final.beta_hat) < 1e-8

    def test_flow_integrates_once_whatever_the_record_length(self,
                                                             monkeypatch):
        # 252 records (the start, a first step of 0.01 and 250 steps at
        # max_step 0.02) over a span of 5; the final state is within 3e-14
        # of a 30-digit mpmath Taylor integration of the same flow
        # (-0.32430656156370598, 1.18747643086406588).  With no max_step
        # the same tol ends 1.7e-12 from it, so the pin keeps the cap.
        calls = []
        drive = kernels.genus1_drive

        def counted(*args):
            calls.append(args)
            return drive(*args)

        monkeypatch.setattr(kernels, "genus1_drive", counted)
        orbit = genus1_flow(Genus1State(0.3, 1.2), 5.0, tol=1e-12,
                            max_step=0.02)
        assert len(calls) == 1
        assert len(orbit.y) == 252 and orbit.y[-1] == 5.0
        assert orbit.final == Genus1State(-0.3243065615637318,
                                          1.1874764308640524)

    def test_default_flow_takes_no_forced_steps(self, monkeypatch):
        # moving (0, 2) by y = 5 at tol 1e-10 takes 1,839 evaluations at the
        # stepper's own pace; a 0.02 step cap made it 3,766
        rhs = kernels.genus1_rhs
        calls = []

        def counted(y):
            calls.append(None)
            return rhs(y)

        monkeypatch.setattr(kernels, "genus1_rhs", counted)
        genus1_flow(Genus1State(0.0, 2.0), 5.0, tol=1e-10)
        assert 0 < len(calls) <= 2_000

    def test_no_step_exceeds_max_step(self):
        # the first step (0.01) is clipped to max_step as well; the
        # intervals are differences of rounded sums of the steps
        for m in (0.007, 0.003):
            orbit = genus1_flow(Genus1State(0.3, 1.2), 1.0, tol=1e-12,
                                max_step=m)
            assert orbit.y[-1] == 1.0
            assert np.max(np.diff(orbit.y)) <= m * (1.0 + 1e-12)

    def test_closed_orbit(self):
        s = Genus1State(0.0, 2.0)
        period = genus1_period(s)
        back = genus1_flow(s, period, tol=1e-12).final
        assert abs(back.alpha_hat - s.alpha_hat) < 1e-10
        assert abs(back.beta_hat - s.beta_hat) < 1e-10

    def test_period_against_mpmath_agm(self):
        # pi / (2 AGM(1/sqrt(rho), sqrt(rho))) at 30 digits, on the level
        # of each float state; rho spans 1e-6 .. 1 - 1e-9 with alpha_hat != 0
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(20)
        states = [Genus1State(3.0, 1.0)]
        for r, f in zip(10.0 ** rng.uniform(-6.0, 0.0, 40),
                        rng.uniform(-0.9, 0.9, 40)):
            states.append(Genus1State(0.0, 1.0 / math.sqrt(r)))
            states.append(state_on_level(f * (1.0 - r) / math.sqrt(r), r))
        # near the fixed point (0, 1): 1 - rho ~ |alpha_hat| + 2|ln beta_hat|
        for scale in np.geomspace(1e-9, 1e-1, 20):
            a, c = scale * rng.uniform(-1.0, 1.0, 2)
            states.append(Genus1State(a, math.exp(c)))
        for s in states:
            ref = _mpmath_period(mp, s)
            assert abs(genus1_period(s) - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("s0, ref", [
        (Genus1State(0.0, 1.0 / math.sqrt(0.001)), 0.2622809365566791),
        (Genus1State(0.0, 1.0 / math.sqrt(0.5)), 1.5248868380817076),
        (Genus1State(0.0, 1.0 / math.sqrt(0.999)), 1.5707962285213717),
        (Genus1State(3.0, 1.0), 1.1450002182027852),
    ])
    def test_period_pinned(self, s0, ref):
        # ref is the period the former ODE zero-crossing scan measured, good
        # to 4e-13; the closed form is pinned to the 30-digit AGM period
        mp = pytest.importorskip("mpmath").mp
        period = genus1_period(s0)
        exact = _mpmath_period(mp, s0)
        assert abs(period - exact) <= 1e-15 * exact
        assert abs(period - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("s0, half", [
        (Genus1State(0.0, 1.0 / math.sqrt(r)), Genus1State(0.0, math.sqrt(r)))
        for r in (0.05, 0.3, 0.7, 0.99)
    ] + [(Genus1State(3.0, 1.0), Genus1State(-3.0, 1.0))])
    def test_period_against_the_flow(self, s0, half):
        # half a period takes beta_hat^2 to the reciprocal turning point
        # (the reduced equation is symmetric under B -> 1/B), a whole period
        # back to s0
        period = genus1_period(s0)
        for span, end in ((0.5 * period, half), (period, s0)):
            fin = genus1_flow(s0, span, tol=1e-12).final
            assert abs(fin.alpha_hat - end.alpha_hat) <= 1e-10
            assert abs(fin.beta_hat - end.beta_hat) <= 1e-10

    def test_stationary_state_has_no_period(self):
        with pytest.raises(ValueError):
            genus1_period(Genus1State(0.0, 1.0))

    @pytest.mark.parametrize("r", [0.99, 0.999])
    def test_period_small_amplitude_limit(self, r):
        # the orbit through (0, 1/sqrt(r)) shrinks to the fixed point
        # (0, 1) as r -> 1, where the linearised period is pi/2
        period = genus1_period(Genus1State(0.0, 1.0 / math.sqrt(r)))
        assert abs(period - 0.5 * math.pi) <= 0.2 * (1.0 - r) ** 2

    def test_interpolant_matches_flow(self):
        s = Genus1State(0.0, 1.6)
        orbit = genus1_flow(s, 2.0, max_step=0.01)
        interp = genus1_interpolant(orbit)
        for y in (0.37, 0.9, 1.55):
            a_ref = genus1_flow(s, y, tol=1e-12).final
            av, bv = interp(y)
            assert abs(av - a_ref.alpha_hat) < 1e-8
            assert abs(bv - a_ref.beta_hat) < 1e-8


def test_trajectory_csv_export():
    p = Potential(0.0, 0.0, 2.0)
    tr = trajectory_grid(p, 0, 0, 2, 2, 0.1, 0.1, tol=1e-8)
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,re_alpha,im_alpha,re_beta,im_beta,gamma"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[:2] == [0.0, 0.0] and first[-1] == 2.0


def test_lift_flow_consistency():
    d = Genus1Data.from_rt(0.6, 0.2)
    s0 = state_on_level(0.3, 0.6)
    p0 = lift_genus1_potential(s0, 0.6, d.phi, 0.0, 0.0)
    moved = integrate_flow(p0, [(0.15, 0.1)], tol=1e-11).states[-1]
    lifted = lift_genus1_potential(s0, 0.6, d.phi, 0.15, 0.1)
    assert abs(moved.alpha - lifted.alpha) < 1e-9
    assert abs(moved.beta - lifted.beta) < 1e-9
    assert abs(moved.gamma - lifted.gamma) < 1e-9


def test_trajectory_per_node_drift():
    tr = trajectory_grid(Potential(0.0, 0.0, 2.0), 0, 0, 4, 4, 0.2, 0.2,
                         tol=1e-10)
    d1, d2 = tr.drift_grid()
    assert d1.shape == (4, 4)
    assert float(d1.max() + d2.max()) <= 1e-9
    assert d1[0, 0] == 0.0 and d2[0, 0] == 0.0
