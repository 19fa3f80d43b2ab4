import math

import numpy as np
import pytest

from sgtori import kernels
from sgtori.errors import StepBudgetError, StepCollapseError
from sgtori.laxflows import _drive, _pack_frames, frame_at
from sgtori.potentials import Potential

NO_FRAMES = np.empty(0, complex)


def test_drive_numpy_scalar_direction_is_bit_identical():
    lams = np.array([np.exp(0.3j), 0.5 * np.exp(-0.3j), 2.0 * np.exp(0.1j)])
    y0 = _pack_frames(Potential(0.1 + 0.05j, 0.2j, 1.5), lams)
    ya, yb = y0.copy(), y0.copy()
    ra = kernels.drive(ya, 0.6, 0.8, 0.8, lams, 1e-11, 1e-13, True)
    rb = kernels.drive(yb, np.float64(0.6), np.float64(0.8), np.float64(0.8),
                       lams, 1e-11, 1e-13, True)
    assert ra[0] == kernels.OK and ra[1] > 10
    assert ra == rb
    assert ya.tobytes() == yb.tobytes()


# Along x from this potential the accepted steps range over about
# 0.044..0.071, and the first 33 are all above 0.046; at this length the
# collapse threshold 1e-14 * length is 0.045, so the run collapses after
# 33 accepted steps.
COLLAPSE_POTENTIAL = Potential(0.3 + 0.2j, 0.5 - 0.1j, 2.0)
COLLAPSE_LENGTH = 4.5e12


def test_step_collapse_leaves_last_accepted_state():
    y = _pack_frames(COLLAPSE_POTENTIAL, NO_FRAMES)
    status, n_acc, h_min = kernels.drive(y, 1.0, 0.0, COLLAPSE_LENGTH,
                                         NO_FRAMES, 1e-10, 1e-12, False)
    assert status == kernels.STEP_COLLAPSE
    assert n_acc > 10 and h_min < 1e-14 * COLLAPSE_LENGTH
    # the step sequence does not depend on the length until the last step,
    # so a finishing run records the same accepted states
    rec = []
    start = [COLLAPSE_POTENTIAL.alpha, COLLAPSE_POTENTIAL.beta,
             COLLAPSE_POTENTIAL.gamma]
    kernels._dop853(lambda s: kernels.rhs(s, 1.0, 0.0, (), ()), start, 10.0,
                     1e-10, 1e-12, 0.1, math.inf, 2, record=rec)
    assert len(rec) > n_acc
    assert y.tolist() == rec[n_acc - 1][1]


def test_step_collapse_raises_from_laxflows_drive():
    y = _pack_frames(COLLAPSE_POTENTIAL, NO_FRAMES)
    with pytest.raises(StepCollapseError):
        _drive(y, COLLAPSE_LENGTH, 0.0, NO_FRAMES, 1e-10)


def test_step_budget_raises(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_RHS_EVALS", 600)
    y = _pack_frames(COLLAPSE_POTENTIAL, NO_FRAMES)
    # a 0.3 path takes 6 steps of 12 evaluations, a 10 path about 190
    assert kernels.drive(y.copy(), 1.0, 0.0, 0.3, NO_FRAMES, 1e-10, 1e-12,
                         False)[0] == kernels.OK
    with pytest.raises(StepBudgetError):
        kernels.drive(y, 1.0, 0.0, 10.0, NO_FRAMES, 1e-10, 1e-12, False)


@pytest.fixture(scope="module")
def closing_leg():
    # the closing data at (r, t) = (0.6, 0.1): base potential, spectral
    # samples and the two generators w_hat of the closing sublattice
    from sgtori.genus1 import Genus1Data
    from sgtori.immersion import base_potential, closing_points_g1
    cd = closing_points_g1(Genus1Data.from_rt(0.6, 0.1))
    return base_potential(cd), cd.lambdas, cd.w_hat


def test_one_step_matches_scipy_dop853():
    # the tableau and weights give scipy's step, and the E5/E3 error
    # estimate with its 1/8 exponent gives scipy's next step size
    integrate = pytest.importorskip("scipy.integrate")
    y0 = [0.3, 1.2]
    ref = integrate.DOP853(lambda t, y: np.array(kernels.genus1_rhs(list(y))),
                           0.0, np.array(y0), 1.0, first_step=0.04, rtol=1e-9,
                           atol=1e-11)
    ref.step()
    rec = []
    kernels._dop853(kernels.genus1_rhs, y0, 1.0, 1e-9, 1e-11, 0.04, math.inf,
                    1, record=rec)
    assert rec[0][0] == ref.t == 0.04
    assert np.max(np.abs(np.array(rec[0][1]) - ref.y)) <= 1e-15
    assert abs((rec[1][0] - rec[0][0]) / ref.h_abs - 1.0) <= 1e-6
    # the extra stages and the D vectors give scipy's interpolant
    dense = []
    kernels._dop853(kernels.genus1_rhs, y0, 1.0, 1e-9, 1e-11, 0.04, math.inf,
                    1, dense=dense)
    ts = np.array([0.003, 0.011, 0.02, 0.029, 0.037])
    assert np.max(np.abs(kernels.dense_eval(dense, ts)
                         - ref.dense_output()(ts).T)) <= 1e-15


def test_dense_output_leaves_the_steps_unchanged():
    # the three extra stages feed nothing back into the step
    f = lambda s: kernels.rhs(s, 0.6, -0.8, (), ())
    start = [COLLAPSE_POTENTIAL.alpha, COLLAPSE_POTENTIAL.beta,
             COLLAPSE_POTENTIAL.gamma]
    plain, with_dense, dense = [], [], []
    kernels._dop853(f, start, 2.0, 1e-10, 1e-12, 0.1, math.inf, 2,
                    record=plain)
    kernels._dop853(f, start, 2.0, 1e-10, 1e-12, 0.1, math.inf, 2,
                    record=with_dense, dense=dense)
    assert plain == with_dense
    assert len(dense) == len(plain)
    assert [seg[0] + seg[1] for seg in dense] == [t for t, _ in plain]


def test_closing_leg_work_bound(closing_leg, monkeypatch):
    # one w_hat leg at tol 1e-11 takes 408 and 420 evaluations; a 5th-order
    # pair needs over 2,000
    p0, lams, w_hat = closing_leg
    rhs = kernels.rhs
    calls = []

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(kernels, "rhs", counted)
    for w in w_hat:
        calls.clear()
        frame_at(p0, w.real, w.imag, lams, tol=1e-11)
        assert 0 < len(calls) <= 600


def test_dense_output_matches_node_by_node_frames(closing_leg):
    # one call over w_hat at the stepper's own pace, with the tolerances
    # laxflows sets for tol 1e-12; its dense output at seven nodes against
    # frames integrated to each node at that tol.  (The interpolant's error
    # is not what the step control measures: at 10x these tolerances it
    # reaches 1e-11 on alpha and beta, within tol 1e-11.)
    p0, lams, w_hat = closing_leg
    w = w_hat[0]
    length = abs(w)
    nodes = [length * k / 7 for k in range(1, 8)]
    y = _pack_frames(p0, lams)
    dense = []
    status, n_acc, _ = kernels.drive(y, w.real / length, w.imag / length,
                                     length, lams, 1.5e-13, 1.5e-15, True,
                                     dense)
    assert status == kernels.OK and len(dense) == n_acc
    states = kernels.dense_eval(dense, nodes)
    assert np.max(np.abs(states[-1] - y)) <= 1e-13
    for s, d in zip(states, nodes):
        F, p = frame_at(p0, w.real * d / length, w.imag * d / length, lams,
                        tol=1e-12)
        assert np.max(np.abs(s[3:].reshape(-1, 2, 2) - F)) <= 1e-12
        assert abs(s[0] - p.alpha) + abs(s[1] - p.beta) <= 1e-12


def test_det_drift_over_a_closing_leg(closing_leg):
    # without renormalisation the frames keep det F = 1 to well inside
    # 1e-12 over a whole w_hat leg; renormalising at the end lands it on 1
    p0, lams, w_hat = closing_leg
    for w in w_hat:
        length = abs(w)
        for renorm, bound in ((False, 1e-12), (True, 1e-15)):
            y = _pack_frames(p0, lams)
            kernels.drive(y, w.real / length, w.imag / length, length, lams,
                          1.5e-12, 1.5e-14, renorm)
            det = [np.linalg.det(F) for F in y[3:].reshape(-1, 2, 2)]
            assert np.max(np.abs(np.array(det) - 1.0)) <= bound
