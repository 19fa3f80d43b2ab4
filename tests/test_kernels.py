import math

import numpy as np
import pytest

from sgtori import kernels
from sgtori.errors import StepBudgetError, StepCollapseError
from sgtori.laxflows import _drive, _pack_frames
from sgtori.potentials import Potential

NO_FRAMES = np.empty(0, complex)


def test_drive_numpy_scalar_direction_is_bit_identical():
    lams = np.array([np.exp(0.3j), 0.5 * np.exp(-0.3j), 2.0 * np.exp(0.1j)])
    y0 = _pack_frames(Potential(0.1 + 0.05j, 0.2j, 1.5), lams)
    ya, yb = y0.copy(), y0.copy()
    ra = kernels.drive(ya, 0.6, 0.8, 0.3, lams, 1e-11, 1e-13, True)
    rb = kernels.drive(yb, np.float64(0.6), np.float64(0.8), np.float64(0.3),
                       lams, 1e-11, 1e-13, True)
    assert ra[0] == kernels.OK and ra[1] > 10
    assert ra == rb
    assert ya.tobytes() == yb.tobytes()


# Along x from this potential the accepted steps range over about
# 0.0057..0.0118; at this length the collapse threshold 1e-14 * length is
# 0.0068, so the run collapses after a couple of hundred accepted steps.
COLLAPSE_POTENTIAL = Potential(0.3 + 0.2j, 0.5 - 0.1j, 2.0)
COLLAPSE_LENGTH = 6.8e11


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
    kernels._dopri54(lambda s: kernels.rhs(s, 1.0, 0.0, (), ()), start, 10.0,
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
    # a 0.3 path takes about 45 steps of 6 evaluations, a 10 path over 1000
    assert kernels.drive(y.copy(), 1.0, 0.0, 0.3, NO_FRAMES, 1e-10, 1e-12,
                         False)[0] == kernels.OK
    with pytest.raises(StepBudgetError):
        kernels.drive(y, 1.0, 0.0, 10.0, NO_FRAMES, 1e-10, 1e-12, False)
