"""Hot numerical kernels: the commuting-flow / frame right-hand sides and an
adaptive Dormand-Prince 5(4) path integrator.

State layout (complex128 vector):

    y[0] = alpha, y[1] = beta, y[2] = gamma (real, kept in a complex slot),
    y[3 + 4*k : 7 + 4*k] = 2x2 frame matrix at lambda_samples[k], row-major.

The kernels are jitted with numba unless the environment variable
``SGTORI_NUMBA`` is set to ``0`` (or numba is unavailable), in which case the
same functions run as plain Python/NumPy.
"""

import os

import numpy as np

USE_NUMBA = os.environ.get("SGTORI_NUMBA", "1") != "0"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False

if USE_NUMBA:
    def _jit(f):
        return njit(cache=True, fastmath=False)(f)
else:
    def _jit(f):
        return f

# flow status codes
OK = 0
STEP_COLLAPSE = 1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@_jit
def rhs(y, cx, cy, lambdas, out):
    """Derivative of (alpha, beta, gamma, frames) along the direction cx*X + cy*Y.

    X, Y are the two commuting vector fields on the potential space; the frame
    blocks satisfy dF = F * (cx*U + cy*V) at each lambda sample.
    """
    a = y[0]
    b = y[1]
    g = y[2].real
    ac = np.conj(a)
    bc = np.conj(b)
    gi = 1.0 / g
    g2 = g * g - gi * gi

    dax = g2 + b * g - bc * gi
    dbx = -2.0 * a * g + 2.0 * ac * gi - (a - ac) * b
    dgx = -(a + ac) * g
    day = 1j * (-g2 + b * g - bc * gi)
    dby = 2j * (a * g + ac * gi) - 1j * (a + ac) * b
    dgy = 1j * (ac - a) * g

    out[0] = cx * dax + cy * day
    out[1] = cx * dbx + cy * dby
    out[2] = cx * dgx + cy * dgy

    ia = 0.5 * (a - ac)
    ra = 0.5 * (a + ac)
    for k in range(lambdas.shape[0]):
        lam = lambdas[k]
        li = 1.0 / lam
        # M = cx*U + cy*V
        m11 = cx * ia + cy * 1j * ra
        m12 = cx * (-gi * li - g) + cy * 1j * (-gi * li + g)
        m21 = cx * (g + gi * lam) + cy * 1j * (g - gi * lam)
        m22 = -m11
        o = 3 + 4 * k
        f11 = y[o]
        f12 = y[o + 1]
        f21 = y[o + 2]
        f22 = y[o + 3]
        out[o] = f11 * m11 + f12 * m21
        out[o + 1] = f11 * m12 + f12 * m22
        out[o + 2] = f21 * m11 + f22 * m21
        out[o + 3] = f21 * m12 + f22 * m22


@_jit
def drive(y, cx, cy, length, lambdas, rtol, atol, renorm):
    """Integrate the state from arclength 0 to `length` along (cx, cy).

    Embedded Dormand-Prince 5(4) with PI-free step control, rejection when
    gamma would leave (0, inf), and optional det-renormalization of the frame
    blocks after each accepted step.  Returns (status, n_accepted, h_min).
    """
    n = y.shape[0]
    k1 = np.empty(n, np.complex128)
    k2 = np.empty(n, np.complex128)
    k3 = np.empty(n, np.complex128)
    k4 = np.empty(n, np.complex128)
    k5 = np.empty(n, np.complex128)
    k6 = np.empty(n, np.complex128)
    k7 = np.empty(n, np.complex128)
    yt = np.empty(n, np.complex128)
    y5 = np.empty(n, np.complex128)

    s = 0.0
    h = min(0.1, length) if length > 0.0 else 0.0
    hmin_seen = h
    nacc = 0
    rhs(y, cx, cy, lambdas, k1)
    while s < length:
        if h < 1e-14 * max(1.0, length):
            return STEP_COLLAPSE, nacc, hmin_seen
        if s + h > length:
            h = length - s

        for i in range(n):
            yt[i] = y[i] + h * 0.2 * k1[i]
        rhs(yt, cx, cy, lambdas, k2)
        for i in range(n):
            yt[i] = y[i] + h * (0.075 * k1[i] + 0.225 * k2[i])
        rhs(yt, cx, cy, lambdas, k3)
        for i in range(n):
            yt[i] = y[i] + h * ((44.0 / 45.0) * k1[i] - (56.0 / 15.0) * k2[i]
                                + (32.0 / 9.0) * k3[i])
        rhs(yt, cx, cy, lambdas, k4)
        for i in range(n):
            yt[i] = y[i] + h * ((19372.0 / 6561.0) * k1[i] - (25360.0 / 2187.0) * k2[i]
                                + (64448.0 / 6561.0) * k3[i] - (212.0 / 729.0) * k4[i])
        rhs(yt, cx, cy, lambdas, k5)
        for i in range(n):
            yt[i] = y[i] + h * ((9017.0 / 3168.0) * k1[i] - (355.0 / 33.0) * k2[i]
                                + (46732.0 / 5247.0) * k3[i] + (49.0 / 176.0) * k4[i]
                                - (5103.0 / 18656.0) * k5[i])
        rhs(yt, cx, cy, lambdas, k6)
        for i in range(n):
            y5[i] = y[i] + h * ((35.0 / 384.0) * k1[i] + (500.0 / 1113.0) * k3[i]
                                + (125.0 / 192.0) * k4[i] - (2187.0 / 6784.0) * k5[i]
                                + (11.0 / 84.0) * k6[i])
        rhs(y5, cx, cy, lambdas, k7)

        # embedded 4th-order error estimate
        err = 0.0
        for i in range(n):
            e4 = y[i] + h * ((5179.0 / 57600.0) * k1[i] + (7571.0 / 16695.0) * k3[i]
                             + (393.0 / 640.0) * k4[i] - (92097.0 / 339200.0) * k5[i]
                             + (187.0 / 2100.0) * k6[i] + (1.0 / 40.0) * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(y5[i]))
            d = abs(y5[i] - e4) / sc
            err += d * d
        err = np.sqrt(err / n)

        if err <= 1.0 and y5[2].real > 0.0:
            s += h
            nacc += 1
            for i in range(n):
                y[i] = y5[i]
            y[2] = complex(y[2].real, 0.0)
            if renorm:
                for k in range(lambdas.shape[0]):
                    o = 3 + 4 * k
                    det = y[o] * y[o + 3] - y[o + 1] * y[o + 2]
                    sq = np.sqrt(det)
                    y[o] /= sq
                    y[o + 1] /= sq
                    y[o + 2] /= sq
                    y[o + 3] /= sq
                rhs(y, cx, cy, lambdas, k1)
            else:
                for i in range(n):
                    k1[i] = k7[i]
            if err > 0.0:
                fac = _SAFETY * err ** -0.2
            else:
                fac = _MAX_FACTOR
        else:
            # rejected: gamma sign loss is treated like a too-large step
            fac = _SAFETY * err ** -0.2 if err > 1.0 else 0.5
        if fac < _MIN_FACTOR:
            fac = _MIN_FACTOR
        elif fac > _MAX_FACTOR:
            fac = _MAX_FACTOR
        h *= fac
        if h < hmin_seen:
            hmin_seen = h
    return OK, nacc, hmin_seen


@_jit
def genus1_rhs(a, b):
    """Reduced one-dimensional flow: returns (da, db) for the state (a, b)."""
    return 2.0 * (1.0 / (b * b) - b * b), 2.0 * a * b


@_jit
def genus1_drive(state, span, rtol, atol, rec_t, rec_a, rec_b, max_step):
    """Integrate the reduced flow over `span`, recording at every accepted step.

    rec_* must be preallocated; returns (status, n_records) with the initial
    state stored at index 0.
    """
    a = state[0]
    b = state[1]
    t = 0.0
    rec_t[0] = 0.0
    rec_a[0] = a
    rec_b[0] = b
    m = 1
    h = min(0.01, abs(span)) if span != 0.0 else 0.0
    sgn = 1.0 if span >= 0.0 else -1.0
    goal = abs(span)
    while t < goal:
        if h < 1e-14 * max(1.0, goal):
            return STEP_COLLAPSE, m
        if t + h > goal:
            h = goal - t
        hs = sgn * h
        # classic DP5 on the 2-state; reuse the scalar tableau
        k1a, k1b = genus1_rhs(a, b)
        k2a, k2b = genus1_rhs(a + hs * 0.2 * k1a, b + hs * 0.2 * k1b)
        k3a, k3b = genus1_rhs(a + hs * (0.075 * k1a + 0.225 * k2a),
                              b + hs * (0.075 * k1b + 0.225 * k2b))
        k4a, k4b = genus1_rhs(a + hs * ((44.0 / 45.0) * k1a - (56.0 / 15.0) * k2a + (32.0 / 9.0) * k3a),
                              b + hs * ((44.0 / 45.0) * k1b - (56.0 / 15.0) * k2b + (32.0 / 9.0) * k3b))
        k5a, k5b = genus1_rhs(
            a + hs * ((19372.0 / 6561.0) * k1a - (25360.0 / 2187.0) * k2a
                      + (64448.0 / 6561.0) * k3a - (212.0 / 729.0) * k4a),
            b + hs * ((19372.0 / 6561.0) * k1b - (25360.0 / 2187.0) * k2b
                      + (64448.0 / 6561.0) * k3b - (212.0 / 729.0) * k4b))
        k6a, k6b = genus1_rhs(
            a + hs * ((9017.0 / 3168.0) * k1a - (355.0 / 33.0) * k2a
                      + (46732.0 / 5247.0) * k3a + (49.0 / 176.0) * k4a
                      - (5103.0 / 18656.0) * k5a),
            b + hs * ((9017.0 / 3168.0) * k1b - (355.0 / 33.0) * k2b
                      + (46732.0 / 5247.0) * k3b + (49.0 / 176.0) * k4b
                      - (5103.0 / 18656.0) * k5b))
        a5 = a + hs * ((35.0 / 384.0) * k1a + (500.0 / 1113.0) * k3a + (125.0 / 192.0) * k4a
                       - (2187.0 / 6784.0) * k5a + (11.0 / 84.0) * k6a)
        b5 = b + hs * ((35.0 / 384.0) * k1b + (500.0 / 1113.0) * k3b + (125.0 / 192.0) * k4b
                       - (2187.0 / 6784.0) * k5b + (11.0 / 84.0) * k6b)
        k7a, k7b = genus1_rhs(a5, b5)
        e4a = a + hs * ((5179.0 / 57600.0) * k1a + (7571.0 / 16695.0) * k3a
                        + (393.0 / 640.0) * k4a - (92097.0 / 339200.0) * k5a
                        + (187.0 / 2100.0) * k6a + (1.0 / 40.0) * k7a)
        e4b = b + hs * ((5179.0 / 57600.0) * k1b + (7571.0 / 16695.0) * k3b
                        + (393.0 / 640.0) * k4b - (92097.0 / 339200.0) * k5b
                        + (187.0 / 2100.0) * k6b + (1.0 / 40.0) * k7b)
        sca = atol + rtol * max(abs(a), abs(a5))
        scb = atol + rtol * max(abs(b), abs(b5))
        da = abs(a5 - e4a) / sca
        db = abs(b5 - e4b) / scb
        err = np.sqrt(0.5 * (da * da + db * db))
        if err <= 1.0 and b5 > 0.0:
            t += h
            a = a5
            b = b5
            if m < rec_t.shape[0]:
                rec_t[m] = sgn * t
                rec_a[m] = a
                rec_b[m] = b
                m += 1
            fac = _SAFETY * err ** -0.2 if err > 0.0 else _MAX_FACTOR
        else:
            fac = _SAFETY * err ** -0.2 if err > 1.0 else 0.5
        if fac < _MIN_FACTOR:
            fac = _MIN_FACTOR
        elif fac > _MAX_FACTOR:
            fac = _MAX_FACTOR
        h *= fac
        if h > max_step:
            h = max_step
    state[0] = a
    state[1] = b
    return OK, m


def warmup():
    """Trigger JIT compilation of the kernels on a tiny problem."""
    y = np.zeros(7, np.complex128)
    y[0] = 0.1 + 0.05j
    y[1] = 0.2j
    y[2] = 1.5
    y[3] = 1.0
    y[6] = 1.0
    lams = np.array([1.0 + 0j])
    drive(y, 1.0, 0.0, 1e-3, lams, 1e-10, 1e-12, True)
    st = np.array([0.1, 1.2])
    rec = np.empty(8), np.empty(8), np.empty(8)
    genus1_drive(st, 1e-3, 1e-10, 1e-12, rec[0], rec[1], rec[2], 1.0)
