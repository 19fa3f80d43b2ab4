"""Hot numerical kernels: the commuting-flow / frame right-hand side, the
reduced genus-one right-hand side, and one adaptive Dormand-Prince 5(4)
stepper that integrates both.

The stepper holds its state as a list of Python ``complex``/``float`` values
for the whole call: arithmetic on NumPy scalars costs several times more per
operation, and a state of 3 to 15 entries is too short for array operations
to pay.  `drive` and `genus1_drive` take and fill NumPy arrays at their
boundary only; `genus1_drive` also returns its record as a list, which
grows with the steps taken.

Flow/frame state layout:

    y[0] = alpha, y[1] = beta (complex), y[2] = gamma (real),
    y[3 + 4*k : 7 + 4*k] = 2x2 frame matrix at lambdas[k], row-major.

Reduced genus-one state: [alpha_hat, beta_hat] (real).

Every stepper call may spend at most MAX_RHS_EVALS right-hand-side
evaluations, rejected steps included; past that it raises StepBudgetError.
"""

import cmath
import math

from .errors import StepBudgetError

# there is no jitted kernel path; callers that report the path read this
USE_NUMBA = False

# flow status codes
OK = 0
STEP_COLLAPSE = 1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# The largest single call seen in the test suite and the benchmark workloads
# is the one-period reduced orbit of immersion.gamma_profile, forced to 2,048
# steps: 12,301 evaluations.  The largest frame call (15-long state) takes
# 3,001.  The budget is over 100x that; a 3-long flow state spends it in
# about 10 s on a 2-core x86-64 virtual machine.
MAX_RHS_EVALS = 1_500_000


def _scaled(vals, d):
    """[v / d for v in vals] by Smith's method with one reciprocal of the
    denominator: the rounding of NumPy's complex division, which CPython's
    `/` does not reproduce, so frames match those NumPy arithmetic gives."""
    dr, di = d.real, d.imag
    if abs(dr) >= abs(di):
        rat = di / dr
        scl = 1.0 / (dr + di * rat)
        return [complex((v.real + v.imag * rat) * scl,
                        (v.imag - v.real * rat) * scl) for v in vals]
    rat = dr / di
    scl = 1.0 / (di + dr * rat)
    return [complex((v.real * rat + v.imag) * scl,
                    (v.imag * rat - v.real) * scl) for v in vals]


def inverse_lambdas(lambdas):
    """1/lambda for each spectral sample, as `rhs` takes them."""
    return [_scaled((1.0 + 0j,), complex(lam))[0] for lam in lambdas]


def rhs(y, cx, cy, lambdas, inv_lambdas):
    """Derivative of (alpha, beta, gamma, frames) along the direction cx*X + cy*Y.

    X, Y are the two commuting vector fields on the potential space; the frame
    blocks satisfy dF = F * (cx*U + cy*V) at each lambda sample.  `y` is a
    list in the layout above; returns a new list.
    """
    a = y[0]
    b = y[1]
    g = y[2]
    ac = a.conjugate()
    bc = b.conjugate()
    gi = 1.0 / g
    g2 = g * g - gi * gi
    bg = b * g
    bcgi = bc * gi
    cyj = cy * 1j

    dax = g2 + bg - bcgi
    dbx = -2.0 * a * g + 2.0 * ac * gi - (a - ac) * b
    day = 1j * (-g2 + bg - bcgi)
    dby = 2j * (a * g + ac * gi) - 1j * (a + ac) * b
    # d gamma/dx = -2 Re(alpha) g, d gamma/dy = 2 Im(alpha) g
    dgx = -(a.real + a.real) * g
    dgy = (a.imag + a.imag) * g
    out = [cx * dax + cy * day, cx * dbx + cy * dby, cx * dgx + cy * dgy]

    # M = cx*U + cy*V; its diagonal does not depend on lambda
    m11 = cx * (0.5 * (a - ac)) + cyj * (0.5 * (a + ac))
    m22 = -m11
    o = 3
    for lam, li in zip(lambdas, inv_lambdas):
        u = -gi * li
        v = gi * lam
        m12 = cx * (u - g) + cyj * (u + g)
        m21 = cx * (g + v) + cyj * (g - v)
        f11, f12, f21, f22 = y[o:o + 4]
        out += (f11 * m11 + f12 * m21, f11 * m12 + f12 * m22,
                f21 * m11 + f22 * m21, f21 * m12 + f22 * m22)
        o += 4
    return out


def _renorm_frames(y):
    """Rescale every frame block of `y` in place to determinant 1."""
    for o in range(3, len(y), 4):
        f11, f12, f21, f22 = blk = y[o:o + 4]
        y[o:o + 4] = _scaled(blk, cmath.sqrt(f11 * f22 - f12 * f21))


def genus1_rhs(y):
    """Reduced one-dimensional flow: [d alpha_hat, d beta_hat] at [a, b]."""
    a, b = y
    return [2.0 * (1.0 / (b * b) - b * b), 2.0 * a * b]


def _dopri54(f, y, span, rtol, atol, h, max_step, positive, renorm=None,
             record=None):
    """Integrate y' = f(y) from 0 to `span` (either sign) with the embedded
    Dormand-Prince 5(4) pair (Dormand & Prince 1980).

    `y` is a list of Python floats or complex numbers; it is not modified.
    A step is accepted when the RMS of the error estimate, scaled by
    atol + rtol*max(|y|, |y5|), is at most 1 and y5[positive] > 0; any other
    step shrinks h as a too-large one does.  The first step is
    min(h, |span|); h never grows past `max_step`.  `renorm(y)`, if given,
    rescales each accepted state in place, after which k1 is re-evaluated.
    `record`, if given, receives (t, y) after each accepted step.

    Returns (status, y, n_accepted, h_min) with y the last accepted state.
    Raises StepBudgetError once f has been evaluated MAX_RHS_EVALS times.
    """
    # NumPy scalars here would make every step's arithmetic NumPy's
    span, rtol, atol = float(span), float(rtol), float(atol)
    max_step = float(max_step)
    sgn = 1.0 if span >= 0.0 else -1.0
    goal = abs(span)
    h = min(h, goal)
    h_min = h
    t = 0.0
    n_acc = 0
    try:
        k1 = f(y)
    except ZeroDivisionError:
        # the dynamics are singular at the start
        return STEP_COLLAPSE, y, n_acc, h_min
    n_eval = 1
    while t < goal:
        if h < 1e-14 * max(1.0, goal):
            return STEP_COLLAPSE, y, n_acc, h_min
        if n_eval >= MAX_RHS_EVALS:
            raise StepBudgetError(
                f"budget of {MAX_RHS_EVALS} right-hand-side evaluations "
                f"spent at t = {t:.6g} of {goal:.6g}")
        if t + h > goal:
            h = goal - t
        hs = sgn * h
        n_eval += 6
        try:
            h02 = hs * 0.2
            k2 = f([a + h02 * b for a, b in zip(y, k1)])
            k3 = f([a + hs * (0.075 * b + 0.225 * c)
                    for a, b, c in zip(y, k1, k2)])
            k4 = f([a + hs * ((44.0 / 45.0) * b - (56.0 / 15.0) * c
                              + (32.0 / 9.0) * d)
                    for a, b, c, d in zip(y, k1, k2, k3)])
            k5 = f([a + hs * ((19372.0 / 6561.0) * b - (25360.0 / 2187.0) * c
                              + (64448.0 / 6561.0) * d - (212.0 / 729.0) * e)
                    for a, b, c, d, e in zip(y, k1, k2, k3, k4)])
            k6 = f([a + hs * ((9017.0 / 3168.0) * b - (355.0 / 33.0) * c
                              + (46732.0 / 5247.0) * d + (49.0 / 176.0) * e
                              - (5103.0 / 18656.0) * g)
                    for a, b, c, d, e, g in zip(y, k1, k2, k3, k4, k5)])
            y5 = [a + hs * ((35.0 / 384.0) * b + (500.0 / 1113.0) * d
                            + (125.0 / 192.0) * e - (2187.0 / 6784.0) * g
                            + (11.0 / 84.0) * p)
                  for a, b, d, e, g, p in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(y5)
            # embedded 4th-order solution; the error is its distance to y5
            err = 0.0
            for a, z, b, d, e, g, p, q in zip(y, y5, k1, k3, k4, k5, k6, k7):
                e4 = a + hs * ((5179.0 / 57600.0) * b + (7571.0 / 16695.0) * d
                               + (393.0 / 640.0) * e
                               - (92097.0 / 339200.0) * g
                               + (187.0 / 2100.0) * p + (1.0 / 40.0) * q)
                ya = abs(a)
                za = abs(z)
                r = abs(z - e4) / (atol + rtol * (za if za > ya else ya))
                err += r * r
            err = math.sqrt(err / len(y))
        except ZeroDivisionError:
            # a stage reached the singular set: treat as far too large a step
            err = math.inf

        if err <= 1.0 and y5[positive] > 0.0:
            t += h
            n_acc += 1
            y = y5
            if record is not None:
                record.append((sgn * t, y))
            if renorm is None:
                k1 = k7
            else:
                renorm(y)
                k1 = f(y)
                n_eval += 1
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
        if h < h_min:
            h_min = h
    return OK, y, n_acc, h_min


def drive(y, cx, cy, length, lambdas, rtol, atol, renorm):
    """Integrate the state from arclength 0 to `length` along (cx, cy).

    `y` is a complex array in the layout above and receives the final state
    (the last accepted one on STEP_COLLAPSE).  Steps that would take gamma
    out of (0, inf) are rejected; with `renorm` each frame block is rescaled
    to determinant 1 after every accepted step.  Returns
    (status, n_accepted, h_min).
    """
    cx, cy = float(cx), float(cy)
    lams = [complex(lam) for lam in lambdas]
    inv = inverse_lambdas(lams)
    state = y.tolist()
    state[2] = state[2].real
    status, state, n_acc, h_min = _dopri54(
        lambda s: rhs(s, cx, cy, lams, inv), state, length, rtol, atol, 0.1,
        math.inf, 2, _renorm_frames if renorm and lams else None)
    y[:] = state
    return status, n_acc, h_min


def genus1_drive(state, span, rtol, atol, max_step):
    """Integrate the reduced flow over `span` (either sign), recording the
    initial state and every accepted step as (t, [alpha_hat, beta_hat]).

    Returns (status, n_records, records); on OK the final state is written
    to `state`.
    """
    rec = [(0.0, [float(state[0]), float(state[1])])]
    status, y, _, _ = _dopri54(genus1_rhs, rec[0][1], span, rtol, atol, 0.01,
                               max_step, 1, record=rec)
    if status == OK:
        state[0], state[1] = y
    return status, len(rec), rec
