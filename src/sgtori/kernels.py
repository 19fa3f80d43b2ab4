"""Hot numerical kernels: the commuting-flow / frame right-hand side, the
reduced genus-one right-hand side, and one adaptive Dormand-Prince 8(5,3)
stepper (DOP853) that integrates both.

The stepper holds its state as a list of Python ``complex``/``float`` values
for the whole call: arithmetic on NumPy scalars costs several times more per
operation, and a state of 3 to 15 entries is too short for array operations
to pay.  `drive` and `genus1_drive` take and fill NumPy arrays at their
boundary only; `genus1_drive` also returns its record and its dense output
as lists, which grow with the steps taken.

An accepted step costs 12 right-hand-side evaluations (11 stages plus the
last, which is the next step's first), a rejected one 11.  At the tolerances
the frame layer uses, a closing-lattice leg at (r, t) = (0.6, 0.1) takes 37
DOP853 steps where a Dormand-Prince 5(4) pair takes 359: about 5x fewer
evaluations.  Output points between the steps come from DOP853's 7th-order
dense output, three more evaluations per accepted step when asked for, so
the stepper never shortens a step to place one: only the last step of a
call is clipped, to end on the span.  Frames are rescaled to det F = 1 only
at the end of a call: without any rescaling det F drifts by under 1e-13 over
a closing-lattice leg, and rescaling after every step would cost the
first-same-as-last evaluation.

Flow/frame state layout:

    y[0] = alpha, y[1] = beta (complex), y[2] = gamma (real),
    y[3 + 4*k : 7 + 4*k] = 2x2 frame matrix at lambdas[k], row-major.

Reduced genus-one state: [alpha_hat, beta_hat] (real).

Every stepper call may spend at most MAX_RHS_EVALS right-hand-side
evaluations, rejected steps included; past that it raises StepBudgetError.
"""

import cmath
import math

import numpy as np

from .errors import StepBudgetError

# there is no jitted kernel path; callers that report the path read this
USE_NUMBA = False

# flow status codes
OK = 0
STEP_COLLAPSE = 1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# The largest single call seen in the test suite is a 2-long reduced flow
# forced by max_step = 0.003 to 334 steps with dense output: 5,011
# evaluations.  In the benchmark workloads the largest is the reduced orbit
# of immersion.gamma_profile, at most 772, and the largest frame call
# (15-long state) takes 503 (672 in the tests).  The budget is about 300x the
# largest; a 3-long flow state spends it in about 11 s on a 2-core x86-64
# virtual machine.
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


def _dense_coeffs(f, y, y8, hs, k1, k6, k7, k8, k9, k10, k11, k12, k13):
    """The seven interpolation coefficient vectors of the accepted DOP853
    step y -> y8 of size hs, as in scipy's DOP853._dense_output_impl: the
    three extra stages use rows 13-15 of scipy's A, the last four vectors
    its D."""
    k14 = f([v + hs * (0.056167502283047954 * q1 + 0.25350021021662483 * q7
                       - 0.2462390374708025 * q8 - 0.12419142326381637 * q9
                       + 0.15329179827876568 * q10 + 0.00820105229563469 * q11
                       + 0.007567897660545699 * q12 - 0.008298 * q13)
             for v, q1, q7, q8, q9, q10, q11, q12, q13
             in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
    k15 = f([v + hs * (0.03183464816350214 * q1 + 0.028300909672366776 * q6
                       + 0.053541988307438566 * q7 - 0.05492374857139099 * q8
                       - 0.00010834732869724932 * q11
                       + 0.0003825710908356584 * q12
                       - 0.00034046500868740456 * q13
                       + 0.1413124436746325 * q14)
             for v, q1, q6, q7, q8, q11, q12, q13, q14
             in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
    k16 = f([v + hs * (-0.42889630158379194 * q1 - 4.697621415361164 * q6
                       + 7.683421196062599 * q7 + 4.06898981839711 * q8
                       + 0.3567271874552811 * q9 - 0.0013990241651590145 * q13
                       + 2.9475147891527724 * q14 - 9.15095847217987 * q15)
             for v, q1, q6, q7, q8, q9, q13, q14, q15
             in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
    rows = ([], [], [], [], [], [], [])
    r0, r1, r2, r3, r4, r5, r6 = rows
    for v, w, q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16 in zip(
            y, y8, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16):
        dy = w - v
        r0.append(dy)
        r1.append(hs * q1 - dy)
        r2.append(2.0 * dy - hs * (q13 + q1))
        r3.append(hs * (-8.428938276109013 * q1 + 0.5667149535193777 * q6
                        - 3.0689499459498917 * q7 + 2.38466765651207 * q8
                        + 2.117034582445028 * q9 - 0.871391583777973 * q10
                        + 2.2404374302607883 * q11 + 0.6315787787694688 * q12
                        - 0.08899033645133331 * q13
                        + 18.148505520854727 * q14
                        - 9.194632392478356 * q15 - 4.436036387594894 * q16))
        r4.append(hs * (10.427508642579134 * q1 + 242.28349177525817 * q6
                        + 165.20045171727028 * q7 - 374.5467547226902 * q8
                        - 22.113666853125306 * q9 + 7.733432668472264 * q10
                        - 30.674084731089398 * q11 - 9.332130526430229 * q12
                        + 15.697238121770845 * q13
                        - 31.139403219565178 * q14
                        - 9.35292435884448 * q15 + 35.81684148639408 * q16))
        r5.append(hs * (19.985053242002433 * q1 - 387.0373087493518 * q6
                        - 189.17813819516758 * q7 + 527.8081592054236 * q8
                        - 11.57390253995963 * q9 + 6.8812326946963 * q10
                        - 1.0006050966910838 * q11 + 0.7777137798053443 * q12
                        - 2.778205752353508 * q13 - 60.19669523126412 * q14
                        + 84.32040550667716 * q15 + 11.99229113618279 * q16))
        r6.append(hs * (-25.69393346270375 * q1 - 154.18974869023643 * q6
                        - 231.5293791760455 * q7 + 357.6391179106141 * q8
                        + 93.40532418362432 * q9 - 37.45832313645163 * q10
                        + 104.0996495089623 * q11 + 29.8402934266605 * q12
                        - 43.53345659001114 * q13 + 96.32455395918828 * q14
                        - 39.17726167561544 * q15
                        - 149.72683625798564 * q16))
    return rows


def _dop853(f, y, span, rtol, atol, h, max_step, positive, renorm=None,
            record=None, dense=None):
    """Integrate y' = f(y) from 0 to `span` (either sign) with the embedded
    Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett & Wanner, Solving
    Ordinary Differential Equations I, 2nd ed., sec. II.10).  The tableau,
    the weights and the E5/E3 error vectors are those of
    scipy/integrate/_ivp/dop853_coefficients.py, as float literals.

    `y` is a list of Python floats or complex numbers; it is not modified.
    The error estimate is scipy's, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n)
    with each component scaled by atol + rtol*max(|y|, |y8|).  A step is
    accepted when it is at most 1 and y8[positive] > 0; any other step
    shrinks h as a too-large one does.  The first step is
    min(h, |span|, max_step); h never grows past `max_step`, and only the
    last step is shortened, to end on `span`.  The last stage of an accepted
    step is the first of the next (first same as last).

    `record`, if given, receives (t, y) after each accepted step.  `dense`,
    if given, receives the 7th-order dense output of each accepted step
    (sec. II.6), which costs three more evaluations per step: a segment
    (t_old, h, y_old, coeffs) in the layout of scipy's Dop853DenseOutput,
    for `dense_eval`.  At the end `renorm(y)`, if given, rescales the state
    in place.

    Returns (status, y, n_accepted, h_min) with y the last accepted state.
    Raises StepBudgetError once f has been evaluated MAX_RHS_EVALS times.
    """
    # NumPy scalars here would make every step's arithmetic NumPy's
    span, rtol, atol = float(span), float(rtol), float(atol)
    max_step = float(max_step)
    sgn = 1.0 if span >= 0.0 else -1.0
    goal = abs(span)
    h = min(h, goal, max_step)
    h_min = h
    t = 0.0
    n_acc = 0
    try:
        k1 = f(y)
    except ZeroDivisionError:
        # the dynamics are singular at the start
        return STEP_COLLAPSE, y, n_acc, h_min
    n_eval = 1
    n = len(y)
    while t < goal:
        if h < 1e-14 * max(1.0, goal):
            return STEP_COLLAPSE, y, n_acc, h_min
        if n_eval >= MAX_RHS_EVALS:
            raise StepBudgetError(
                f"budget of {MAX_RHS_EVALS} right-hand-side evaluations "
                f"spent at t = {t:.6g} of {goal:.6g}")
        landing = t + h >= goal
        hstep = goal - t if landing else h
        hs = sgn * hstep
        n_eval += 11
        accepted = False
        try:
            k2 = f([v + hs * 0.05260015195876773 * q1 for v, q1 in zip(y, k1)])
            k3 = f([v + hs * (0.0197250569845379 * q1
                              + 0.0591751709536137 * q2)
                    for v, q1, q2 in zip(y, k1, k2)])
            k4 = f([v + hs * (0.02958758547680685 * q1
                              + 0.08876275643042054 * q3)
                    for v, q1, q3 in zip(y, k1, k3)])
            k5 = f([v + hs * (0.2413651341592667 * q1 - 0.8845494793282861 * q3
                              + 0.924834003261792 * q4)
                    for v, q1, q3, q4 in zip(y, k1, k3, k4)])
            k6 = f([v + hs * (0.037037037037037035 * q1
                              + 0.17082860872947386 * q4
                              + 0.12546768756682242 * q5)
                    for v, q1, q4, q5 in zip(y, k1, k4, k5)])
            k7 = f([v + hs * (0.037109375 * q1 + 0.17025221101954405 * q4
                              + 0.06021653898045596 * q5 - 0.017578125 * q6)
                    for v, q1, q4, q5, q6 in zip(y, k1, k4, k5, k6)])
            k8 = f([v + hs * (0.03709200011850479 * q1
                              + 0.17038392571223998 * q4
                              + 0.10726203044637328 * q5
                              - 0.015319437748624402 * q6
                              + 0.008273789163814023 * q7)
                    for v, q1, q4, q5, q6, q7 in zip(y, k1, k4, k5, k6, k7)])
            k9 = f([v + hs * (0.6241109587160757 * q1 - 3.3608926294469414 * q4
                              - 0.868219346841726 * q5 + 27.59209969944671 * q6
                              + 20.154067550477894 * q7
                              - 43.48988418106996 * q8)
                    for v, q1, q4, q5, q6, q7, q8
                    in zip(y, k1, k4, k5, k6, k7, k8)])
            k10 = f([v + hs * (0.47766253643826434 * q1
                               - 2.4881146199716677 * q4
                               - 0.590290826836843 * q5
                               + 21.230051448181193 * q6
                               + 15.279233632882423 * q7
                               - 33.28821096898486 * q8
                               - 0.020331201708508627 * q9)
                     for v, q1, q4, q5, q6, q7, q8, q9
                     in zip(y, k1, k4, k5, k6, k7, k8, k9)])
            k11 = f([v + hs * (-0.9371424300859873 * q1
                               + 5.186372428844064 * q4
                               + 1.0914373489967295 * q5
                               - 8.149787010746927 * q6
                               - 18.52006565999696 * q7
                               + 22.739487099350505 * q8
                               + 2.4936055526796523 * q9
                               - 3.0467644718982196 * q10)
                     for v, q1, q4, q5, q6, q7, q8, q9, q10
                     in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
            k12 = f([v + hs * (2.273310147516538 * q1 - 10.53449546673725 * q4
                               - 2.0008720582248625 * q5
                               - 17.9589318631188 * q6
                               + 27.94888452941996 * q7
                               - 2.8589982771350235 * q8
                               - 8.87285693353063 * q9
                               + 12.360567175794303 * q10
                               + 0.6433927460157636 * q11)
                     for v, q1, q4, q5, q6, q7, q8, q9, q10, q11
                     in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
            # 8th-order solution and the 5th- and 3rd-order error terms
            y8 = []
            e5 = e3 = 0.0
            for v, q1, q6, q7, q8, q9, q10, q11, q12 in zip(
                    y, k1, k6, k7, k8, k9, k10, k11, k12):
                w = v + hs * (0.054293734116568765 * q1
                              + 4.450312892752409 * q6
                              + 1.8915178993145003 * q7
                              - 5.801203960010585 * q8
                              + 0.3111643669578199 * q9
                              - 0.1521609496625161 * q10
                              + 0.20136540080403034 * q11
                              + 0.04471061572777259 * q12)
                y8.append(w)
                d5 = (0.01312004499419488 * q1 - 1.2251564463762044 * q6
                      - 0.4957589496572502 * q7 + 1.6643771824549864 * q8
                      - 0.35032884874997366 * q9 + 0.3341791187130175 * q10
                      + 0.08192320648511571 * q11
                      - 0.022355307863886294 * q12)
                d3 = (-0.18980075407240762 * q1 + 4.450312892752409 * q6
                      + 1.8915178993145003 * q7 - 5.801203960010585 * q8
                      - 0.4226823213237919 * q9 - 0.1521609496625161 * q10
                      + 0.20136540080403034 * q11
                      + 0.02265179219836082 * q12)
                va = abs(v)
                wa = abs(w)
                sc = atol + rtol * (wa if wa > va else va)
                d5 = abs(d5) / sc
                d3 = abs(d3) / sc
                e5 += d5 * d5
                e3 += d3 * d3
            err = (hstep * e5 / math.sqrt((e5 + 0.01 * e3) * n)
                   if e5 > 0.0 else 0.0)
            if err <= 1.0 and y8[positive] > 0.0:
                k13 = f(y8)
                n_eval += 1
                if dense is not None:
                    coeffs = _dense_coeffs(f, y, y8, hs, k1, k6, k7, k8, k9,
                                           k10, k11, k12, k13)
                    n_eval += 3
                accepted = True
        except ZeroDivisionError:
            # a stage reached the singular set: treat as far too large a step
            err = math.inf

        if accepted:
            if dense is not None:
                dense.append((sgn * t, hs, y, coeffs))
            t = goal if landing else t + hstep
            n_acc += 1
            y = y8
            k1 = k13
            if record is not None:
                record.append((sgn * t, y))
            if landing:
                if renorm is not None:
                    renorm(y)
                break
            fac = _SAFETY * err ** -0.125 if err > 0.0 else _MAX_FACTOR
        else:
            fac = _SAFETY * err ** -0.125 if err > 1.0 else 0.5
        if fac < _MIN_FACTOR:
            fac = _MIN_FACTOR
        elif fac > _MAX_FACTOR:
            fac = _MAX_FACTOR
        h = hstep * fac
        if h > max_step:
            h = max_step
        if h < h_min:
            h_min = h
    return OK, y, n_acc, h_min


def dense_eval(segments, t):
    """States at the points `t` (any shape) from the `dense` segments of one
    `_dop853` call, as an array of shape t.shape + (len(y),).

    Each point is evaluated on the segment whose step covers it, points
    before or past the integrated range on the first or last one, by the
    nested form of scipy's Dop853DenseOutput.  The arithmetic runs along the
    points, one component at a time.
    """
    t0 = np.array([s[0] for s in segments])
    h = np.array([s[1] for s in segments])
    # (component, segment) and (power, component, segment), contiguous
    y0 = np.array([s[2] for s in segments]).T.copy()
    coeffs = np.array([s[3] for s in segments]).transpose(1, 2, 0).copy()
    t = np.asarray(t, float)
    tf = t.ravel()
    sgn = 1.0 if h[0] > 0.0 else -1.0
    idx = np.clip(np.searchsorted(sgn * t0, sgn * tf, side="right") - 1,
                  0, len(segments) - 1)
    x = (tf - t0[idx]) / h[idx]
    x1 = 1.0 - x
    c = coeffs.take(idx, axis=2)
    out = c[6] * x
    for k in (5, 4, 3, 2, 1, 0):
        out += c[k]
        out *= x if k % 2 == 0 else x1
    out += y0.take(idx, axis=1)
    return out.T.reshape(t.shape + (len(y0),))


def drive(y, cx, cy, length, lambdas, rtol, atol, renorm, dense=None):
    """Integrate the state from arclength 0 to `length` along (cx, cy).

    `y` is a complex array in the layout above and receives the final state
    (the last accepted one on STEP_COLLAPSE).  Steps that would take gamma
    out of (0, inf) are rejected.  With `renorm` each frame block of the
    final state is rescaled to determinant 1.  `dense`, if given, receives
    the dense output of every step, for `dense_eval` at arclengths in
    [0, length].  Returns (status, n_accepted, h_min).
    """
    cx, cy = float(cx), float(cy)
    lams = [complex(lam) for lam in lambdas]
    inv = inverse_lambdas(lams)
    state = y.tolist()
    state[2] = state[2].real
    status, state, n_acc, h_min = _dop853(
        lambda s: rhs(s, cx, cy, lams, inv), state, length, rtol, atol, 0.1,
        math.inf, 2, _renorm_frames if renorm and lams else None,
        dense=dense)
    y[:] = state
    return status, n_acc, h_min


def genus1_drive(state, span, rtol, atol, max_step):
    """Integrate the reduced flow over `span` (either sign), recording the
    initial state and every accepted step as (t, [alpha_hat, beta_hat]),
    and the dense output of every step.

    Returns (status, n_records, records, dense); on OK the final state is
    written to `state`.
    """
    rec = [(0.0, [float(state[0]), float(state[1])])]
    dense = []
    status, y, _, _ = _dop853(genus1_rhs, rec[0][1], span, rtol, atol, 0.01,
                              max_step, 1, record=rec, dense=dense)
    if status == OK:
        state[0], state[1] = y
    return status, len(rec), rec, dense
