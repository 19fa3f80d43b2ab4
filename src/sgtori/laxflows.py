"""Commuting flows on the potential space, the frame ODE and the reduced flow.

The two vector fields are the commutator flows

    d zeta/dx = [zeta, U(zeta)],    d zeta/dy = [zeta, V(zeta)],

written out on the parameters (alpha, beta, gamma):

    d alpha/dx = (g^2 - g^-2) + beta*g - conj(beta)/g
    d beta /dx = -2 alpha g + 2 conj(alpha)/g - (alpha - conj(alpha)) beta
    d gamma/dx = -(alpha + conj(alpha)) g
    d alpha/dy = i (-(g^2 - g^-2) + beta*g - conj(beta)/g)
    d beta /dy = 2i (alpha g + conj(alpha)/g) - i (alpha + conj(alpha)) beta
    d gamma/dy = i (conj(alpha) - alpha) g

The quartic coefficients a1, a2 are conserved.  The frame F solves
dF = F (U dx + V dy), F(0,0) = 1, with det F = 1 (rescaled at the end of
each stepper call, and at each grid node read off the stepper's dense
output).
Translating a frame by w multiplies it by the frame of the flowed potential,
F(z + w) = F(z) F_{p(z)}(w), so callers need only `frame_at` (one segment)
and `integrate_frame` (one lattice sweep, which `trajectory_grid` runs with
no spectral samples).  The packed state that `kernels.drive` integrates is
private to this module.

Conformal-coordinate convention: the flow parameters (x, y) are related to
the conformal coordinate of the induced surface by z_conf = 2 z, so u = ln
gamma satisfies u_xx + u_yy = -8 sinh 2u along the flow, equivalently
(1/4)(u_xx + u_yy) + 2 sinh 2u = 0.  sinh_gordon_residual measures the
latter.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import GridTooSmallError, StepCollapseError
from .potentials import Potential, spectral_poly, u_matrix, v_matrix
from .weierstrass import agm


def lax_vector_fields(p):
    """Tangents ((da, db, dg) along x, (da, db, dg) along y) at a potential."""
    y = [complex(p.alpha), complex(p.beta), float(p.gamma)]
    return (tuple(kernels.rhs(y, 1.0, 0.0, (), ())),
            tuple(kernels.rhs(y, 0.0, 1.0, (), ())))


def bracket_matrices(p, lam):
    """([zeta, U], [zeta, V]) at a spectral value, for cross-checks."""
    from .potentials import eval_zeta
    z = eval_zeta(p, lam)
    u = u_matrix(p, lam)
    v = v_matrix(p, lam)
    return z @ u - u @ z, z @ v - v @ z


def _pack_frames(p, lams):
    """State of p with identity frames at each of the spectral samples."""
    y = np.empty(3 + 4 * lams.size, complex)
    y[0] = p.alpha
    y[1] = p.beta
    y[2] = p.gamma
    y[3:] = np.tile(np.eye(2, dtype=complex).ravel(), lams.size)
    return y


def _unpack(y, n_lambda):
    """(frames, potential) of a packed state; the frames are a view of y."""
    return (y[3:].reshape(n_lambda, 2, 2),
            Potential(complex(y[0]), complex(y[1]), float(y[2].real)))


# local-error targets are set a factor below the requested drift tolerance so
# that accumulation over unit-length paths stays within it
_TOL_CALIBRATION = 0.15


def _drive(y, dx, dy, lambdas, tol, dense=None):
    """Flow the packed state `y` in place along the segment (dx, dy);
    `dense` receives the stepper's dense output in arclength."""
    length = float(np.hypot(dx, dy))
    if length == 0.0:
        return
    status, _, hmin = kernels.drive(y, dx / length, dy / length, length,
                                    lambdas, tol * _TOL_CALIBRATION,
                                    tol * 1e-2 * _TOL_CALIBRATION, True,
                                    dense)
    if status == kernels.STEP_COLLAPSE:
        raise StepCollapseError(f"step size collapsed to {hmin:.2e}")


def _line_nodes(y, dx, dy, n, lambdas, tol):
    """Packed states at n evenly spaced nodes from `y` to `y` flowed by
    (dx, dy), the first being `y` itself: one stepper call, the others read
    off its dense output with each frame rescaled to det 1.  `y` is left
    unchanged."""
    if n == 1:
        return [y]
    dense = []
    _drive(y.copy(), dx, dy, lambdas, tol, dense)
    nodes = kernels.dense_eval(dense, math.hypot(dx, dy) / (n - 1)
                               * np.arange(1, n))
    f11, f12, f21, f22 = (nodes[:, 3 + k::4] for k in range(4))
    det_root = np.sqrt(f11 * f22 - f12 * f21)
    for f in (f11, f12, f21, f22):
        f /= det_root
    return [y, *nodes]


def frame_at(p0, x, y, lambda_samples, tol=1e-10):
    """(F(x, y; lambda_k), flowed potential) along the straight segment from
    the origin.

    Frames compose along paths: with (F, p) = frame_at(p0, z) the frame at
    z + w is F @ frame_at(p, w)[0].
    """
    lams = np.asarray(lambda_samples, complex)
    st = _pack_frames(p0, lams)
    _drive(st, x, y, lams, tol)
    return _unpack(st, lams.size)


@dataclass
class FlowResult:
    """States along a waypoint path, with the conserved-quantity drift."""
    points: list                # (x, y) visited, starting at (0, 0)
    states: list                # Potential at each point
    drift_a1: float
    drift_a2: float


def integrate_flow(p0, path, tol=1e-10):
    """Integrate the commuting flows along straight segments between waypoints.

    `path` is a list of (x, y) targets relative to the start.  Adaptive
    embedded Runge-Kutta with relative tolerance `tol`; steps that would push
    gamma through 0 are rejected and halved.  The reported drift is the
    largest deviation of (a1, a2) over all waypoints.
    """
    q0 = spectral_poly(p0)
    pts = [(0.0, 0.0)]
    states = [p0]
    cx, cy = 0.0, 0.0
    d1 = d2 = 0.0
    for (tx, ty) in path:
        _, p = frame_at(states[-1], tx - cx, ty - cy, (), tol)
        cx, cy = tx, ty
        q = spectral_poly(p)
        d1 = max(d1, abs(q.a1 - q0.a1))
        d2 = max(d2, abs(q.a2 - q0.a2))
        pts.append((tx, ty))
        states.append(p)
    return FlowResult(pts, states, d1, d2)


@dataclass
class Trajectory:
    """Potentials, and frames at the spectral samples, on a rectangular
    (x, y) lattice; with no samples `frames` has length 0 along its third
    axis."""
    x0: float
    y0: float
    hx: float
    hy: float
    lambda_samples: np.ndarray
    frames: np.ndarray           # frames[j, i, k] at lambda_samples[k]
    states: list                 # states[j][i] at (x0 + i*hx, y0 + j*hy)

    @property
    def nx(self):
        return len(self.states[0])

    @property
    def ny(self):
        return len(self.states)

    def gamma_grid(self):
        return np.array([[p.gamma for p in row] for row in self.states])

    def drift_grid(self):
        """Per-node (|delta a1|, |delta a2|) relative to the first node."""
        q0 = spectral_poly(self.states[0][0])
        d1 = np.empty((self.ny, self.nx))
        d2 = np.empty((self.ny, self.nx))
        for j, row in enumerate(self.states):
            for i, p in enumerate(row):
                q = spectral_poly(p)
                d1[j, i] = abs(q.a1 - q0.a1)
                d2[j, i] = abs(q.a2 - q0.a2)
        return d1, d2

    def to_csv(self, fh):
        fh.write("x,y,re_alpha,im_alpha,re_beta,im_beta,gamma\n")
        for j, row in enumerate(self.states):
            for i, p in enumerate(row):
                x = self.x0 + i * self.hx
                y = self.y0 + j * self.hy
                fh.write(f"{x:.17g},{y:.17g},{p.alpha.real:.17g},"
                         f"{p.alpha.imag:.17g},{p.beta.real:.17g},"
                         f"{p.beta.imag:.17g},{p.gamma:.17g}\n")


def integrate_frame(p0, grid, lambda_samples, tol=1e-10):
    """Integrate the flows and dF = F(U dx + V dy) over a rectangular grid.

    `grid` is (x0, y0, nx, ny, hx, hy).  The state is driven to the grid
    origin, then up the first column and along each row from its first node,
    one stepper call per column or row at the stepper's own step size; the
    nodes are read off its dense output, and their frames rescaled to
    det F = 1.  F(0,0) = identity regardless of the grid origin.
    """
    x0, y0, nx, ny, hx, hy = grid
    lams = np.asarray(lambda_samples, complex)
    nl = lams.size
    start = _pack_frames(p0, lams)
    _drive(start, x0, y0, lams, tol)
    col = _line_nodes(start, 0.0, hy * (ny - 1), ny, lams, tol)
    frames = np.empty((ny, nx, nl, 2, 2), complex)
    states = [[None] * nx for _ in range(ny)]
    for j in range(ny):
        row = _line_nodes(col[j], hx * (nx - 1), 0.0, nx, lams, tol)
        for i, s in enumerate(row):
            frames[j, i], states[j][i] = _unpack(s, nl)
    return Trajectory(x0, y0, hx, hy, lams, frames, states)


def trajectory_grid(p0, x0, y0, nx, ny, hx, hy, tol=1e-10):
    """Flow p0 onto a rectangular lattice, without frames."""
    return integrate_frame(p0, (x0, y0, nx, ny, hx, hy), (), tol)


def sinh_gordon_residual(traj, coordinate_scale=2.0):
    """Max interior residual of the elliptic sinh-Gordon equation on u = ln gamma.

    The 5-point Laplacian is taken in the conformal coordinate
    z_conf = coordinate_scale * z_flow (default 2, the normalization in which
    the flows sweep out a conformally immersed surface), so the residual is

        | Lap_5(u) / scale^2 + 2 sinh(2u) |   ->  O(h^2).
    """
    g = traj.gamma_grid()
    if g.shape[0] < 3 or g.shape[1] < 3:
        raise GridTooSmallError("need at least a 3x3 grid for the stencil")
    u = np.log(g)
    s2 = coordinate_scale ** 2
    lap = ((u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / traj.hx ** 2
           + (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / traj.hy ** 2)
    res = lap / s2 + 2.0 * np.sinh(2.0 * u[1:-1, 1:-1])
    return float(np.max(np.abs(res)))


@dataclass(frozen=True)
class Genus1State:
    """Reduced potential data (alpha_hat real, beta_hat positive)."""
    alpha_hat: float
    beta_hat: float

    def __post_init__(self):
        if not self.beta_hat > 0.0:
            raise ValueError("beta_hat must be positive")

    @property
    def a1_hat(self):
        return self.alpha_hat ** 2 + self.beta_hat ** 2 + self.beta_hat ** -2


@dataclass
class Genus1Orbit:
    """Record of the reduced flow: the y-value after each accepted step, the
    final state, and the stepper's dense output over the steps."""
    y: np.ndarray
    final: Genus1State
    dense: list


def genus1_flow(s0, y_span, tol=1e-10, max_step=math.inf):
    """Integrate the reduced flow d alpha/dy = 2(b^-2 - b^2), d beta/dy = 2ab.

    The x-direction acts trivially on the state.  Steps are bounded by
    `max_step` only when the caller gives one; the tolerance alone sets them
    otherwise.  Returns a Genus1Orbit with the stepper's 7th-order dense
    output, which `genus1_interpolant` evaluates.
    """
    state = np.array([s0.alpha_hat, s0.beta_hat])
    status, _, rec, dense = kernels.genus1_drive(state, float(y_span), tol,
                                                 tol * 1e-2, max_step)
    if status == kernels.STEP_COLLAPSE:
        raise StepCollapseError("reduced flow step collapsed")
    return Genus1Orbit(np.array([t for t, _ in rec]),
                       Genus1State(state[0], state[1]), dense)


def genus1_period(s0):
    """Period of the closed reduced-flow orbit through s0, in closed form.

    On the level set A = alpha_hat^2 + beta_hat^2 + beta_hat^-2 the square
    B = beta_hat^2 obeys (B')^2 = -16 B (B - rho)(B - 1/rho) with

        rho = 2 / (A + sqrt((A - 2)(A + 2))),

    so B(y) = wp(omega + 2i(y - y0)) - e3 on the curve at r = rho, and the
    period is its imaginary half-period

        T = |omega'| = pi / (2 AGM(1/sqrt(rho), sqrt(rho))).

    This form of rho avoids the cancellation in the smaller root
    (A - sqrt(A^2 - 4))/2.  A - 2 and A + 2 are taken as the sums of squares
    alpha_hat^2 + (beta_hat -/+ 1/beta_hat)^2, so no rounding makes the
    root's argument negative near the fixed point (0, 1).
    """
    a, b = s0.alpha_hat, s0.beta_hat
    if abs(a) < 1e-14 and abs(b - 1.0) < 1e-14:
        raise ValueError("stationary state has no period")
    a2 = a * a
    root = math.sqrt((a2 + (b - 1.0 / b) ** 2) * (a2 + (b + 1.0 / b) ** 2))
    rho = 2.0 / (s0.a1_hat + root)
    return math.pi / (2.0 * agm(1.0 / math.sqrt(rho), math.sqrt(rho)))


def genus1_interpolant(orbit):
    """Interpolant y -> (alpha_hat(y), beta_hat(y)) over the orbit's span:
    the degree-7 dense output of each step."""
    def interp(yq):
        ab = kernels.dense_eval(orbit.dense, yq)
        return ab[..., 0], ab[..., 1]

    return interp
