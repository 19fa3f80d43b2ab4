"""Conformal immersions from spectral data and the Willmore energy, three ways.

The immersion is assembled from eigenfunctions psi_i = F^{-1} chi_i of the
frame at four spectral points (p1, p2 = eta(p1), p3, p4 = eta(p3)):

    f(z) = (psi_1, psi_2)^{-1} (psi_3, psi_4),
    chi_2 = -j conj(chi_1),  chi_4 = -j conj(chi_3),

which is quaternion-valued (j A = conj(A) j) and doubly periodic over the
index-two sublattice spanned by w1 + w2, w2 - w1 once the monodromy
eigenvalues at the four points all equal -1 (closing condition).  Frames
come from laxflows: a patch from one `integrate_frame` sweep.  The
periodicity check translates frames by the monodromy M = F_{p0}(w_hat),
F(z + w_hat) = M F(z), which holds once the potential flowed over w_hat
returns to p0; it measures that return too.

Willmore energy routes:
  explicit : W = 8 pi (omega' e3 + eta') lam_h+/nu_h+  (elliptic closed form;
             equals 2 pi^2 cosh 2t in the r -> 1 limit),
  residue  : W = 4i (W2 w1 - W1 w2) from ln mu_i = -w_i/nu + W_i nu + O(nu^3)
             near lam = 0, the W_i extracted by a least-squares fit in nu,
  direct   : W = integral of 4 gamma^2 over a fundamental domain (periodic
             trapezoid = lattice mean), cross-checked against the integral
             of 8 gamma^2 over the index-two-coarser domain.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import weierstrass as ws
from .errors import (ClosingViolationError, ConsistencyError,
                     DegenerateFrameError, FitResidualError)
from .genus1 import (Genus1Data, lattice_g1, lift_state, log_mu1, log_mu2,
                     log_mu_pair_near_zero, tau_tilde, y_hat)
from .laxflows import (Genus1State, frame_at, genus1_flow, genus1_interpolant,
                       genus1_period, integrate_frame)
from .modular import tau_hat
from .potentials import SpectralPoint

_J = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_I_QUAT = np.array([[1j, 0.0], [0.0, -1j]], dtype=complex)


def minus_j_conj(v):
    """Quaternionic partner -j conj(v) of a column vector or 2x2 matrix."""
    return -_J @ np.conj(v)


def quaternion_defect(m):
    """Residual of the quaternionic structure j m = conj(m) j."""
    return float(np.max(np.abs(_J @ m - np.conj(m) @ _J)))


def _inv2(m):
    """Inverse of a 2x2 matrix by its adjugate."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def quaternion_r4(m):
    """Real coordinates (Re m11, Im m11, Re m12, Im m12) of a quaternion."""
    return np.array([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])


@dataclass
class ClosingData:
    """Spectral points, eigenvectors and monodromy values for the closing test."""
    data: Genus1Data
    s0: object                  # reduced state the eigenvectors refer to
    points: tuple               # four SpectralPoint
    chi: tuple                  # four eigenvectors (chi2 = -j conj(chi1), etc.)
    lambdas: np.ndarray         # distinct lambda values to carry in the frame
    psi_index: tuple            # which frame slot each psi uses
    mu_hat: np.ndarray          # mu-hat values, shape (2 generators, 4 points)
    w1: complex
    w2: complex

    @property
    def w_hat(self):
        return self.w1 + self.w2, self.w2 - self.w1


def _eigvec_hat(s, lam_h, nu_h):
    """Eigenvector of the reduced potential matrix at (lam_h, nu_h)."""
    b_hat = -1.0 / s.beta_hat - s.beta_hat * lam_h
    c_hat = s.beta_hat * lam_h + lam_h ** 2 / s.beta_hat
    ia = 1j * s.alpha_hat * lam_h
    v1 = np.array([b_hat, nu_h - ia])
    v2 = np.array([nu_h + ia, c_hat])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise DegenerateFrameError("eigenvector construction degenerated")
    return v / n


def closing_points_g1(d, s0=None, tol=1e-6):
    """Construction points (z_+, -conj(z_+)+omega', omega, omega+omega') with
    eigenvectors, and the monodromy eigenvalue checks of the closing condition.

    Verifies (mu_1, mu_2) = (-1, 1) at the first two points and (1, -1) at the
    last two, and that both sublattice eigenvalues equal -1 at all four.
    At r = 1 the last two points run off to infinity along the real axis and
    are probed at a large real offset instead.
    """
    k = d.kernel
    if s0 is None:
        s0 = Genus1State(0.0, 1.0 / math.sqrt(d.r))
    lam_plus = cmath.exp(2j * d.phi)
    if k.degenerate:
        zs = [d.z_plus, -np.conj(d.z_plus) + k.omega_p,
              14.0 + 0j, 14.0 + k.omega_p]
        lam3 = cmath.exp(-2j * d.phi)
        lam4 = lam3
        lambdas = np.array([lam_plus, lam3])
        psi_index = (0, 0, 1, 1)
        nu2 = 1j * cmath.exp(1j * d.phi)      # desingularized eigenvalue^ at lam_plus
        nu2b = 1j * cmath.exp(-1j * d.phi)
        chi1 = np.array([1.0, -nu2], dtype=complex)
        chi3 = np.array([1.0, -nu2b], dtype=complex)
        points = (SpectralPoint(lam_plus, 0.0),
                  SpectralPoint(lam_plus, 0.0),
                  SpectralPoint(lam3, 0.0),
                  SpectralPoint(lam4, 0.0))
    else:
        zs = [d.z_plus, -np.conj(d.z_plus) + k.omega_p,
              complex(k.omega), k.omega + k.omega_p]
        lam3 = cmath.exp(-2j * d.phi) / d.r   # z = omega   (lam_h = -1/r)
        lam4 = d.r * cmath.exp(-2j * d.phi)   # z = omega + omega' (lam_h = -r)
        lambdas = np.array([lam_plus, lam3, lam4])
        psi_index = (0, 0, 1, 2)
        chi1 = _eigvec_hat(s0, d.lambda_hat_plus, d.nu_hat_plus)
        chi3 = _eigvec_hat(s0, -1.0 / d.r, 0.0)
        points = (SpectralPoint(lam_plus, 0.0),
                  SpectralPoint(lam_plus, 0.0),
                  SpectralPoint(lam3, 0.0),
                  SpectralPoint(lam4, 0.0))

    w1, w2 = lattice_g1(d)
    mu = np.empty((2, 4), complex)
    for i, z in enumerate(zs):
        l1 = log_mu1(d, z)
        l2 = log_mu2(d, z)
        mu[0, i] = np.exp(l1 + l2)       # eigenvalue along w1 + w2
        mu[1, i] = np.exp(l2 - l1)       # eigenvalue along w2 - w1
    pattern1 = np.exp([log_mu1(d, z) for z in zs])
    pattern2 = np.exp([log_mu2(d, z) for z in zs])
    ref1 = np.array([-1.0, -1.0, 1.0, 1.0])
    ref2 = np.array([1.0, 1.0, -1.0, -1.0])
    if (np.max(np.abs(pattern1 - ref1)) > tol
            or np.max(np.abs(pattern2 - ref2)) > tol):
        raise ClosingViolationError(
            f"(mu_1, mu_2) pattern violated: {pattern1}, {pattern2}")
    if np.max(np.abs(mu + 1.0)) > tol:
        raise ClosingViolationError(f"sublattice eigenvalues not all -1: {mu}")

    # lift chi to the eigenvector basis of the full potential
    dmat = np.diag([1.0, 1j * cmath.exp(-1j * d.phi)])
    if not k.degenerate:
        chi1 = dmat @ chi1
        chi3 = dmat @ chi3
    p0 = lift_state(s0, d.phi)
    sg = math.sqrt(p0.gamma)
    chis = []
    for c in (chi1, chi3):
        if abs(c[0]) > 1e-8 * np.linalg.norm(c):
            c = c * (sg / c[0])
        chis.append(c)
    chi1, chi3 = chis
    chi = (chi1, minus_j_conj(chi1), chi3, minus_j_conj(chi3))
    return ClosingData(d, s0, points, chi, lambdas, psi_index, mu, w1, w2)


def base_potential(cd):
    """Lifted potential whose frame the eigenfunctions refer to."""
    return lift_state(cd.s0, cd.data.phi)


def _psi_matrices(cd, frames):
    """((psi1, psi2), (psi3, psi4)) from frame values at cd.lambdas."""
    inv = [_inv2(frames[idx]) for idx in range(len(cd.lambdas))]
    i1, i2, i3, i4 = cd.psi_index
    psi1 = inv[i1] @ cd.chi[0]
    psi2 = inv[i2] @ cd.chi[1]
    psi3 = inv[i3] @ cd.chi[2]
    psi4 = inv[i4] @ cd.chi[3]
    return (np.column_stack([psi1, psi2]), np.column_stack([psi3, psi4]))


def immersion_at(cd, frames):
    """f = (psi1, psi2)^{-1} (psi3, psi4) from frame values at one node."""
    m12, m34 = _psi_matrices(cd, frames)
    det = m12[0, 0] * m12[1, 1] - m12[0, 1] * m12[1, 0]
    if abs(det) < 1e-10:
        raise DegenerateFrameError(f"|det(psi1, psi2)| = {abs(det):.2e}")
    return _inv2(m12) @ m34, m12


@dataclass
class ImmersionGrid:
    """Sampled immersion on a rectangular patch of the flow plane."""
    x0: float
    y0: float
    h: float
    f: np.ndarray              # (ny, nx, 2, 2) quaternion values
    normal: np.ndarray         # (ny, nx, 2, 2) left normal
    gamma: np.ndarray          # (ny, nx) conformal factor
    psi12: np.ndarray          # (ny, nx, 2, 2) eigenfunction matrix
    closing: ClosingData


def immersion(cd, x0=0.05, y0=0.05, n=8, h=0.01, tol=1e-11):
    """Sample f on an n x n patch with spacing h."""
    traj = integrate_frame(base_potential(cd), (x0, y0, n, n, h, h),
                           cd.lambdas, tol)
    f = np.empty((n, n, 2, 2), complex)
    nrm = np.empty((n, n, 2, 2), complex)
    psi = np.empty((n, n, 2, 2), complex)
    for j, i in np.ndindex(n, n):
        fij, m12 = immersion_at(cd, traj.frames[j, i])
        f[j, i] = fij
        psi[j, i] = m12
        nrm[j, i] = _inv2(m12) @ _I_QUAT @ m12
    return ImmersionGrid(x0, y0, h, f, nrm, traj.gamma_grid(), psi, cd)


def conformality_defect(grid):
    """max over interior nodes of (| |f_x| - |f_y| | + |<f_x, f_y>|) / |f_x|^2,
    central finite differences at the grid spacing."""
    f = grid.f
    h = grid.h
    worst = 0.0
    for j in range(1, f.shape[0] - 1):
        for i in range(1, f.shape[1] - 1):
            fx = quaternion_r4((f[j, i + 1] - f[j, i - 1]) / (2 * h))
            fy = quaternion_r4((f[j + 1, i] - f[j - 1, i]) / (2 * h))
            nx = np.linalg.norm(fx)
            ny = np.linalg.norm(fy)
            dot = abs(float(fx @ fy))
            worst = max(worst, (abs(nx - ny) + dot) / nx ** 2)
    return worst


def periodicity_defect(cd, n_samples=3, tol=1e-11):
    """max_j max_z |f(z + w_hat_j) - f(z)| / scale over a few base points,
    or the drift of the potential over w_hat_j if that is larger.

    With (M_j, p_j) = frame_at(p0, w_hat_j), the frame cocycle gives
    F(z + w_hat_j) = M_j F_{p_j}(z), which is M_j F(z) when p_j = p0.  So
    each generator is integrated once, each base point only from 0 to z, and
    f(M_j F(z)) is compared with f(F(z)).  The identity needs p_j = p0, so
    |p_j - p0| counts too: alpha, beta and gamma each relative to
    max(1, |component of p0|).
    """
    p0 = base_potential(cd)
    defects = []
    monodromies = []
    for wh in cd.w_hat:
        M, p_w = frame_at(p0, wh.real, wh.imag, cd.lambdas, tol)
        monodromies.append(M)
        for a, b in ((p_w.alpha, p0.alpha), (p_w.beta, p0.beta),
                     (p_w.gamma, p0.gamma)):
            defects.append(abs(a - b) / max(1.0, abs(b)))
    rng = np.random.default_rng(11)
    for _ in range(n_samples):
        z = complex(0.2 * rng.random(), 0.2 * rng.random())
        F0, _ = frame_at(p0, z.real, z.imag, cd.lambdas, tol)
        f0, _ = immersion_at(cd, F0)
        scale = max(1.0, float(np.max(np.abs(f0))))
        for M in monodromies:
            f1, _ = immersion_at(cd, M @ F0)
            defects.append(float(np.max(np.abs(f1 - f0))) / scale)
    # np.max, not max(): a NaN defect must not read as 0
    return float(np.max(defects))


def hopf_field_check(grid):
    """max over nodes of |4|Q|^2 - 4 gamma^2| with Q assembled in the
    eigenfunction gauge (quaternion norm read off the matrix entries)."""
    worst = 0.0
    for j in range(grid.f.shape[0]):
        for i in range(grid.f.shape[1]):
            m12 = grid.psi12[j, i]
            g = grid.gamma[j, i]
            q = _inv2(m12) @ np.array([[0.0, -g], [g, 0.0]], dtype=complex) @ m12
            if quaternion_defect(q) > 1e-8 * max(1.0, g):
                raise ConsistencyError(
                    "Hopf field lost its quaternionic structure")
            norm_sq = abs(q[0, 0]) ** 2 + abs(q[0, 1]) ** 2
            worst = max(worst, abs(4.0 * norm_sq - 4.0 * g * g))
    return worst


# --- Willmore energy routes -------------------------------------------------


def willmore_explicit_g1(d):
    """Closed form 8 pi (omega' e3 + eta') lam_h+/nu_h+ (real and positive)."""
    k = d.kernel
    val = 8.0 * math.pi * (k.omega_p * k.e3 + k.eta_p) * (
        d.lambda_hat_plus / d.nu_hat_plus)
    # written so that a NaN or an infinity fails
    if not abs(val.imag) <= 1e-9 * abs(val):
        raise ConsistencyError(f"Willmore closed form not real: {val}")
    if not 0.0 < val.real < math.inf:
        raise ConsistencyError(
            f"Willmore closed form not positive and finite: {val}")
    return val.real


def _residue_samples(d, n_angles=3):
    """(ln mu_1, ln mu_2, nu) at z = omega' + delta, |delta| from 5.7e-4 to
    1.6e-3 of the lattice's r_min = min(2 omega, 2|omega'|).

    The expansion in nu converges on a disc that scales with the lattice, so
    the sample radii scale with it too (at r = 0.3, where r_min = 1.76,
    they are 1e-3 to 2.8e-3).  nu is the genus-two eigenvalue branch,
    nu = s i e^{-3i phi} nu_h (lam - lam_+), the sign s fixed by
    ln mu_1 ~ -w1/nu.
    """
    k = d.kernel
    r_min = min(2.0 * k.omega, 2.0 * abs(k.omega_p))
    w1, _ = lattice_g1(d)
    lam_plus = cmath.exp(2j * d.phi)
    ln1 = []
    ln2 = []
    nus = []
    for frac in (5.7e-4, 8.0e-4, 1.14e-3, 1.6e-3):
        rho = frac * r_min
        for m in range(n_angles):
            delta = rho * cmath.exp(2j * math.pi * (m + 0.37) / n_angles)
            l1, l2, nu_h, lam = log_mu_pair_near_zero(d, delta)
            nu = 1j * cmath.exp(-3j * d.phi) * nu_h * (lam - lam_plus)
            ln1.append(l1)
            ln2.append(l2)
            nus.append(nu)
    ln1 = np.array(ln1)
    ln2 = np.array(ln2)
    nus = np.array(nus)
    rp = np.max(np.abs(ln1 + w1 / nus))
    rm = np.max(np.abs(ln1 - w1 / nus))
    if rm < rp:
        nus = -nus
    return ln1, ln2, nus


def willmore_residue(w1, w2, samples):
    """4i (W2 w1 - W1 w2) with W_i from the odd-power fit of ln mu_i + w_i/nu."""
    ln1, ln2, nus = samples
    a = np.column_stack([nus, nus ** 3])
    ws_ = []
    for lnm, w in ((ln1, w1), (ln2, w2)):
        target = lnm + w / nus
        coef, _, _, _ = np.linalg.lstsq(a, target, rcond=None)
        resid = np.max(np.abs(a @ coef - target))
        if resid > 1e-8:
            raise FitResidualError(f"expansion fit residual {resid:.2e}")
        ws_.append(coef[0])
    val = 4j * (ws_[1] * w1 - ws_[0] * w2)
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise FitResidualError(f"residue route returned non-real {val}")
    return val.real


def willmore_residue_g1(d):
    w1, w2 = lattice_g1(d)
    return willmore_residue(w1, w2, _residue_samples(d))


def gamma_profile(d, s0=None):
    """Callable gamma(z) on the flow plane for the lifted family.

    gamma depends only on y_hat(z) = -Re(e^{i phi} z), through the reduced
    orbit through s0; periodic with the orbit period (constant at r = 1).
    The orbit is integrated over the closed-form period at the stepper's own
    step size, must return to s0 within 1e-8, and is read off its dense
    output.
    """
    if s0 is None:
        s0 = Genus1State(0.0, 1.0 / math.sqrt(d.r))
    if d.kernel.degenerate and abs(s0.beta_hat - 1.0) < 1e-13 and s0.alpha_hat == 0.0:
        return lambda z: np.ones_like(np.real(z)), math.inf
    period = genus1_period(s0)
    orbit = genus1_flow(s0, period, tol=1e-12)
    closure = math.hypot(orbit.final.alpha_hat - s0.alpha_hat,
                         orbit.final.beta_hat - s0.beta_hat)
    if closure > 1e-8:
        raise ConsistencyError(
            f"reduced orbit misses its start by {closure:.1e} after one period")
    interp = genus1_interpolant(orbit)

    def gamma(z):
        yh = -np.real(np.exp(1j * d.phi) * np.asarray(z, complex))
        yh = np.mod(yh, period)
        return interp(yh)[1]

    return gamma, period


def willmore_direct(gamma_hat, vol_hat, gamma_tilde, vol_tilde):
    """Energy quadrature from conformal-factor samples on the two domains.

    gamma_hat samples a fundamental cell of the closing sublattice,
    gamma_tilde one of the full period lattice (half the volume); periodic
    trapezoid reduces to the lattice mean times the cell volume.  The two
    routes (4 gamma^2 over the fine cell, 8 gamma^2 over the coarse one)
    must agree to 1e-6 relative.
    """
    w_hat = 4.0 * float(np.mean(np.asarray(gamma_hat) ** 2)) * vol_hat
    w_til = 8.0 * float(np.mean(np.asarray(gamma_tilde) ** 2)) * vol_tilde
    if abs(w_hat - w_til) > 1e-6 * abs(w_hat):
        raise ConsistencyError(
            f"domain-doubling identity violated: {w_hat} vs {w_til}")
    return w_hat, w_til


def willmore_direct_g1(d, n=192, s0=None):
    """Direct-quadrature Willmore energy for the genus-one family.

    Samples gamma on n x n lattices of both fundamental cells (exact
    periodic-trapezoid setup for the smooth doubly periodic integrand) and
    delegates to willmore_direct.
    """
    w1, w2 = lattice_g1(d)
    wh1, wh2 = w1 + w2, w2 - w1
    gamma, period = gamma_profile(d, s0)
    if math.isfinite(period):
        for w in (w1, w2):
            yh = y_hat(d.phi, w.real, w.imag)
            if abs((yh + 0.5 * period) % period - 0.5 * period) > 1e-6 * max(1.0, period):
                raise ConsistencyError(
                    "lattice vector does not close the reduced orbit")
    s = (np.arange(n) + 0.5) / n
    u, v = np.meshgrid(s, s, indexing="ij")
    vol_hat = abs(np.imag(np.conj(wh1) * wh2))
    vol_til = abs(np.imag(np.conj(w1) * w2))
    return willmore_direct(gamma(u * wh1 + v * wh2), vol_hat,
                           gamma(u * w1 + v * w2), vol_til)


@dataclass
class WillmoreReport:
    w_explicit: float
    w_residue: float
    w_direct: float

    @property
    def agreement(self):
        return {
            "explicit_vs_residue": abs(self.w_explicit - self.w_residue) / self.w_explicit,
            "direct_vs_explicit": abs(self.w_direct - self.w_explicit) / self.w_explicit,
        }


def willmore_report(d, n_direct=192):
    return WillmoreReport(willmore_explicit_g1(d),
                          willmore_residue_g1(d),
                          willmore_direct_g1(d, n=n_direct)[0])


def figure4_rows(r_values, t_steps, t_max_degenerate=1.5):
    """Rows (r, t, Re tau_hat, Im tau_hat, W)."""
    rows = []
    for r in r_values:
        k = ws.kernel_from_r(r)
        tmax = t_max_degenerate if k.degenerate else 0.9 * k.omega
        for j in range(t_steps):
            t = -tmax + (j + 0.5) * (2.0 * tmax / t_steps)
            d = Genus1Data.from_rt(r, t)
            th = tau_hat(tau_tilde(d))
            w = willmore_explicit_g1(d)
            rows.append((r, t, th.real, th.imag, w))
    return rows


def export_obj(grid, fh):
    """Mesh export: vertices carry the four real coordinates of f."""
    f = grid.f
    ny, nx = f.shape[:2]
    fh.write("# immersion mesh; vertex lines carry 4 coordinates (R^4)\n")
    for j in range(ny):
        for i in range(nx):
            c = quaternion_r4(f[j, i])
            fh.write(f"v {c[0]:.17g} {c[1]:.17g} {c[2]:.17g} {c[3]:.17g}\n")
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i + 1
            b = a + 1
            c = a + nx
            dd = c + 1
            fh.write(f"f {a} {b} {dd}\n")
            fh.write(f"f {a} {dd} {c}\n")
