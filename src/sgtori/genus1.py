"""Closed-form spectral data for quartics with a unital double root.

Such quartics form a two-parameter family

    a(lam) = (lam - r e^{-2i phi})(lam - r^{-1} e^{-2i phi})(lam - e^{2i phi})^2,
    r in (0, 1], phi in [0, pi),

whose spectral curve desingularizes to the elliptic curve

    nu_h^2 = -lam_h (lam_h + r)(lam_h + 1/r),      lam_h = -e^{2i phi} lam,

uniformized by the rectangular Weierstrass lattice of weierstrass.kernel_from_r:

    lam_h(z) = e3 - wp(z),     nu_h(z) = wp'(z) / 2.

The double root corresponds to z_+ = omega'/2 + t on the fixed-point
component of the antiholomorphic involution z -> conj(z) + omega', with
lam_h(z_+) = -e^{4i phi} on the unit circle; t in (-omega, omega) replaces
phi as the family parameter (anchor t = 0 <-> phi = pi/4).

Monodromy eigenvalue logarithms (single-valued in z):

    ln mu_1 = pi i (zeta(z) - zeta(z - omega') - eta') / (nu_h+/lam_h+)
            = pi i (nu_h/lam_h) (lam_h+/nu_h+),
    ln mu_2 = omega'(zeta(z) + zeta(z - omega') + eta') - 2 eta' z - C ln mu_1,
    C       = (omega'(zeta(z_+) + zeta(z_+ - omega') + eta') - 2 eta' z_+)/(pi i),

normalized by ln mu_1(z_+) = pi i, ln mu_2(z_+) = 0, ln mu_2(omega) = pi i.
The period lattice is generated by

    omega_1 = -pi i lam_h+ / nu_h+,      omega_2 = omega' - C omega_1,

up to a common rotation-dilation; the flow-plane normalization carries an
extra factor i e^{-i phi} (see lattice_g1).  The conformal class is
tau_tilde = omega_2/omega_1 = (2 eta' z_+ - 2 omega' zeta(z_+))/(pi i).
At r = 1 everything degenerates to hyperbolic functions and
tau_tilde = (i - tanh t)/(1 - i tanh t).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import weierstrass as ws
from .errors import (ClassError, ConsistencyError, DomainError,
                     IllConditionedError, PoleError)
from .laxflows import genus1_flow
from .potentials import Potential, SpectralClass, SpectralQuartic, classify

_PI = math.pi


def quartic_from_rphi(r, phi):
    """Quartic with double root e^{2i phi} and simple roots r e^{-2i phi},
    r^{-1} e^{-2i phi}; class M2_2 for r < 1 and M2_3 at r = 1."""
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must lie in (0, 1], got {r}")
    d = cmath.exp(2j * phi)
    s = cmath.exp(-2j * phi)
    roots = [r * s, s / r, d, d]
    c = np.poly(np.array(roots, complex))
    a1 = complex(c[1])
    a2 = float(c[2].real)
    q = SpectralQuartic(a1, a2)
    return classify(q)


@dataclass(frozen=True)
class Genus1Data:
    r: float
    t: float
    phi: float
    z_plus: complex
    lambda_hat_plus: complex
    nu_hat_plus: complex
    kernel: ws.EllipticKernel
    zeta_plus: complex      # zeta(z_+)
    c: float                # C = -Re(tau_tilde), see c_constant

    @classmethod
    def from_rt(cls, r, t):
        k = ws.kernel_from_r(r)
        # z_+ runs once around the fixed-point component as t runs over
        # [-omega, omega], whose ends meet at the seam phi = 0; omega is inf
        # at r = 1
        if not abs(t) <= k.omega:
            raise DomainError(
                f"t must lie in [-omega, omega] with omega = {k.omega:.6g} "
                f"at r = {r}, got {t}")
        zp = 0.5 * k.omega_p + t
        p, dp, ztp = ws.wp_all(k, zp)
        lhp = k.e3 - p
        nhp = 0.5 * dp
        # each check is written so that a NaN fails it
        if not abs(abs(lhp) - 1.0) <= 1e-10:
            raise ConsistencyError(
                f"z_+ left the unit-circle component at r = {r}, t = {t}")
        curve = abs(nhp ** 2 + lhp * (lhp + r) * (lhp + 1.0 / r))
        if not curve <= 1e-10 * max(1.0, abs(nhp) ** 2):
            raise ConsistencyError(
                f"curve equation violated at z_+ at r = {r}, t = {t}")
        zt_m = ws.wzeta(k, zp - k.omega_p)
        c = (k.omega_p * (ztp + zt_m + k.eta_p) - 2.0 * k.eta_p * zp) / (1j * _PI)
        if not abs(c.imag) <= 1e-8 * max(1.0, abs(c)):
            raise ConsistencyError(
                f"C should be real at r = {r}, t = {t}, got {c}")
        # phi anchored continuously with phi(t=0) = pi/4
        phi = 0.25 * _PI + 0.25 * cmath.phase(lhp)
        return cls(r, float(t), phi, zp, lhp, nhp, k, ztp, c.real)

    @classmethod
    def from_rphi(cls, r, phi):
        """Invert lam_h(omega'/2 + t) = -e^{4i phi} for t: coarse scan along
        the fixed-point component followed by damped Newton
        (d lam_h/dt = -2 nu_h)."""
        k = ws.kernel_from_r(r)
        target = -cmath.exp(4j * phi)
        tmax = 6.0 if k.degenerate else 0.999 * k.omega

        def lam_nu(t):
            p, dp, _ = ws.wp_all(k, 0.5 * k.omega_p + t)
            return k.e3 - p, 0.5 * dp

        grid = np.linspace(-tmax, tmax, 257)
        vals = [lam_nu(t)[0] for t in grid]
        t = grid[int(np.argmin([abs(v - target) for v in vals]))]
        for _ in range(80):
            lh, nh = lam_nu(t)
            err = lh - target
            if abs(err) < 1e-14:
                break
            step = (err / (2.0 * nh)).real
            step = max(-0.2 * tmax, min(0.2 * tmax, step))
            t += step
        # at the seam phi = 0 Newton converges on +-omega, to rounding
        d = cls.from_rt(r, max(-k.omega, min(k.omega, t)))
        # the t-chart determines phi only mod pi/2 (lam -> -lam symmetry);
        # keep the requested value, which the lift depends on
        phi = phi % _PI
        if abs(cmath.exp(4j * phi) - cmath.exp(4j * d.phi)) > 1e-6:
            raise DomainError("t-inversion failed to reproduce phi")
        object.__setattr__(d, "phi", phi)
        return d

    @classmethod
    def from_quartic(cls, q):
        """Extract (r, t) from a classified quartic with a unital double root."""
        if q.cls not in (SpectralClass.M22, SpectralClass.M23):
            raise ClassError("genus-1 data requires one unital double root "
                             "(or the doubly-degenerate limit)")
        if q.cls is SpectralClass.M23:
            # two double roots e^{2i phi}, e^{-2i phi}; pick the one giving
            # phi in [0, pi) consistent with the r = 1 family
            doubles = [root for root, m in q.roots if m == 2]
            phis = sorted((cmath.phase(d) % (2.0 * _PI)) / 2.0 for d in doubles)
            phi = phis[0] if phis[0] < _PI else phis[1]
            return cls.from_rphi(1.0, phi % _PI)
        double = next(root for root, m in q.roots if m == 2)
        inner = next(root for root, m in q.roots if m == 1 and abs(root) < 1.0)
        phi = (cmath.phase(double) % (2.0 * _PI)) / 2.0
        if phi >= _PI:
            phi -= _PI
        r = abs(inner)
        return cls.from_rphi(r, phi)

    @property
    def kernel_data(self):
        k = self.kernel
        return k.omega, k.omega_p, k.eta_p

    def quartic(self):
        return quartic_from_rphi(self.r, self.phi)


def _zeta_shift(d, z):
    """zeta(z) - zeta(z - omega') - eta' = nu_h(z)/lam_h(z), computed stably
    from the half-period shift identity (uses (e1-e3)(e2-e3) = 1)."""
    k = d.kernel
    p, dp, _ = ws.wp_all(k, z)
    return 0.5 * dp / (k.e3 - p)


def c_constant(d):
    """C = -Re(tau_tilde): the coefficient tying ln mu_2 to ln mu_1
    (computed once, with its reality check, in Genus1Data.from_rt)."""
    return d.c


def _check_pole(d, z, tol=1e-8):
    """Poles of the eigenvalue logarithms sit over lam in {0, inf}, i.e. on
    the half-lattice 2 omega Z + omega' Z."""
    k = d.kernel
    wp_len = abs(k.omega_p)
    n2 = round(z.imag / wp_len)
    zr = z - n2 * k.omega_p
    if not k.degenerate:
        zr -= 2.0 * k.omega * round(zr.real / (2.0 * k.omega))
    if abs(zr) < tol:
        raise PoleError(f"z = {z} within {tol:.0e} of an eigenvalue-log pole")


def log_mu1(d, z):
    """ln mu_1(z) = pi i (nu_h(z)/lam_h(z)) (lam_h+/nu_h+); poles on
    2 omega Z + omega' Z."""
    z = complex(z)
    _check_pole(d, z)
    ratio = _zeta_shift(d, z)   # nu_h/lam_h
    return 1j * _PI * ratio * d.lambda_hat_plus / d.nu_hat_plus


def log_mu2(d, z):
    """ln mu_2(z); increases by 2*pi*i along 2*omega, periodic along 2*omega',
    vanishes at z_+, takes pi i at omega."""
    k = d.kernel
    z = complex(z)
    _check_pole(d, z)
    _, _, zt = ws.wp_all(k, z)
    zt_m = ws.wzeta(k, z - k.omega_p)
    main = k.omega_p * (zt + zt_m + k.eta_p) - 2.0 * k.eta_p * z
    return main - d.c * log_mu1(d, z)


def log_mu_pair_near_zero(d, delta):
    """(ln mu_1, ln mu_2, nu_hat, lam) at z = omega' + delta for small delta.

    Stable against the cancellation in lam_h = e3 - wp near the pole of the
    eigenvalue logarithms: uses the half-period shift identities
        wp(omega' + delta)  = e3 + 1/(wp(delta) - e3),
        wp'(omega' + delta) = -wp'(delta)/(wp(delta) - e3)^2,
        zeta(omega' + delta) = zeta(delta) + eta' + wp'(delta)/(2(wp(delta)-e3)),
    with (wp, wp', zeta)(delta) from ws.wp_small, without lattice reduction.
    """
    k = d.kernel
    p, dp, zt = ws.wp_small(k, delta)
    den = p - k.e3
    ratio = 0.5 * dp / den                       # nu_h/lam_h at omega'+delta
    lam_hat = -1.0 / den
    nu_hat = -0.5 * dp / den ** 2
    ln1 = 1j * _PI * ratio * d.lambda_hat_plus / d.nu_hat_plus
    zt_shift = zt + k.eta_p + ratio              # zeta(omega' + delta)
    main = (k.omega_p * (zt_shift + zt + k.eta_p)
            - 2.0 * k.eta_p * (k.omega_p + delta))
    ln2 = main - d.c * ln1
    lam = -cmath.exp(-2j * d.phi) * lam_hat
    return ln1, ln2, nu_hat, lam


def tau_tilde(d):
    """Conformal class (2 eta' z_+ - 2 omega' zeta(z_+)) / (pi i), cross-checked
    against the split real/imaginary formulas."""
    k = d.kernel
    val = (2.0 * k.eta_p * d.z_plus - 2.0 * k.omega_p * d.zeta_plus) / (1j * _PI)
    re = -d.c
    im_val = k.omega_p * d.nu_hat_plus / (_PI * d.lambda_hat_plus)
    if not abs(im_val.imag) <= 1e-8 * max(1.0, abs(im_val)):
        raise ConsistencyError("Im tau formula returned a non-real value")
    if not abs(val - complex(re, im_val.real)) <= 1e-9 * max(1.0, abs(val)):
        raise ConsistencyError("split tau formulas disagree with the main one")
    return val


def lattice_g1(d):
    """Flow-plane generators (omega_1, omega_2) of the period lattice.

    The z-plane Laurent data give the lattice only up to rotation-dilation;
    the flow-plane normalization (monodromy of the actual frame commutes with
    the potential, the reduced orbit closes) carries the extra factor
    i e^{-i phi}.  tau_tilde = omega_2/omega_1 is unaffected.
    """
    rot = 1j * cmath.exp(-1j * d.phi)
    w1 = -1j * _PI * d.lambda_hat_plus / d.nu_hat_plus
    w2 = d.kernel.omega_p - d.c * w1
    return rot * w1, rot * w2


def jacobian_T(d):
    """Analytic Jacobian of (r, phi) -> (Re tau, Im tau) and its determinant.

    Columns are ordered (d/dr, d/dphi); in this orientation the determinant
    equals the closed form 4((omega' e3 + eta')^2 - omega'^2)/(pi^2 (1-r^2))
    and is negative throughout the family.  (With the columns in the
    (d/dphi, d/dr) order the same partials compose to the opposite sign.)
    """
    k = d.kernel
    if k.degenerate:
        raise DomainError("Jacobian formulas require r < 1")
    lp = d.lambda_hat_plus
    nup = d.nu_hat_plus
    wp_ = k.omega_p
    ep = k.eta_p
    dwp = ws.domega_p_dr(k)
    a_hat = (lp + k.r) * (lp + 1.0 / k.r)
    dlam_dphi = 4j * lp

    dre_dlam = (wp_ * (lp + 1.0 / lp) - 2.0 * (wp_ * k.e3 + ep)) / (2j * _PI * nup)
    dim_dlam = wp_ * (1.0 / lp - lp) / (2.0 * _PI * nup)
    dre_dr = 2.0 * dwp * (lp * lp - 1.0) / (2j * _PI * nup)
    dim_dr = (wp_ * (k.r ** -2 - 1.0) * lp - 2.0 * dwp * a_hat) / (2.0 * _PI * nup)

    j = np.array([
        [dre_dr.real, (dre_dlam * dlam_dphi).real],
        [dim_dr.real, (dim_dlam * dlam_dphi).real],
    ])
    det_formula = (4.0 * ((wp_ * k.e3 + ep) ** 2 - wp_ ** 2)
                   / (_PI ** 2 * (1.0 - k.r ** 2)))
    if abs(det_formula.imag) > 1e-10 * max(1.0, abs(det_formula)):
        raise ConsistencyError("determinant formula returned a non-real value")
    return j, det_formula.real


def dlog_mu1_dz(d, z):
    """d/dz of ln mu_1 via wp'' = 6 wp^2 - g2/2."""
    k = d.kernel
    p, dp, _ = ws.wp_all(k, z)
    ddp = 6.0 * p * p - 0.5 * k.g2
    dr = (ddp * (k.e3 - p) + dp * dp) / (2.0 * (k.e3 - p) ** 2)
    return 1j * _PI * dr * d.lambda_hat_plus / d.nu_hat_plus


def dlog_mu2_dz(d, z):
    k = d.kernel
    p, _, _ = ws.wp_all(k, z)
    p_m = ws.wp(k, z - k.omega_p)
    main = k.omega_p * (-p - p_m) - 2.0 * k.eta_p
    return main - d.c * dlog_mu1_dz(d, z)


def recover_b_hats(d, n_samples=10):
    """Cubic coefficient lists (b1, b2) with d ln mu_i = b_i(lam_h)/(2 nu_h)
    d ln lam_h: fitted from analytic z-derivatives at sample points.

    Since dz = -d lam_h/(2 nu_h), the fit targets are
    b_i(lam_h(z)) = -lam_h(z) * d ln mu_i/dz.  Coefficients are returned
    lowest power first; the cubic coefficient vanishes for this family.
    """
    k = d.kernel
    rng = np.random.default_rng(7)
    zs = []
    while len(zs) < n_samples:
        z = complex(0.3 + 0.6 * rng.random(), 0.25 * abs(k.omega_p) * (0.3 + rng.random()))
        zs.append(z)
    lam_h = np.array([k.e3 - ws.wp(k, z) for z in zs])
    t1 = np.array([-lh * dlog_mu1_dz(d, z) for lh, z in zip(lam_h, zs)])
    t2 = np.array([-lh * dlog_mu2_dz(d, z) for lh, z in zip(lam_h, zs)])
    v = np.vander(lam_h, 4, increasing=True)
    cond = np.linalg.cond(v)
    if cond > 1e12:
        raise IllConditionedError(f"Vandermonde condition number {cond:.2e}")
    b1, res1, _, _ = np.linalg.lstsq(v, t1, rcond=None)
    b2, res2, _, _ = np.linalg.lstsq(v, t2, rcond=None)
    for b, t in ((b1, t1), (b2, t2)):
        fit = v @ b
        r = np.max(np.abs(fit - t)) / max(1.0, np.max(np.abs(t)))
        if r > 1e-8:
            raise IllConditionedError(f"fit residual {r:.2e} exceeds 1e-8")
    return b1, b2


def b_hats_closed_form(d):
    """Reference coefficients: b1 = pi i (lam_h+/nu_h+) (1 - lam_h^2) and
    b2 = -omega' - C*b1_0 + 2(omega' e3 + eta') lam_h + (C*b1_0 - omega') lam_h^2
    with b1_0 = pi i lam_h+/nu_h+."""
    k = d.kernel
    k1 = 1j * _PI * d.lambda_hat_plus / d.nu_hat_plus
    c = d.c
    b1 = np.array([k1, 0.0, -k1, 0.0])
    b2 = np.array([-k.omega_p - c * k1,
                   2.0 * (k.omega_p * k.e3 + k.eta_p),
                   -k.omega_p + c * k1,
                   0.0])
    return b1, b2


# --- lift of reduced potentials -------------------------------------------

def lift_state(s, phi):
    """Map a reduced state to the full potential triple:
    alpha = a e^{i phi}, beta = b e^{2i phi} + b^-1 e^{-2i phi}, gamma = b."""
    e1 = cmath.exp(1j * phi)
    e2 = e1 * e1
    beta = s.beta_hat * e2 + (1.0 / s.beta_hat) / e2
    return Potential(s.alpha_hat * e1, beta, s.beta_hat)


def y_hat(phi, x, y):
    """Reduced flow parameter swept by the full flows:
    y_hat = -cos(phi) x + sin(phi) y."""
    return -math.cos(phi) * x + math.sin(phi) * y


def lift_genus1_potential(s, r, phi, x, y):
    """Potential of the lifted trajectory at flow position (x, y).

    The reduced state is transported by the reduced flow to
    y_hat = -cos(phi) x + sin(phi) y and then lifted pointwise; the result
    lies in the level set of quartic_from_rphi(r, phi).
    """
    a1 = s.a1_hat
    if abs(a1 - (r + 1.0 / r)) > 1e-8 * max(1.0, a1):
        raise DomainError("state level set does not match r")
    yh = y_hat(phi, x, y)
    moved = genus1_flow(s, yh).final if yh != 0.0 else s
    return lift_state(moved, phi)


def figure3_rows(r_values, t_steps, t_max_degenerate=2.0):
    """Rows (r, t, Re tau, Im tau) sweeping t across the family for each r."""
    rows = []
    for r in r_values:
        k = ws.kernel_from_r(r)
        tmax = t_max_degenerate if k.degenerate else k.omega
        for j in range(t_steps):
            t = -tmax + (j + 0.5) * (2.0 * tmax / t_steps)
            tv = tau_tilde(Genus1Data.from_rt(r, t))
            rows.append((r, t, tv.real, tv.imag))
    return rows
