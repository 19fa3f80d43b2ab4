import math

import numpy as np
import pytest

from sgtori import weierstrass as ws
from sgtori.genus1 import (Genus1Data, b_hats_closed_form, c_constant,
                           dlog_mu1_dz, dlog_mu2_dz, figure3_rows, jacobian_T,
                           lattice_g1, lift_genus1_potential, lift_state,
                           log_mu1, log_mu2, quartic_from_rphi, recover_b_hats,
                           tau_tilde, y_hat)
from sgtori.laxflows import Genus1State, genus1_period
from sgtori.potentials import (SpectralClass, classify, eval_zeta,
                               fixed_point_potential, quartic_from_roots,
                               spectral_poly, unit_circle_values)


class TestQuarticFamily:
    def test_clifford_member(self):
        q = quartic_from_rphi(1.0, math.pi / 4)
        assert q.cls is SpectralClass.M23
        assert abs(q.a1) < 1e-12 and abs(q.a2 - 2.0) < 1e-12

    def test_real_member(self):
        q = quartic_from_rphi(0.5, 0.0)
        ref = quartic_from_roots([0.5, 2.0, 1.0, 1.0])
        assert q.cls is SpectralClass.M22
        assert abs(q.a1 - ref.a1) < 1e-12
        assert abs(q.a2 - ref.a2) < 1e-12

    def test_membership_forced(self):
        for (r, phi) in ((0.3, 0.7), (0.8, 2.2), (0.55, 1.2)):
            q = quartic_from_rphi(r, phi)
            _, v = unit_circle_values(q)
            assert v.real.min() > -1e-10


class TestLogMu:
    def test_anchors(self):
        d = Genus1Data.from_rt(0.55, 0.25)
        k = d.kernel
        assert abs(log_mu1(d, d.z_plus) - 1j * math.pi) < 1e-10
        assert abs(log_mu2(d, d.z_plus)) < 1e-10
        assert abs(log_mu2(d, complex(k.omega)) - 1j * math.pi) < 1e-10

    def test_sigma_parity_of_log_mu1(self):
        d = Genus1Data.from_rt(0.5, 0.3)
        for s in (0.25, 0.6, 0.85):
            z = d.kernel.omega + d.kernel.omega_p * s
            assert abs(log_mu1(d, -z) + log_mu1(d, z)) < 1e-9

    def test_defining_properties_of_log_mu2(self):
        d = Genus1Data.from_rt(0.62, -0.4)
        k = d.kernel
        zs = [0.3 + 0.4j, 1.1 + 0.9j, 0.7 - 0.55j]
        for z in zs:
            l2 = log_mu2(d, z)
            assert abs(log_mu2(d, z + 2 * k.omega) - l2 - 2j * math.pi) <= 1e-9
            assert abs(log_mu2(d, z + 2 * k.omega_p) - l2) <= 1e-9
            assert abs(log_mu2(d, -z) + l2) <= 1e-9
            assert abs(log_mu2(d, np.conj(z) + k.omega_p) + np.conj(l2)) <= 1e-9
        assert abs(log_mu2(d, d.z_plus)) <= 1e-9

    def test_rho_antisymmetry_of_log_mu1(self):
        d = Genus1Data.from_rt(0.7, 0.1)
        k = d.kernel
        for z in (0.4 + 0.3j, 1.0 + 0.8j):
            assert abs(log_mu1(d, np.conj(z) + k.omega_p)
                       + np.conj(log_mu1(d, z))) <= 1e-9

    def test_degenerate_closed_forms(self):
        # r = 1: ln mu_1 = -pi cosh(2t)/sinh(2z) (the convention with
        # nu_h = wp'/2) and ln mu_2 = pi (i cosh 2z + sinh 2t)/sinh 2z
        d = Genus1Data.from_rt(1.0, 0.7)
        for z in (0.5 + 0.4j, 1.2 - 0.3j):
            ref1 = -math.pi * math.cosh(1.4) / np.sinh(2 * z)
            assert abs(log_mu1(d, z) - ref1) < 1e-12
            ref2 = math.pi * (1j * np.cosh(2 * z) + math.sinh(1.4)) / np.sinh(2 * z)
            assert abs(log_mu2(d, z) - ref2) < 1e-12


class TestTauTilde:
    def test_clifford(self):
        assert abs(tau_tilde(Genus1Data.from_rt(1.0, 0.0)) - 1j) < 1e-12

    def test_degenerate_closed_form(self):
        d = Genus1Data.from_rt(1.0, 1.0)
        x = math.tanh(1.0)
        ref = (1j - x) / (1 - 1j * x)
        tt = tau_tilde(d)
        assert abs(tt - ref) < 1e-9
        assert abs(tt - (-0.9640275800758169 + 0.2658022288340797j)) < 1e-10

    def test_unit_modulus_on_degenerate_family(self):
        for t in (-1.0, -0.3, 0.2, 0.8):
            tt = tau_tilde(Genus1Data.from_rt(1.0, t))
            assert abs(abs(tt) - 1.0) <= 1e-12

    def test_continuity_toward_degenerate(self):
        for t in (-1.0, 0.0, 1.0):
            a = tau_tilde(Genus1Data.from_rt(0.999, t))
            b = tau_tilde(Genus1Data.from_rt(1.0, t))
            assert abs(a - b) <= 1e-2

    def test_im_tau_monotone_in_r_at_t0(self):
        # Im tau(t=0) decreases strictly toward the degenerate value 1
        ims = [tau_tilde(Genus1Data.from_rt(r, 0.0)).imag
               for r in (0.3, 0.5, 0.7, 0.9)]
        assert all(b < a for a, b in zip(ims, ims[1:]))
        assert ims[-1] > 1.0

    def test_boundary_values(self):
        # analytic continuation of the split formulas takes Re = -1, Im = 0
        # at the branch points lam_h = -r, -1/r (z = omega + omega', omega)
        d = Genus1Data.from_rt(0.6, 0.2)
        k = d.kernel

        def re_im_at(z):
            _, _, zt = ws.wp_all(k, z)
            zt_m = ws.wzeta(k, z - k.omega_p)
            re = (2 * k.eta_p * z - k.omega_p * (zt + zt_m + k.eta_p)) / (1j * math.pi)
            p, dp, _ = ws.wp_all(k, z)
            im = k.omega_p * (0.5 * dp / (k.e3 - p)) / (math.pi * (k.e3 - p)) * (k.e3 - p)
            return re, im

        for target in (k.omega + k.omega_p, complex(k.omega)):
            vals = []
            for s in (0.04, 0.02, 0.01):
                z = target + s * (d.z_plus - target)
                re, im = re_im_at(z)
                vals.append((re, im))
            # Richardson extrapolation (quadratic in s)
            re_lim = (8 * vals[2][0] - 6 * vals[1][0] + vals[0][0]) / 3.0
            im_lim = (8 * vals[2][1] - 6 * vals[1][1] + vals[0][1]) / 3.0
            assert abs(re_lim - (-1.0)) <= 1e-4
            assert abs(im_lim) <= 1e-4
        # exact endpoint value via zeta(omega + omega') = eta + eta'
        zt_sum = ws.wzeta(k, k.omega + k.omega_p)
        assert abs(zt_sum - (k.eta + k.eta_p)) < 1e-10


class TestJacobian:
    def test_determinant_formula_vs_matrix(self):
        d = Genus1Data.from_rt(0.5, 0.3)
        j, det_formula = jacobian_T(d)
        det_mat = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        assert abs(det_mat - det_formula) <= 1e-8 * abs(det_formula)

    def test_finite_difference(self):
        d = Genus1Data.from_rt(0.5, 0.3)
        j, _ = jacobian_T(d)
        h = 1e-5

        def tau_of(r, phi):
            return tau_tilde(Genus1Data.from_rphi(r, phi))

        t_p = tau_of(d.r, d.phi + h)
        t_m = tau_of(d.r, d.phi - h)
        t_rp = tau_of(d.r + h, d.phi)
        t_rm = tau_of(d.r - h, d.phi)
        fd = np.array([
            [(t_rp.real - t_rm.real) / (2 * h), (t_p.real - t_m.real) / (2 * h)],
            [(t_rp.imag - t_rm.imag) / (2 * h), (t_p.imag - t_m.imag) / (2 * h)],
        ])
        assert np.max(np.abs(j - fd) / np.maximum(np.abs(fd), 1e-3)) <= 1e-5

    def test_negative_determinant_on_grid(self):
        for r in np.linspace(0.25, 0.92, 10):
            k = ws.kernel_from_r(r)
            for t in np.linspace(-0.8, 0.8, 10) * min(1.0, 0.9 * k.omega):
                _, det = jacobian_T(Genus1Data.from_rt(r, t))
                assert det < 0

    def test_degenerate_rejected(self):
        from sgtori.errors import DomainError
        with pytest.raises(DomainError):
            jacobian_T(Genus1Data.from_rt(1.0, 0.0))


class TestBHats:
    def test_fit_matches_closed_form(self):
        d = Genus1Data.from_rt(0.58, 0.33)
        b1, b2 = recover_b_hats(d)
        c1, c2 = b_hats_closed_form(d)
        assert np.max(np.abs(b1 - c1)) < 1e-8 * max(1, np.max(np.abs(c1)))
        assert np.max(np.abs(b2 - c2)) < 1e-8 * max(1, np.max(np.abs(c2)))

    def test_reality_constraint(self):
        d = Genus1Data.from_rt(0.64, -0.2)
        for b in recover_b_hats(d):
            for lam in (np.exp(0.3j), 0.5 + 0.2j, -1.1 + 0.7j):
                val = np.polyval(b[::-1], lam)
                refl = lam ** 2 * np.conj(np.polyval(b[::-1], 1.0 / np.conj(lam)))
                assert abs(refl + val) < 1e-7 * max(1.0, abs(val))

    def test_cubic_coefficient_vanishes(self):
        d = Genus1Data.from_rt(0.5, 0.1)
        b1, b2 = recover_b_hats(d)
        assert abs(b1[3]) < 1e-8
        assert abs(b2[3]) < 1e-8

    def test_degenerate_derivative_reproduction(self):
        # at r = 1 the closed form ln mu_1 = -pi cosh(2t)/sinh(2z) gives
        # d ln mu_1/dz = 2 pi cosh(2t) cosh(2z)/sinh^2(2z); the analytic
        # derivative used by the fit must match it
        d = Genus1Data.from_rt(1.0, 0.0)
        for z in (0.4 + 0.2j, 0.9 - 0.5j):
            ref = 2 * math.pi * np.cosh(2 * z) / np.sinh(2 * z) ** 2
            assert abs(dlog_mu1_dz(d, z) - ref) < 1e-10

    def test_log_derivative_regular_at_double_root_point(self):
        # the 1-forms have no pole at z_+; a small circle integral vanishes
        d = Genus1Data.from_rt(0.52, 0.27)
        n = 64
        th = 2 * np.pi * (np.arange(n) + 0.5) / n
        rho = 0.05
        for deriv in (dlog_mu1_dz, dlog_mu2_dz):
            zs = d.z_plus + rho * np.exp(1j * th)
            vals = np.array([deriv(d, z) for z in zs])
            integral = np.sum(vals * 1j * rho * np.exp(1j * th)) * (2 * np.pi / n)
            assert abs(integral) < 1e-8


class TestLift:
    def test_spectral_match(self):
        s = Genus1State(0.3, 1.2)
        a1h = s.a1_hat
        r = 0.5 * (a1h - math.sqrt(a1h ** 2 - 4.0))
        p = lift_genus1_potential(s, r, 0.8, 0.0, 0.0)
        q = spectral_poly(p)
        ref = quartic_from_rphi(r, 0.8)
        assert abs(q.a1 - ref.a1) < 1e-10
        assert abs(q.a2 - ref.a2) < 1e-10
        for lam in (0.7, 1.0 + 0.4j, np.exp(1.1j), -0.2 + 0.9j, 1.7):
            det = np.linalg.det(eval_zeta(p, lam))
            assert abs(det - lam * ref(lam)) < 1e-10 * (1 + abs(lam) ** 5)

    def test_fixed_state_lifts_to_fixed_point(self):
        phi = 0.65
        p = lift_genus1_potential(Genus1State(0.0, 1.0), 1.0, phi, 0.0, 0.0)
        q = classify(spectral_poly(p))
        ref = fixed_point_potential(q)
        assert abs(p.alpha - ref.alpha) < 1e-12
        assert abs(p.beta - ref.beta) < 1e-12
        assert abs(p.gamma - ref.gamma) < 1e-12

    def test_phi_zero_entry_relation(self):
        # at phi = 0 the reduced matrix sits inside the full one via lam_h = -lam
        s = Genus1State(0.4, 1.3)
        p = lift_state(s, 0.0)
        dmat = np.diag([1.0, 1j])
        dinv = np.diag([1.0, -1j])
        for lam in (0.6, 1.2 + 0.3j):
            lam_h = -lam
            zh = np.array([[1j * s.alpha_hat * lam_h,
                            -1 / s.beta_hat - s.beta_hat * lam_h],
                           [s.beta_hat * lam_h + lam_h ** 2 / s.beta_hat,
                            -1j * s.alpha_hat * lam_h]])
            zfull = -1j * (dmat @ zh @ dinv) * (lam - 1.0)
            assert np.max(np.abs(zfull - eval_zeta(p, lam))) < 1e-12

    def test_orbit_closure_of_lattice_vectors(self):
        d = Genus1Data.from_rt(0.7, 0.3)
        s0 = Genus1State(0.0, 1.0 / math.sqrt(0.7))
        period = genus1_period(s0)
        w1, w2 = lattice_g1(d)
        for w in (w1, w2):
            yh = y_hat(d.phi, w.real, w.imag)
            frac = abs((yh + 0.5 * period) % period - 0.5 * period)
            assert frac < 1e-8


def test_figure3_rows_unit_modulus_at_r1():
    rows = figure3_rows([1.0], 8)
    for (r, t, re, im) in rows:
        assert abs(math.hypot(re, im) - 1.0) < 1e-12


def test_c_constant_is_minus_re_tau():
    d = Genus1Data.from_rt(0.45, 0.52)
    assert abs(c_constant(d) + tau_tilde(d).real) < 1e-10


@pytest.mark.parametrize("make", [lambda: Genus1Data.from_rt(0.45, 0.52),
                                  lambda: Genus1Data.from_rt(1.0, -0.3),
                                  lambda: Genus1Data.from_rphi(0.7, 0.4)])
def test_stored_c_and_zeta_plus_match_recomputation(make):
    d = make()
    k, zp = d.kernel, d.z_plus
    ztp = ws.wp_all(k, zp)[2]
    zt_m = ws.wzeta(k, zp - k.omega_p)
    val = (k.omega_p * (ztp + zt_m + k.eta_p) - 2.0 * k.eta_p * zp) / (1j * math.pi)
    assert d.zeta_plus == ztp
    assert abs(val.imag) <= 1e-8 * max(1.0, abs(val))
    assert d.c == val.real
    assert c_constant(d) == d.c


def test_log_mu_pole_errors():
    from sgtori.errors import PoleError
    d = Genus1Data.from_rt(0.6, 0.2)
    k = d.kernel
    for z in (0.0, k.omega_p, 2 * k.omega + 0j, 2 * k.omega + k.omega_p):
        with pytest.raises(PoleError):
            log_mu1(d, z + 1e-10)
        with pytest.raises(PoleError):
            log_mu2(d, z + 1e-10)
    dd = Genus1Data.from_rt(1.0, 0.0)
    with pytest.raises(PoleError):
        log_mu1(dd, dd.kernel.omega_p)
