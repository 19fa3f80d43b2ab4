import dataclasses
import math
import types

import numpy as np
import pytest

from sgtori import weierstrass as ws
from sgtori.errors import ConsistencyError, FitResidualError
from sgtori.genus1 import Genus1Data, lattice_g1
from sgtori.immersion import (closing_points_g1, conformality_defect,
                              gamma_profile, hopf_field_check, immersion,
                              minus_j_conj, periodicity_defect,
                              quaternion_defect, quaternion_r4,
                              willmore_direct_g1, willmore_explicit_g1,
                              willmore_report, willmore_residue_g1,
                              figure4_rows, export_obj, _I_QUAT)
from sgtori.laxflows import Genus1State
from sgtori.modular import tau_hat
from sgtori.genus1 import tau_tilde

TWO_PI_SQ = 2.0 * math.pi ** 2


@pytest.fixture(scope="module")
def clifford():
    return Genus1Data.from_rt(1.0, 0.0)


@pytest.fixture(scope="module")
def sample_m22():
    return Genus1Data.from_rt(0.7, 0.3)


class TestClosing:
    def test_clifford_all_minus_one(self, clifford):
        cd = closing_points_g1(clifford)
        assert np.max(np.abs(cd.mu_hat + 1.0)) <= 1e-10

    def test_mu1_at_z_plus(self, clifford):
        from sgtori.genus1 import log_mu1, log_mu2
        assert abs(np.exp(log_mu1(clifford, clifford.z_plus)) + 1.0) < 1e-12
        # mu_2 at omega (probed in the degenerate limit at large real z)
        assert abs(np.exp(log_mu2(clifford, 14.0)) + 1.0) < 1e-10

    def test_m22_pattern(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        assert np.max(np.abs(cd.mu_hat + 1.0)) <= 1e-8
        k = sample_m22.kernel
        from sgtori.genus1 import log_mu1, log_mu2
        zs = [sample_m22.z_plus, -np.conj(sample_m22.z_plus) + k.omega_p,
              complex(k.omega), k.omega + k.omega_p]
        mu1 = np.exp([log_mu1(sample_m22, z) for z in zs])
        mu2 = np.exp([log_mu2(sample_m22, z) for z in zs])
        assert np.allclose(mu1, [-1, -1, 1, 1], atol=1e-8)
        assert np.allclose(mu2, [1, 1, -1, -1], atol=1e-8)

    def test_eigenvector_relation(self, sample_m22):
        from sgtori.immersion import base_potential
        from sgtori.potentials import eval_zeta
        cd = closing_points_g1(sample_m22)
        p0 = base_potential(cd)
        # chi3 is a kernel vector of zeta0 at the outer simple root
        lam3 = cd.lambdas[1]
        z = eval_zeta(p0, lam3)
        assert np.linalg.norm(z @ cd.chi[2]) <= 1e-10 * np.linalg.norm(z)
        # chi4 = -j conj(chi3) is a kernel vector at the partner root
        lam4 = cd.lambdas[2]
        z4 = eval_zeta(p0, lam4)
        assert np.linalg.norm(z4 @ cd.chi[3]) <= 1e-10 * np.linalg.norm(z4)

    def test_quaternion_pairing(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        assert np.allclose(cd.chi[1], minus_j_conj(cd.chi[0]))
        assert np.allclose(cd.chi[3], minus_j_conj(cd.chi[2]))


class TestImmersion:
    def test_clifford_grid(self, clifford):
        cd = closing_points_g1(clifford)
        g = immersion(cd, n=6, h=0.01)
        assert np.allclose(g.gamma, 1.0, atol=1e-12)
        assert conformality_defect(g) <= 1e-4
        for j in (0, 3):
            for i in (1, 4):
                assert quaternion_defect(g.f[j, i]) <= 1e-10

    def test_conformality_second_order(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        d1 = conformality_defect(immersion(cd, n=6, h=0.02))
        d2 = conformality_defect(immersion(cd, n=6, h=0.01))
        assert d2 <= 1e-3
        assert 2.5 <= d1 / d2 <= 5.5      # second-order stencil

    def test_psi2_propagates_quaternionically(self, sample_m22):
        from sgtori.immersion import base_potential, _psi_matrices
        from sgtori.laxflows import frame_at
        cd = closing_points_g1(sample_m22)
        p0 = base_potential(cd)
        F, _ = frame_at(p0, 0.13, 0.09, cd.lambdas, tol=1e-12)
        m12, m34 = _psi_matrices(cd, F)
        assert np.linalg.norm(m12[:, 1] - minus_j_conj(m12[:, 0])) <= 1e-10
        assert np.linalg.norm(m34[:, 1] - minus_j_conj(m34[:, 0])) <= 1e-10

    def test_periodicity(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        assert periodicity_defect(cd, n_samples=2) <= 1e-5

    def test_hopf_identity(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        g = immersion(cd, n=4, h=0.01)
        assert hopf_field_check(g) <= 1e-8

    def test_hopf_field_from_normal_derivatives(self, sample_m22):
        # Q = (N dN + *dN)/4 from finite differences of the left normal has
        # quaternion norm gamma^2 (second-order accurate)
        cd = closing_points_g1(sample_m22)
        h = 0.005
        g = immersion(cd, n=5, h=h)
        j, i = 2, 2
        n0 = g.normal[j, i]
        nx = (g.normal[j, i + 1] - g.normal[j, i - 1]) / (2 * h)
        ny = (g.normal[j + 1, i] - g.normal[j - 1, i]) / (2 * h)
        qx = 0.25 * (n0 @ nx - ny)
        qy = 0.25 * (n0 @ ny + nx)
        gam2 = g.gamma[j, i] ** 2
        for q in (qx, qy):
            norm_sq = abs(q[0, 0]) ** 2 + abs(q[0, 1]) ** 2
            assert abs(norm_sq - gam2) <= 1e-3 * gam2

    def test_normal_squares_to_minus_one(self, sample_m22):
        cd = closing_points_g1(sample_m22)
        g = immersion(cd, n=3, h=0.01)
        n0 = g.normal[1, 1]
        assert np.max(np.abs(n0 @ n0 + np.eye(2))) <= 1e-10

    def test_translation_covariance_of_gamma_profile(self, sample_m22):
        # two starting potentials on the same orbit give gamma profiles that
        # differ by a translation
        from sgtori.laxflows import genus1_flow
        d = sample_m22
        s0 = Genus1State(0.0, 1.0 / math.sqrt(d.r))
        shift = 0.37
        s1 = genus1_flow(s0, shift).final
        g0, _ = gamma_profile(d, s0)
        g1, _ = gamma_profile(d, s1)
        zs = np.array([0.1 + 0.2j, 0.4 - 0.1j, -0.3 + 0.5j])
        # y_hat(z - delta) = y_hat(z) - shift for the right translation delta
        phi = d.phi
        delta = -shift * np.exp(-1j * phi)   # y_hat(delta) = shift
        ref = g0(zs)
        moved = g1(zs - delta)
        assert np.max(np.abs(moved - ref)) <= 1e-6

    def test_gamma_profile_checks_that_the_orbit_closes(self, sample_m22,
                                                          monkeypatch):
        import sgtori.immersion as imm
        s0 = Genus1State(0.0, 1.0 / math.sqrt(sample_m22.r))
        _, period = gamma_profile(sample_m22, s0)
        monkeypatch.setattr(imm, "genus1_period", lambda s: 0.9 * period)
        with pytest.raises(ConsistencyError, match="misses its start"):
            gamma_profile(sample_m22, s0)


@pytest.mark.parametrize("r", [0.3, 0.7, 0.99])
def test_gamma_profile_against_wp(r):
    # on the orbit through (0, 1/sqrt(r)), beta_hat(y)^2 = wp(omega + 2iy) - e3
    # on the curve at r: the ODE profile against the Weierstrass evaluator.
    # (Below r = 0.3 the evaluator itself drifts near omega + omega'.)
    d = Genus1Data.from_rt(r, 0.0)
    k = ws.kernel_from_r(r)
    gamma, period = gamma_profile(d)
    y = np.random.default_rng(30).uniform(0.0, period, 50)
    # y_hat(-y e^{-i phi}) = y
    g = gamma(-y * np.exp(-1j * d.phi))
    ref = np.array([ws.wp(k, k.omega + 2j * v) - k.e3 for v in y])
    assert np.max(np.abs(g * g - ref)) <= 1e-10


def test_gamma_profile_work_bound(monkeypatch):
    # the orbit at (0.6, 0.1) takes 641 evaluations at the stepper's own
    # pace; 2,048 forced steps took 24,577
    from sgtori import kernels
    rhs = kernels.genus1_rhs
    calls = []

    def counted(y):
        calls.append(None)
        return rhs(y)

    monkeypatch.setattr(kernels, "genus1_rhs", counted)
    gamma_profile(Genus1Data.from_rt(0.6, 0.1))
    assert 0 < len(calls) <= 2_000


class TestWillmoreRoutes:
    def test_clifford_values(self, clifford):
        assert abs(willmore_explicit_g1(clifford) - TWO_PI_SQ) <= 1e-10 * TWO_PI_SQ
        assert abs(willmore_residue_g1(clifford) - TWO_PI_SQ) <= 1e-6 * TWO_PI_SQ
        wd, wt = willmore_direct_g1(clifford, n=96)
        assert abs(wd - TWO_PI_SQ) <= 1e-6 * TWO_PI_SQ
        assert abs(wd - wt) <= 1e-6 * abs(wd)

    def test_degenerate_family_closed_form(self):
        for t in (0.5, 1.0):
            d = Genus1Data.from_rt(1.0, t)
            ref = TWO_PI_SQ * math.cosh(2 * t)
            assert abs(willmore_explicit_g1(d) - ref) <= 1e-8 * ref
            assert abs(willmore_residue_g1(d) - ref) <= 1e-5 * ref

    def test_three_way_agreement(self, sample_m22):
        # r = 0.02 and 0.005: the residue samples scale with the lattice
        for d in (sample_m22, Genus1Data.from_rt(0.02, 0.0),
                  Genus1Data.from_rt(0.005, 0.0)):
            rep = willmore_report(d, n_direct=128)
            agree = rep.agreement
            assert agree["explicit_vs_residue"] <= 1e-6
            assert agree["direct_vs_explicit"] <= 1e-3

    def test_t_symmetry(self):
        for (r, t) in ((0.6, 0.4), (0.8, 0.15)):
            wp = willmore_explicit_g1(Genus1Data.from_rt(r, t))
            wm = willmore_explicit_g1(Genus1Data.from_rt(r, -t))
            assert abs(wp - wm) <= 1e-9 * wp

    def test_minimum_at_t0_on_degenerate_slice(self):
        w0 = willmore_explicit_g1(Genus1Data.from_rt(1.0, 0.0))
        for t in (-0.5, -0.1, 0.1, 0.5):
            assert willmore_explicit_g1(Genus1Data.from_rt(1.0, t)) > w0

    def test_residue_requires_matching_generators(self, sample_m22):
        from sgtori.immersion import _residue_samples, willmore_residue
        w1, w2 = lattice_g1(sample_m22)
        samples = _residue_samples(sample_m22)
        with pytest.raises(FitResidualError):
            willmore_residue(1.1 * w1, w2, samples)


def test_figure4_rows_anchor_and_symmetry():
    rows = figure4_rows([1.0], 6)
    ws_ = [row[4] for row in rows]
    assert np.allclose(ws_, ws_[::-1], rtol=1e-9)     # W(t) = W(-t)
    d = Genus1Data.from_rt(1.0, 0.0)
    th = tau_hat(tau_tilde(d))
    assert abs(th - 1j) < 1e-10
    assert abs(willmore_explicit_g1(d) - TWO_PI_SQ) < 1e-9 * TWO_PI_SQ


def test_export_obj(tmp_path, sample_m22):
    cd = closing_points_g1(sample_m22)
    g = immersion(cd, n=3, h=0.05)
    path = tmp_path / "mesh.obj"
    with open(path, "w") as fh:
        export_obj(g, fh)
    lines = path.read_text().strip().split("\n")
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 9 and len(fs) == 8
    assert all(len(l.split()) == 5 for l in vs)   # 4 coordinates per vertex


def test_immersion_values_converge_with_integrator_tolerance(sample_m22):
    # f at a fixed node converges as the ODE tolerance tightens
    from sgtori.immersion import base_potential, immersion_at
    from sgtori.laxflows import frame_at
    cd = closing_points_g1(sample_m22)
    p0 = base_potential(cd)
    vals = {}
    for tol in (1e-7, 1e-9, 1e-11):
        F, _ = frame_at(p0, 0.31, 0.17, cd.lambdas, tol=tol)
        vals[tol], _ = immersion_at(cd, F)
    d1 = np.max(np.abs(vals[1e-7] - vals[1e-11]))
    d2 = np.max(np.abs(vals[1e-9] - vals[1e-11]))
    assert d2 < d1
    assert d2 < 1e-8


def test_phi_seam_family_members():
    # double root at lam = +1 (phi = 0): the t-chart seam; everything stays
    # consistent there, including the closing values
    d = Genus1Data.from_rphi(0.6, 0.0)
    cd = closing_points_g1(d)
    assert float(np.max(np.abs(cd.mu_hat + 1.0))) <= 1e-8
    rep = willmore_report(d, n_direct=96)
    assert max(rep.agreement.values()) <= 1e-6


def test_immersion_module_is_not_shadowed():
    import sgtori.immersion as m
    from sgtori import immersion as m2
    assert isinstance(m, types.ModuleType) and m2 is m


@pytest.mark.parametrize("generator", [0, 1])
def test_frame_cocycle_over_closing_lattice(sample_m22, generator):
    # F(z + w) = F(z) F_{p(z)}(w), with p(z) the potential flowed to z: the
    # cocycle order of the periodicity oracle below
    from sgtori.immersion import base_potential
    from sgtori.laxflows import frame_at
    cd = closing_points_g1(sample_m22)
    p0 = base_potential(cd)
    z = 0.13 + 0.07j
    w = cd.w_hat[generator]
    zw = z + w
    F_z, p_z = frame_at(p0, z.real, z.imag, cd.lambdas, tol=1e-11)
    F_w, _ = frame_at(p_z, w.real, w.imag, cd.lambdas, tol=1e-11)
    F_zw, _ = frame_at(p0, zw.real, zw.imag, cd.lambdas, tol=1e-11)
    assert np.max(np.abs(F_zw - F_z @ F_w)) <= 1e-9


@pytest.mark.parametrize("generator", [0, 1])
def test_monodromy_translates_frames_over_closing_lattice(sample_m22,
                                                          generator):
    # F(z + w) = M F(z) with M = F_{p0}(w), since the potential flowed over
    # a closing generator returns to p0: the identity periodicity_defect
    # translates frames by
    from sgtori.immersion import base_potential
    from sgtori.laxflows import frame_at
    cd = closing_points_g1(sample_m22)
    p0 = base_potential(cd)
    w = cd.w_hat[generator]
    M, _ = frame_at(p0, w.real, w.imag, cd.lambdas, tol=1e-11)
    for z in (0.13 + 0.07j, 0.04 + 0.18j):
        zw = z + w
        F_z, _ = frame_at(p0, z.real, z.imag, cd.lambdas, tol=1e-11)
        F_zw, _ = frame_at(p0, zw.real, zw.imag, cd.lambdas, tol=1e-11)
        assert np.max(np.abs(F_zw - M @ F_z)) <= 1e-9


def _cocycle_periodicity_defect(cd, n_samples):
    """The periodicity defect by the cocycle F(z + w) = F(z) F_{p(z)}(w):
    one whole-period leg from p(z) per base point and generator."""
    from sgtori.immersion import base_potential, immersion_at
    from sgtori.laxflows import frame_at
    p0 = base_potential(cd)
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(n_samples):
        z = complex(0.2 * rng.random(), 0.2 * rng.random())
        F0, p_z = frame_at(p0, z.real, z.imag, cd.lambdas, 1e-11)
        f0, _ = immersion_at(cd, F0)
        scale = max(1.0, float(np.max(np.abs(f0))))
        for w in cd.w_hat:
            Fw, _ = frame_at(p_z, w.real, w.imag, cd.lambdas, 1e-11)
            f1, _ = immersion_at(cd, F0 @ Fw)
            worst = max(worst, float(np.max(np.abs(f1 - f0))) / scale)
    return worst


@pytest.mark.parametrize("rt", [(0.6, 0.1), (0.5, -0.2), (0.7, 0.25),
                                (0.45, 0.0), (0.55, -0.1), (0.65, 0.2),
                                (0.74, -0.27), (0.46, 0.27)])
def test_periodicity_defect_against_the_cocycle_route(rt):
    # closed tori over the box of acceptance criterion 09, two near its corners
    cd = closing_points_g1(Genus1Data.from_rt(*rt))
    new = periodicity_defect(cd, n_samples=2)
    old = _cocycle_periodicity_defect(cd, 2)
    assert new <= 1e-11 and old <= 1e-11


@pytest.mark.parametrize("rt", [(0.6, 0.1), (0.5, -0.2)])
def test_periodicity_defect_rejects_the_full_lattice(rt):
    # w_hat of these w1, w2 are the full-lattice generators, over which the
    # potential closes and the immersion does not
    from sgtori.immersion import base_potential
    from sgtori.laxflows import frame_at
    cd = closing_points_g1(Genus1Data.from_rt(*rt))
    bad = dataclasses.replace(cd, w1=(cd.w1 - cd.w2) / 2,
                              w2=(cd.w1 + cd.w2) / 2)
    assert np.allclose(bad.w_hat, (cd.w1, cd.w2), rtol=0, atol=1e-15)
    p0 = base_potential(cd)
    for w in bad.w_hat:
        _, p_w = frame_at(p0, w.real, w.imag, cd.lambdas, tol=1e-11)
        assert abs(p_w.alpha - p0.alpha) <= 1e-9
        assert abs(p_w.beta - p0.beta) <= 1e-9
        assert abs(p_w.gamma - p0.gamma) <= 1e-9
    new = periodicity_defect(bad, n_samples=2)
    assert new >= 0.5
    # the cocycle oracle reads the same immersion mismatch
    assert abs(new - _cocycle_periodicity_defect(bad, 2)) <= 1e-8


@pytest.mark.parametrize("rt", [(0.6, 0.1), (0.5, -0.2)])
def test_periodicity_defect_rejects_half_generators(rt):
    cd = closing_points_g1(Genus1Data.from_rt(*rt))
    bad = dataclasses.replace(cd, w1=cd.w1 / 2, w2=cd.w2 / 2)
    assert periodicity_defect(bad, n_samples=2) >= 0.5


def test_periodicity_defect_counts_the_potential_drift(sample_m22,
                                                        monkeypatch):
    # the frames stay those of a closed torus; only the potential returned by
    # the whole-period legs moves, by 1e-3 in alpha
    import sgtori.immersion as imm
    cd = closing_points_g1(sample_m22)
    legs = {(w.real, w.imag) for w in cd.w_hat}
    frame_at = imm.frame_at

    def drifting(p, x, y, lams, tol):
        F, p_end = frame_at(p, x, y, lams, tol)
        if (x, y) in legs:
            p_end = dataclasses.replace(p_end, alpha=p_end.alpha + 1e-3)
        return F, p_end

    monkeypatch.setattr(imm, "frame_at", drifting)
    assert periodicity_defect(cd, n_samples=2) >= 1e-4
