import json
from pathlib import Path

import numpy as np
import pytest

from sgtori.errors import AmbiguousRootError, ClassError, DomainError, MembershipError
from sgtori.potentials import (Potential, SpectralClass, SpectralQuartic,
                               _circle_value, check_membership, classify,
                               eval_zeta, fixed_point_potential,
                               off_diagonal_points, quartic_from_roots,
                               resultant_bc, spectral_poly)

_G2_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "g2_potentials.json"


def fit_quartic_from_det(p):
    """Independent oracle: fit a(lam) from det zeta(lam)/lam at sample values."""
    lams = np.array([0.5, 1.0, 2.0, 1.0 + 1.0j, 0.3 - 0.7j])
    vals = np.array([np.linalg.det(eval_zeta(p, lam)) / lam for lam in lams])
    # a(lam) = lam^4 + a1 lam^3 + a2 lam^2 + conj(a1) lam + 1
    v = np.column_stack([lams ** 3, lams ** 2, lams])
    rhs = vals - lams ** 4 - 1.0
    coef, *_ = np.linalg.lstsq(v, rhs, rcond=None)
    return coef[0], coef[1]


def test_eval_zeta_vanishes_at_unital_double_root():
    z = eval_zeta(Potential(0.0, 0.0, 1.0), 1j)
    assert np.max(np.abs(z)) < 1e-15


def test_eval_zeta_explicit_value():
    z = eval_zeta(Potential(1.0, 0.0, 1.0), 1.0)
    assert np.allclose(z, [[0.0, -2.0], [2.0, 0.0]])
    q = spectral_poly(Potential(1.0, 0.0, 1.0))
    assert abs(np.linalg.det(z) - 1.0 * q(1.0)) < 1e-14
    assert abs(q(1.0) - 4.0) < 1e-14


@pytest.mark.parametrize("theta", [0.0, np.pi / 3, np.pi / 2])
def test_scaled_zeta_antihermitian_pointwise(theta):
    lam = np.exp(1j * theta)
    z = eval_zeta(Potential(0.0, 0.0, 2.0), lam) * lam ** -1.5
    assert np.max(np.abs(z + z.conj().T)) < 1e-14


def test_antihermitian_on_circle_grid():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = Potential(complex(*rng.normal(size=2)),
                      complex(*rng.normal(size=2)),
                      float(np.exp(rng.normal())))
        for theta in np.linspace(0, 2 * np.pi, 32, endpoint=False):
            lam = np.exp(1j * theta)
            z = eval_zeta(p, lam)
            zs = lam ** -1.5 * z
            norm = max(np.max(np.abs(z)), 1e-30)
            assert np.max(np.abs(zs + zs.conj().T)) <= 1e-12 * norm


def test_spectral_poly_trivial():
    q = spectral_poly(Potential(0.0, 0.0, 1.0))
    assert q.a1 == 0 and abs(q.a2 - 2.0) < 1e-15


def test_spectral_poly_against_determinant_fit():
    for p in (Potential(0.0, 0.0, 2.0), Potential(1.0, 1.0j, 1.0)):
        q = spectral_poly(p)
        a1, a2 = fit_quartic_from_det(p)
        assert abs(q.a1 - a1) < 1e-9
        assert abs(q.a2 - a2) < 1e-9
    q = spectral_poly(Potential(0.0, 0.0, 2.0))
    assert abs(q.a1) < 1e-15 and abs(q.a2 - 4.25) < 1e-15
    q = spectral_poly(Potential(1.0, 1.0j, 1.0))
    assert abs(q.a1 + 1.0) < 1e-15 and abs(q.a2 - 5.0) < 1e-15


def test_det_identity_random_lambda():
    rng = np.random.default_rng(11)
    p = Potential(0.3 - 0.2j, 0.1 + 0.4j, 1.3)
    q = spectral_poly(p)
    lams = rng.normal(size=100) + 1j * rng.normal(size=100)
    for lam in lams:
        det = np.linalg.det(eval_zeta(p, lam))
        assert abs(det - lam * q(lam)) <= 1e-12 * (1.0 + abs(lam) ** 5)


class TestClassify:
    def test_clifford_m23(self):
        q = classify(spectral_poly(Potential(0.0, 0.0, 1.0)))
        assert q.cls is SpectralClass.M23
        roots = sorted((r for r, m in q.roots), key=lambda z: z.imag)
        assert abs(roots[0] + 1j) < 1e-10 and abs(roots[1] - 1j) < 1e-10
        assert all(m == 2 for _, m in q.roots)

    def test_m25(self):
        q = classify(quartic_from_roots([-2.0, -2.0, -0.5, -0.5]))
        assert q.cls is SpectralClass.M25

    def test_m21_biquadratic(self):
        q = classify(SpectralQuartic(0.0, 4.25))
        assert q.cls is SpectralClass.M21
        mods = sorted(abs(r) for r, _ in q.roots)
        assert np.allclose(mods, [0.5, 0.5, 2.0, 2.0], atol=1e-12)

    def test_m24(self):
        q = classify(quartic_from_roots([1.0, 1.0, 1.0, 1.0]))
        assert q.cls is SpectralClass.M24
        (root, mult), = q.roots
        assert mult == 4 and abs(root - 1.0) < 1e-8

    def test_m22(self):
        q = classify(quartic_from_roots([0.5, 2.0, 1.0, 1.0]))
        assert q.cls is SpectralClass.M22

    def test_membership_error(self):
        with pytest.raises(MembershipError):
            classify(SpectralQuartic(1.0, -10.0))
        # oracle: lam^-2 a at lam = 1 is 1 + 1 - 10 + 1 + 1 < 0
        assert 1 + 1 - 10 + 1 + 1 < 0

    def test_root_pairing_enforced(self):
        q = classify(SpectralQuartic(0.3 + 0.1j, 4.0))
        roots = [r for r, _ in q.roots]
        for r in roots:
            assert min(abs(r * np.conj(s) - 1.0) for s in roots) < 1e-10

    def test_stable_under_root_preserving_perturbation(self):
        tol = 1e-8
        u = np.exp(0.4j)
        q0 = classify(quartic_from_roots([u, u, u.conjugate(), u.conjugate()]),
                      tol=tol)
        v = u * np.exp(1j * tol / 10)
        q1 = classify(quartic_from_roots([v, v, v.conjugate(), v.conjugate()]),
                      tol=tol)
        assert q0.cls is q1.cls is SpectralClass.M23

    def test_ambiguous_gap_regime(self):
        # split a double root by a distance inside the ambiguity band
        tol = 1e-8
        thr = max(10 * tol, 4e-7)
        eps = 0.75 * thr
        roots = [0.5, 2.0, 1.0 - eps, 1.0 / (1.0 - eps)]
        with pytest.raises(AmbiguousRootError):
            classify(quartic_from_roots(roots), tol=tol)

    def test_split_beyond_band_is_m21(self):
        eps = 1e-5
        roots = [0.5, 2.0, 1.0 - eps, 1.0 / (1.0 - eps)]
        q = classify(quartic_from_roots(roots))
        assert q.cls is SpectralClass.M21


def test_membership_positivity_scan():
    q = spectral_poly(Potential(0.2 + 0.1j, -0.3j, 1.5))
    vmin = check_membership(q)
    assert vmin > -1e-10


def _table_potentials():
    doc = json.loads(_G2_TABLE.read_text())
    rows = doc["generic"] + doc["dear"] + [f["potential"]
                                           for f in doc["failing"]]
    return [Potential(complex(a0, a1), complex(b0, b1), gamma)
            for a0, a1, b0, b1, gamma in rows]


def _circle_scale(q, n):
    """lam^-2 a(lam) on an n-point circle grid, and check_membership's
    scale max(1, max |value|)."""
    lam = np.exp(2j * np.pi * np.arange(n) / n)
    v = (q(lam) / lam ** 2).real
    return v, max(1.0, float(np.max(np.abs(v))))


def test_scalar_circle_value_matches_the_quartic():
    # Horner's rule on Python scalars against np.polyval, at 256 points of
    # the circle, relative to the circle's scale
    for p in [Potential(0.2 + 0.1j, -0.3j, 1.5)] + _table_potentials()[:20]:
        q = spectral_poly(p)
        coeffs = q.coeffs().tolist()
        _, scale = _circle_scale(q, 256)
        for t in 2.0 * np.pi * np.arange(256) / 256:
            lam = np.exp(1j * t)
            got = _circle_value(coeffs, float(t))
            assert abs(got - q(lam) / lam ** 2) <= 1e-15 * scale


def test_membership_minimum_against_a_dense_scan():
    # the refined minimum is no worse than a 65,536-point scan
    for p in [Potential(0.2 + 0.1j, -0.3j, 1.5)] + _table_potentials()[:20]:
        q = spectral_poly(p)
        v, scale = _circle_scale(q, 65536)
        assert check_membership(q) <= float(np.min(v)) + 1e-12 * scale


def test_membership_refinement_catches_a_minimum_between_grid_points():
    # lam^-2 a = 2 cos 2t + 2 Re(a1 e^{it}) + a2 on the circle; a2 puts its
    # minimum at -1e-8 of its maximum (the scale), between two of the 256
    # grid points, where the grid alone reads about +2e-4
    a1 = 0.3 * np.exp(1.1j)
    t = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
    g = 2.0 * np.cos(2.0 * t) + 2.0 * (a1 * np.exp(1j * t)).real
    ext = []
    for t0 in (t[np.argmin(g)], t[np.argmax(g)]):
        for _ in range(8):
            e = a1 * np.exp(1j * t0)
            t0 -= ((-4.0 * np.sin(2.0 * t0) - 2.0 * e.imag)
                   / (-8.0 * np.cos(2.0 * t0) - 2.0 * e.real))
        ext.append(2.0 * np.cos(2.0 * t0) + 2.0 * (a1 * np.exp(1j * t0)).real)
    gmin, gmax = ext
    a2 = (-1e-8 * gmax - gmin) / (1.0 + 1e-8)
    q = SpectralQuartic(complex(a1), float(a2))
    scale = gmax + a2
    assert abs(gmin + a2 + 1e-8 * scale) <= 1e-14 * scale
    assert np.min(_circle_scale(q, 256)[0]) > 1e-5
    with pytest.raises(MembershipError):
        check_membership(q)


def test_every_table_potential_classifies():
    # the potentials of the g2_lattice benchmark table, the failing probe
    # draw included, are all in the four-simple-roots stratum
    for p in _table_potentials():
        assert classify(spectral_poly(p)).cls is SpectralClass.M21


class TestFixedPoint:
    def test_clifford(self):
        q = classify(spectral_poly(Potential(0.0, 0.0, 1.0)))
        p = fixed_point_potential(q)
        assert p.alpha == 0 and abs(p.beta) < 1e-12 and p.gamma == 1.0

    def test_angle_pi_over_3(self):
        l1 = np.exp(1j * np.pi / 3)
        q = classify(quartic_from_roots([l1, l1, np.conj(l1), np.conj(l1)]))
        p = fixed_point_potential(q)
        assert abs(p.beta - 1.0) < 1e-10     # 2 cos(pi/3)
        assert p.gamma == 1.0 and p.alpha == 0

    def test_lax_fields_vanish(self):
        from sgtori.laxflows import lax_vector_fields
        q = classify(spectral_poly(Potential(0.0, 0.0, 1.0)))
        p = fixed_point_potential(q)
        tx, ty = lax_vector_fields(p)
        assert max(abs(tx[0]), abs(tx[1]), abs(tx[2])) < 1e-14
        assert max(abs(ty[0]), abs(ty[1]), abs(ty[2])) < 1e-14

    def test_class_error(self):
        q = classify(SpectralQuartic(0.0, 4.25))
        with pytest.raises(ClassError):
            fixed_point_potential(q)


class TestOffDiagonal:
    def test_biquadratic_four_points(self):
        q = classify(SpectralQuartic(0.0, 4.25))
        pts = off_diagonal_points(q)
        assert len(pts) == 4
        gammas = sorted(p.gamma for p in pts)
        assert np.allclose(gammas, [0.5, 1.0, 1.0, 2.0], atol=1e-10)
        for p in pts:
            assert p.alpha == 0
            qq = spectral_poly(p)
            assert abs(qq.a1 - q.a1) < 1e-10 and abs(qq.a2 - q.a2) < 1e-10
            assert abs(resultant_bc(p)) > 1e-6

    def test_class_error(self):
        q = classify(spectral_poly(Potential(0.0, 0.0, 1.0)))
        with pytest.raises(ClassError):
            off_diagonal_points(q)


def test_gamma_rejected_at_construction():
    with pytest.raises(DomainError):
        Potential(0.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        Potential(0.0, 0.0, 0.0)


def test_json_round_trip():
    p = Potential(0.25 - 1.0j, 0.5j, 2.5)
    d = json.loads(json.dumps(p.to_json_dict()))
    assert Potential.from_json_dict(d) == p
    q = classify(spectral_poly(Potential(0.0, 0.0, 2.0)))
    d = q.to_json_dict()
    assert d["class"] == "M2_1"
    assert d["a2"] == 4.25
    assert all(len(row) == 3 for row in d["roots"])
