import math

import numpy as np
import pytest

from sgtori.errors import BranchCollisionError, ClassError, PathIntegrationError
from sgtori.genus1 import Genus1Data, lattice_g1
from sgtori import genus2
from sgtori.genus2 import (HyperCurve, _track_nu, build_cycles, b_period_map,
                           capsule_around, circle, contour_integrals,
                           mu_at_roots, nu_on_contour, period_lattice,
                           period_table, solve_b_omega)
from sgtori.modular import lattice_distance
from sgtori.potentials import (SpectralQuartic, classify, quartic_from_roots)


@pytest.fixture(scope="module")
def biquadratic():
    q = classify(SpectralQuartic(0.0, 4.25))
    return HyperCurve.from_quartic(q)


@pytest.fixture(scope="module")
def biq_cycles(biquadratic):
    return build_cycles(biquadratic)


@pytest.fixture(scope="module")
def biq_lattice(biquadratic, biq_cycles):
    return period_lattice(biquadratic, biq_cycles)


def split_curve(eps):
    roots = [0.5, 2.0, 1.0 - eps, 1.0 / (1.0 - eps)]
    return HyperCurve.from_quartic(classify(quartic_from_roots(roots)))


class TestNuOnContour:
    def test_single_root_flips_sheet(self, biquadratic):
        lam, nu, flipped = nu_on_contour(biquadratic,
                                         circle(biquadratic.alpha[0], 0.2))
        assert flipped

    def test_a_cycle_closes(self, biquadratic, biq_cycles):
        lam, nu, flipped = nu_on_contour(biquadratic, biq_cycles.a1)
        assert not flipped
        res = nu ** 2 + lam * biquadratic.quartic(lam)
        assert np.max(np.abs(res)) <= 1e-12 * max(1.0, float(np.max(np.abs(nu)) ** 2))

    def test_point_value(self, biquadratic):
        nu2 = biquadratic.nu_sq(1.0)
        assert abs(nu2 + 6.25) < 1e-14
        assert abs(np.sqrt(-nu2) - 2.5) < 1e-14

    def test_collision_raises(self, biquadratic):
        with pytest.raises(BranchCollisionError):
            nu_on_contour(biquadratic, circle(biquadratic.alpha[0], 0.5))


class TestBOmega:
    def test_zero_gives_zero(self, biquadratic, biq_cycles):
        b = solve_b_omega(biquadratic, biq_cycles, 0.0)
        assert abs(b.beta1) < 1e-12 and abs(b.beta2) < 1e-12

    def test_real_linearity(self, biquadratic, biq_cycles):
        b1 = solve_b_omega(biquadratic, biq_cycles, 1.0)
        bi = solve_b_omega(biquadratic, biq_cycles, 1j)
        for (x, y) in ((2.0, -3.0), (0.5, 0.25)):
            bxy = solve_b_omega(biquadratic, biq_cycles, x + 1j * y)
            comb = x * b1.coeffs() + y * bi.coeffs()
            assert np.max(np.abs(bxy.coeffs() - comb)) <= 1e-10

    def test_a_residual(self, biquadratic, biq_cycles):
        b = solve_b_omega(biquadratic, biq_cycles, 1.0)
        assert b.a_residual <= 1e-9

    def test_coefficient_reality_symmetry(self, biquadratic, biq_cycles):
        b = solve_b_omega(biquadratic, biq_cycles, 0.7 + 0.2j)
        for lam in (0.6 + 0.1j, np.exp(0.9j), 1.4 - 0.8j):
            refl = np.conj(lam) ** 3 * b(1.0 / np.conj(lam))
            assert abs(refl + np.conj(b(lam))) < 1e-12 * max(1.0, abs(b(lam)))

    def test_b0_and_leading(self, biquadratic, biq_cycles):
        w = 0.3 - 1.1j
        b = solve_b_omega(biquadratic, biq_cycles, w)
        c = b.coeffs()
        assert c[0] == w
        assert c[3] == -np.conj(w)


class TestBPeriods:
    def test_purely_imaginary_and_invertible(self, biquadratic, biq_cycles):
        mat, bs = b_period_map(biquadratic, biq_cycles)
        assert abs(np.linalg.det(mat)) > 1e-6
        for b in bs:
            for cyc in (biq_cycles.b1, biq_cycles.b2):
                val, _ = contour_integrals(biquadratic, cyc, [b])
                assert abs(val[0].real) <= 1e-8 * max(1.0, abs(val[0]))

    def test_real_linearity_of_period_map(self, biquadratic, biq_cycles):
        mat, _ = b_period_map(biquadratic, biq_cycles)
        rng = np.random.default_rng(4)
        for _ in range(4):
            x, y = rng.normal(size=2)
            b = solve_b_omega(biquadratic, biq_cycles, x + 1j * y)
            for j, cyc in enumerate((biq_cycles.b1, biq_cycles.b2)):
                val, _ = contour_integrals(biquadratic, cyc, [b])
                pred = mat[j, 0] * x + mat[j, 1] * y
                assert abs(val[0].imag - pred) <= 1e-9 * max(1.0, abs(pred))


class TestLattice:
    def test_b_period_residual(self, biq_lattice):
        assert biq_lattice.bperiod_residual <= 1e-7

    def test_lattice_property_of_sum(self, biquadratic, biq_cycles, biq_lattice):
        w = biq_lattice.omega1 + biq_lattice.omega2
        b = solve_b_omega(biquadratic, biq_cycles, w)
        for cyc in (biq_cycles.b1, biq_cycles.b2):
            val, _ = contour_integrals(biquadratic, cyc, [b])
            assert abs(val[0] - 2j * math.pi) <= 1e-7

    def test_contour_deformation_invariance(self, biquadratic, biq_cycles,
                                            biq_lattice):
        import dataclasses
        alt_b1 = circle(0.5 * biquadratic.alpha[0],
                        0.5 * abs(biquadratic.alpha[0]) + 0.17)
        assert [alt_b1.winding(b) for b in biquadratic.branch_points] == \
            [biq_cycles.b1.winding(b) for b in biquadratic.branch_points]
        alt = dataclasses.replace(biq_cycles, b1=alt_b1)
        lat2 = period_lattice(biquadratic, alt)
        # generators agree up to the orientation sign of the realization
        for a, b in ((lat2.omega1, biq_lattice.omega1),
                     (lat2.omega2, biq_lattice.omega2)):
            assert min(abs(a - b), abs(a + b)) <= 1e-7
        assert lattice_distance((lat2.omega1, lat2.omega2),
                                (biq_lattice.omega1, biq_lattice.omega2)) <= 1e-7

    def test_json(self, biq_lattice):
        d = biq_lattice.to_json_dict()
        assert d["class"] == "M2_1"
        assert len(d["omega1"]) == 2 and d["bperiod_residual"] <= 1e-7

    def test_class_guard(self):
        q = classify(quartic_from_roots([0.5, 2.0, 1.0, 1.0]))
        with pytest.raises(ClassError):
            HyperCurve.from_quartic(q)


class TestContinuityTowardDoubleRoot:
    def test_generators_approach_closed_form(self):
        base = classify(quartic_from_roots([0.5, 2.0, 1.0, 1.0]))
        d = Genus1Data.from_quartic(base)
        w1, w2 = lattice_g1(d)
        dists = []
        for eps in (1e-2, 1e-3):
            c = split_curve(eps)
            lat = period_lattice(c)
            dists.append(lattice_distance((lat.omega1, lat.omega2), (w1, w2)))
        assert dists[0] <= 1e-2
        assert dists[1] <= 1e-2
        assert dists[1] < dists[0]


class TestDivergenceDetection:
    def test_quadruple_root_approach_blows_up(self):
        eps = 1e-6
        roots = [1 - eps, 1 / (1 - eps), 1 - 2 * eps, 1 / (1 - 2 * eps)]
        c = HyperCurve.from_roots(roots)
        lat = period_lattice(c, build_cycles(c), conv_tol=1e-4, strict=False,
                             min_clearance=1e-8)
        assert max(abs(lat.omega1), abs(lat.omega2)) > 1e3

    def test_double_pair_approach_grows_monotonically(self):
        maxima = []
        for eps in (1e-2, 1e-3, 1e-4):
            roots = [0.5 - eps, 0.5 + eps, 1 / (0.5 + eps), 1 / (0.5 - eps)]
            c = HyperCurve.from_roots(roots)
            lat = period_lattice(c, build_cycles(c), conv_tol=1e-7,
                                 strict=False)
            maxima.append(max(abs(lat.omega1), abs(lat.omega2)))
        assert maxima[0] < maxima[1] < maxima[2]


class TestMuAtRoots:
    def test_sign_patterns_form_homomorphism(self, biquadratic, biq_lattice):
        s1, dev1 = mu_at_roots(biquadratic, biq_lattice, biq_lattice.omega1)
        s2, dev2 = mu_at_roots(biquadratic, biq_lattice, biq_lattice.omega2)
        s12, _ = mu_at_roots(biquadratic, biq_lattice,
                             biq_lattice.omega1 + biq_lattice.omega2)
        assert max(dev1) < 1e-4 and max(dev2) < 1e-4
        assert all(s in (-1, 1) for s in s1 + s2 + s12)
        assert s12 == [a * b for a, b in zip(s1, s2)]

    def test_sublattice_vector_all_minus_one(self, biquadratic, biq_lattice):
        # some primitive vector carries the all-equal pattern (the closing
        # sublattice); find it among small combinations
        found = None
        for m in range(-2, 3):
            for n in range(-2, 3):
                if (m, n) == (0, 0):
                    continue
                w = m * biq_lattice.omega1 + n * biq_lattice.omega2
                signs, _ = mu_at_roots(biquadratic, biq_lattice, w)
                if all(s == -1 for s in signs):
                    found = (m, n)
                    break
            if found:
                break
        assert found is not None

    def test_near_boundary_pattern_of_continued_generators(self):
        # continued generators of a near-degenerate curve reproduce the
        # (-1, 1)/(1, -1) pattern grouped by the split pair
        eps = 1e-2
        c = split_curve(eps)
        lat = period_lattice(c)
        base = classify(quartic_from_roots([0.5, 2.0, 1.0, 1.0]))
        d = Genus1Data.from_quartic(base)
        w1g, w2g = lattice_g1(d)
        # nearest lattice vectors to the closed-form generators
        def nearest(w):
            best = None
            for m in range(-4, 5):
                for n in range(-4, 5):
                    v = m * lat.omega1 + n * lat.omega2
                    if best is None or abs(v - w) < abs(best - w):
                        best = v
            return best
        v1 = nearest(w1g)
        v2 = nearest(w2g)
        assert abs(v1 - w1g) < 0.05 * max(1.0, abs(w1g))
        assert abs(v2 - w2g) < 0.05 * max(1.0, abs(w2g))
        s1, _ = mu_at_roots(c, lat, v1)
        s2, _ = mu_at_roots(c, lat, v2)
        # roots ordered (alpha1, alpha2, 1/conj(alpha1), 1/conj(alpha2));
        # the split pair is (alpha2, partner2) = indices 1, 3
        split_idx = [1, 3]
        other_idx = [0, 2]
        assert len({s1[i] for i in split_idx}) == 1
        assert len({s1[i] for i in other_idx}) == 1
        assert s1[split_idx[0]] != s1[other_idx[0]]
        assert [s2[i] for i in split_idx] == [-s for s in
                                              [s1[i] for i in split_idx]]

    def test_non_lattice_vector_rejected(self, biquadratic, biq_lattice):
        with pytest.raises(PathIntegrationError):
            mu_at_roots(biquadratic, biq_lattice,
                        0.37 * biq_lattice.omega1 + 0.21j)


def test_capsule_orientation_and_exclusions():
    cont = capsule_around(0.2 + 0.1j, 1.4 - 0.3j, [2.0 + 0.5j, -0.4j])
    assert cont.winding(0.2 + 0.1j) == 1
    assert cont.winding(1.4 - 0.3j) == 1
    assert cont.winding(2.0 + 0.5j) == 0


def test_blocked_chord_takes_arc_detour():
    # excluded point dead on the chord forces the bulged realization
    cont = capsule_around(0.5, 2.0, [1.0, 1.1])
    assert cont.winding(0.5) == 1 and cont.winding(2.0) == 1
    assert cont.winding(1.0) == 0 and cont.winding(1.1) == 0


def test_quadrature_self_convergence(biquadratic, biq_cycles):
    vals1, ch1 = contour_integrals(
        biquadratic, biq_cycles.a1, [lambda lam: lam - lam ** 2],
        conv_tol=1e-8)
    vals2, _ = contour_integrals(
        biquadratic, biq_cycles.a1, [lambda lam: lam - lam ** 2],
        conv_tol=1e-8, base_panels=8)
    assert ch1 <= 1e-8
    assert abs(vals1[0] - vals2[0]) <= 1e-8 * max(1.0, abs(vals1[0]))


def test_quadrature_without_doublings_is_uncertified(biquadratic, biq_cycles):
    # one panel count gives no self-convergence estimate
    f = [lambda lam: lam - lam ** 2]
    with pytest.raises(PathIntegrationError):
        contour_integrals(biquadratic, biq_cycles.a1, f, max_doublings=0)
    vals, change = contour_integrals(biquadratic, biq_cycles.a1, f,
                                     max_doublings=0, strict=False)
    assert change == math.inf and np.all(np.isfinite(vals))


def test_lattice_generators_are_flow_periods():
    # end-to-end cross-validation of two independent routes: the lattice from
    # contour integrals must consist of actual periods of the commuting flows
    # (the potential returns and the frame monodromy commutes with zeta_0)
    from sgtori.laxflows import frame_at
    from sgtori.potentials import Potential, eval_zeta, spectral_poly
    p0 = Potential(0.2 + 0.1j, 0.3 - 0.2j, 1.4)
    curve = HyperCurve.from_quartic(classify(spectral_poly(p0)))
    lat = period_lattice(curve)
    lams = np.array([np.exp(0.5j), np.exp(1.7j)])
    for w in (lat.omega1, lat.omega2):
        F, pend = frame_at(p0, w.real, w.imag, lams, tol=1e-11)
        ret = (abs(pend.alpha - p0.alpha) + abs(pend.beta - p0.beta)
               + abs(pend.gamma - p0.gamma))
        assert ret <= 1e-8
        for k, lam in enumerate(lams):
            z0 = eval_zeta(p0, lam)
            comm = F[k] @ z0 - z0 @ F[k]
            assert np.max(np.abs(comm)) <= 1e-6


# --- the moment table and the one-pass sheet tracker ------------------------


def _nearest_value_reference(curve, lam, start=None):
    """Sequential nearest-value continuation, one sample at a time."""
    prev = start
    out = []
    for v in np.sqrt(curve.nu_sq(lam)):
        if prev is not None and abs(v - prev) > abs(v + prev):
            v = -v
        out.append(v)
        prev = v
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_track_nu_equals_sequential_continuation(biquadratic, seed):
    rng = np.random.default_rng(seed)
    # ordered samples: a random walk that winds among the branch points
    steps = 0.02 * (rng.normal(size=4000) + 1j * rng.normal(size=4000))
    lam = 0.3 + 0.2j + np.cumsum(steps)
    for start in (None, 1.5 - 0.5j, -1.5 + 0.5j):
        ref = _nearest_value_reference(biquadratic, lam, start)
        assert np.array_equal(_track_nu(biquadratic, lam, start), ref)


def test_period_lattice_makes_one_quadrature_per_cycle(
        biquadratic, biq_cycles, monkeypatch):
    calls = []
    original = genus2.contour_integrals

    def counted(*args, **kwargs):
        calls.append(args[1].label)
        return original(*args, **kwargs)

    monkeypatch.setattr(genus2, "contour_integrals", counted)
    lat = period_lattice(biquadratic, biq_cycles)
    assert sorted(calls) == ["A1", "A2", "B1", "B2"]
    assert lat.moments.shape == (4, 4)


def test_mu_at_roots_uses_the_lattice_table(biquadratic, biq_lattice,
                                            monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("mu_at_roots must not integrate over cycles")

    for name in ("contour_integrals", "build_cycles", "solve_b_omega"):
        monkeypatch.setattr(genus2, name, forbidden)
    signs, _ = mu_at_roots(biquadratic, biq_lattice, biq_lattice.omega1)
    assert signs == [-1, -1, -1, -1]


def test_generators_hit_b_periods_by_fresh_quadrature(biquadratic, biq_cycles,
                                                      biq_lattice):
    # oracle: a fresh quadrature of each generator's b over B1, B2, not the
    # table combination the lattice was solved from
    for w, target in ((biq_lattice.omega1, (2j * math.pi, 0.0)),
                      (biq_lattice.omega2, (0.0, 2j * math.pi))):
        b = solve_b_omega(biquadratic, biq_cycles, w)
        for cyc, want in zip((biq_cycles.b1, biq_cycles.b2), target):
            val, _ = contour_integrals(biquadratic, cyc, [b])
            assert abs(val[0] - want) <= 1e-7


def test_table_solved_b_has_vanishing_fresh_a_integrals(biquadratic,
                                                        biq_cycles):
    table = period_table(biquadratic, biq_cycles)
    for w in (1.0, 1j, 0.7 + 0.2j, -2.0 + 3.0j):
        b = genus2._solve_b(table[:2], w)
        for cyc in (biq_cycles.a1, biq_cycles.a2):
            val, _ = contour_integrals(biquadratic, cyc, [b])
            assert abs(val[0]) <= 1e-9 * max(1.0, abs(w))
        # the same integrals as the table combination
        for row, cyc in zip(table, (biq_cycles.a1, biq_cycles.a2,
                                    biq_cycles.b1, biq_cycles.b2)):
            val, _ = contour_integrals(biquadratic, cyc, [b])
            assert abs(val[0] - row @ b.coeffs()) <= 1e-9 * max(1.0, abs(w))


# signs and deviations of the per-panel sequential implementation this one
# replaced, on the biquadratic fixture
_MU_BIQ = {
    "omega1": ([-1, -1, -1, -1],
               [7.454794328070198e-13, 7.47712729553917e-13,
                7.469027213468867e-13, 7.471308606526303e-13]),
    "omega2": ([1, -1, 1, -1],
               [6.693008698396444e-12, 6.700097170649762e-12,
                6.6899724389837615e-12, 6.696087865307793e-12]),
    "sum": ([-1, 1, -1, 1],
            [6.24126203183411e-12, 6.240916902038919e-12,
             6.240758934795693e-12, 6.236297006871916e-12]),
}


def test_mu_at_roots_matches_sequential_tracking(biquadratic, biq_lattice):
    vectors = {"omega1": biq_lattice.omega1, "omega2": biq_lattice.omega2,
               "sum": biq_lattice.omega1 + biq_lattice.omega2}
    for name, w in vectors.items():
        signs, devs = mu_at_roots(biquadratic, biq_lattice, w)
        want_signs, want_devs = _MU_BIQ[name]
        assert signs == want_signs
        assert np.max(np.abs(np.array(devs) - want_devs)) <= 1e-12
