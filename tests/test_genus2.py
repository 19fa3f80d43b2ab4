import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sgtori.errors import (BranchCollisionError, ClassError, ContourError,
                           PathIntegrationError)
from sgtori.genus1 import Genus1Data, lattice_g1
from sgtori import genus2
from sgtori.genus2 import (HyperCurve, _track_nu, build_cycles, b_period_map,
                           capsule_around, circle, contour_integrals,
                           mu_at_roots, nu_on_contour, period_lattice,
                           period_table, solve_b_omega)
from sgtori.modular import lattice_distance
from sgtori.potentials import (Potential, SpectralQuartic, classify,
                               quartic_from_roots, spectral_poly)

_G2_TABLE = Path(__file__).resolve().parents[1] / "perfbench" / "g2_potentials.json"


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


# (alpha, beta, gamma) as (Re alpha, Im alpha, Re beta, Im beta, gamma): the
# first potential, then three "dear" and three "generic" draws of the
# g2_lattice workload's table (perfbench/g2_potentials.json), the generic
# ones from its cheapest, middle and dearest work
_FLOW_PERIOD_DRAWS = {
    "p0": (0.2, 0.1, 0.3, -0.2, 1.4),
    "dear0": (-0.4462270370896086, -0.003178334470069264, 0.21076609214772832,
              -0.5416332950919002, 1.2895033331609689),
    "dear1": (-0.5620937156784538, 0.35050034259223, 0.15451405422832123,
              0.10044747396287651, 0.7559108440986744),
    "dear3": (0.42237997474945016, 0.29348838514794995, 0.1099913127260348,
              -0.08326934317674868, 1.81470840712367),
    "generic_cheap": (0.07434749830895991, 0.036234907009612245,
                      -0.24155500987450218, 0.01395691926200579,
                      0.9849903106917655),
    "generic_mid": (0.07334636404811336, -0.24922164939473881,
                    -0.22090082800225125, -0.031852533346162254,
                    1.2866575366753785),
    "generic_dear": (-0.33003323519937455, -0.1779531003242206,
                     0.1305955187285077, -0.14806205692025123,
                     0.6524698512540386),
}


@pytest.mark.parametrize("name", list(_FLOW_PERIOD_DRAWS))
def test_lattice_generators_are_flow_periods(name):
    # end-to-end cross-validation of two independent routes: the lattice from
    # contour integrals must consist of actual periods of the commuting flows
    # (the potential returns and the frame monodromy commutes with zeta_0);
    # half a generator and conj(omega1), where it is off the lattice, are no
    # periods (negative controls)
    from sgtori.laxflows import frame_at
    from sgtori.potentials import eval_zeta
    a0, a1, b0, b1, gamma = _FLOW_PERIOD_DRAWS[name]
    p0 = Potential(complex(a0, a1), complex(b0, b1), gamma)
    curve = HyperCurve.from_quartic(classify(spectral_poly(p0)))
    lat = period_lattice(curve)
    lams = np.array([np.exp(0.5j), np.exp(1.7j)])

    def miss(w, samples):
        F, pend = frame_at(p0, w.real, w.imag, samples, tol=1e-11)
        return F, (abs(pend.alpha - p0.alpha) + abs(pend.beta - p0.beta)
                   + abs(pend.gamma - p0.gamma))

    for w in (lat.omega1, lat.omega2, lat.omega1 + lat.omega2):
        F, ret = miss(w, lams)
        assert ret <= 1e-8
        for k, lam in enumerate(lams):
            z0 = eval_zeta(p0, lam)
            comm = F[k] @ z0 - z0 @ F[k]
            assert np.max(np.abs(comm)) <= 1e-6
    assert miss(0.5 * lat.omega1, ())[1] > 1e-3
    # conj(omega1) lies within 6e-4 to 5e-2 of a lattice vector on these
    # draws, and the potential misses by about as much; a period returns
    # within 1e-8
    w = np.conj(lat.omega1)
    assert not lat.contains(w)
    assert miss(w, ())[1] > 1e-6


# signs and deviations of mu_at_roots at omega1, omega2 and omega1 + omega2 on
# the draws above, computed along the earlier zig-zag waypoint path (up to
# 1,309 legs per root on the table's dear draws); the signs do not depend on
# the path, and the deviations agree to rounding
_MU_DRAWS = {
    "p0": (
        ([-1, -1, -1, -1],
         [3.6306137849262144e-12, 3.6317684543270104e-12,
          3.6298874244970957e-12, 3.627903509003181e-12]),
        ([1, -1, 1, -1],
         [4.593449265639192e-12, 4.5923759161276764e-12,
          4.593984954258129e-12, 4.594140312184355e-12]),
        ([-1, 1, -1, 1],
         [2.5415164606951115e-12, 2.5404638168137857e-12,
          2.541457459465138e-12, 2.539969904723072e-12]),
    ),
    "dear0": (
        ([-1, -1, -1, -1],
         [4.730013829901239e-13, 4.785464162530275e-13,
          4.69614011689721e-13, 4.710755899936914e-13]),
        ([1, -1, 1, -1],
         [9.052049740943904e-13, 9.098280045891678e-13,
          9.066822417476956e-13, 9.039823112101063e-13]),
        ([-1, 1, -1, 1],
         [1.0242824840202173e-12, 1.013461344798763e-12,
          1.0260518048356067e-12, 1.023805685339723e-12]),
    ),
    "dear1": (
        ([-1, -1, -1, -1],
         [9.051564981263035e-12, 9.052681064297707e-12,
          9.050980118365459e-12, 9.049717499307054e-12]),
        ([1, -1, 1, -1],
         [2.4320690226474664e-12, 2.4314956784207968e-12,
          2.4328424149059163e-12, 2.4343242291843405e-12]),
        ([-1, 1, -1, 1],
         [5.027591120372543e-12, 5.029036980351414e-12,
          5.027714660855518e-12, 5.026945507283537e-12]),
    ),
    "dear3": (
        ([-1, -1, -1, -1],
         [4.612156905279608e-13, 4.573131280872851e-13,
          4.559121616987856e-13, 4.626282859334605e-13]),
        ([1, -1, 1, -1],
         [3.618392968915081e-12, 3.621008314132254e-12,
          3.619435922097855e-12, 3.6187238631616354e-12]),
        ([-1, 1, -1, 1],
         [5.5582210600523176e-12, 5.56266226905877e-12,
          5.564883243473316e-12, 5.567102499747009e-12]),
    ),
    "generic_cheap": (
        ([-1, -1, -1, -1],
         [4.5006564824218e-12, 4.503011470787901e-12,
          4.502861281744566e-12, 4.503396433232944e-12]),
        ([1, -1, 1, -1],
         [1.9480064478623426e-12, 1.9459743145027974e-12,
          1.9464385093018615e-12, 1.9473908231659866e-12]),
        ([-1, 1, -1, 1],
         [5.526110158454603e-13, 5.540045134942075e-13,
          5.498879395365856e-13, 5.501967708575896e-13]),
    ),
    "generic_mid": (
        ([-1, -1, -1, -1],
         [1.5946081477556235e-12, 1.5947671573021986e-12,
          1.594531846753455e-12, 1.5954646994903293e-12]),
        ([1, -1, 1, -1],
         [3.729423900041435e-12, 3.729523264838248e-12,
          3.7300837430607474e-12, 3.7298814701308295e-12]),
        ([-1, 1, -1, 1],
         [2.203243884103395e-12, 2.2038522672411026e-12,
          2.202646219506346e-12, 2.2025446800803518e-12]),
    ),
    "generic_dear": (
        ([-1, -1, -1, -1],
         [1.917843042720183e-12, 1.9148771287278893e-12,
          1.917337937719378e-12, 1.9151696552209572e-12]),
        ([1, -1, 1, -1],
         [2.5044368084843963e-12, 2.507130027386618e-12,
          2.5051795444799913e-12, 2.5044175567377643e-12]),
        ([-1, 1, -1, 1],
         [5.566597632988919e-12, 5.56299609068844e-12,
          5.567076983637035e-12, 5.563999685132466e-12]),
    ),
}


def _draw_curve(name):
    a0, a1, b0, b1, gamma = _FLOW_PERIOD_DRAWS[name]
    p0 = Potential(complex(a0, a1), complex(b0, b1), gamma)
    return HyperCurve.from_quartic(classify(spectral_poly(p0)))


def _draw_curve_and_lattice(name):
    curve = _draw_curve(name)
    return curve, period_lattice(curve)


@pytest.mark.parametrize("name", list(_FLOW_PERIOD_DRAWS))
def test_mu_at_roots_pinned_on_table_draws(name):
    curve, lat = _draw_curve_and_lattice(name)
    vectors = (lat.omega1, lat.omega2, lat.omega1 + lat.omega2)
    for w, (want_signs, want_devs) in zip(vectors, _MU_DRAWS[name]):
        signs, devs = mu_at_roots(curve, lat, w)
        assert signs == want_signs
        assert np.max(np.abs(np.array(devs) - want_devs)) <= 1e-13


@pytest.mark.parametrize("name", list(_FLOW_PERIOD_DRAWS))
def test_monodromy_paths_have_at_most_two_clear_legs(name, monkeypatch):
    # each obstacle keeps the path's clearance, except one nearer the base
    # point than that (the puncture at 0), which keeps half its distance
    curve, lat = _draw_curve_and_lattice(name)
    calls = []
    original = genus2._avoiding_path

    def recorded(z0, z1, obstacles, clearance):
        path = original(z0, z1, obstacles, clearance)
        calls.append((obstacles, clearance, path))
        return path

    monkeypatch.setattr(genus2, "_avoiding_path", recorded)
    mu_at_roots(curve, lat, lat.omega1)
    assert len(calls) == 4
    for obstacles, clearance, path in calls:
        assert len(path) - 1 <= 2
        for o in obstacles:
            d0 = abs(o - path[0])
            c = d0 / 2.0 if d0 < clearance else clearance
            for a, b in zip(path, path[1:]):
                assert genus2._seg_distance(a, b, o) >= c


def _last_leg_reference(bc, root, others, approach, nu_here):
    """The last leg of mu_at_roots panel by panel: each panel's first node
    is matched to the last node of the panel before, as continued."""
    u1 = cmath.sqrt(approach - root)
    t_match = nu_here / u1
    _, u, _, half = genus2._panels(u1, 0.0, 24)
    total = 0.0
    for u_k, half_k in zip(u, half):
        lam = root + u_k * u_k
        tv = np.sqrt(-lam * np.prod([lam - r for r in others], axis=0))
        if abs(tv[0] - t_match) > abs(tv[0] + t_match):
            tv = -tv
        total += np.sum(genus2._GW * genus2._cubic(bc, lam) / (tv * lam)
                        * half_k)
        t_match = tv[-1]
    return total


@pytest.mark.parametrize("name", [*_FLOW_PERIOD_DRAWS, 1e-3, 1e-2, 1e-1])
def test_last_leg_pass_equals_panel_by_panel(name, monkeypatch):
    # the one-pass parity rule against the per-panel loop, on the table draws
    # and on the split curve at eps = name: the same signs, and ln mu within
    # 1e-13 (the last leg is the only term that differs)
    curve = split_curve(name) if isinstance(name, float) else _draw_curve(name)
    lat = period_lattice(curve)
    legs = []
    one_pass = genus2._last_leg

    def recorded(*args):
        val = one_pass(*args)
        legs.append((args, val))
        return val

    for w in (lat.omega1, lat.omega2, lat.omega1 + lat.omega2):
        monkeypatch.setattr(genus2, "_last_leg", recorded)
        signs, devs = mu_at_roots(curve, lat, w)
        monkeypatch.setattr(genus2, "_last_leg", _last_leg_reference)
        ref_signs, ref_devs = mu_at_roots(curve, lat, w)
        assert signs == ref_signs
        assert np.max(np.abs(np.array(devs) - ref_devs)) <= 1e-13
    assert len(legs) == 12
    for args, val in legs:
        assert abs(val - _last_leg_reference(*args)) <= 1e-13


def test_mu_at_roots_rejects_a_nan_omega(biquadratic, biq_lattice):
    # NaN is near no lattice vector
    with pytest.raises(PathIntegrationError):
        mu_at_roots(biquadratic, biq_lattice, complex("nan"))


def test_path_that_cannot_clear_raises_at_the_cap():
    # the end point sits inside the obstacle's clearance, so no waypoint
    # can clear the last leg
    with pytest.raises(PathIntegrationError):
        genus2._avoiding_path(0.0 + 0j, 1.0 + 0j, [1.0 + 0.05j], 0.1)


def _winding_reference(contour, pts, n=4096):
    """Winding numbers about pts by dense midpoint sampling of each piece."""
    s = (np.arange(n) + 0.5) / n
    pts = np.asarray(pts, dtype=complex)[:, None]
    total = np.zeros(len(pts))
    for p in contour.pieces:
        total += np.sum((p.dpoint(s) / n / (p.point(s) - pts)).imag, axis=1)
    return [round(float(t) / (2.0 * math.pi)) for t in total]


def _sampled_distance(contour, pts, n=2048):
    """Least distance from pts to n midpoint samples of each piece."""
    s = (np.arange(n) + 0.5) / n
    return min(float(np.min(np.abs(p.point(s) - pt)))
               for p in contour.pieces for pt in pts)


# the biquadratic (bulged capsules), the split curve (straight ones) and the
# table draws, of which generic_cheap and p0 have an inner arc of negative
# radius
_CAPSULE_CURVES = ["biquadratic", "split", *_FLOW_PERIOD_DRAWS]


def _named_curve(name, biquadratic):
    if name == "biquadratic":
        return biquadratic
    return split_curve(1e-2) if name == "split" else _draw_curve(name)


def _capsules(curve):
    cycles = build_cycles(curve)
    for cont in (cycles.a1, cycles.a2, cycles.b1, cycles.b2):
        yield cont
        yield genus2.reverse_contour(cont)


def _negative_arc(cont):
    return any(isinstance(p, genus2.Arc) and p.radius < 0.0
               for p in cont.pieces)


def _offset_points(cont, fractions=(0.3, 0.05, 0.01)):
    """Points on both sides of each piece at s = 0.1, 0.5, 0.9, offset by the
    given fractions of the piece's length."""
    pts = []
    for piece in cont.pieces:
        for s in (0.1, 0.5, 0.9):
            z, t = piece.point_at(s), piece.dpoint(s)
            for f in fractions:
                off = f * piece.length * 1j * t / abs(t)
                pts += [z + off, z - off]
    return pts


def _check_windings(curve):
    """Closed-form windings of every capsule of curve and of its reversal,
    about the branch points and offset points, against the dense oracle."""
    for cont in _capsules(curve):
        pts = list(curve.branch_points) + _offset_points(cont)
        got = cont.windings(pts)
        assert got == [cont.winding(pt) for pt in pts]
        assert got == _winding_reference(cont, pts)
        inside = -1 if cont.label.endswith("-rev") else 1
        nb = len(curve.branch_points)
        assert got[:nb].count(inside) == 2 and got[:nb].count(0) == nb - 2
        # a simple closed capsule winds once about its inside points
        assert set(got[nb:]) == {0, inside}


@pytest.mark.parametrize("eps", [None, 1e-2])
def test_one_sampling_windings_equal_point_by_point(eps, biquadratic):
    # the biquadratic's capsules are bulged; the split curve's are straight
    _check_windings(biquadratic if eps is None else split_curve(eps))


@pytest.mark.parametrize("name", list(_FLOW_PERIOD_DRAWS))
def test_arc_capsules_keep_a_positive_inner_radius(name):
    # the width is capped at half the chord radius, so the inner arc stays on
    # the near side of its center; at 0.45 of the clearance alone, the inner
    # radius was negative on generic_cheap and p0, and those capsules crossed
    # themselves (offset points by the inner arc wound twice)
    curve = _draw_curve(name)
    for cont in _capsules(curve):
        assert not _negative_arc(cont)
    _check_windings(curve)


def test_table_capsules_keep_a_positive_inner_radius():
    # every generic and dear potential of the g2_lattice table
    doc = json.loads(_G2_TABLE.read_text())
    rows = doc["generic"] + doc["dear"]
    for a0, a1, b0, b1, gamma in rows:
        p = Potential(complex(a0, a1), complex(b0, b1), gamma)
        curve = HyperCurve.from_quartic(classify(spectral_poly(p)))
        for cont in _capsules(curve):
            assert not _negative_arc(cont)


def test_closed_form_windings_of_full_circles():
    # a full turn, from inside and outside, both ways round, and arcs of
    # negative radius (the point at theta is center - |radius| e^{i theta})
    for c in (genus2.circle(0.3 - 0.2j, 0.7), genus2.circle(0.0, 1e-3)):
        arc = c.pieces[0]
        for pt in (arc.center, arc.center + 0.999 * arc.radius,
                   arc.center + 1.001j * arc.radius):
            want = 1 if abs(pt - arc.center) < arc.radius else 0
            assert c.winding(pt) == want
            assert genus2.reverse_contour(c).winding(pt) == -want
    neg = genus2.Contour([genus2.Arc(1.0 + 0j, -0.5, 0.0, 2.0 * math.pi)])
    assert abs(neg.pieces[0].point_at(0.0) - 0.5) < 1e-15
    assert neg.windings([1.0, 1.2j, 1.4, 1.6]) == [1, 0, 1, 0]


def test_point_on_the_contour_raises(biquadratic):
    for cont in _capsules(biquadratic):
        for piece in cont.pieces:
            for s in (0.0, 0.37, 1.0):
                with pytest.raises(ContourError):
                    cont.windings([0.0, piece.point_at(s)])
    with pytest.raises(ContourError):
        genus2.circle(0.0, 1.0).winding(1j)


@pytest.mark.parametrize("name", ["biquadratic", "split", "generic_cheap",
                                  "p0"])
def test_exact_min_distance_against_sampling(name, biquadratic):
    # the exact distance is at most the sampled one and within the sampling
    # error: half a sample spacing of the longest piece
    curve = _named_curve(name, biquadratic)
    for cont in _capsules(curve):
        gap = max(p.length for p in cont.pieces) / 4096.0
        for pt in list(curve.branch_points) + _offset_points(cont):
            exact = cont.min_distance([pt])
            sampled = _sampled_distance(cont, [pt])
            assert exact <= sampled + 1e-15
            assert sampled - exact <= gap + 1e-15
    arc = genus2.Arc(0.5 + 0.5j, -0.25, 0.0, 0.5 * math.pi)
    assert arc.length == 0.125 * math.pi
    cont = genus2.Contour([arc])
    # the arc runs through the third quadrant about its centre: a point on
    # the ray of angle 1.2 + pi is nearest to the arc's point there, a point
    # on the ray of angle 0.7 nearest to an end
    c = 0.5 + 0.5j
    assert abs(cont.min_distance([c]) - 0.25) < 1e-15
    assert abs(cont.min_distance([c - 0.1 * np.exp(1.2j)]) - 0.15) < 1e-15
    far = c + 0.1 * np.exp(0.7j)
    assert cont.min_distance([far]) == min(abs(far - (c - 0.25)),
                                           abs(far - (c - 0.25j)))


def _contour_nodes_reference(curve, contour, base_panels):
    """The nodes panel by panel, one point/dpoint evaluation per panel."""
    lam_all = []
    w_all = []
    for piece in contour.pieces:
        for (s0, s1) in genus2._panelize(piece, curve.branch_points,
                                         base_panels):
            s = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * genus2._GX
            lam = piece.point(s)
            dl = piece.dpoint(s) * 0.5 * (s1 - s0)
            lam_all.append(lam)
            w_all.append(genus2._GW * dl)
    return np.concatenate(lam_all), np.concatenate(w_all)


@pytest.mark.parametrize("name", ["biquadratic", "split", "generic_cheap",
                                  "dear1"])
def test_contour_nodes_equal_panel_by_panel(name, biquadratic):
    curve = _named_curve(name, biquadratic)
    for cont in _capsules(curve):
        for panels in (4, 32):
            lam, w = genus2._contour_nodes(curve, cont, panels)
            lam_ref, w_ref = _contour_nodes_reference(curve, cont, panels)
            assert np.array_equal(lam, lam_ref)
            assert np.array_equal(w, w_ref)


def test_every_panel_keeps_its_distance_rule(biquadratic):
    # a panel is at most 0.45 of the distance from its midpoint to the
    # nearest branch point long, unless it is at the 2^-26 floor; the
    # length is |dpoint| (s1 - s0), which does not depend on Arc.length
    # each arc is also checked as its negative-radius twin, which traces the
    # same points
    checked_negative = False
    for name in _CAPSULE_CURVES:
        curve = _named_curve(name, biquadratic)
        bp = curve.branch_points
        for cont in _capsules(curve):
            twins = [genus2.Arc(p.center, -p.radius, p.th0 + math.pi,
                                p.th1 + math.pi)
                     for p in cont.pieces if isinstance(p, genus2.Arc)]
            checked_negative |= bool(twins)
            for piece in cont.pieces + twins:
                speed = abs(piece.dpoint(0.5))
                for s0, s1 in genus2._panelize(piece, bp, 4):
                    mid = piece.point_at(0.5 * (s0 + s1))
                    dist = min(abs(mid - b) for b in bp)
                    assert (speed * (s1 - s0) <= 0.45 * dist
                            or s1 - s0 <= 2.0 ** -26)
    assert checked_negative


def test_nu_sq_from_exact_roots_keeps_its_relative_accuracy():
    # the curve of test_quadruple_root_approach_blows_up: four roots within
    # 4e-6 of 1, where a(lam) is about 1e-24 on B2 against rounding of 1e-16
    # in the expanded coefficients
    mp = pytest.importorskip("mpmath").mp
    eps = 1e-6
    roots = [1 - eps, 1 / (1 - eps), 1 - 2 * eps, 1 / (1 - 2 * eps)]
    curve = HyperCurve.from_roots(roots)
    lam, _ = genus2._contour_nodes(curve, build_cycles(curve).b2, 4)
    with mp.workdps(40):
        ref = np.array([complex(-mp.mpc(z) * mp.fprod(mp.mpc(z) - mp.mpf(r)
                                                      for r in roots))
                        for z in lam])
    rel = np.abs(curve.nu_sq(lam) - ref) / np.abs(ref)
    assert np.max(rel) <= 1e-12
    coeff_rel = np.abs(-lam * curve.quartic(lam) - ref) / np.abs(ref)
    assert np.max(coeff_rel) > 1.0


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
