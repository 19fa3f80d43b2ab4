import dataclasses
import math
import types
import warnings

import numpy as np
import pytest

from sgtori.errors import DomainError, PoleError
from sgtori.weierstrass import (domega_p_dr, kernel_from_r, legendre_defect,
                                omega_p_quadrature, wp, wp_all, wp_prime,
                                wp_small, wzeta)


def test_degenerate_kernel_values():
    k = kernel_from_r(1.0)
    assert np.allclose([k.e1, k.e2, k.e3], [1 / 3, 1 / 3, -2 / 3])
    assert abs(k.g2 - 4 / 3) < 1e-15
    assert abs(k.g3 + 8 / 27) < 1e-15
    assert math.isinf(k.omega)
    assert abs(k.omega_p - 0.5j * math.pi) < 1e-15
    assert abs(k.eta_p + 1j * math.pi / 6) < 1e-15


def test_half_r_branch_values():
    k = kernel_from_r(0.5)
    assert abs(k.e1 - 7 / 6) < 1e-14
    assert abs(k.e2 + 1 / 3) < 1e-14
    assert abs(k.e3 + 5 / 6) < 1e-14
    assert abs(k.e1 + k.e2 + k.e3) < 1e-14
    assert abs((k.e1 - k.e3) * (k.e2 - k.e3) - 1.0) < 1e-14


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
def test_legendre_and_quadrature_cross_check(r):
    k = kernel_from_r(r)
    assert legendre_defect(k) <= 1e-10
    assert abs((k.e1 - k.e3) * (k.e2 - k.e3) - 1.0) <= 1e-12
    assert abs(k.omega_p - omega_p_quadrature(r)) < 1e-12


def test_r_domain_error():
    # twice each: errors are not memoised
    for r in (0.0, 1.5, 0.0, 1.5):
        with pytest.raises(DomainError):
            kernel_from_r(r)


def test_kernel_memo_shares_one_immutable_kernel():
    k = kernel_from_r(0.42)
    assert kernel_from_r(0.42) is k
    assert isinstance(k.terms, tuple)
    with pytest.raises(TypeError):
        k.terms[0] = (0.0, 0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.terms = ()


def _laurent_coeffs(g2, g3, n=28):
    """c_0..c_n of wp(z) = z^-2 + sum_{k>=2} c_k z^(2k-2) (DLMF 23.9.3)."""
    c = [0.0] * (n + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, n + 1):
        s = 0.0
        for m in range(2, k - 1):
            s += c[m] * c[k - m]
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    return c


def _series_by_terms(k, z):
    """Reference: the Laurent series summed term by term in increasing powers."""
    p = dp = zt = 0j
    c = _laurent_coeffs(k.g2, k.g3)
    for m in range(2, len(c)):
        p += c[m] * z ** (2 * m - 2)
        dp += (2 * m - 2) * c[m] * z ** (2 * m - 3)
        zt -= c[m] * z ** (2 * m - 1) / (2 * m - 1)
    return p + z ** -2, dp - 2.0 * z ** -3, zt + 1.0 / z


@pytest.mark.parametrize("r", [1e-4, 0.05, 0.3, 0.7, 0.99, 1.0])
def test_horner_series_matches_term_by_term_sum(r):
    # the nome series of wp_small against the Laurent series about 0, which
    # converges for |z| < r_min; at 0.35 r_min its 27 terms reach rounding
    k = kernel_from_r(r)
    rmin = min(2.0 * k.omega, 2.0 * abs(k.omega_p))
    for frac in (1e-3, 0.05, 0.2, 0.35):
        for ang in (0.1, 0.9, 2.3):
            z = frac * rmin * complex(math.cos(ang), math.sin(ang))
            for got, want in zip(wp_small(k, z), _series_by_terms(k, z)):
                assert abs(got - want) <= 1e-14 * abs(want)


def test_ode_residual_on_grid():
    k = kernel_from_r(0.6)
    xs = np.linspace(0.12, 2 * k.omega - 0.12, 20)
    ys = np.linspace(0.1, 2 * abs(k.omega_p) - 0.1, 20)
    for x in xs:
        for y in ys:
            z = complex(x, y)
            if abs(z - 2 * k.omega_p) < 0.15 or abs(z - 2 * k.omega) < 0.15:
                continue
            p, dp, _ = wp_all(k, z)
            res = dp ** 2 - (4 * p ** 3 - k.g2 * p - k.g3)
            assert abs(res) <= 1e-9 * max(1.0, abs(dp) ** 2)


def test_parity():
    k = kernel_from_r(0.45)
    for z in (0.3 + 0.4j, 1.0 - 0.2j, 0.2 + 1.1j):
        assert abs(wp(k, -z) - wp(k, z)) <= 1e-11 * max(1, abs(wp(k, z)))
        assert abs(wp_prime(k, -z) + wp_prime(k, z)) <= 1e-11 * max(1, abs(wp_prime(k, z)))
        assert abs(wzeta(k, -z) + wzeta(k, z)) <= 1e-11 * max(1, abs(wzeta(k, z)))


def test_double_periodicity_and_quasi_periodicity():
    k = kernel_from_r(0.7)
    z = 0.52 + 0.61j
    p = wp(k, z)
    assert abs(wp(k, z + 2 * k.omega) - p) <= 1e-10 * max(1, abs(p))
    assert abs(wp(k, z + 2 * k.omega_p) - p) <= 1e-10 * max(1, abs(p))
    zt = wzeta(k, z)
    assert abs(wzeta(k, z + 2 * k.omega_p) - zt - 2 * k.eta_p) <= 1e-11
    assert abs(wzeta(k, z + 2 * k.omega) - zt - 2 * k.eta) <= 1e-11


def test_zeta_derivative_is_minus_wp():
    k = kernel_from_r(0.55)
    z = 0.4 + 0.5j
    h = 1e-5
    fd = (wzeta(k, z + h) - wzeta(k, z - h)) / (2 * h)
    assert abs(fd + wp(k, z)) < 1e-8 * max(1.0, abs(wp(k, z)))


def test_domega_p_dr_matches_finite_difference():
    r = 0.6
    h = 5e-6
    analytic = domega_p_dr(kernel_from_r(r))
    fd = (kernel_from_r(r + h).omega_p - kernel_from_r(r - h).omega_p) / (2 * h)
    assert abs(analytic - fd) <= 1e-6 * abs(fd)


def test_curve_consistency():
    k = kernel_from_r(0.65)
    r = k.r
    for z in (0.3 + 0.2j, 0.9 + 0.8j, 1.2 + 0.3j):
        p, dp, _ = wp_all(k, z)
        lam_h = k.e3 - p
        nu_h = 0.5 * dp
        res = nu_h ** 2 + lam_h * (lam_h + r) * (lam_h + 1.0 / r)
        assert abs(res) <= 1e-9 * max(1.0, abs(nu_h) ** 2)


def test_degenerate_closed_forms():
    k = kernel_from_r(1.0)
    z = 0.7 + 0.3j
    assert abs(wp(k, z) - (1 / 3 + 1 / np.sinh(z) ** 2)) < 1e-14
    assert abs(wzeta(k, z) - (-z / 3 + np.cosh(z) / np.sinh(z))) < 1e-14


@pytest.mark.parametrize("x", [150.0, 250.0, 400.0, 800.0, 1e300])
def test_degenerate_overflow_raises_no_warning(x):
    # at r = 1, sin(v)^2 overflows past Re z = 355; the NaN values there are
    # for the callers' checks to report, with no warning and no OverflowError
    k = kernel_from_r(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wp_all(k, x + 0.3j)
        wp_small(k, x + 0.3j)


def test_branch_values():
    k = kernel_from_r(0.5)
    assert abs(wp(k, k.omega_p) - k.e3) < 1e-12      # lam_h = 0 there
    assert abs(wp(k, k.omega + k.omega_p) - k.e2) < 1e-12
    lam_h = k.e3 - wp(k, k.omega + k.omega_p)
    assert abs(lam_h + 0.5) < 1e-12                  # -r at z = omega + omega'


def test_pole_error():
    k = kernel_from_r(0.5)
    with pytest.raises(PoleError):
        wp(k, 0.0)
    with pytest.raises(PoleError):
        wp(k, 2 * k.omega + 1e-10)
    kd = kernel_from_r(1.0)
    with pytest.raises(PoleError):
        wp(kd, 1j * math.pi)


def test_agm_stops_when_the_pair_repeats(monkeypatch):
    # 39 of these 200 r values settle on two adjacent floats, which a stop
    # rule of |a - b| <= 1e-17 |a| ran for all 64 iterations
    from sgtori import weierstrass
    mp = pytest.importorskip("mpmath").mp
    calls = []

    def sqrt(x):
        calls.append(x)
        return math.sqrt(x)

    monkeypatch.setattr(weierstrass, "math", types.SimpleNamespace(sqrt=sqrt))
    rng = np.random.default_rng(3)
    for r in 10.0 ** rng.uniform(-6.0, 0.0, 200):
        a, b = 1.0 / math.sqrt(r), math.sqrt(r)
        calls.clear()
        m = weierstrass.agm(a, b)
        # one square root per step, and one more for the repeated pair
        assert len(calls) <= 9
        with mp.workdps(30):
            ref = float(mp.agm(a, b))
        assert abs(m - ref) <= 1e-15 * m
