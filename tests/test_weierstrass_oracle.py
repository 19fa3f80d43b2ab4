"""Independent oracle for the Weierstrass layer.

The reference values come from Jacobi theta functions at 30 digits
(DLMF 23.6, https://dlmf.nist.gov/23.6), with the half-periods from complete
elliptic integrals.  Nothing here uses the package except the functions
under test.  With v = pi z / (2 omega), tau = omega'/omega and
q = exp(i pi tau),

    zeta(z) = eta z/omega + (pi/(2 omega)) theta_1'(v)/theta_1(v),
    eta     = -(pi^2/(12 omega)) theta_1'''(0)/theta_1'(0),

and wp = -zeta', wp' = -zeta''.  For this family e1 - e3 = 1/r and
e2 - e3 = r, so the modulus is k = r:

    omega = sqrt(r) K(r^2),    omega' = i sqrt(r) K(1 - r^2).
"""

import functools

import pytest

mpmath = pytest.importorskip("mpmath")
special = pytest.importorskip("scipy.special")

from sgtori.weierstrass import kernel_from_r, wp_all  # noqa: E402

RS = (1e-4, 1e-3, 0.01, 0.05, 0.3, 0.7, 0.99, 0.9999)
# points in units of (omega, |omega'|): inside the centred cell, next to the
# half-periods omega + omega', omega' and omega, then outside
UNITS = ((0.13, 0.07), (0.4, -0.3), (-0.7, 0.55), (0.9, 0.9),
         (0.999, 0.999), (-0.98, 0.995), (0.001, 0.999), (0.02, -0.98),
         (0.999, 0.001), (-0.995, 0.03),
         (1.6, 0.2), (-2.3, 1.4), (3.7, -2.6))
RTOL = 1e-12

def _oracle(r):
    """(omega, omega', eta, eta', f) with f(z) -> (wp, wp', zeta), all mpf/mpc."""
    mp = mpmath.mp
    r = mpmath.mpf(r)
    omega = mpmath.sqrt(r) * mpmath.ellipk(r * r)
    omega_p = 1j * mpmath.sqrt(r) * mpmath.ellipk(1 - r * r)
    q = mpmath.exp(1j * mp.pi * omega_p / omega)
    s = mp.pi / (2 * omega)

    def th(v, n):
        return mpmath.jtheta(1, v, q, derivative=n)

    eta = -(mp.pi ** 2 / (12 * omega)) * th(0, 3) / th(0, 1)

    def f(z):
        v = s * z
        t0, t1, t2, t3 = (th(v, n) for n in range(4))
        lg = t1 / t0                         # d/dv log theta_1
        dlg = t2 / t0 - lg ** 2              # its first v-derivative
        d2lg = t3 / t0 - 3 * t2 * t1 / t0 ** 2 + 2 * lg ** 3
        zeta = eta * z / omega + s * lg
        return -eta / omega - s ** 2 * dlg, -s ** 3 * d2lg, zeta

    eta_p = f(omega_p)[2]
    return omega, omega_p, eta, eta_p, f


def _close(got, want, scale=1.0):
    want = complex(want)
    return abs(complex(got) - want) <= RTOL * max(1.0, abs(want), scale)


QUANTITIES = ("wp", "wp'", "zeta")


def _scale(r, i):
    """Below r = 0.05, wp' vanishes at the half-periods next to terms of size
    e1^(3/2), so errors there are measured against e1^(m/2), m = 2, 3, 1 the
    order of the pole of wp, wp', zeta."""
    if r >= 0.05:
        return 1.0
    e1 = (2.0 / r - r) / 3.0
    return e1 ** ((2, 3, 1)[i] / 2)


def _cases():
    for r in RS:
        for i, name in enumerate(QUANTITIES):
            yield pytest.param(r, i, id=f"{r}-{name}")


@functools.lru_cache(maxsize=None)
def _values(r):
    """(package value, oracle value) triples at each point of UNITS."""
    with mpmath.workdps(30):
        omega, omega_p, _, _, f = _oracle(r)
        k = kernel_from_r(r)
        out = []
        for a, b in UNITS:
            z = a * omega + b * omega_p
            out.append((wp_all(k, complex(z)), tuple(complex(w) for w in f(z))))
        return out


@pytest.mark.parametrize("r, i", _cases())
def test_wp_wp_prime_zeta_against_theta_functions(r, i):
    for ab, (got, want) in zip(UNITS, _values(r)):
        assert _close(got[i], want[i], _scale(r, i)), (ab, got[i], want[i])


@pytest.mark.parametrize("r", RS)
def test_half_periods_and_quasi_periods_against_theta_functions(r):
    with mpmath.workdps(30):
        omega, omega_p, eta, eta_p, _ = _oracle(r)
        k = kernel_from_r(r)
        assert _close(k.omega, omega)
        assert _close(k.omega_p, omega_p)
        assert _close(k.eta, eta)
        assert _close(k.eta_p, eta_p)


@pytest.mark.parametrize("r", RS)
def test_omega_against_scipy_ellipk(r):
    want = r ** 0.5 * float(special.ellipk(r * r))
    assert abs(kernel_from_r(r).omega - want) <= RTOL * want
