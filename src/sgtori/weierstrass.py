"""Weierstrass elliptic functions for the one-parameter rectangular family.

For r in (0, 1] the branch values are

    e3 = -(r + 1/r)/3,   e2 = (2r - 1/r)/3,   e1 = (2/r - r)/3,

with e1 + e2 + e3 = 0, (e1 - e3)(e2 - e3) = 1 and invariants

    g2 = 4/3 (r + 1/r)^2 - 4,   g3 = 8/27 (r + 1/r)^3 - 4/3 (r + 1/r).

The lattice is rectangular: real half-period omega with wp(omega) = e1,
imaginary half-period omega' with wp(omega') = e3.  Both are computed with
the arithmetic-geometric mean of the square roots of e1 - e3 = 1/r,
e1 - e2 = 1/r - r and e2 - e3 = r,

    omega  = pi / (2 AGM(1/sqrt r, sqrt(1/r - r))),
    omega' = i pi / (2 AGM(1/sqrt r, sqrt r)),

written in r because the differences of the e_i lose digits near r = 0 and
r = 1 (at r = 1e-4, 1e-10 of omega'), and cross-checked in the tests
against direct quadrature of the defining period integral on
nu^2 = -t (t + r)(t + 1/r).  Quasi-periods are
eta = zeta(omega), eta' = zeta(omega'), normalized so that the Legendre
relation reads eta*omega' - eta'*omega = pi i / 2.

Evaluation: after reduction into the centered period cell, the nome
(q-)series of DLMF 23.8 (https://dlmf.nist.gov/23.8) about the shorter
half-period omega1, which is omega for r < 1/sqrt 2 and omega' above, with
omega3 = -omega there.  With c = pi/(2 omega1), v = c z, the nome
q = exp(i pi omega3/omega1) and a_n = q^2n/(1 - q^2n),

    wp(z)   = -eta1/omega1 + c^2 (csc^2 v - 8 sum n a_n cos 2nv),
    wp'(z)  = c^3 (-2 cot v csc^2 v + 16 sum n^2 a_n sin 2nv),
    zeta(z) = eta1 z/omega1 + c (cot v + 4 sum a_n sin 2nv),
    eta1    = (pi^2/(12 omega1)) (1 - 24 sum n a_n).

The shorter half-period makes q real with 0 <= q <= exp(-pi), and in the
centered cell |e^{2iv}| <= 1/q, so term n is at most n^2 q^n of the leading
one.  The sums keep the terms down to n^2 q^n < 1e-17: 14 at the square
lattice, fewer on either side.  The sums run by Horner's rule in e^{2iv}
and e^{-2iv} over one tuple of coefficients; cot v and csc^2 v come from
sin v, which keeps their digits near z = 0.

At r = 1 the lattice degenerates: omega = inf, omega1 = omega' = i pi/2
and q = 0, so the sums are empty and the formulas are exactly

    wp(z) = 1/3 + 1/sinh^2 z,   zeta(z) = -z/3 + coth z,   eta' = -i pi/6.

Past |Im v| = 355, where sin(v)^2 overflows (far along the real axis at
r = 1), the values are NaN, for the callers' checks to report.

Kernels are immutable and memoised per r (a bounded LRU cache on
kernel_from_r), so a sweep over many points at few values of r builds each
kernel once.
"""

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DomainError, PoleError

_NAN3 = (complex(math.nan, math.nan),) * 3


def agm(a, b):
    """Arithmetic-geometric mean of two positive floats.

    The iteration stops when it maps (a, b) to itself: a == b, or a pair of
    adjacent floats that the rounded means leave in place.  It takes at most
    8 steps for AGM(1/sqrt(r), sqrt(r)), r in [1e-6, 1]; 64 bounds it.
    """
    for _ in range(64):
        nxt = 0.5 * (a + b), math.sqrt(a * b)
        if nxt == (a, b):
            break
        a, b = nxt
    return 0.5 * (a + b)


def _nome_terms(q):
    """(a_n, n a_n, n^2 a_n) for n = N..1 (Horner order), N the last n with
    n^2 q^n >= 1e-17: 14 at q = exp(-pi), none at q = 0."""
    terms = []
    n = 1
    while n * n * q ** n >= 1e-17:
        a = q ** (2 * n) / (1.0 - q ** (2 * n))
        terms.append((a, n * a, n * n * a))
        n += 1
    return tuple(reversed(terms))


@dataclass(frozen=True)
class EllipticKernel:
    r: float
    e1: float
    e2: float
    e3: float
    g2: float
    g3: float
    omega: float            # real half-period; inf at r = 1
    omega_p: complex        # imaginary half-period
    eta: complex            # zeta(omega); None at r = 1
    eta_p: complex          # zeta(omega')
    c: complex              # pi/(2 omega1), omega1 the shorter half-period
    eta1: complex           # zeta(omega1), from the nome series
    terms: tuple            # (a_n, n a_n, n^2 a_n), n = N..1; empty at r = 1

    @property
    def degenerate(self):
        return not math.isfinite(self.omega)


@functools.lru_cache(maxsize=256)
def kernel_from_r(r):
    """Branch values, invariants, half-periods and quasi-periods at parameter r.

    Memoised per r; the returned kernel is immutable and shared."""
    if not (0.0 < r <= 1.0):
        raise DomainError(f"r must lie in (0, 1], got {r}")
    s = r + 1.0 / r
    e3 = -s / 3.0
    e2 = (2.0 * r - 1.0 / r) / 3.0
    e1 = (2.0 / r - r) / 3.0
    g2 = (4.0 / 3.0) * s * s - 4.0
    try:
        g3 = (8.0 / 27.0) * s ** 3 - (4.0 / 3.0) * s
    except OverflowError:
        g3 = math.inf
    if not math.isfinite(g3):
        raise ConsistencyError(f"invariant g3 overflows at r = {r}")
    sr = math.sqrt(r)
    s12 = math.sqrt((1.0 - r) * (1.0 + r) / r)          # sqrt(e1 - e2)
    omega = math.pi / (2.0 * agm(1.0 / sr, s12)) if r < 1.0 else math.inf
    omega_p = 1j * math.pi / (2.0 * agm(1.0 / sr, sr))
    # the nome series about the shorter half-period omega1
    if omega < abs(omega_p):
        omega1 = complex(omega)
        q = math.exp(-math.pi * abs(omega_p) / omega)
    else:
        omega1 = omega_p
        q = math.exp(-math.pi * omega / abs(omega_p))      # 0 at r = 1
    terms = _nome_terms(q)
    eta1 = (math.pi ** 2 / (12.0 * omega1)
            * (1.0 - 24.0 * sum(na for _, na, _ in terms)))
    k = EllipticKernel(r, e1, e2, e3, g2, g3, omega, omega_p, None, 0j,
                       math.pi / (2.0 * omega1), eta1, terms)
    return replace(k, eta=_series(k, complex(omega))[2] if r < 1.0 else None,
                   eta_p=_series(k, omega_p)[2])


def _series(k, z):
    """(wp, wp', zeta) from the nome series; no lattice reduction."""
    c = k.c
    v = c * z
    if abs(v.imag) > 355.0:
        # sin(v)^2 overflows (far along the real axis at r = 1); NaN rather
        # than cmath's OverflowError, which leaves errno set behind it
        return _NAN3
    sin = cmath.sin(v)
    cot = cmath.cos(v) / sin
    csc2 = 1.0 / (sin * sin)
    # P(x) = sum n a_n x^n, Q(x) = sum n^2 a_n x^n and R(x) = sum a_n x^n
    # at x = w and 1/w, w = e^{2iv}: 2 cos 2nv = w^n + w^-n and
    # 2i sin 2nv = w^n - w^-n
    p1 = p2 = q1 = q2 = r1 = r2 = 0j
    if k.terms:
        w = cmath.exp(2j * v)
        wi = 1.0 / w
        for a, na, n2a in k.terms:
            p1 = (p1 + na) * w
            p2 = (p2 + na) * wi
            q1 = (q1 + n2a) * w
            q2 = (q2 + n2a) * wi
            r1 = (r1 + a) * w
            r2 = (r2 + a) * wi
    h = k.eta1 * c * (2.0 / math.pi)      # eta1/omega1
    return (c * c * (csc2 - 4.0 * (p1 + p2)) - h,
            c * c * c * (-2.0 * cot * csc2 - 8j * (q1 - q2)),
            h * z + c * (cot - 2j * (r1 - r2)))


def _eval_all(k, z):
    """(wp, wp', zeta) after translation into the centered cell; at r = 1,
    where omega = inf, only omega' translates."""
    z = complex(z)
    n1 = round(z.real / (2.0 * k.omega))
    n2 = round(z.imag / (2.0 * abs(k.omega_p)))
    z0 = z - 2.0 * n2 * k.omega_p
    if n1:
        z0 -= 2.0 * n1 * k.omega
    if abs(z0) < 1e-8:
        raise PoleError(f"z = {z} is within 1e-8 of a lattice point")
    p, dp, zt = _series(k, z0)
    if n1:
        zt += 2.0 * n1 * k.eta
    if n2:
        zt += 2.0 * n2 * k.eta_p
    return p, dp, zt


def wp(k, z):
    """Weierstrass wp(z)."""
    return _eval_all(k, z)[0]


def wp_prime(k, z):
    """Weierstrass wp'(z)."""
    return _eval_all(k, z)[1]


def wzeta(k, z):
    """Weierstrass zeta(z) (quasi-periodic)."""
    return _eval_all(k, z)[2]


def wp_all(k, z):
    """(wp, wp', zeta) in one evaluation."""
    return _eval_all(k, z)


def wp_small(k, z):
    """(wp, wp', zeta) by the same series without lattice reduction, for z
    in the centered cell.  Used for stable evaluation near the poles of
    derived quantities."""
    return _series(k, complex(z))


def domega_p_dr(k):
    """d omega'/dr in closed form: (2 eta' - omega' e3) / (2 (1 - r^2))."""
    if k.degenerate:
        raise DomainError("derivative formula requires r < 1")
    return (2.0 * k.eta_p - k.omega_p * k.e3) / (2.0 * (1.0 - k.r ** 2))


def omega_p_quadrature(r, n=160):
    """omega' by direct quadrature of the period integral on the branch cut.

    With t = u^2 the integrand is smooth:
    omega' = i * 2 * integral_0^1 2 du / sqrt((u^2+r)(u^2+1/r)),
    using the t -> 1/t symmetry to fold [1, inf) onto (0, 1].
    """
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    f = 1.0 / np.sqrt((u * u + r) * (u * u + 1.0 / r))
    return 1j * float(np.sum(w * f))


def legendre_defect(k):
    """|eta*omega' - eta'*omega - i pi/2| (zero in exact arithmetic, r < 1)."""
    if k.degenerate:
        raise DomainError("Legendre relation requires r < 1")
    return abs(k.eta * k.omega_p - k.eta_p * k.omega - 0.5j * math.pi)
