"""Weierstrass elliptic functions for the one-parameter rectangular family.

For r in (0, 1] the branch values are

    e3 = -(r + 1/r)/3,   e2 = (2r - 1/r)/3,   e1 = (2/r - r)/3,

with e1 + e2 + e3 = 0, (e1 - e3)(e2 - e3) = 1 and invariants

    g2 = 4/3 (r + 1/r)^2 - 4,   g3 = 8/27 (r + 1/r)^3 - 4/3 (r + 1/r).

The lattice is rectangular: real half-period omega with wp(omega) = e1,
imaginary half-period omega' with wp(omega') = e3.  Both are computed with
the arithmetic-geometric mean,

    omega  = pi / (2 AGM(sqrt(e1 - e3), sqrt(e1 - e2))),
    omega' = i pi / (2 AGM(sqrt(e1 - e3), sqrt(e2 - e3))),

and cross-checked in the tests against direct quadrature of the defining
period integral on nu^2 = -t (t + r)(t + 1/r).  Quasi-periods are
eta = zeta(omega), eta' = zeta(omega'), normalized so that the Legendre
relation reads eta*omega' - eta'*omega = pi i / 2.

Evaluation strategy: truncated Laurent series about 0 after reduction into
the centered period cell, followed by argument doubling with the elliptic
group law (no external special-function dependency).  With u = z^2 the
series are

    wp(z)  = z^-2 + z^2 P(u),   wp'(z) = -2 z^-3 + z Q(u),
    zeta(z) = z^-1 - z^3 R(u),

and P, Q, R are evaluated together by Horner's rule in u, one pass over
three coefficient tuples precomputed when the kernel is built.

The series converges for |z| < r_min = min(2 omega, 2|omega'|) (DLMF 23.9),
and _eval_raw halves the argument until |z| <= 0.35 r_min before it sums,
where the terms fall off like 0.35^(2j).  The tuples hold 27 terms
(c_2..c_28).  Against 55 terms, on seeded points with r log-uniform in
[1e-6, 1): uniform in the disc |z| <= 0.35 r_min (260,000 points), 26 and
27 terms give the same bits and 25 terms change one result; on the rim
|z| = 0.35 r_min (200,000 points), 27 terms give the same bits and 26
change one.

Kernels are immutable and memoised per r (a bounded LRU cache on
kernel_from_r), so a sweep over many points at few values of r builds each
kernel once.  At r = 1 the lattice degenerates (omega = inf) and the
hyperbolic limits

    wp(z) = 1/3 + 1/sinh^2 z,   zeta(z) = -z/3 + coth z,
    omega' = i pi/2,            eta' = -i pi/6

are used instead.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConsistencyError, DomainError, PoleError

# Laurent coefficients c_0..c_28, so 27 Horner terms: enough for the bits
# of 55 terms at |z| <= 0.35 r_min, where _eval_raw sums (module docstring)
_NC = 28


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


def _series_coeffs(g2, g3):
    """Coefficients c_k of wp(z) = z^-2 + sum_{k>=2} c_k z^(2k-2), k = 0.._NC."""
    c = [0.0] * (_NC + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, _NC + 1):
        s = 0.0
        for m in range(2, k - 1):
            s += c[m] * c[k - m]
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    return tuple(c)


def _horner_tuples(c):
    """Reversed coefficients of P, Q, R in u = z^2 (see module docstring):
    P_j = c_{j+2}, Q_j = (2j + 2) c_{j+2}, R_j = c_{j+2}/(2j + 3)."""
    js = range(_NC - 2, -1, -1)
    return (tuple(c[j + 2] for j in js),
            tuple((2 * j + 2) * c[j + 2] for j in js),
            tuple(c[j + 2] / (2 * j + 3) for j in js))


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
    coeffs: tuple = None    # c_0.._NC of the wp series; None at r = 1
    horner: tuple = None    # (P, Q, R) reversed, for _series_eval

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
        raise ConsistencyError(f"invariant g3 overflows at r = {r}") from None
    if r == 1.0:
        return EllipticKernel(r, e1, e2, e3, g2, g3, math.inf, 0.5j * math.pi,
                              None, -1j * math.pi / 6.0)
    omega = math.pi / (2.0 * agm(math.sqrt(e1 - e3), math.sqrt(e1 - e2)))
    omega_p = 1j * math.pi / (2.0 * agm(math.sqrt(e1 - e3), math.sqrt(e2 - e3)))
    coeffs = _series_coeffs(g2, g3)
    horner = _horner_tuples(coeffs)
    if not all(math.isfinite(c) for h in horner for c in h):
        raise ConsistencyError(f"Laurent coefficients not finite at r = {r}")
    k = EllipticKernel(r, e1, e2, e3, g2, g3, omega, omega_p, 0j, 0j, coeffs,
                       horner)
    return replace(k, eta=_eval_raw(k, complex(omega))[2],
                   eta_p=_eval_raw(k, omega_p)[2])


def _series_eval(k, z):
    """(wp, wp', zeta) from the Laurent series; valid well inside the cell."""
    u = z * z
    p = dp = zt = 0j
    for a, b, c in zip(*k.horner):
        p = p * u + a
        dp = dp * u + b
        zt = zt * u + c
    return p * u + 1.0 / u, dp * z - 2.0 / (u * z), 1.0 / z - zt * u * z


def _eval_raw(k, z):
    """(wp, wp', zeta) by series plus argument doubling; no lattice reduction."""
    rmin = min(2.0 * k.omega, 2.0 * abs(k.omega_p))
    target = 0.35 * rmin
    for extra in range(4):
        n = max(0, math.ceil(math.log2(max(abs(z), 1e-300) / target))) + extra
        w = z / (1 << n) if n > 0 else z
        p, dp, zt = _series_eval(k, w)
        ok = True
        for _ in range(n):
            if abs(dp) < 1e-9 * (1.0 + abs(p)) ** 1.5:
                ok = False  # doubling through a near-critical point; dither
                break
            m = (6.0 * p * p - 0.5 * k.g2) / dp
            p2 = 0.25 * m * m - 2.0 * p
            dp = -(dp + m * (p2 - p))
            zt = 2.0 * zt + 0.5 * m
            p = p2
        if ok:
            return p, dp, zt
    return p, dp, zt


def _reduce(k, z):
    """Translate into the centered cell; returns (z0, n1, n2)."""
    n2 = round(z.imag / (2.0 * abs(k.omega_p)))
    n1 = round(z.real / (2.0 * k.omega))
    return z - 2.0 * n1 * k.omega - 2.0 * n2 * k.omega_p, n1, n2


def _eval_degenerate(z, need_zeta):
    """(wp, wp', zeta) of the degenerate lattice (r = 1) from sinh z."""
    # sinh(z)**3 overflows past |Re z| = 236, and the NaN that follows fails
    # the callers' checks, so NumPy's warnings would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        sh = np.sinh(z)
        return (1.0 / 3.0 + 1.0 / sh ** 2, -2.0 * np.cosh(z) / sh ** 3,
                -z / 3.0 + np.cosh(z) / sh if need_zeta else 0j)


def _eval_all(k, z, need_zeta):
    z = complex(z)
    if k.degenerate:
        n = round(z.imag / math.pi)
        z0 = z - 1j * math.pi * n
        if abs(z0) < 1e-8:
            raise PoleError(f"z = {z} is within 1e-8 of a lattice point")
        return _eval_degenerate(z, need_zeta)
    z0, n1, n2 = _reduce(k, z)
    if abs(z0) < 1e-8:
        raise PoleError(f"z = {z} is within 1e-8 of a lattice point")
    p, dp, zt = _eval_raw(k, z0)
    if need_zeta:
        zt = zt + 2.0 * n1 * k.eta + 2.0 * n2 * k.eta_p
    return p, dp, zt


def wp(k, z):
    """Weierstrass wp(z)."""
    return _eval_all(k, z, False)[0]


def wp_prime(k, z):
    """Weierstrass wp'(z)."""
    return _eval_all(k, z, False)[1]


def wzeta(k, z):
    """Weierstrass zeta(z) (quasi-periodic)."""
    return _eval_all(k, z, True)[2]


def wp_all(k, z):
    """(wp, wp', zeta) in one evaluation."""
    return _eval_all(k, z, True)


def wp_small(k, z):
    """(wp, wp', zeta) straight from the series; |z| must be well inside the
    cell.  Used for stable evaluation near the poles of derived quantities."""
    if k.degenerate:
        return _eval_degenerate(z, True)
    return _series_eval(k, complex(z))


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
