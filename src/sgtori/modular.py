"""Lattice reduction to the fundamental domain and the sublattice map.

A lattice Z*w1 + Z*w2 is classified up to rotation-dilation by the reduced
ratio tau in F = {Im tau > 0, |Re tau| <= 1/2, |tau| >= 1}, with the boundary
identifications -1/2 + iy ~ 1/2 + iy and -x + i*sqrt(1-x^2) ~ x + i*sqrt(1-x^2).
The canonical representative uses Re tau = +1/2 and Re tau >= 0 on the arc.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLatticeError, PoleError

_MAX_ITERS = 10_000
_BOUNDARY_EPS = 1e-12


@dataclass(frozen=True)
class ReducedTau:
    tau: complex
    unimodular: tuple  # ((a, b), (c, d)), det = 1, acting as tau -> (a tau + b)/(c tau + d)

    def matrix(self):
        return np.array(self.unimodular, dtype=int)


def _mul(m2, m1):
    (a, b), (c, d) = m2
    (e, f), (g, h) = m1
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def reduce(omega1, omega2):
    """Reduce the lattice Z*omega1 + Z*omega2 to its fundamental-domain tau.

    Returns a ReducedTau whose `unimodular` witness maps the starting ratio
    (omega2/omega1, conjugated or negated first if needed for Im > 0) to the
    reduced point.  Idempotent; raises DegenerateLatticeError for (numerically)
    real ratios.
    """
    omega1, omega2 = complex(omega1), complex(omega2)
    if omega1 == 0 or omega2 == 0:
        raise DegenerateLatticeError("zero generator")
    tau = omega2 / omega1
    if abs(tau.imag) < 1e-12:
        raise DegenerateLatticeError(f"generators nearly parallel: tau = {tau}")
    if tau.imag < 0:
        tau = -tau  # same lattice: negate the second generator
    m = ((1, 0), (0, 1))
    for _ in range(_MAX_ITERS):
        n = round(tau.real)
        if n != 0:
            tau -= n
            m = _mul(((1, -n), (0, 1)), m)
        if abs(tau) < 1.0 - _BOUNDARY_EPS:
            tau = -1.0 / tau
            m = _mul(((0, -1), (1, 0)), m)
        else:
            break
    # canonical boundary representative
    if abs(tau.real + 0.5) < _BOUNDARY_EPS:
        tau += 1.0
        m = _mul(((1, 1), (0, 1)), m)
    if abs(abs(tau) - 1.0) < _BOUNDARY_EPS and tau.real < -_BOUNDARY_EPS:
        tau = -1.0 / tau
        m = _mul(((0, -1), (1, 0)), m)
    return ReducedTau(tau, m)


def _equivalent_representatives(tau, band=1e-9):
    """tau plus its images under the boundary identifications (when near them)."""
    reps = [tau]
    if abs(tau.real - 0.5) < band:
        reps.append(tau - 1.0)
    if abs(tau.real + 0.5) < band:
        reps.append(tau + 1.0)
    if abs(abs(tau) - 1.0) < band:
        reps.append(-1.0 / tau)
    return reps


def lattice_distance(l1, l2, band=1e-6):
    """Distance of two lattices as reduced points of F, respecting the
    boundary identifications (minimum over identified representatives).

    l1, l2 are (omega1, omega2) pairs or complex tau values.
    """
    taus = []
    for l in (l1, l2):
        if isinstance(l, complex) or np.isscalar(l):
            taus.append(reduce(1.0, complex(l)).tau)
        else:
            taus.append(reduce(l[0], l[1]).tau)
    t1, t2 = taus
    return min(abs(a - b)
               for a in _equivalent_representatives(t1, band)
               for b in _equivalent_representatives(t2, band))


def tau_hat(tau_tilde):
    """Conformal class of the index-two sublattice spanned by w1+w2, w2-w1.

    Piecewise Moebius form, continuous across Re = 0 up to the boundary
    identification of F:
        (tau-1)/(tau+1)  for Re tau < 0,
        (1+tau)/(1-tau)  for Re tau >= 0,
    followed by reduction.
    """
    t = complex(tau_tilde)
    if abs(t - 1.0) < 1e-13 or abs(t + 1.0) < 1e-13:
        raise PoleError("tau_tilde at a pole of the sublattice map")
    if t.real < 0.0:
        h = (t - 1.0) / (t + 1.0)
    else:
        h = (1.0 + t) / (1.0 - t)
    return reduce(1.0, h).tau
