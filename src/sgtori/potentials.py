"""Degree-three matrix potentials, their spectral quartic and its stratification.

A potential is the traceless 2x2 matrix polynomial

    zeta(lam) = [[ A(lam),            B(lam)     ],
                 [ lam*C(lam),       -A(lam)     ]],

    A = alpha*lam - conj(alpha)*lam^2,
    B = -1/gamma + beta*lam - gamma*lam^2,
    lam*C = gamma*lam - conj(beta)*lam^2 + lam^3/gamma,

with alpha, beta complex and gamma > 0.  Its determinant factors as
det zeta = lam * a(lam) with the self-inversive quartic

    a(lam) = lam^4 + a1*lam^3 + a2*lam^2 + conj(a1)*lam + 1,
    a1 = -conj(alpha)^2 - beta/gamma - conj(beta)*gamma,
    a2 = 2|alpha|^2 + |beta|^2 + gamma^2 + gamma^-2.

Admissible quartics satisfy lam^-2 a(lam) >= 0 on the unit circle; they split
into five strata by root multiplicities and position relative to |lam| = 1.
"""

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (AmbiguousRootError, ClassError, ConsistencyError,
                     DomainError, MembershipError)


class SpectralClass(Enum):
    M21 = "M2_1"   # four distinct simple roots off the unit circle
    M22 = "M2_2"   # one double root on the circle, two simple roots off it
    M23 = "M2_3"   # two distinct double roots on the circle
    M24 = "M2_4"   # one fourth-order root on the circle
    M25 = "M2_5"   # two distinct double roots off the circle


@dataclass(frozen=True)
class Potential:
    alpha: complex
    beta: complex
    gamma: float

    def __post_init__(self):
        if not (self.gamma > 0.0) or not np.isfinite(self.gamma):
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    def to_json_dict(self):
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "beta": [self.beta.real, self.beta.imag],
            "gamma": self.gamma,
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(complex(*d["alpha"]), complex(*d["beta"]), float(d["gamma"]))


@dataclass(frozen=True)
class SpectralPoint:
    """Point (lam, nu) of the spectral curve nu^2 + lam*a(lam) = 0."""
    lam: complex
    nu: complex


@dataclass(frozen=True)
class SpectralQuartic:
    a1: complex
    a2: float
    roots: tuple = ()           # ((root, multiplicity), ...)
    cls: SpectralClass = None

    def coeffs(self):
        """Monic coefficient vector, highest power first."""
        return np.array([1.0, self.a1, self.a2, np.conj(self.a1), 1.0],
                        dtype=complex)

    def __call__(self, lam):
        return np.polyval(self.coeffs(), lam)

    def to_json_dict(self):
        return {
            "a1": [self.a1.real, self.a1.imag],
            "a2": self.a2,
            "class": self.cls.value if self.cls is not None else None,
            "roots": [[r.real, r.imag, int(m)] for r, m in self.roots],
        }


def eval_zeta(p, lam):
    """Evaluate the potential matrix at a spectral parameter value."""
    lam = complex(lam)
    a = p.alpha * lam - np.conj(p.alpha) * lam ** 2
    b = -1.0 / p.gamma + p.beta * lam - p.gamma * lam ** 2
    c = p.gamma * lam - np.conj(p.beta) * lam ** 2 + lam ** 3 / p.gamma
    return np.array([[a, b], [c, -a]], dtype=complex)


def u_matrix(p, lam):
    a, g = p.alpha, p.gamma
    d = 0.5 * (a - np.conj(a))
    return np.array([[d, -1.0 / (g * lam) - g], [g + lam / g, -d]], dtype=complex)


def v_matrix(p, lam):
    a, g = p.alpha, p.gamma
    d = 0.5 * (a + np.conj(a))
    return 1j * np.array([[d, -1.0 / (g * lam) + g], [g - lam / g, -d]],
                         dtype=complex)


def spectral_poly(p):
    """Quartic of det zeta = lam*a(lam); verified against the determinant."""
    try:
        # a2 bounds every term of a1, so a1 is finite when a2 is
        a2 = (2.0 * abs(p.alpha) ** 2 + abs(p.beta) ** 2
              + p.gamma ** 2 + p.gamma ** -2)
    except OverflowError:
        raise DomainError("potential too large or gamma too small: the "
                          "spectral quartic overflows") from None
    a1 = -np.conj(p.alpha) ** 2 - p.beta / p.gamma - np.conj(p.beta) * p.gamma
    q = SpectralQuartic(a1, float(a2))
    # cheap consistency check at a handful of sample values
    for lam in (1.0, -1.0, 1j, 0.5 + 0.5j, 2.0):
        det = np.linalg.det(eval_zeta(p, lam))
        ref = lam * q(lam)
        if abs(det - ref) > 1e-9 * (1.0 + abs(lam) ** 5):
            raise ConsistencyError("determinant/coefficient mismatch")
    return q


def unit_circle_values(q, n=256):
    """lam^-2 a(lam) on an n-point grid of the unit circle (real by symmetry)."""
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    lam = np.exp(1j * th)
    v = q(lam) / lam ** 2
    return th, v


def _circle_value(coeffs, t):
    """lam^-2 a(lam) at lam = e^{it}: Horner's rule on the coefficients
    (Python complex numbers, highest power first) at one Python float t."""
    lam = cmath.exp(1j * t)
    v = 0j
    for c in coeffs:
        v = v * lam + c
    return v * cmath.exp(-2j * t)


def check_membership(q, tol=1e-10):
    """Raise MembershipError unless lam^-2 a(lam) >= -tol on the unit circle.

    A 256-point grid scan plus a 40-step golden-section refinement around
    the grid minimum, on Python scalars.
    """
    th, v = unit_circle_values(q)
    vr = v.real
    i = int(np.argmin(vr))
    # refine the minimum on the circle with a short golden-section search
    ti = float(th[i])
    lo, hi = ti - 2 * np.pi / 256, ti + 2 * np.pi / 256
    coeffs = q.coeffs().tolist()
    f = lambda t: _circle_value(coeffs, t).real
    for _ in range(40):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    vmin = min(vr[i], f(0.5 * (lo + hi)))
    scale = max(1.0, float(np.max(np.abs(vr))))
    if vmin < -tol * scale:
        raise MembershipError(
            f"min of lam^-2 a(lam) on the circle is {vmin:.3e} < -tol")
    return vmin


def _newton(coeffs, r, iters, dcoeffs=None):
    dp = np.polyder(coeffs) if dcoeffs is None else dcoeffs
    for _ in range(iters):
        d = np.polyval(dp, r)
        if abs(d) < 1e-9:
            break
        step = np.polyval(coeffs, r) / d
        r = r - step
        if abs(step) < 1e-16 * max(1.0, abs(r)):
            break
    return r


def classify(q, tol=1e-8):
    """Root-find a(lam), resolve multiplicities, and assign the stratum.

    Roots come from the companion matrix (np.roots).  Multiplicity decisions
    are made on measured pair distances with a floor calibrated to the
    floating-point scatter of repeated roots (clean double roots of a monic
    quartic scatter by ~1e-7 at most, while genuinely split pairs are located
    to ~1e-9), refined by critical-point Newton polishing: a fourth-order
    root is the zero of a''' and a double root a zero of a'.  Pair distances
    inside (thr, 2*thr) raise AmbiguousRootError.  The returned roots satisfy
    the pairing lam <-> 1/conj(lam) exactly (partners averaged, circle roots
    projected to |lam| = 1).
    """
    check_membership(q, tol=max(1e-10, min(tol, 1e-6)))
    coeffs = q.coeffs()
    dp1 = np.polyder(coeffs)
    dp2 = np.polyder(dp1)
    raw = list(np.roots(coeffs))

    thr = max(10.0 * tol, 4e-7)
    circ_tol = max(10.0 * tol, 1e-7)

    clusters = []  # (position, multiplicity)

    # fourth-order candidate: the critical point of a''' is -a1/4
    mu4 = -q.a1 / 4.0
    scatter4 = max(abs(r - mu4) for r in raw)
    if scatter4 <= 5e-3 * max(1.0, abs(mu4)):
        implied = np.sqrt(abs(np.polyval(dp2, mu4)) / 12.0)
        if implied <= thr * max(1.0, abs(mu4)):
            clusters = [(mu4, 4)]
        elif implied <= 2.0 * thr * max(1.0, abs(mu4)):
            raise AmbiguousRootError(
                f"fourth-order decision unstable: implied split {implied:.2e}")

    if not clusters:
        # greedy smallest-distance pairing for double roots
        rem = list(raw)
        while rem:
            if len(rem) == 1:
                clusters.append((_newton(coeffs, rem.pop(), 4), 1))
                continue
            best = None
            for i in range(len(rem)):
                for j in range(i + 1, len(rem)):
                    d = abs(rem[i] - rem[j])
                    if best is None or d < best[0]:
                        best = (d, i, j)
            d, i, j = best
            scale = max(1.0, abs(rem[i]))
            if d <= thr * scale:
                mu = _newton(dp1, 0.5 * (rem[i] + rem[j]), 12, dcoeffs=dp2)
                clusters.append((mu, 2))
                rem = [r for k, r in enumerate(rem) if k not in (i, j)]
            elif d <= 2.0 * thr * scale:
                raise AmbiguousRootError(
                    f"pair distance {d:.2e} inside the ambiguity band around "
                    f"threshold {thr * scale:.2e}")
            else:
                clusters.append((_newton(coeffs, rem.pop(i), 4), 1))

    on_circle = [abs(abs(m) - 1.0) <= circ_tol for m, _ in clusters]

    # enforce the lam <-> 1/conj(lam) pairing exactly
    fixed = [None] * len(clusters)
    for i, ((m, mult), oc) in enumerate(zip(clusters, on_circle)):
        if fixed[i] is not None:
            continue
        if oc:
            fixed[i] = m / abs(m)
            continue
        best, bd = None, np.inf
        for j, (mj, multj) in enumerate(clusters):
            if j == i or fixed[j] is not None or multj != mult:
                continue
            d = abs(mj - 1.0 / np.conj(m))
            if d < bd:
                best, bd = j, d
        if best is None or bd > 1e-5 * max(1.0, abs(m)) ** 2:
            raise MembershipError("roots do not pair under lam -> 1/conj(lam)")
        avg = 0.5 * (m + 1.0 / np.conj(clusters[best][0]))
        fixed[i] = avg
        fixed[best] = 1.0 / np.conj(avg)

    mults = [mult for _, mult in clusters]
    pairs = sorted(zip(fixed, mults, on_circle),
                   key=lambda t: (-t[1], abs(t[0]), t[0].real, t[0].imag))
    mult_sig = sorted(mults, reverse=True)
    n_on = sum(mult for (_, mult), oc in zip(clusters, on_circle) if oc)

    if mult_sig == [1, 1, 1, 1] and n_on == 0:
        cls = SpectralClass.M21
    elif mult_sig == [2, 1, 1] and n_on == 2:
        cls = SpectralClass.M22
    elif mult_sig == [2, 2] and n_on == 4:
        cls = SpectralClass.M23
    elif mult_sig == [4] and n_on == 4:
        cls = SpectralClass.M24
    elif mult_sig == [2, 2] and n_on == 0:
        cls = SpectralClass.M25
    else:
        raise MembershipError(
            f"root configuration {mult_sig} with {n_on} circle roots is not "
            "an admissible stratum")
    roots = tuple((complex(f), int(m)) for f, m, _ in pairs)
    return SpectralQuartic(q.a1, q.a2, roots=roots, cls=cls)


def quartic_from_roots(roots):
    """Build a SpectralQuartic from four roots (with multiplicity expanded)."""
    c = np.poly(np.asarray(roots, dtype=complex))
    if abs(c[4] - 1.0) > 1e-8:
        raise DomainError("product of roots must be 1 (a(0) = 1)")
    a1 = complex(c[1])
    a2 = complex(c[2])
    if abs(a2.imag) > 1e-10 * max(1.0, abs(a2)):
        raise DomainError("lam^2 coefficient must be real")
    if abs(np.conj(a1) - c[3]) > 1e-8 * max(1.0, abs(a1)):
        raise DomainError("roots are not closed under lam -> 1/conj(lam)")
    return SpectralQuartic(a1, a2.real)


def fixed_point_potential(q):
    """The unique stationary potential for a quartic with unital double roots.

    For a = ((lam - l1)(lam - l2))^2 with l1*l2 = 1 the stationary potential is
    off-diagonal with gamma = 1 and B(lam) = -(lam - l1)(lam - l2), hence
    beta = l1 + l2.
    """
    if q.cls not in (SpectralClass.M23, SpectralClass.M24):
        raise ClassError("fixed point exists only for the double-double strata")
    doubles = [r for r, m in q.roots if m >= 2]
    if q.cls is SpectralClass.M24:
        l1 = doubles[0]
        l1 = l1 / abs(l1)
        beta = l1 + 1.0 / l1
    else:
        l1, l2 = doubles
        beta = l1 + l2
    if abs(beta.imag) < 1e-12:
        beta = complex(beta.real, 0.0)
    return Potential(0.0, beta, 1.0)


def off_diagonal_points(q):
    """The four off-diagonal potentials in the level set of a genus-two quartic.

    Each one distributes the four roots of a(lam) into the root pairs of the
    off-diagonal entries, respecting the pairing: B picks one member (u, v)
    of each pair, C gets (1/conj(u), 1/conj(v)); then gamma^2 = 1/(u v) and
    beta = gamma*(u + v).  Circle positivity forces u*v to be real positive.
    """
    if q.cls is not SpectralClass.M21:
        raise ClassError("off-diagonal enumeration requires four simple roots")
    inside = [r for r, _ in q.roots if abs(r) < 1.0]
    if len(inside) != 2:
        raise ClassError("expected exactly two roots inside the unit disc")
    a1, a2 = inside
    out = []
    for u in (a1, 1.0 / np.conj(a1)):
        for v in (a2, 1.0 / np.conj(a2)):
            uv = u * v
            if abs(uv.imag) > 1e-8 * abs(uv) or uv.real <= 0.0:
                raise ConsistencyError("pair product not real positive")
            gamma = 1.0 / np.sqrt(uv.real)
            beta = gamma * (u + v)
            out.append(Potential(0.0, beta, gamma))
    return out


def resultant_bc(p):
    """Resultant of the two off-diagonal entry polynomials of a potential."""
    b, g = p.beta, p.gamma
    bb = np.conj(b)
    return (b ** 2 + bb ** 2 - b * bb * (g ** 2 + g ** -2)
            + g ** 4 + g ** -4 - 2.0)
