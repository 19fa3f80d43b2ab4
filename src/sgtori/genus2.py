"""Numerical period lattices on the genus-two spectral curve nu^2 = -lam a(lam).

For a quartic with four distinct simple roots off the unit circle the curve
compactifies to a genus-two surface branched over the roots, 0 and infinity.
Cycles are realized as capsule contours (stadium-shaped tubes around a chord,
bulged onto a circular arc when a forbidden branch point sits on the chord):

    A_i : around the root pair {alpha_i, 1/conj(alpha_i)},
    B_1 : around {0, alpha_1},
    B_2 : around {alpha_1, alpha_2} (or {0, alpha_2} if the chord is blocked).

A_1, A_2, B_1, B_2 span the homology of the compactified curve over Z
(consecutive-cut basis), so the lattice

    Gamma = {w : A-integrals of d ln mu_w vanish, B-periods in 2 pi i Z}

is exactly the period lattice; the generator labels differ from other cycle
conventions by a unimodular change, which the fundamental-domain reduction
removes.  d ln mu_w = b_w(lam)/(2 nu) dlam/lam with the unique

    b_w = w - conj(w) lam^3 + beta1 (lam - lam^2) + i beta2 (lam + lam^2)

whose A-integrals vanish (a real 2x2 linear system; the A-integrals of all
admissible integrands are real, the B-integrals purely imaginary).

Quadrature: per-piece Gauss-Legendre panels, subdivided geometrically so the
panel length stays below half the distance to the nearest branch point, with
a full panel-doubling self-convergence pass.  The square root is tracked by
nearest-value continuation along the ordered nodes, computed in one pass as a
parity rule: the principal root r_i changes sign against its predecessor
exactly where |r_i - r_{i-1}| > |r_i + r_{i-1}|, so the branch carries the
sign (-1)^(number of such flips so far).

Every integrand is b(lam)/(2 nu lam) with b cubic, so every A- and B-integral
is a linear combination of the sixteen moments of lam^k/(2 nu lam) dlam,
k = 0..3, over A1, A2, B1, B2.  `period_table` computes them with one
quadrature per cycle; the solve for b_w, the B-period map, the residual
checks and the monodromy signs are linear algebra on that table.  Each
capsule is checked by its winding numbers about the two enclosed and the
excluded branch points, in closed form: the change of arg(lam - pt) summed
over the capsule's segments and arcs, no sample taken.  Its distance to the
branch points is exact too, and the quadrature nodes of each piece come
from one evaluation on all its panels.

Monodromy signs (`mu_at_roots`) continue ln mu from the puncture at 0 to each
root.  The path starts at a base point lam0 with |lam0| = 0.04, in the
direction farthest from the roots, and runs over straight legs to a point at
distance rho of the root, bent round the other roots and 0.  Every obstacle
keeps a clearance min(0.3 |root|, 0.4 sep) (sep the least root separation),
except one nearer lam0 than that, the puncture, which keeps half its
distance to lam0: a leg from lam0 could never clear more.  A pass bends each
leg that comes too close round its worst obstacle, and the path is done
after a pass that changes nothing; on every draw of
perfbench/g2_potentials.json that takes one or two legs.  A path still too close after 16 passes raises
PathIntegrationError.  The short first leg out of the puncture is shared by
the four roots and integrated once; the last leg into each root takes the
same parity rule panel to panel, in one pass.  The signs do not depend on
the path: another homotopy class changes ln mu by B-periods in 2 pi i Z, or
negates it on the other sheet.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchCollisionError, ClassError, ContourError,
                     PathIntegrationError, SingularSystemError)
from .potentials import SpectralClass

_GAUSS_N = 12
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)


@dataclass(frozen=True)
class HyperCurve:
    """Classified quartic plus the ordered branch points of nu^2 = -lam a.

    `exact_roots` holds the four roots of a when they were given exactly
    (`from_roots`); a is then evaluated as their product, which keeps its
    relative accuracy next to a root cluster, where the expanded
    coefficients lose all of it.  It is empty for `from_quartic` curves,
    which evaluate the quartic's coefficients.
    """
    quartic: object
    alpha: tuple          # the two roots inside the unit disc
    partners: tuple       # 1/conj(alpha_i)
    exact_roots: tuple = ()

    @classmethod
    def from_quartic(cls, q):
        if q.cls is not SpectralClass.M21:
            raise ClassError("period-lattice numerics require four simple "
                             "roots off the unit circle")
        return cls._with_roots(q, [r for r, _ in q.roots])

    @classmethod
    def from_roots(cls, roots):
        """Curve from exactly known roots (closer coalescence than the
        companion-matrix classifier can resolve from coefficients)."""
        from .potentials import quartic_from_roots
        roots = [complex(r) for r in roots]
        if any(abs(abs(r) - 1.0) < 1e-12 for r in roots):
            raise ClassError("roots must avoid the unit circle")
        q0 = quartic_from_roots(roots)
        q = type(q0)(q0.a1, q0.a2,
                     roots=tuple((r, 1) for r in roots),
                     cls=SpectralClass.M21)
        return cls._with_roots(q, roots, exact=True)

    @classmethod
    def _with_roots(cls, q, roots, exact=False):
        """alpha: the two roots inside the unit disc, by modulus."""
        inside = sorted((r for r in roots if abs(r) < 1.0),
                        key=lambda z: (abs(z), z.real, z.imag))
        if len(inside) != 2:
            raise ClassError("expected two roots inside the unit disc")
        partners = tuple(1.0 / np.conj(r) for r in inside)
        return cls(q, tuple(inside), partners,
                   tuple(roots) if exact else ())

    @property
    def branch_points(self):
        return (0.0 + 0j,) + self.alpha + self.partners

    @property
    def roots(self):
        return self.alpha + self.partners

    def a_of(self, lam):
        """a(lam), as the monic product over `exact_roots` when known."""
        if self.exact_roots:
            r0, r1, r2, r3 = self.exact_roots
            return (lam - r0) * (lam - r1) * (lam - r2) * (lam - r3)
        return self.quartic(lam)

    def nu_sq(self, lam):
        return -lam * self.a_of(lam)


# --- contours ---------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """center + radius e^{i theta} for theta from th0 to th1.  A negative
    radius puts the point at theta opposite the angle: center - |radius|
    e^{i theta}."""
    center: complex
    radius: float
    th0: float
    th1: float

    def point(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return self.center + self.radius * np.exp(1j * th)

    def point_at(self, s):
        """point() at one Python float s, as a Python complex."""
        th = self.th0 + s * (self.th1 - self.th0)
        return self.center + self.radius * cmath.exp(1j * th)

    def dpoint(self, s):
        th = self.th0 + s * (self.th1 - self.th0)
        return 1j * self.radius * (self.th1 - self.th0) * np.exp(1j * th)

    @property
    def length(self):
        return abs(self.radius * (self.th1 - self.th0))

    def distance(self, e):
        """Distance from e to the arc (a negative radius turns it by pi)."""
        center, radius, th0, th1 = self.center, self.radius, self.th0, self.th1
        if radius < 0.0:
            radius, th0, th1 = -radius, th0 + math.pi, th1 + math.pi
        ang = cmath.phase(e - center)
        lo, hi = min(th0, th1), max(th0, th1)
        k = math.floor((lo - ang) / (2.0 * math.pi)) + 1
        if lo <= ang + 2.0 * math.pi * k <= hi:
            return abs(abs(e - center) - radius)
        return min(abs(e - (center + radius * cmath.exp(1j * th)))
                   for th in (th0, th1))

    def turn(self, e):
        """Change of arg(lam - e) along the arc.

        From outside the circle the arc subtends less than pi, so the change
        is the principal angle between the end chords.  From inside, the
        angle phi between lam - e and the outward normal lam - center stays
        in (-pi/2, pi/2), and the change is the sweep plus the change of phi.
        """
        z0, z1 = self.point_at(0.0), self.point_at(1.0)
        if abs(e - self.center) >= abs(self.radius):
            return cmath.phase((z1 - e) / (z0 - e))
        return (self.th1 - self.th0 + cmath.phase((z1 - e) / (z1 - self.center))
                - cmath.phase((z0 - e) / (z0 - self.center)))


@dataclass(frozen=True)
class Segment:
    z0: complex
    z1: complex

    def point(self, s):
        return self.z0 + s * (self.z1 - self.z0)

    point_at = point

    def dpoint(self, s):
        return (self.z1 - self.z0) * np.ones_like(s)

    @property
    def length(self):
        return abs(self.z1 - self.z0)

    def distance(self, e):
        return _seg_distance(self.z0, self.z1, e)

    def turn(self, e):
        """Change of arg(lam - e) along the segment, less than pi."""
        return cmath.phase((self.z1 - e) / (self.z0 - e))


# a point this close to a piece, relative to the size of the coordinates,
# is on the contour: its winding number is undefined
_ON_CONTOUR = 1e-12


@dataclass
class Contour:
    pieces: list
    label: str = ""

    def windings(self, pts):
        """Winding numbers about each of pts, in closed form: the change of
        arg(lam - pt) summed piece by piece.  A point on the contour raises
        ContourError."""
        extent = max(abs(p.point_at(0.0)) + p.length for p in self.pieces)
        out = []
        for pt in pts:
            pt = complex(pt)
            tol = _ON_CONTOUR * (abs(pt) + extent)
            if self.min_distance([pt]) <= tol:
                raise ContourError(f"point {pt} lies on the contour")
            out.append(round(sum(p.turn(pt) for p in self.pieces)
                             / (2.0 * math.pi)))
        return out

    def winding(self, pt):
        return self.windings([pt])[0]

    def min_distance(self, pts):
        """Exact distance from the contour to the nearest of pts."""
        return min((p.distance(complex(pt)) for p in self.pieces for pt in pts),
                   default=math.inf)


def circle(center, radius):
    return Contour([Arc(complex(center), float(radius), 0.0, 2.0 * math.pi)],
                   "circle")


def _seg_distance(p, q, e):
    """Distance from point e to the segment [p, q]."""
    d = q - p
    t = ((e - p) * np.conj(d)).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(e - (p + t * d))


def _straight_capsule(p, q, w):
    u = (q - p) / abs(q - p)
    n = 1j * u
    a_n = cmath.phase(n)
    return Contour([
        Segment(p - w * n, q - w * n),
        Arc(q, w, a_n - math.pi, a_n),
        Segment(q + w * n, p + w * n),
        Arc(p, w, a_n, a_n + math.pi),
    ], "capsule")


def _arc_capsule(p, q, sagitta, w):
    """Capsule around the circular arc through p, q with the given sagitta."""
    c = q - p
    el = abs(c)
    u = c / el
    n = 1j * u
    s = sagitta
    radius = (el * el / 4.0 + s * s) / (2.0 * abs(s))
    mid = 0.5 * (p + q)
    center = mid - math.copysign(radius - abs(s), s) * n
    th_p = cmath.phase(p - center)
    th_q = cmath.phase(q - center)
    # sweep through the bulge point mid + s*n
    th_m = cmath.phase(mid + s * n - center)
    for k in (-1, 0, 1):
        a, b = th_p, th_q + 2.0 * math.pi * k
        lo, hi = min(a, b), max(a, b)
        km = math.floor((lo - th_m) / (2.0 * math.pi)) + 1
        if lo <= th_m + 2.0 * math.pi * km <= hi and abs(b - a) < 2.0 * math.pi:
            th_q = b
            break
    if th_q < th_p:
        # normalize to an increasing sweep (the caps assume it)
        p, q = q, p
        th_p, th_q = th_q, th_p
    return Contour([
        Arc(center, radius + w, th_p, th_q),
        Arc(q, w, th_q, th_q + math.pi),
        Arc(center, radius - w, th_q, th_p),
        Arc(p, w, th_p + math.pi, th_p + 2.0 * math.pi),
    ], "arc-capsule"), (center, radius, th_p, th_q)


def capsule_around(p, q, excluded, min_width=1e-9):
    """Contour enclosing exactly {p, q}: a straight capsule when the chord is
    clear, otherwise an arc capsule bulged off the blocked chord.  Of the
    candidate chords the one farthest from the excluded points is taken; the
    capsule's half-width is 0.45 of that distance, and at most half the
    chord's radius."""
    p, q = complex(p), complex(q)
    d_straight = Contour([Segment(p, q)]).min_distance(excluded)
    cands = []   # (sagitta, distance, chord radius); sagitta None: straight
    if d_straight > min_width / 0.45:
        cands.append((None, d_straight, math.inf))
    el = abs(q - p)
    for sag in (0.35 * el, -0.35 * el, 0.6 * el, -0.6 * el, 0.9 * el, -0.9 * el):
        chord = Arc(*_arc_capsule(p, q, sag, 0.0)[1])
        d = Contour([chord]).min_distance(excluded)
        cands.append((sag, d, chord.radius))
    sag, d, radius = max(cands, key=lambda c: c[1])
    # half the chord radius keeps the inner arc of an arc capsule on the
    # near side of its center, so that it cannot cross the outer pieces
    w = min(0.45 * d, 0.5 * radius)
    if w < min_width:
        raise ContourError(
            f"no contour around ({p}, {q}) clears the excluded points")
    cont = (_straight_capsule(p, q, w) if sag is None
            else _arc_capsule(p, q, sag, w)[0])
    wind_p, wind_q, *wind_excl = cont.windings([p, q, *excluded])
    if wind_p not in (1, -1) or wind_q not in (1, -1):
        raise ContourError("constructed contour misses an included point")
    if any(wind_excl):
        raise ContourError("constructed contour encloses an excluded point")
    return reverse_contour(cont) if wind_p == -1 else cont


def reverse_contour(c):
    rev = []
    for piece in reversed(c.pieces):
        if isinstance(piece, Segment):
            rev.append(Segment(piece.z1, piece.z0))
        else:
            rev.append(Arc(piece.center, piece.radius, piece.th1, piece.th0))
    return Contour(rev, c.label + "-rev")


@dataclass
class CycleSet:
    a1: Contour
    a2: Contour
    b1: Contour
    b2: Contour
    b2_kind: str


def build_cycles(curve):
    """Capsule realizations of A1, A2, B1, B2 for the given curve."""
    bp = list(curve.branch_points)
    a1r, a2r = curve.alpha
    p1, p2 = curve.partners

    def excl(*included):
        return [b for b in bp if all(abs(b - i) > 1e-14 for i in included)]

    a1 = capsule_around(a1r, p1, excl(a1r, p1))
    a1.label = "A1"
    a2 = capsule_around(a2r, p2, excl(a2r, p2))
    a2.label = "A2"
    b1 = capsule_around(0.0, a1r, excl(0.0, a1r))
    b1.label = "B1"
    try:
        b2 = capsule_around(a1r, a2r, excl(a1r, a2r))
        kind = "alpha1-alpha2"
    except ContourError:
        b2 = capsule_around(0.0, a2r, excl(0.0, a2r))
        kind = "0-alpha2"
    b2.label = "B2"
    return CycleSet(a1, a2, b1, b2, kind)


# --- branch-tracked quadrature ----------------------------------------------


def _panelize(piece, branch_points, base_panels):
    """Panel parameter bounds on [0, 1], split until the panel length is at
    most 0.45 of the distance from its midpoint to the nearest branch point."""
    out = []
    stack = [(i / base_panels, (i + 1) / base_panels)
             for i in range(base_panels - 1, -1, -1)]
    total = piece.length
    branch_points = [complex(b) for b in branch_points]
    while stack:
        s0, s1 = stack.pop()
        plen = total * (s1 - s0)
        mid = piece.point_at(0.5 * (s0 + s1))
        dist = min(abs(mid - b) for b in branch_points)
        if plen > 0.45 * dist and (s1 - s0) > 2.0 ** -26:
            sm = 0.5 * (s0 + s1)
            stack.append((sm, s1))
            stack.append((s0, sm))
        else:
            out.append((s0, s1))
    return out


def _contour_nodes(curve, contour, base_panels):
    """Ordered quadrature nodes (lam, weight*dlam) over the whole contour,
    each piece evaluated once on its (panels, 12) array of nodes."""
    lam_all = []
    w_all = []
    for piece in contour.pieces:
        bounds = np.array(_panelize(piece, curve.branch_points, base_panels))
        s0, s1 = bounds[:, :1], bounds[:, 1:]
        s = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * _GX
        lam_all.append(piece.point(s).ravel())
        w_all.append((_GW * (piece.dpoint(s) * 0.5 * (s1 - s0))).ravel())
    return np.concatenate(lam_all), np.concatenate(w_all)


def _track_nu(curve, lam, start=None):
    """Continuous branch of nu along the ordered samples, matched to `start`
    at the first sample when given.

    Sequential nearest-value continuation in one pass: sample i flips the
    sign of the principal root against sample i - 1 exactly where
    |r_i - r_{i-1}| > |r_i + r_{i-1}| on the principal roots r (r_{-1} =
    start), so the sign is (-1)^(flips so far).  Only a tie, a jump of a
    right angle, could be resolved differently.
    """
    nu = np.sqrt(curve.nu_sq(lam))
    return np.where(_flipped(nu, nu, nu[0] if start is None else start),
                    -nu, nu)


def _flipped(first, last, start):
    """Whether piece i of a continued root takes the negated principal value.

    Piece i starts at first[i] and ends at last[i] (principal values); it
    matches the end of piece i - 1 by nearest value, and piece 0 matches
    start.  It flips against its predecessor's principal value exactly where
    |first[i] - last[i-1]| > |first[i] + last[i-1]|, so the sign is the parity
    of the flips so far.
    """
    prev = np.empty_like(first)
    prev[0] = start
    prev[1:] = last[:-1]
    flip = np.abs(first - prev) > np.abs(first + prev)
    return np.cumsum(flip) % 2 == 1


def nu_on_contour(curve, contour, n=2048):
    """Branch-tracked nu along a contour: (lam, nu, sheet_flipped).

    nu is continued by nearest-value selection sample to sample; pointwise
    nu^2 + lam a(lam) = 0 holds exactly by construction.  Contours with even
    branch-point winding must return to the starting sheet (flipped False);
    odd winding flips it.  Inconsistency with the winding count raises
    BranchCollisionError.
    """
    if contour.min_distance(curve.branch_points) < 1e-6:
        raise BranchCollisionError("contour within 1e-6 of a branch point")
    s = (np.arange(n) + 0.5) / n
    lam = np.concatenate([p.point(s) for p in contour.pieces])
    nu = _track_nu(curve, lam)
    total_winding = sum(abs(k) for k in contour.windings(curve.branch_points))
    back = _track_nu(curve, lam[:1], start=nu[-1])[0]
    rel = abs(nu[0] - back) / max(abs(nu[0]), 1e-300)
    flipped = rel > 1.0
    expect_flip = total_winding % 2 == 1
    if flipped != expect_flip:
        raise BranchCollisionError(
            f"sheet closure ({'flip' if flipped else 'no flip'}) inconsistent "
            f"with winding count {total_winding}")
    if not flipped and rel > 1e-6:
        raise BranchCollisionError(f"sheet closure defect {rel:.2e}")
    return lam, nu, flipped


def contour_integrals(curve, contour, funcs, conv_tol=1e-8, base_panels=4,
                      max_doublings=6, strict=True, min_clearance=1e-6):
    """Integrals of f(lam)/(2 nu lam) dlam for each f, with panel-doubling
    self-convergence.  Returns (values, achieved_change)."""
    if contour.min_distance(curve.branch_points) < min_clearance:
        raise BranchCollisionError(
            f"contour within {min_clearance:.0e} of a branch point")
    prev = None
    change = math.inf  # no estimate until two panel counts have been compared
    panels = base_panels
    for _ in range(max_doublings + 1):
        lam, w = _contour_nodes(curve, contour, panels)
        nu = _track_nu(curve, lam)
        den = 2.0 * nu * lam
        vals = np.array([np.sum(f(lam) / den * w) for f in funcs])
        if prev is not None:
            change = float(np.max(np.abs(vals - prev)
                                  / np.maximum(1.0, np.abs(vals))))
            if change <= conv_tol:
                return vals, change
        prev = vals
        panels *= 2
    if strict:
        raise PathIntegrationError(
            f"contour quadrature did not reach {conv_tol:.1e} "
            f"(last change {change:.2e})")
    return prev, change


# --- the moment table, the b_w linear system and the period lattice -------


@dataclass
class BOmega:
    omega: complex
    beta1: float
    beta2: float
    a_residual: float
    condition: float

    def coeffs(self):
        """Coefficients of b_w, lowest power first."""
        w = self.omega
        return np.array([w,
                         self.beta1 + 1j * self.beta2,
                         -self.beta1 + 1j * self.beta2,
                         -np.conj(w)])

    def __call__(self, lam):
        return _cubic(self.coeffs(), lam)


def _cubic(c, lam):
    """c[0] + c[1] lam + c[2] lam^2 + c[3] lam^3, in that power form."""
    return c[0] + c[1] * lam + c[2] * lam ** 2 + c[3] * lam ** 3


_POWERS = tuple((lambda lam, k=k: lam ** k) for k in range(4))


def _moments(curve, contours, conv_tol, strict, min_clearance):
    """One row per contour: integrals of lam^k/(2 nu lam) dlam, k = 0..3."""
    return np.array([
        contour_integrals(curve, c, _POWERS, conv_tol=conv_tol, strict=strict,
                          min_clearance=min_clearance)[0]
        for c in contours])


def period_table(curve, cycles, conv_tol=1e-9, strict=True,
                 min_clearance=1e-6):
    """4x4 moment table: rows A1, A2, B1, B2, columns lam^0..lam^3.

    The integral of b(lam)/(2 nu lam) dlam over a cycle is its row
    @ b.coeffs().  One quadrature per cycle; its panel-doubling pass
    judges the four moments of that cycle together.
    """
    return _moments(curve, (cycles.a1, cycles.a2, cycles.b1, cycles.b2),
                    conv_tol, strict, min_clearance)


def _solve_b(a_rows, omega, strict=True):
    """b_w from the A1, A2 rows of the moment table (see solve_b_omega)."""
    omega = complex(omega)
    amat = np.empty((2, 2))
    rhs = np.empty(2)
    scale = 0.0
    for i, m in enumerate(a_rows):
        p1 = m[1] - m[2]            # integral of lam - lam^2
        p2 = 1j * (m[1] + m[2])     # integral of i (lam + lam^2)
        inhom = omega * m[0] - np.conj(omega) * m[3]
        for v in (p1, p2, inhom):
            scale = max(scale, abs(v))
        amat[i, 0] = p1.real
        amat[i, 1] = p2.real
        rhs[i] = -inhom.real
        imag = max(abs(p1.imag), abs(p2.imag), abs(inhom.imag))
        if strict and imag > 1e-9 * max(1.0, scale):
            raise PathIntegrationError(
                f"A-integrals should be real; imaginary part {imag:.2e}")
    cond = np.linalg.cond(amat)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularSystemError(f"A-integral matrix condition {cond:.2e}")
    beta = np.linalg.solve(amat, rhs)
    b = BOmega(omega, beta[0], beta[1], 0.0, cond)
    b.a_residual = float(np.max(np.abs(a_rows @ b.coeffs())))
    if strict and b.a_residual > 1e-9 * max(1.0, abs(omega)):
        raise PathIntegrationError(
            f"A-integral residual {b.a_residual:.2e} after solve")
    return b


def solve_b_omega(curve, cycles, omega, conv_tol=1e-9, strict=True,
                  min_clearance=1e-6):
    """The unique admissible cubic whose A-cycle integrals vanish.

    The two basis integrals and the inhomogeneity are real (imaginary parts
    are checked and discarded); beta1, beta2 solve the resulting real 2x2
    system.
    """
    a_rows = _moments(curve, (cycles.a1, cycles.a2), conv_tol, strict,
                      min_clearance)
    return _solve_b(a_rows, omega, strict)


def _period_map(table, strict):
    """B-period map and its two b_w from the moment table."""
    mat = np.empty((2, 2))
    bs = []
    for k, w in enumerate((1.0, 1j)):
        b = _solve_b(table[:2], w, strict)
        bs.append(b)
        for j, v in enumerate(table[2:] @ b.coeffs()):
            if strict and abs(v.real) > 1e-8 * max(1.0, abs(v)):
                raise PathIntegrationError(
                    f"B-period not purely imaginary: {v}")
            mat[j, k] = v.imag
    return mat, bs


def b_period_map(curve, cycles, conv_tol=1e-9, strict=True, min_clearance=1e-6):
    """2x2 real matrix of w -> (B-period / i) for w in {1, i}.

    All B-integrals must be purely imaginary (relative check 1e-8).
    """
    return _period_map(period_table(curve, cycles, conv_tol, strict,
                                    min_clearance), strict)


@dataclass
class PeriodLatticeG2:
    omega1: complex
    omega2: complex
    bperiod_matrix: np.ndarray
    bperiod_residual: float
    condition: float
    moments: np.ndarray   # the period_table the generators come from

    def contains(self, w):
        """Whether w is within 1e-6 max(1, |w|) of m omega1 + n omega2,
        |m|, |n| <= 6."""
        near = min(abs(w - (m * self.omega1 + n * self.omega2))
                   for m in range(-6, 7) for n in range(-6, 7))
        return near <= 1e-6 * max(1.0, abs(w))

    def to_json_dict(self):
        return {
            "class": "M2_1",
            "omega1": [self.omega1.real, self.omega1.imag],
            "omega2": [self.omega2.real, self.omega2.imag],
            "bperiod_residual": self.bperiod_residual,
        }


def period_lattice(curve, cycles=None, conv_tol=1e-9, strict=True,
                   min_clearance=1e-6):
    """Lattice generators: preimages of (2 pi i, 0) and (0, 2 pi i) under the
    B-period map."""
    if cycles is None:
        cycles = build_cycles(curve)
    table = period_table(curve, cycles, conv_tol, strict, min_clearance)
    mat, _ = _period_map(table, strict)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-12:
        raise SingularSystemError("B-period map numerically singular")
    inv = np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det
    targets = 2.0 * math.pi * np.eye(2)
    g = [complex(*(inv @ target)) for target in targets]
    resid = 0.0
    for w, target in zip(g, targets):
        b = _solve_b(table[:2], w, strict)
        val = table[2:] @ b.coeffs()
        resid = max(resid, float(np.max(np.abs(val - 1j * target))))
    if strict and resid > 1e-7 * max(1.0, abs(g[0]), abs(g[1])):
        raise PathIntegrationError(f"B-period residual {resid:.2e}")
    return PeriodLatticeG2(g[0], g[1], mat, resid, float(np.linalg.cond(mat)),
                           table)


# --- monodromy signs at the roots -------------------------------------------


def _panels(z0, z1, n):
    """n equal Gauss-Legendre panels on [z0, z1]: the start points (n, 1),
    the nodes (n, 12), the end points (n, 1) and the half-lengths (n, 1)."""
    ends = z0 + (z1 - z0) * np.arange(n + 1) / n
    a, b = ends[:-1, None], ends[1:, None]
    half = 0.5 * (b - a)
    return a, 0.5 * (a + b) + half * _GX, b, half


def _segment_quad(f, z0, z1, n_panels=8):
    """Gauss-Legendre integral of f over [z0, z1] (complex line integral)."""
    _, z, _, half = _panels(z0, z1, n_panels)
    return np.sum(_GW * f(z) * half)


_PATH_PASSES = 16


def _avoiding_path(z0, z1, obstacles, clearance):
    """Waypoints from z0 to z1 keeping each obstacle's clearance.

    An obstacle gets `clearance`, or half its distance to z0 when it lies
    closer to z0 than that (z0 itself could not clear it).  A pass bends
    every leg that comes too close to an obstacle round its worst one; the
    path is done after a pass that changes nothing.
    """
    clear = [(o, clearance if abs(o - z0) >= clearance else abs(o - z0) / 2.0)
             for o in obstacles]
    path = [z0, z1]
    for _ in range(_PATH_PASSES):
        changed = False
        out = [path[0]]
        for a, b in zip(path, path[1:]):
            worst = None
            for o, c in clear:
                d = _seg_distance(a, b, o)
                if d < c and min(abs(o - a), abs(o - b)) > 1e-12:
                    if worst is None or d / c < worst[0]:
                        worst = (d / c, o, c)
            if worst is not None:
                _, o, c = worst
                dvec = b - a
                n = 1j * dvec / abs(dvec)
                t = ((o - a) * np.conj(dvec)).real / abs(dvec) ** 2
                foot = a + t * dvec
                side = 1.0 if ((o - foot) * np.conj(n)).real < 0 else -1.0
                out.append(o + side * 2.0 * c * n)
                changed = True
            out.append(b)
        path = out
        if not changed:
            return path
    raise PathIntegrationError(
        f"no path from {z0} to {z1} clears the obstacles in {_PATH_PASSES} "
        "passes")


def _last_leg(bc, root, others, approach, nu_here):
    """Integral of b(lam)/(2 nu lam) dlam from `approach`, where the branch
    of nu is nu_here, to `root`: in u = sqrt(lam - root) it is
    b/(t lam) du with t = nu / u, over 24 panels continued by the parity
    rule of mu_at_roots."""
    r0, r1, r2 = others
    u1 = cmath.sqrt(approach - root)
    _, u, _, half = _panels(u1, 0.0, 24)
    lam = root + u * u
    tv = np.sqrt(-lam * ((lam - r0) * (lam - r1) * (lam - r2)))
    flipped = _flipped(tv[:, 0], tv[:, -1], nu_here / u1)
    tv = np.where(flipped[:, None], -tv, tv)
    return np.sum(_GW * _cubic(bc, lam) / (tv * lam) * half)


def mu_at_roots(curve, lattice, omega, tol=1e-4):
    """Signs of the monodromy eigenvalue at the four roots of the quartic.

    The logarithm is continued from the puncture over lam = 0 (where the
    normalized eigenvalue equals one) along branch-tracked paths to each
    root; admissible lattice vectors give ln mu in i pi Z at every root.
    The first leg, in w = sqrt(lam) from 0 to sqrt(lam0), is the same for
    every root and is integrated once.  The last leg runs in
    u = sqrt(lam - root) from the approach point to the root over 24 panels,
    with t = nu / u, which stays finite there.  t is continued panel to
    panel in one pass: a panel takes the principal values of t at its nodes,
    negated where the parity of the mismatches up to it is odd.  Panel k
    mismatches where its first node is nearer the negated than the principal
    value at the last node of panel k - 1; panel 0 is compared with the
    nu / u carried in from the waypoint legs.  Inside a panel the principal
    values are kept.
    Returns (signs, deviations) with signs in {+1, -1}.
    """
    if not lattice.contains(omega):
        raise PathIntegrationError("omega is not a lattice vector")
    bc = _solve_b(lattice.moments[:2], omega).coeffs()
    roots = curve.roots
    sep = min(min(abs(r - s) for s in roots if s is not r) for r in roots)
    rho = min(0.1 * sep, 0.05)

    a_coeffs = curve.quartic.coeffs()       # highest power first
    a_der_coeffs = np.polyder(a_coeffs)

    def a_val(lam):
        return np.polyval(a_coeffs, lam)

    def a_der(lam):
        return np.polyval(a_der_coeffs, lam)

    # base point: |lam0| = 0.04 in the direction farthest from the roots
    best_dir, best_d = None, -1.0
    for k in range(16):
        d = cmath.exp(2j * math.pi * (k + 0.5) / 16)
        dist = min(_seg_distance(0.0, 0.12 * d, r) for r in roots)
        if dist > best_d:
            best_dir, best_d = d, dist
    lam0 = 0.04 * best_dir
    w0 = cmath.sqrt(lam0)

    def dh(wv):
        lam = wv * wv
        av = a_val(lam)
        s = np.sqrt(av)
        # branch: continuous from s(0) = 1; safe while Re stays positive
        s = np.where(s.real < 0, -s, s)
        br = _cubic(bc, lam) + omega * (a_der(lam) * lam - av)
        return -1j * br / (s * wv * wv)

    s_w = cmath.sqrt(a_val(np.array([lam0]))[0])
    if s_w.real < 0:
        s_w = -s_w
    ln_mu0 = 1j * omega * s_w / w0 + _segment_quad(dh, 0.0, w0, 16)
    results = []
    devs = []
    for root in roots:
        ln_mu = ln_mu0
        nu_here = 1j * w0 * s_w
        # waypoint path to the approach point of this root
        approach = root + rho * (lam0 - root) / abs(lam0 - root)
        others = [r for r in roots if r is not root]
        wp = _avoiding_path(lam0, approach, others + [0.0],
                            min(0.3 * abs(root), 0.4 * sep))
        for z0, z1 in zip(wp, wp[1:]):
            npan = min(max(8, int(8 * abs(z1 - z0) / rho)), 400)
            # the leg as (npan, 14) panels [a, 12 Gauss nodes, b], tracked
            # in one pass (panel k ends where panel k + 1 starts)
            a, z, bseg, half = _panels(z0, z1, npan)
            nu = _track_nu(curve, np.hstack([a, z, bseg]).ravel(),
                           start=nu_here)
            nu_nodes = nu.reshape(npan, _GAUSS_N + 2)[:, 1:-1]
            ln_mu += np.sum(_GW * _cubic(bc, z) / (2.0 * nu_nodes * z) * half)
            nu_here = nu[-1]
        ln_mu += _last_leg(bc, root, others, approach, nu_here)
        k_img = ln_mu.imag / math.pi
        k_round = round(k_img)
        dev = abs(ln_mu - 1j * math.pi * k_round)
        if dev > tol:
            raise PathIntegrationError(
                f"ln mu at root {root} is {ln_mu}, not in i pi Z (dev {dev:.2e})")
        results.append(1 if k_round % 2 == 0 else -1)
        devs.append(dev)
    return results, devs
