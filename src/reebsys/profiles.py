"""Star-shaped boundary profiles of toric domains.

A profile encodes a positively 1-homogeneous function F >= 0 on the closed
first quadrant of the (x, y) = (r1^2, r2^2) plane through its unit level
set {F = 1}.  The level set is a curve from the x-intercept (a, 0) to the
y-intercept (0, b); star-shapedness makes its polar radius r(theta) single
valued for theta in [0, pi/2], and F extends off the curve by homogeneity,
F(P) = |P| / r(angle of P).

The area parametrization C(t) = (x(t), y(t)), t in [0, 2A] with A the
first-quadrant area of {F <= 1}, traverses the curve so that the swept
sector area grows at the constant rate 1/2.  Under it the curve solves
x' = -D2F, y' = D1F and satisfies x y' - y x' = 1, which is what makes t
the natural coordinate for the induced circle-invariant flow on the
boundary 3-sphere.

The maps t <-> theta are closed forms for the ellipsoid, C(t) =
(a - t/b, t/a), and for lp with p = 2, whose level set is the ellipse
(a cos u, b sin u) with t = a b u.  Sampled profiles are exact too: the
PCHIP radius is a cubic on each knot interval, so t(theta), the integral
of r^2, is a degree-7 polynomial there.  Its coefficients and the
cumulative area T_j at each knot (math.fsum of the interval integrals)
are tabled at construction; 2A is the last T_j, theta -> t is T_j plus
one Horner evaluation, and t -> theta finds each lane's knot interval
once, starts from the cubic Hermite interpolant in t with the exact knot
slopes dtheta/dt = 1/r^2, and takes bracketed Newton steps on the
polynomial.  lp with p != 2 has the closed-form area
a b Gamma(1 + 1/p)^2 / Gamma(1 + 2/p) and inverts a cached table of t at
uniform theta nodes: theta -> t adds one Gauss panel to the node below,
and t -> theta starts from the same Hermite interpolant on the table and
takes Newton steps on the panel residual.  Both inversions return a lane
once its residual is within 1e-14 * 2A, and compute each lane
independently of the others in its batch.  Every interval of a theta or
t node table is found by one numerics.IntervalLookup, a uniform cell
table, which gives the index a binary search would.

Sampled profiles interpolate r(theta) with an in-house PCHIP table
(pchip_table): one row each of c0..c3 per knot interval, from which r,
r' and r'' are evaluated.  Its end slopes follow the same one-sided rule
as the reference PCHIP implementations, so it reproduces their values
bit for bit; the test suite checks that against an external oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import IntervalLookup, adaptive_gauss, panel_gauss_many

HALF_PI = math.pi / 2.0
# tolerance of the adaptive quadratures: absolute in the base
# quadrant_area, relative to the expected value in
# systolic.average_identity_residual
AREA_QUAD_TOL = 1e-10
AREA_TABLE_PANELS = 2048    # panels of the cumulative-area table
CURVATURE_BOUND = 1e4       # largest |r''| / r accepted at sampled-boundary knots


@dataclass(frozen=True)
class BoundaryPoint:
    """A point C(t) on the unit level set with the gradient of F there."""

    t: float
    x: float
    y: float
    d1: float
    d2: float


@dataclass(frozen=True)
class Intercepts:
    a: float
    b: float
    d1_at_a: float  # D1F(a, 0); equals 1/a by the Euler identity
    d2_at_b: float  # D2F(0, b); equals 1/b


def _as_quadrant_points(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if np.any(x < -1e-12) or np.any(y < -1e-12):
        raise ValidationError("profile evaluation requires x, y >= 0")
    if np.any(np.hypot(x, y) == 0.0):
        raise ValidationError("gradient and value are undefined at the origin")
    return np.clip(x, 0.0, None), np.clip(y, 0.0, None)


class ToricProfile:
    """Base class; concrete kinds supply the boundary radius r(theta)."""

    kind = "abstract"

    def __init__(self):
        self._table = None
        self._lookup = None
        self._area = None

    # -- subclass surface -------------------------------------------------

    def boundary_radius(self, theta):
        raise NotImplementedError

    def boundary_radius_deriv(self, theta):
        raise NotImplementedError

    def scaled(self, s: float) -> "ToricProfile":
        """Profile whose defining function is F/s, i.e. boundary dilated by s."""
        raise NotImplementedError

    def kink_angles(self) -> np.ndarray:
        """Polar angles where r'' may jump, so that the gradient has kinks
        there.  Smooth profiles have none."""
        return np.empty(0)

    def to_json(self) -> dict:
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------

    def value(self, x, y):
        """F(x, y) on the closed first quadrant minus the origin."""
        x, y = _as_quadrant_points(x, y)
        theta = np.arctan2(y, x)
        return np.hypot(x, y) / self.boundary_radius(theta)

    def gradient(self, x, y):
        """(D1F, D2F) at (x, y).  The gradient is 0-homogeneous."""
        x, y = _as_quadrant_points(x, y)
        theta = np.arctan2(y, x)
        return self.gradient_theta(theta)

    def gradient_theta(self, theta):
        """Gradient along the ray of polar angle theta, from r and r'."""
        theta = np.asarray(theta, float)
        r = self.boundary_radius(theta)
        dr = self.boundary_radius_deriv(theta)
        c, s = np.cos(theta), np.sin(theta)
        d1 = c / r + s * dr / (r * r)
        d2 = s / r - c * dr / (r * r)
        return d1, d2

    # -- area parametrization ----------------------------------------------

    def _sector_rate(self, theta):
        r = self.boundary_radius(theta)
        return r * r

    def _area_table(self):
        """(theta_j, t_j, dtheta/dt at theta_j) on a uniform theta grid."""
        if self._table is None:
            theta = np.linspace(0.0, HALF_PI, AREA_TABLE_PANELS + 1)
            inc = panel_gauss_many(self._sector_rate, theta[:-1], theta[1:])
            t = np.concatenate([[0.0], np.cumsum(inc)])
            # t' = r^2 because the swept sector area grows at rate r^2/2
            self._table = (theta, t, 1.0 / self._sector_rate(theta))
        return self._table

    def _lookups(self):
        """IntervalLookups on the theta nodes and on the t nodes of the
        area table, built on first use."""
        if self._lookup is None:
            nodes, tnodes, _ = self._area_table()
            self._lookup = (IntervalLookup(nodes), IntervalLookup(tnodes))
        return self._lookup

    def quadrant_area(self):
        """Area A of {F <= 1} in the first quadrant, by adaptive quadrature."""
        if self._area is None:
            val, _res = adaptive_gauss(lambda th: 0.5 * self._sector_rate(th),
                                       0.0, HALF_PI, tol=AREA_QUAD_TOL)
            self._area = float(val)
        return self._area

    @property
    def two_area(self) -> float:
        return 2.0 * self.quadrant_area()

    def t_of_theta(self, theta):
        """Forward map theta -> t = twice the swept sector area."""
        theta = np.asarray(theta, float)
        scalar = theta.ndim == 0
        t = self._t_of_theta(np.atleast_1d(np.clip(theta, 0.0, HALF_PI)))
        return float(t[0]) if scalar else t

    def theta_of_t(self, t):
        """Inverse of the strictly monotone map t(theta); vectorized."""
        t = np.asarray(t, float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        two_area = self.two_area
        slack = 1e-9 * max(1.0, two_area)
        if np.any(t < -slack) or np.any(t > two_area + slack):
            raise ValidationError(
                f"area parameter out of range [0, {two_area:.12g}]")
        th = self._theta_of_t(t)
        return float(th[0]) if scalar else th

    def _panel_area(self, theta, j):
        """t at theta, which lies in panel j of the area table."""
        nodes, tnodes, _ = self._area_table()
        return tnodes[j] + panel_gauss_many(self._sector_rate, nodes[j], theta)

    def _panel_rate(self, theta, j):
        """dt/dtheta = r^2 at theta, which lies in panel j."""
        return self._sector_rate(theta)

    def _t_of_theta(self, theta):
        return self._panel_area(theta, self._lookups()[0](theta))

    def _theta_of_t(self, t):
        """Cubic Hermite start on the area table, Newton where it misses.

        A lane is returned once its _panel_area is within 1e-14 * t_max of
        t; the Newton steps run on the lanes that still miss, kept inside
        their table panel.
        """
        nodes, tnodes, slope = self._area_table()
        t_max = tnodes[-1]
        tc = np.clip(t, 0.0, t_max)
        j = self._lookups()[1](tc)
        lo = nodes[j]
        hi = nodes[j + 1]
        tlo = tnodes[j]
        h = tnodes[j + 1] - tlo
        s = (tc - tlo) / h
        m0 = h * slope[j]
        d = hi - lo
        c2 = 3.0 * d - 2.0 * m0 - h * slope[j + 1]
        c3 = m0 + h * slope[j + 1] - 2.0 * d
        th = np.clip(lo + s * (m0 + s * (c2 + s * c3)), lo, hi)
        tol = 1e-14 * t_max
        live = np.arange(t.shape[0])
        for _ in range(80):
            f = self._panel_area(th[live], j[live]) - tc[live]
            miss = np.abs(f) > tol
            live, f = live[miss], f[miss]
            if live.size == 0:
                return th
            x = th[live]
            hi[live] = np.where(f > 0, x, hi[live])
            lo[live] = np.where(f < 0, x, lo[live])
            cand = x - f / np.maximum(self._panel_rate(x, j[live]), 1e-300)
            inside = np.isfinite(cand) & (cand > lo[live]) & (cand < hi[live])
            th[live] = np.where(inside, cand, 0.5 * (lo[live] + hi[live]))
        raise NumericalError(
            f"theta_of_t left {live.size} lanes above the residual "
            f"tolerance {tol:.3g}")

    def boundary_arrays(self, t):
        """(x, y, d1, d2) along C(t); accepts scalars or arrays."""
        theta = self.theta_of_t(t)
        r = self.boundary_radius(theta)
        x = r * np.cos(theta)
        y = r * np.sin(theta)
        d1, d2 = self.gradient_theta(theta)
        return x, y, d1, d2

    def boundary_point(self, t: float) -> BoundaryPoint:
        """The area-parametrized boundary point C(t) with the gradient there."""
        x, y, d1, d2 = self.boundary_arrays(float(t))
        return BoundaryPoint(float(t), float(x), float(y), float(d1), float(d2))

    def intercepts(self) -> Intercepts:
        """Axis intersections (a, 0) and (0, b) with the Euler consistency pair."""
        a = float(self.boundary_radius(0.0))
        b = float(self.boundary_radius(HALF_PI))
        d1a, _ = self.gradient_theta(0.0)
        _, d2b = self.gradient_theta(HALF_PI)
        return Intercepts(a, b, float(d1a), float(d2b))

    def partials_range(self, grid_n: int = 4096):
        """(min d1, max d1, min d2, max d2) over a dense boundary grid, the
        kink angles and the midpoint between each two kinks, so that a dip
        between knots closer than a grid cell is seen too."""
        theta = np.linspace(0.0, HALF_PI, grid_n)
        kinks = self.kink_angles()
        if kinks.size:
            theta = np.concatenate([theta, kinks,
                                    0.5 * (kinks[:-1] + kinks[1:])])
        d1, d2 = self.gradient_theta(theta)
        return float(d1.min()), float(d1.max()), float(d2.min()), float(d2.max())

    def has_positive_partials(self, grid_n: int = 4096, tol: float = 1e-10) -> bool:
        m1, _, m2, _ = self.partials_range(grid_n)
        return m1 >= -tol and m2 >= -tol


class EllipsoidProfile(ToricProfile):
    """F(x, y) = x/a + y/b.  The unit level set is the segment between
    (a, 0) and (0, b) and the gradient is the constant (1/a, 1/b)."""

    kind = "ellipsoid"

    def __init__(self, a: float, b: float):
        super().__init__()
        if not (a > 0 and b > 0):
            raise ValidationError("ellipsoid intercepts must be positive")
        self.a = float(a)
        self.b = float(b)

    def boundary_radius(self, theta):
        theta = np.asarray(theta, float)
        return 1.0 / (np.cos(theta) / self.a + np.sin(theta) / self.b)

    def boundary_radius_deriv(self, theta):
        theta = np.asarray(theta, float)
        r = self.boundary_radius(theta)
        return r * r * (np.sin(theta) / self.a - np.cos(theta) / self.b)

    def value(self, x, y):
        x, y = _as_quadrant_points(x, y)
        return x / self.a + y / self.b

    def gradient(self, x, y):
        x, y = _as_quadrant_points(x, y)
        shape = np.broadcast(x, y).shape
        return (np.full(shape, 1.0 / self.a), np.full(shape, 1.0 / self.b))

    def gradient_theta(self, theta):
        shape = np.asarray(theta, float).shape
        return (np.full(shape, 1.0 / self.a), np.full(shape, 1.0 / self.b))

    def quadrant_area(self):
        return 0.5 * self.a * self.b

    def intercepts(self) -> Intercepts:
        return Intercepts(self.a, self.b, 1.0 / self.a, 1.0 / self.b)

    def _theta_of_t(self, t):
        # C(t) = (a - t/b, t/a): the triangle from the origin over [(a, 0),
        # C(t)] has area a*y/2 = t/2
        t = np.clip(t, 0.0, self.two_area)
        return np.arctan2(t / self.a, (self.two_area - t) / self.b)

    def _t_of_theta(self, theta):
        return self.a * self.boundary_radius(theta) * np.sin(theta)

    def scaled(self, s: float):
        return EllipsoidProfile(self.a * s, self.b * s)

    def to_json(self):
        return {"kind": "ellipsoid", "a": self.a, "b": self.b}


class LpProfile(ToricProfile):
    """F(x, y) = ((x/a)^p + (y/b)^p)^(1/p) with p >= 1.

    p = 2 with a = b = 1 is the round profile whose unit level set is the
    quarter circle; p = 1 degenerates to the ellipsoid.
    """

    kind = "lp"

    def __init__(self, p: float, a: float = 1.0, b: float = 1.0):
        super().__init__()
        if not p >= 1.0:
            raise ValidationError("lp exponent must satisfy p >= 1")
        if not (a > 0 and b > 0):
            raise ValidationError("lp intercepts must be positive")
        self.p = float(p)
        self.a = float(a)
        self.b = float(b)

    def _unit_value(self, theta):
        # F along the unit circle direction (cos theta, sin theta)
        c = np.clip(np.cos(theta), 0.0, None)
        s = np.clip(np.sin(theta), 0.0, None)
        return ((c / self.a) ** self.p + (s / self.b) ** self.p) ** (1.0 / self.p)

    def boundary_radius(self, theta):
        theta = np.asarray(theta, float)
        return 1.0 / self._unit_value(theta)

    def boundary_radius_deriv(self, theta):
        theta = np.asarray(theta, float)
        p = self.p
        c = np.clip(np.cos(theta), 0.0, None)
        s = np.clip(np.sin(theta), 0.0, None)
        u = self._unit_value(theta)
        du = u ** (1.0 - p) * ((s / self.b) ** (p - 1.0) * c / self.b
                               - (c / self.a) ** (p - 1.0) * s / self.a)
        return -du / (u * u)

    def value(self, x, y):
        x, y = _as_quadrant_points(x, y)
        return ((x / self.a) ** self.p + (y / self.b) ** self.p) ** (1.0 / self.p)

    def gradient(self, x, y):
        x, y = _as_quadrant_points(x, y)
        f = self.value(x, y)
        scale = f ** (1.0 - self.p)
        d1 = scale * (x / self.a) ** (self.p - 1.0) / self.a
        d2 = scale * (y / self.b) ** (self.p - 1.0) / self.b
        return d1, d2

    def gradient_theta(self, theta):
        theta = np.asarray(theta, float)
        r = self.boundary_radius(theta)
        x = r * np.clip(np.cos(theta), 0.0, None)
        y = r * np.clip(np.sin(theta), 0.0, None)
        d1 = (x / self.a) ** (self.p - 1.0) / self.a
        d2 = (y / self.b) ** (self.p - 1.0) / self.b
        return d1, d2

    # p = 2 is the ellipse (a cos u, b sin u), whose swept sector area is
    # a*b*u/2, so t = a*b*u and 2A = pi*a*b/2 in closed form

    def quadrant_area(self):
        """The Dirichlet integral A = a b Gamma(1 + 1/p)^2 / Gamma(1 + 2/p).
        At p = 2 that is a b pi/4, kept as such: math.gamma(1.5)**2 is one
        ulp above pi/4, and t = a b u reaches 2A exactly only with pi."""
        if self.p == 2.0:
            return 0.25 * math.pi * self.a * self.b
        p = self.p
        return (self.a * self.b * math.gamma(1 + 1 / p) ** 2
                / math.gamma(1 + 2 / p))

    def _theta_of_t(self, t):
        if self.p != 2.0:
            return super()._theta_of_t(t)
        u = np.clip(t / (self.a * self.b), 0.0, HALF_PI)
        return np.arctan2(self.b * np.sin(u), self.a * np.cos(u))

    def _t_of_theta(self, theta):
        if self.p != 2.0:
            return super()._t_of_theta(theta)
        u = np.arctan2(self.a * np.sin(theta), self.b * np.cos(theta))
        return self.a * self.b * u

    def scaled(self, s: float):
        return LpProfile(self.p, self.a * s, self.b * s)

    def to_json(self):
        return {"kind": "lp", "p": self.p, "a": self.a, "b": self.b}


def round_profile() -> LpProfile:
    """The radius-one round profile F = sqrt(x^2 + y^2)."""
    return LpProfile(2.0, 1.0, 1.0)


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end node, clamped to keep shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_table(x, y):
    """Coefficients (c0, c1, c2, c3) of the monotone cubic Hermite (PCHIP)
    interpolant through (x, y): on [x_j, x_j+1] it is
    c0 + c1 s + c2 s^2 + c3 s^3 with s = x - x_j.

    Interior node slopes are the weighted harmonic mean of the adjacent
    secants (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17), and 0 where
    the secants differ in sign or one of them is 0.  End slopes use the
    one-sided three-point formula with the shape-preserving clamps of
    Moler's pchiptx.  The operations and their order are those of the
    reference PCHIP implementations, so the table equals their piecewise
    polynomial coefficients bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.empty_like(y)
    d[1:-1] = np.where(flat, 0.0, harmonic)
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    tau = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([y[:-1], d[:-1], (m - d[:-1]) / h - tau, tau / h])


def prefix_fsums(values) -> np.ndarray:
    """[0, fsum(values[:1]), fsum(values[:2]), ...], each correctly
    rounded, in one pass: the running sum is kept exactly as a list of
    non-overlapping partials (Shewchuk, Discrete Comput. Geom. 18, 1997).
    Non-finite values give the plain cumulative sum."""
    values = np.asarray(values, float)
    out = np.concatenate([[0.0], np.cumsum(values)])
    if not math.isfinite(out[-1]):
        return out
    partials = []
    for i, x in enumerate(values.tolist(), start=1):
        k = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[k] = lo
                k += 1
            x = hi
        partials[k:] = [x]
        out[i] = math.fsum(partials)
    return out


def area_polynomials(h, coef):
    """Coefficients of t on each interval of a cubic radius table.

    With r = c0 + c1 s + c2 s^2 + c3 s^3 on [0, h_j] (pchip_table), row k
    of the (8, m) result multiplies s^k in T_j + (integral of r^2 from 0
    to s); row 0 is T_j, the prefix fsum of the interval integrals, whose
    total T_m is 2A.
    """
    c0, c1, c2, c3 = coef
    square = (c0 * c0, 2.0 * c0 * c1, c1 * c1 + 2.0 * c0 * c2,
              2.0 * (c0 * c3 + c1 * c2), c2 * c2 + 2.0 * c1 * c3,
              2.0 * c2 * c3, c3 * c3)
    rows = np.empty((8, c0.size))
    for k, e in enumerate(square, start=1):
        rows[k] = e / k
    integral = rows[7].copy()
    for row in rows[6:0:-1]:
        integral *= h
        integral += row
    integral *= h
    knot_area = prefix_fsums(integral)
    rows[0] = knot_area[:-1]
    return rows, knot_area


class SplineProfile(ToricProfile):
    """Boundary given by sampled points, interpolated by a monotone cubic
    (PCHIP, see pchip_table) spline of the polar radius in the polar angle.

    The samples must be star-shaped (strictly increasing polar angle),
    cover the whole quadrant from the positive x-axis to the positive
    y-axis, and be free of corner-like kinks: construction rejects data
    where |r''| / r exceeds CURVATURE_BOUND.  The ratio does not change
    when the boundary is dilated, so the same shape passes at every size.
    r, r' and r'' come from one in-house coefficient table over the sorted
    polar angles, whose end slopes are the reference PCHIP's.
    """

    kind = "sampled"

    def __init__(self, points):
        super().__init__()
        pts = np.asarray(points, float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise ValidationError("sampled profile needs at least 4 (x, y) points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("sampled boundary points must be finite")
        if np.any(pts < -1e-12):
            raise ValidationError("sampled boundary points must lie in the first quadrant")
        pts = np.clip(pts, 0.0, None)
        r = np.hypot(pts[:, 0], pts[:, 1])
        if np.any(r <= 0):
            raise ValidationError("sampled boundary points must be away from the origin")
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        order = np.argsort(theta)
        theta, r = theta[order], r[order]
        if np.any(np.diff(theta) <= 0):
            raise ValidationError("polar angles must be strictly increasing "
                                  "(star-shaped, single-valued radius)")
        if theta[0] > 1e-8 or theta[-1] < HALF_PI - 1e-8:
            raise ValidationError("samples must cover the polar angle range "
                                  "[0, pi/2] including both axes")
        theta[0], theta[-1] = 0.0, HALF_PI
        # kept as given, so that to_json rebuilds the same knots bit for bit
        self._points = pts[order]
        self._knots = theta
        self._coef = pchip_table(theta, r)
        # r^2 over- or underflows for points of extreme size; such tables
        # hold inf, nan or 0, and profile_from_json rejects the profile by
        # its radius squared
        with np.errstate(all="ignore"):
            self._area_coef, knot_area = area_polynomials(np.diff(theta),
                                                          self._coef)
            self._knot_table = (theta, knot_area, 1.0 / (r * r))
        # _segments' lookup; the one on the knot areas T_j is built on
        # first use (_lookups), after profile_from_json has checked that
        # they are finite
        self._knot_lookup = IntervalLookup(theta)
        # r'' = 2 c2 + 6 c3 s is linear on each interval, so its extremes
        # are the one-sided values at the knots
        _, _, c2, c3 = self._coef
        curv = np.max(np.maximum(
            np.abs(2.0 * c2) / r[:-1],
            np.abs(2.0 * c2 + 6.0 * c3 * np.diff(theta)) / r[1:]))
        if not curv <= CURVATURE_BOUND:
            raise ValidationError(
                f"boundary curvature |r''|/r = {curv:.3g} exceeds bound "
                f"{CURVATURE_BOUND:.3g}; data looks cornered")

    def _segments(self, theta):
        """Offsets s from the knot below each angle and the interval
        indices j; the last interval is closed on the right."""
        theta = np.clip(np.asarray(theta, float), 0.0, HALF_PI)
        j = self._knot_lookup(theta)
        return theta - self._knots[j], j

    def _radius(self, s, j):
        c0, c1, c2, c3 = self._coef
        s2 = s * s
        return c0[j] + c1[j] * s + c2[j] * s2 + c3[j] * (s2 * s)

    def boundary_radius(self, theta):
        return self._radius(*self._segments(theta))

    def boundary_radius_deriv(self, theta):
        s, j = self._segments(theta)
        _, c1, c2, c3 = self._coef
        return c1[j] + 2.0 * c2[j] * s + 3.0 * c3[j] * (s * s)

    def kink_angles(self):
        return self._knots

    # -- area parametrization from the exact interval polynomials -----------

    def _area_table(self):
        """(theta_j, T_j, dtheta/dt = 1/r^2) at the knots."""
        return self._knot_table

    def _lookups(self):
        if self._lookup is None:
            self._lookup = (self._knot_lookup,
                            IntervalLookup(self._knot_table[1]))
        return self._lookup

    def quadrant_area(self):
        return 0.5 * self._knot_table[1][-1]

    def _panel_area(self, theta, j):
        """T_j plus the area polynomial of interval j, by Horner one table
        row at a time, so that no (8, n) block of coefficients is built."""
        s = theta - self._knots[j]
        rows = self._area_coef
        t = rows[7][j]
        for row in rows[6::-1]:
            t *= s
            t += row[j]
        return t

    def _panel_rate(self, theta, j):
        r = self._radius(theta - self._knots[j], j)
        return r * r

    def scaled(self, s: float):
        return SplineProfile(self._points * s)

    def to_json(self):
        return {"kind": "sampled", "points": self._points.tolist()}


def perturbed_ellipsoid_points(a: float, b: float, coeffs, n: int = 256):
    """Boundary samples of an ellipsoid whose polar radius is modulated by
    1 + sum_k c_k sin(2 k theta).  Small coefficients keep the partial
    derivatives of the induced F positive."""
    theta = np.linspace(0.0, HALF_PI, n)
    base = 1.0 / (np.cos(theta) / a + np.sin(theta) / b)
    bump = np.ones_like(theta)
    for k, c in enumerate(coeffs, start=1):
        bump += c * np.sin(2.0 * k * theta)
    r = base * bump
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def perturbed_ellipsoid_profile(a: float, b: float, coeffs,
                                n: int = 256) -> SplineProfile:
    return SplineProfile(perturbed_ellipsoid_points(a, b, coeffs, n))


_PROFILE_KEYS = {
    "ellipsoid": {"kind", "a", "b"},
    "lp": {"kind", "p", "a", "b"},
    "sampled": {"kind", "points"},
}


def profile_from_json(obj) -> ToricProfile:
    """Build a profile from its JSON document.

    Accepted forms:
      {"kind": "ellipsoid", "a": 1.0, "b": 2.0}
      {"kind": "lp", "p": 2.0, "a": 1.0, "b": 1.0}
      {"kind": "sampled", "points": [[x, y], ...]}
    """
    if not isinstance(obj, dict):
        raise ValidationError("profile specification must be a JSON object")
    kind = obj.get("kind")
    if kind not in _PROFILE_KEYS:
        raise ValidationError(f"unknown profile kind: {kind!r}")
    unknown = set(obj) - _PROFILE_KEYS[kind]
    if unknown:
        raise ValidationError(f"unknown profile keys: {sorted(unknown)}")
    def number(key, default=None):
        value = float(obj[key] if default is None else obj.get(key, default))
        if not math.isfinite(value):
            raise ValidationError(
                f"profile field {key!r} must be finite, got {obj[key]!r}")
        return value

    try:
        if kind == "ellipsoid":
            profile = EllipsoidProfile(number("a"), number("b"))
        elif kind == "lp":
            profile = LpProfile(number("p"), number("a", 1.0),
                                number("b", 1.0))
        else:
            profile = SplineProfile(obj["points"])
    except KeyError as exc:
        raise ValidationError(f"profile field missing: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad profile field: {exc}") from exc
    # the area and the inversion work with r^2; huge finite intercepts
    # make r overflow (or its level function underflow) before they can
    with np.errstate(all="ignore"):
        r2 = profile.boundary_radius(np.linspace(0.0, HALF_PI, 257)) ** 2
    if not np.all(np.isfinite(r2) & (r2 > 0)):
        raise ValidationError(
            f"{kind} profile radius squared must be finite and positive on "
            "[0, pi/2]; its numbers are out of range")
    if not math.isfinite(profile.two_area):
        raise ValidationError(
            f"profile area must be finite, got 2A = {profile.two_area!r}")
    return profile
