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
are tabled at construction; 2A is the last T_j and theta -> t is T_j plus
one Horner evaluation.  lp with p != 2 has the area a b Gamma(1 + 1/p)^2 /
Gamma(1 + 2/p), and u = tan theta, v = w^p / (1 + w^p) with w = a u / b
turn the integral of r^2 into 2A I_v(1/p, 1/p), a regularized incomplete
beta function: theta -> t is x y h(v) for v <= 1/2 and 2A - x y h(1 - v)
above, with (x, y) the boundary point and h the continued fraction of
I_v(1/p, 1/p) over its leading power, at one fixed depth per profile.
Both kinds invert t -> theta the same way: nodes (theta_j, t_j) (the
knots of a sampled profile, 2049 uniform angles for lp), one interval
lookup per lane, a cubic Hermite start in t whose coefficients per
interval are tabled once with the nodes, and bracketed Newton steps on
the exact map, until each lane's residual is within 1e-14 * 2A, each lane
independently of the others in its batch.  Every interval of a theta or t
node table is found by one numerics.IntervalLookup, a uniform cell table,
which gives the index a binary search would.

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
from .numerics import (IntervalLookup, combine_extremes, grid_chunks,
                       prefix_fsums)
from .reports import validate_input

HALF_PI = math.pi / 2.0
AREA_TABLE_PANELS = 2048    # intervals of the lp area table
BETA_CF_MARGIN = 2          # continued-fraction steps past convergence at v = 1/2
CURVATURE_BOUND = 1e4       # largest |r''| / r accepted at sampled-boundary knots


def grid_theta(k, n: int):
    """The nodes k of np.linspace(0, pi/2, n) from their indices, bit for
    bit: k * ((pi/2) / (n - 1)), and pi/2 at k = n - 1."""
    k = np.asarray(k)
    return np.where(k == n - 1, HALF_PI, k * (HALF_PI / (n - 1)))


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
    """Base class of the profile kinds.

    A kind supplies r(theta) (boundary_radius), the gradient along a ray
    (gradient_theta), the area A and the maps t <-> theta (quadrant_area,
    _t_of_theta, and _theta_of_t or the area table and panel maps the
    Newton inversion steps on), scaled and to_json.  F and its gradient at
    a point of the plane (value, gradient) follow from r and
    gradient_theta by homogeneity, for every kind.
    """

    kind = "abstract"

    def __init__(self):
        self._lookup = None

    # -- subclass surface -------------------------------------------------

    def boundary_radius(self, theta):
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
        """Gradient (D1F, D2F) along the ray of polar angle theta."""
        raise NotImplementedError

    # -- area parametrization ----------------------------------------------

    def _sector_rate(self, theta):
        r = self.boundary_radius(theta)
        return r * r

    def quadrant_area(self):
        """Area A of {F <= 1} in the first quadrant."""
        raise NotImplementedError

    def _area_table(self):
        """(theta_j, t_j, hermite_rows(theta_j, t_j, 1/r^2)), the t -> theta
        start table, built once by the kinds that invert by Newton steps."""
        raise NotImplementedError

    def _t_lookup(self):
        """IntervalLookup on the t nodes of the area table, built on first
        use."""
        if self._lookup is None:
            self._lookup = IntervalLookup(self._area_table()[1])
        return self._lookup

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
        slack = 1e-9 * two_area
        if np.any(t < -slack) or np.any(t > two_area + slack):
            raise ValidationError(
                f"area parameter out of range [0, {two_area:.12g}]")
        th = self._theta_of_t(t)
        return float(th[0]) if scalar else th

    def _t_of_theta(self, theta):
        raise NotImplementedError

    def _panel_area(self, theta, j):
        """t at theta, which lies in interval j of the area table."""
        raise NotImplementedError

    def _panel_rate(self, theta, j):
        """dt/dtheta = r^2 at theta, which lies in interval j."""
        raise NotImplementedError

    def _hermite_start(self, tc):
        """(j, theta, theta_j, theta_j+1): the table interval of each t in
        [0, 2A], the cubic Hermite start in it (a gather of the interval's
        hermite_rows and one Horner step) and the interval's ends."""
        nodes, tnodes, (h, m0, c2, c3) = self._area_table()
        j = self._t_lookup()(tc)
        lo = nodes[j]
        hi = nodes[j + 1]
        s = tc - tnodes[j]
        s /= h[j]
        th = c3[j]
        for term in (c2[j], m0[j], lo):
            th *= s
            th += term
        return j, np.clip(th, lo, hi, out=th), lo, hi

    def _theta_of_t(self, t):
        """Cubic Hermite start on the area table, Newton where it misses.

        A lane is returned once its _panel_area is within 1e-14 * t_max of
        t; the Newton steps run on the lanes that still miss, kept inside
        their table interval.  The first step is taken at full width, with
        no gathers, and kept only where the start missed: on sampled
        profiles nearly every lane misses after the start (99% on the
        benchmark spline), on lp profiles none does.
        """
        t_max = self._area_table()[1][-1]
        tc = np.clip(t, 0.0, t_max)
        j, th, lo, hi = self._hermite_start(tc)
        tol = 1e-14 * t_max
        f = self._panel_area(th, j) - tc
        miss = np.abs(f) > tol
        if not miss.any():
            return th
        hi = np.where(f > 0, th, hi)
        lo = np.where(f < 0, th, lo)
        cand = th - f / np.maximum(self._panel_rate(th, j), 1e-300)
        inside = np.isfinite(cand) & (cand > lo) & (cand < hi)
        np.copyto(th, np.where(inside, cand, 0.5 * (lo + hi)), where=miss)
        live = np.flatnonzero(miss)
        for _ in range(79):
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

    def intercepts(self) -> Intercepts:
        """Axis intersections (a, 0) and (0, b) with the Euler consistency pair."""
        a = float(self.boundary_radius(0.0))
        b = float(self.boundary_radius(HALF_PI))
        d1a, _ = self.gradient_theta(0.0)
        _, d2b = self.gradient_theta(HALF_PI)
        return Intercepts(a, b, float(d1a), float(d2b))

    def grid_partials(self, grid_n: int):
        """theta = np.linspace(0, pi/2, grid_n) and (D1F, D2F) on it,
        evaluated GRID_CHUNK nodes at a time."""
        theta = np.linspace(0.0, HALF_PI, grid_n)
        d1, d2 = np.empty(grid_n), np.empty(grid_n)
        for s in grid_chunks(grid_n):
            d1[s], d2[s] = self.gradient_theta(theta[s])
        return theta, d1, d2

    def partials_range(self, grid):
        """(min d1, max d1, min d2, max d2) over grid = grid_partials(n),
        the kink angles and the midpoint between each two kinks, so that a
        dip between knots closer than a grid cell is seen too.  The grid's
        partials are not evaluated again.  With nonnegative partials the
        four bound the diagonal D1F * D2F too, after rounding as well
        (systolic module docstring)."""
        parts = [grid[1:]]
        kinks = self.kink_angles()
        if kinks.size:
            parts.append(self.gradient_theta(np.concatenate(
                [kinks, 0.5 * (kinks[:-1] + kinks[1:])])))
        return combine_extremes(parts)

    def has_positive_partials(self, grid_n: int = 4096) -> bool:
        return positive_partials(
            *self.partials_range(self.grid_partials(grid_n)))


def positive_partials(m1, M1, m2, M2) -> bool:
    """Whether partials over [m1, M1] and [m2, M2] (partials_range) are
    nonnegative up to rounding, relative to the partials, so at any size:
    max(M1, M2) >= 1/max(a, b) > 0 by the Euler identity."""
    return min(m1, m2) >= -1e-10 * max(M1, M2)


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
        self._beta_cf = symmetric_beta_cf(1.0 / self.p)
        self._table = None

    @staticmethod
    def _direction(theta):
        """(cos theta, sin theta) clipped to the closed first quadrant."""
        theta = np.asarray(theta, float)
        return (np.clip(np.cos(theta), 0.0, None),
                np.clip(np.sin(theta), 0.0, None))

    def _unit_value(self, c, s):
        # F at the unit vector (c, s) = _direction(theta)
        return ((c / self.a) ** self.p + (s / self.b) ** self.p) ** (1.0 / self.p)

    def boundary_radius(self, theta):
        return 1.0 / self._unit_value(*self._direction(theta))

    def gradient_theta(self, theta):
        c, s = self._direction(theta)
        r = 1.0 / self._unit_value(c, s)
        x = r * c
        y = r * s
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
            t = self._panel_area(theta, None)
        else:
            u = np.arctan2(self.a * np.sin(theta), self.b * np.cos(theta))
            t = self.a * self.b * u
        # cos(pi/2) is 6.1e-17, not 0, so on a tall profile (b > a) both
        # forms end a few ulps below 2A there
        np.copyto(t, self.two_area, where=theta >= HALF_PI)
        return t

    # -- p != 2: the incomplete-beta closed form ---------------------------

    def _area_table(self):
        """The start table at AREA_TABLE_PANELS + 1 uniform angles."""
        if self._table is None:
            theta = np.linspace(0.0, HALF_PI, AREA_TABLE_PANELS + 1)
            t = self._panel_area(theta, None)
            self._table = (theta, t, hermite_rows(
                theta, t, 1.0 / self._panel_rate(theta, None)))
        return self._table

    def _ratio(self, theta):
        """(rho, m, upper) along the angles theta in [0, pi/2]: with
        X = (cos theta / a)^p and Y = (sin theta / b)^p, m is
        max(cos theta / a, sin theta / b) and rho = min(...) / m, so that
        rho^p = min(X, Y) / max(X, Y) is at most 1 at every scale and p;
        upper marks Y > X, where v = Y / (X + Y) > 1/2."""
        ca = np.cos(theta)
        ca /= self.a
        sb = np.sin(theta)
        sb /= self.b
        upper = sb > ca
        m = np.maximum(ca, sb)
        np.minimum(ca, sb, out=ca)
        ca /= m
        return ca, m, upper

    def _panel_area(self, theta, j):
        """t(theta) = 2A I_v(1/p, 1/p); needs no table interval j.

        With z = rho^p and w = z / (1 + z) = min(v, 1 - v), the boundary
        point has x y = a b rho (1 + z)^(-2/p), which is 2A w^q (1 - w)^q /
        (q B(q, q)) for q = 1/p; so t = x y h(w) below v = 1/2 and
        2A - x y h(w) above, with h the continued fraction.  At theta = 0
        and pi/2 that gives 0 and 2A, at p = 1 it gives a y.
        """
        rho, step, upper = self._ratio(theta)   # m's buffer becomes scratch
        z = rho ** self.p
        xy = z + 1.0
        np.divide(z, xy, out=z)                 # w
        np.power(xy, -2.0 / self.p, out=xy)
        xy *= rho
        xy *= self.a * self.b
        # the fraction from its last partial numerator up, every lane to
        # the profile's fixed depth, so that a lane's bits do not depend
        # on its batch
        d = self._beta_cf
        f = z * d[-1]
        f += 1.0
        for dk in d[-2::-1]:
            np.multiply(z, dk, out=step)
            np.divide(step, f, out=f)
            f += 1.0
        np.divide(xy, f, out=xy)
        np.subtract(self.two_area, xy, out=xy, where=upper)
        return xy

    def _panel_rate(self, theta, j):
        """dt/dtheta = r^2 = ((1 + rho^p)^(-1/p) / m)^2."""
        rho, m, _ = self._ratio(theta)
        r = (1.0 + rho ** self.p) ** (-1.0 / self.p) / m
        return r * r

    def scaled(self, s: float):
        return LpProfile(self.p, self.a * s, self.b * s)

    def to_json(self):
        return {"kind": "lp", "p": self.p, "a": self.a, "b": self.b}


def symmetric_beta_cf(q: float) -> np.ndarray:
    """Partial numerators over v, d_1/v, ..., d_2M+1/v, of the continued
    fraction of the regularized incomplete beta function I_v(q, q):

        I_v(q, q) = v^q (1 - v)^q / (q B(q, q)) / (1 + d_1/(1 + d_2/(1 + ...)))

    with d_2m = m (q - m) v / ((q + 2m - 1)(q + 2m)) and d_2m+1 =
    -(q + m)(2q + m) v / ((q + 2m)(q + 2m + 1)) (DLMF 8.17.22).  For
    v <= 1/2 it converges, slowest at v = 1/2.  M is the number of steps
    (pairs d_2m, d_2m+1) after which the modified Lentz method at v = 1/2
    changes the value by at most one ulp, as in Press et al., Numerical
    Recipes, 3rd ed., section 6.4 (betacf), plus BETA_CF_MARGIN.  Every
    evaluation runs to depth M, so no lane stops on its own.
    """
    def odd(m):
        return -(q + m) * (2.0 * q + m) / ((q + 2 * m) * (q + 2 * m + 1))

    def even(m):
        return m * (q - m) / ((q + 2 * m - 1) * (q + 2 * m))

    x = 0.5
    d = 1.0 / (1.0 + odd(0) * x)
    c = 1.0
    for m in range(1, 101):
        for aa in (even(m) * x, odd(m) * x):
            d = 1.0 / (1.0 + aa * d)
            c = 1.0 + aa / c
        if abs(d * c - 1.0) <= np.finfo(float).eps:
            break
    else:
        raise NumericalError(f"incomplete beta fraction at q = {q:g} did "
                             "not converge in 100 steps")
    depth = m + BETA_CF_MARGIN
    return np.array([odd(0)] + [f(k) for k in range(1, depth + 1)
                                for f in (even, odd)])


def hermite_rows(theta, t, slope):
    """(h, m0, c2, c3) on each interval of increasing nodes (t_j, theta_j)
    with slopes dtheta/dt: the cubic Hermite interpolant of theta(t) is
    theta_j + s (m0 + s (c2 + s c3)) there, with s = (t - t_j) / h."""
    h = np.diff(t)
    d = np.diff(theta)
    m0 = h * slope[:-1]
    m1 = h * slope[1:]
    return h, m0, 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d


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
        # radii of extreme size over- or underflow the table and the
        # curvature below; a curvature that is not finite is rejected
        with np.errstate(all="ignore"):
            self._coef = pchip_table(theta, r)
        # r^2 over- or underflows for points of extreme size; such tables
        # hold inf, nan or 0, and profile_from_json rejects the profile by
        # its radius squared
        with np.errstate(all="ignore"):
            self._area_coef, knot_area = area_polynomials(np.diff(theta),
                                                          self._coef)
            self._knot_table = (theta, knot_area,
                                hermite_rows(theta, knot_area, 1.0 / (r * r)))
        # _segments' lookup; the one on the knot areas T_j is built on
        # first use (_t_lookup), after profile_from_json has checked that
        # they are finite
        self._knot_lookup = IntervalLookup(theta)
        # r'' = 2 c2 + 6 c3 s is linear on each interval, so its extremes
        # are the one-sided values at the knots
        _, _, c2, c3 = self._coef
        with np.errstate(all="ignore"):
            curv = np.max(np.maximum(
                np.abs(2.0 * c2) / r[:-1],
                np.abs(2.0 * c2 + 6.0 * c3 * np.diff(theta)) / r[1:]))
        if not np.isfinite(curv):
            raise ValidationError(
                f"boundary curvature |r''|/r is not finite with sample radii "
                f"from {r.min():.3g} to {r.max():.3g}; the samples span too "
                f"many scales or crowd too close")
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

    def _radius_deriv(self, s, j):
        _, c1, c2, c3 = self._coef
        return c1[j] + 2.0 * c2[j] * s + 3.0 * c3[j] * (s * s)

    def boundary_radius_deriv(self, theta):
        return self._radius_deriv(*self._segments(theta))

    def gradient_theta(self, theta):
        """From r and r' at theta, on one interval lookup."""
        theta = np.asarray(theta, float)
        s, j = self._segments(theta)
        r = self._radius(s, j)
        dr = self._radius_deriv(s, j)
        c, s = np.cos(theta), np.sin(theta)
        d1 = c / r + s * dr / (r * r)
        d2 = s / r - c * dr / (r * r)
        return d1, d2

    def kink_angles(self):
        return self._knots

    # -- area parametrization from the exact interval polynomials -----------

    def _area_table(self):
        """The start table at the knots, with t_j = T_j."""
        return self._knot_table

    def _t_of_theta(self, theta):
        return self._panel_area(theta, self._knot_lookup(theta))

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


def profile_from_json(obj) -> ToricProfile:
    """Build a profile from its JSON document, checked against the
    profile record of records.v1.json.

    Accepted forms:
      {"kind": "ellipsoid", "a": 1.0, "b": 2.0}
      {"kind": "lp", "p": 2.0, "a": 1.0, "b": 1.0}   (a and b default to 1)
      {"kind": "sampled", "points": [[x, y], ...]}
    """
    kind = validate_input("profile", obj)["kind"]
    if kind == "ellipsoid":
        profile = EllipsoidProfile(obj["a"], obj["b"])
    elif kind == "lp":
        profile = LpProfile(obj["p"], obj.get("a", 1.0), obj.get("b", 1.0))
    else:
        profile = SplineProfile(obj["points"])
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
