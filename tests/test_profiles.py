import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import betainc

from conftest import (SPLINE_ARGS, load_perfbench, random_star_profile,
                      star_profiles)
from reebsys import profiles
from reebsys.errors import ValidationError
from reebsys.numerics import adaptive_gauss, panel_gauss_many, prefix_fsums
from reebsys.profiles import (BETA_CF_MARGIN, EllipsoidProfile, LpProfile,
                              SplineProfile, perturbed_ellipsoid_points,
                              profile_from_json, round_profile,
                              symmetric_beta_cf)

HALF_PI = math.pi / 2


def central_diff(f, x, y, h=1e-6):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


def level_function(prof):
    """F of a profile by a route apart from its boundary_radius: the closed
    forms x/a + y/b of the ellipsoid and ((x/a)^p + (y/b)^p)^(1/p) of lp,
    and |P| / r(angle of P) with r from scipy's PCHIP through the knots of
    a sampled profile."""
    if isinstance(prof, EllipsoidProfile):
        return lambda x, y: x / prof.a + y / prof.b
    if isinstance(prof, LpProfile):
        return lambda x, y: ((x / prof.a) ** prof.p
                             + (y / prof.b) ** prof.p) ** (1.0 / prof.p)
    ref = PchipInterpolator(*polar_knots(prof._points))
    return lambda x, y: np.hypot(x, y) / ref(np.arctan2(y, x))


def two_pass_lp_gradient_theta(prof, theta):
    """Reference: LpProfile.gradient_theta as it was before it shared one
    cos/sin evaluation, with r from its own cos and sin."""
    theta = np.asarray(theta, float)
    c = np.clip(np.cos(theta), 0.0, None)
    s = np.clip(np.sin(theta), 0.0, None)
    u = ((c / prof.a) ** prof.p + (s / prof.b) ** prof.p) ** (1.0 / prof.p)
    r = 1.0 / u
    x = r * np.clip(np.cos(theta), 0.0, None)
    y = r * np.clip(np.sin(theta), 0.0, None)
    d1 = (x / prof.a) ** (prof.p - 1.0) / prof.a
    d2 = (y / prof.b) ** (prof.p - 1.0) / prof.b
    return d1, d2


def two_pass_sampled_gradient_theta(prof, theta):
    """Reference: the sampled gradient as it was before it shared one
    interval lookup, with r and r' written out from the coefficient
    table and the knot intervals found by searchsorted."""
    theta = np.asarray(theta, float)
    knots = prof.kink_angles()
    c0, c1, c2, c3 = prof._coef
    th = np.clip(theta, 0.0, HALF_PI)
    j = np.clip(np.searchsorted(knots, th, "right") - 1, 0, len(knots) - 2)
    s = th - knots[j]
    s2 = s * s
    r = c0[j] + c1[j] * s + c2[j] * s2 + c3[j] * (s2 * s)
    dr = c1[j] + 2.0 * c2[j] * s + 3.0 * c3[j] * (s * s)
    c, s = np.cos(theta), np.sin(theta)
    d1 = c / r + s * dr / (r * r)
    d2 = s / r - c * dr / (r * r)
    return d1, d2


def assert_same_gradients(got, want):
    for g, w in zip(got, want):
        assert type(g) is type(w)
        np.testing.assert_array_equal(g, w, strict=True)


class TestGradient:
    def test_ellipsoid_gradient_constant(self):
        p = EllipsoidProfile(2.0, 5.0)
        for pt in [(0.3, 0.4), (2.0, 0.0), (0.0, 1.0), (7.0, 3.0)]:
            d1, d2 = p.gradient(*pt)
            assert d1 == pytest.approx(0.5, abs=1e-14)
            assert d2 == pytest.approx(0.2, abs=1e-14)

    def test_round_gradient_on_axis_vs_finite_differences(self, round_p):
        # oracle: central differences of sqrt(x^2 + y^2), frozen at (0, 1)
        f = lambda x, y: math.hypot(x, y)
        d1_fd, d2_fd = central_diff(f, 0.0, 1.0)
        d1, d2 = round_p.gradient(0.0, 1.0)
        assert d1 == pytest.approx(d1_fd, abs=1e-9)
        assert d2 == pytest.approx(d2_fd, abs=1e-9)
        assert (float(d1), float(d2)) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_gradient_interior_vs_finite_differences(self, profile_matrix):
        for p in profile_matrix:
            F = level_function(p)
            for x, y in [(0.4, 0.2), (0.9, 1.1), (0.05, 0.6)]:
                assert float(p.value(x, y)) == pytest.approx(F(x, y),
                                                             rel=1e-12)
                d1_fd, d2_fd = central_diff(lambda u, v: float(F(u, v)), x, y)
                d1, d2 = p.gradient(x, y)
                assert float(d1) == pytest.approx(d1_fd, abs=2e-8)
                assert float(d2) == pytest.approx(d2_fd, abs=2e-8)

    def test_gradient_zero_homogeneous(self, profile_matrix):
        rng = np.random.default_rng(5)
        for p in profile_matrix:
            x = rng.uniform(0.05, 2.0, 20)
            y = rng.uniform(0.05, 2.0, 20)
            d1a, d2a = p.gradient(x, y)
            d1b, d2b = p.gradient(2 * x, 2 * y)
            assert np.max(np.abs(d1a - d1b)) < 1e-9
            assert np.max(np.abs(d2a - d2b)) < 1e-9

    @pytest.mark.parametrize("p, a, b", [(1.1, 1.0, 1.0), (2.0, 1.0, 1.0),
                                         (2.0, 0.7, 1.9), (3.0, 1.2, 0.9),
                                         (40.0, 1.0, 2.0)])
    def test_lp_gradient_theta_matches_two_pass(self, p, a, b):
        prof = LpProfile(p, a, b)
        rng = np.random.default_rng(23)
        theta = np.concatenate([[0.0, HALF_PI, 1e-300, HALF_PI - 1e-12],
                                rng.uniform(0.0, HALF_PI, 4000),
                                np.linspace(0.0, HALF_PI, 257)])
        assert_same_gradients(prof.gradient_theta(theta),
                              two_pass_lp_gradient_theta(prof, theta))
        for th in (0.0, 0.7, HALF_PI):
            assert_same_gradients(prof.gradient_theta(th),
                                  two_pass_lp_gradient_theta(prof, th))

    def test_sampled_gradient_theta_matches_two_pass(self):
        prof = profile_from_json(
            load_perfbench("workloads").profiles(1.0)["spline"])
        knots = prof.kink_angles()
        rng = np.random.default_rng(29)
        theta = np.concatenate([[0.0, HALF_PI], knots,
                                np.nextafter(knots, 0.0),
                                np.nextafter(knots, HALF_PI),
                                rng.uniform(0.0, HALF_PI, 4000)])
        assert_same_gradients(prof.gradient_theta(theta),
                              two_pass_sampled_gradient_theta(prof, theta))
        for th in (0.0, float(knots[100]), 0.7, HALF_PI):
            assert_same_gradients(prof.gradient_theta(th),
                                  two_pass_sampled_gradient_theta(prof, th))

    def test_gradient_at_origin_rejected(self, round_p):
        with pytest.raises(ValidationError):
            round_p.gradient(0.0, 0.0)

    def test_negative_coordinates_rejected(self, round_p):
        with pytest.raises(ValidationError):
            round_p.value(-0.5, 1.0)


class TestArea:
    def test_ellipsoid_area_is_half_product(self):
        assert EllipsoidProfile(1.0, 2.0).quadrant_area() == pytest.approx(1.0, abs=1e-12)
        assert EllipsoidProfile(3.0, 5.0).quadrant_area() == pytest.approx(7.5, abs=1e-11)

    def test_round_area_quarter_disk(self, round_p):
        assert round_p.quadrant_area() == pytest.approx(math.pi / 4, abs=1e-10)

    def test_area_consistent_with_parameter_length(self, profile_matrix):
        for p in profile_matrix:
            assert p.two_area == pytest.approx(2 * p.quadrant_area(), rel=1e-12)


class TestAreaParametrization:
    def test_round_parameter_equals_angle(self, round_p):
        # sector area is theta/2, so t(theta) = theta
        for t in [math.pi / 8, math.pi / 4, 0.3, 1.2]:
            x, y, _, _ = round_p.boundary_arrays(t)
            assert x == pytest.approx(math.cos(t), abs=1e-12)
            assert y == pytest.approx(math.sin(t), abs=1e-12)

    def test_endpoints_hit_intercepts(self, profile_matrix):
        for p in profile_matrix:
            ic = p.intercepts()
            x, y, _, _ = p.boundary_arrays(np.array([0.0, p.two_area]))
            assert (x[0], y[0]) == pytest.approx((ic.a, 0.0), abs=1e-10)
            assert (x[1], y[1]) == pytest.approx((0.0, ic.b), abs=1e-10)

    def test_unit_ellipsoid_midpoint_on_diagonal(self, e11):
        x, y, _, _ = e11.boundary_arrays(0.5)
        assert (x, y) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_out_of_range_rejected(self, round_p):
        with pytest.raises(ValidationError):
            round_p.boundary_arrays(-0.1)
        with pytest.raises(ValidationError):
            round_p.boundary_arrays(round_p.two_area + 0.1)

    def test_hamilton_and_area_rate_residuals(self, profile_matrix):
        h = 1e-5
        rng = np.random.default_rng(11)
        for p in profile_matrix:
            ts = rng.uniform(0.05 * p.two_area, 0.95 * p.two_area, 100)
            xp, yp, _, _ = p.boundary_arrays(ts + h)
            xm, ym, _, _ = p.boundary_arrays(ts - h)
            x0, y0, d1, d2 = p.boundary_arrays(ts)
            xdot = (xp - xm) / (2 * h)
            ydot = (yp - ym) / (2 * h)
            assert np.max(np.abs(xdot + d2) + np.abs(ydot - d1)) < 1e-6
            assert np.max(np.abs(x0 * ydot - y0 * xdot - 1.0)) < 1e-6

    def test_euler_identity_on_boundary(self, profile_matrix):
        rng = np.random.default_rng(3)
        for p in profile_matrix:
            ts = rng.uniform(0.0, p.two_area, 500)
            x, y, d1, d2 = p.boundary_arrays(ts)
            assert np.max(np.abs(x * d1 + y * d2 - 1.0)) < 1e-8

    def test_boundary_points_on_unit_level_set(self, profile_matrix):
        rng = np.random.default_rng(4)
        for p in profile_matrix:
            ts = rng.uniform(0.0, p.two_area, 50)
            x, y, _, _ = p.boundary_arrays(ts)
            vals = level_function(p)(x, y)
            assert np.max(np.abs(np.asarray(vals) - 1.0)) < 1e-10


class TestIntercepts:
    def test_values(self, round_p):
        ic35 = EllipsoidProfile(3.0, 5.0).intercepts()
        assert (ic35.a, ic35.b) == pytest.approx((3.0, 5.0))
        ic = round_p.intercepts()
        assert (ic.a, ic.b) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_euler_consistency_on_axes(self, profile_matrix):
        for p in profile_matrix:
            ic = p.intercepts()
            assert ic.a * ic.d1_at_a == pytest.approx(1.0, abs=1e-9)
            assert ic.b * ic.d2_at_b == pytest.approx(1.0, abs=1e-9)


class TestSampledProfiles:
    def test_spline_matches_analytic_round(self, round_p):
        theta = np.linspace(0.0, HALF_PI, 256)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        sp = SplineProfile(pts)
        assert sp.quadrant_area() == pytest.approx(round_p.quadrant_area(), abs=1e-7)
        ts = np.linspace(0.05, sp.two_area - 0.05, 40)
        d1s = sp.boundary_arrays(ts)[2]
        d1r = round_p.boundary_arrays(ts)[2]
        assert np.max(np.abs(d1s - d1r)) < 1e-4

    def test_corner_data_rejected_with_curvature_bound(self):
        # |r''| sampled at 4096 angles stays near 4 on this corner; at the
        # knots next to the kink |r''|/r is 5.1e4
        with pytest.raises(ValidationError, match="curvature"):
            SplineProfile(corner_points(20000))
        theta = np.linspace(0.0, HALF_PI, 20000)
        SplineProfile(polar_points(theta, np.ones_like(theta)))  # smooth passes

    def test_star_shape_violations_rejected(self):
        theta = np.linspace(0.0, HALF_PI, 50)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(ValidationError):
            SplineProfile(pts[5:])  # misses the x-axis end
        doubled = np.vstack([pts, pts[25]])
        with pytest.raises(ValidationError):
            SplineProfile(doubled)  # repeated polar angle


def polar_knots(points):
    """The sorted polar angles and radii SplineProfile interpolates."""
    pts = np.clip(np.asarray(points, float), 0.0, None)
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    order = np.argsort(theta)
    theta, r = theta[order], r[order]
    theta[0], theta[-1] = 0.0, HALF_PI
    return theta, r


def polar_points(theta, r):
    theta, r = np.asarray(theta), np.asarray(r)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def corner_points(n):
    """n samples of the square's edge r = 1 / max(cos, sin), kinked at
    pi/4."""
    theta = np.linspace(0.0, HALF_PI, n)
    return polar_points(theta, 1.0 / np.maximum(np.cos(theta), np.sin(theta)))


# knots (theta, r) whose secants hit every slope branch of PCHIP: a tiny
# first secant under a steep second one (start slope clamped to 0), a
# sign change at the third knot, an exactly zero secant between mirrored
# points (hypot is symmetric), and a shallow last secant after a steep
# fall (end slope clamped to 3 times the last secant)
BRANCH_THETA = [0.0, 0.2, 0.4, 0.7, HALF_PI - 0.7, 1.1, 1.3, HALF_PI]
BRANCH_R = [1.0, 1.002, 1.2, 1.1, 1.1, 1.1865, 0.9865, 1.0]


def branch_points(radii):
    pts = polar_points(BRANCH_THETA, radii)
    pts[4] = pts[3, ::-1]          # the mirror image of the 0.7 point
    return pts


class TestPchipOracle:
    """r, r' and r'' of SplineProfile equal scipy's PchipInterpolator and
    its derivatives bit for bit, on the knots and between them."""

    def assert_matches_scipy(self, points):
        sp = SplineProfile(points)
        theta, r = polar_knots(points)
        assert np.array_equal(sp._knots, theta)
        ref = PchipInterpolator(theta, r, extrapolate=False)
        assert np.array_equal(sp._coef, ref.c[::-1])
        grid = np.concatenate([
            np.linspace(0.0, HALF_PI, 2001), theta,
            np.random.default_rng(3).uniform(0.0, HALF_PI, 1000)])
        assert np.array_equal(sp.boundary_radius(grid), ref(grid))
        assert np.array_equal(sp.boundary_radius_deriv(grid),
                              ref.derivative(1)(grid))
        for th in (0.0, 0.5, HALF_PI):
            assert sp.boundary_radius(th) == ref(th)
            assert sp.boundary_radius_deriv(th) == ref.derivative(1)(th)
        # angles outside the quadrant are clamped to it
        assert np.array_equal(sp.boundary_radius([-1.0, 2.0]),
                              ref([0.0, HALF_PI]))
        assert np.isnan(sp.boundary_radius(np.nan))
        return sp, theta, r, ref

    def test_conftest_spline(self):
        self.assert_matches_scipy(perturbed_ellipsoid_points(*SPLINE_ARGS))

    def test_random_star_profiles(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            points = random_star_profile(rng).to_json()["points"]
            self.assert_matches_scipy(points)

    def test_clustered_knots(self):
        # 300 knots within 1e-4 rad: dozens per cell of the interval lookup
        theta = np.concatenate([np.linspace(0.0, 1e-4, 300),
                                np.linspace(0.05, HALF_PI, 12)])
        self.assert_matches_scipy(polar_points(theta, 1.0 + 0.1 * np.sin(theta)))

    @pytest.mark.parametrize("radii, zero_end", [(BRANCH_R, 0),
                                                 (BRANCH_R[::-1], 1)],
                             ids=["forward", "reversed"])
    def test_every_slope_branch(self, radii, zero_end):
        _, theta, r, ref = self.assert_matches_scipy(branch_points(radii))
        h, m = np.diff(theta), np.diff(r) / np.diff(theta)
        assert np.any(np.sign(m[1:]) * np.sign(m[:-1]) < 0)
        assert np.count_nonzero(m == 0) == 1
        # (slope, unclamped one-sided estimate, end secant, next secant)
        ends = [(ref.derivative(1)(x), ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1),
                 m0, m1)
                for x, h0, h1, m0, m1 in [(0.0, h[0], h[1], m[0], m[1]),
                                          (HALF_PI, h[-1], h[-2], m[-1], m[-2])]]
        d, raw, m0, _ = ends[zero_end]
        assert np.sign(raw) != np.sign(m0)
        assert d == pytest.approx(0.0, abs=1e-12)
        d, raw, m0, m1 = ends[1 - zero_end]
        assert np.sign(m0) != np.sign(m1) and abs(raw) > 3 * abs(m0)
        assert d == pytest.approx(3.0 * m0, rel=1e-12)

    def test_curvature_rejection_message(self):
        points = corner_points(20000)
        theta, r = polar_knots(points)
        # r'' of each piece is c[0] s + c[1]: its values at both ends of
        # every interval, over r there
        d2 = PchipInterpolator(theta, r, extrapolate=False).derivative(2).c
        curv = max(np.max(np.abs(d2[1]) / r[:-1]),
                   np.max(np.abs(d2[0] * np.diff(theta) + d2[1]) / r[1:]))
        assert curv > 5e4
        with pytest.raises(ValidationError) as exc:
            SplineProfile(points)
        assert str(exc.value) == (f"boundary curvature |r''|/r = {curv:.3g} "
                                  f"exceeds bound 1e+04; data looks cornered")


def closed_form_profiles():
    """Fresh profiles whose t <-> theta maps have closed forms."""
    return [EllipsoidProfile(1.0, 1.0), EllipsoidProfile(1.0, 2.0),
            EllipsoidProfile(0.7, 1.9), round_profile(),
            LpProfile(2.0, 0.8, 1.3)]


def per_lane_hermite_start(profile, tc, slope):
    """The start of the t -> theta inversion with its cubic Hermite
    coefficients formed on each lane from the node slopes dtheta/dt, as
    before they were tabled: (interval, theta)."""
    nodes, tnodes, _ = profile._area_table()
    j = profile._t_lookup()(tc)
    lo = nodes[j]
    hi = nodes[j + 1]
    tlo = tnodes[j]
    h = tnodes[j + 1] - tlo
    s = (tc - tlo) / h
    m0 = h * slope[j]
    d = hi - lo
    c2 = 3.0 * d - 2.0 * m0 - h * slope[j + 1]
    c3 = m0 + h * slope[j + 1] - 2.0 * d
    return j, np.clip(lo + s * (m0 + s * (c2 + s * c3)), lo, hi)


class TestInversion:
    def test_round_trip(self, profile_matrix):
        for p in profile_matrix + [LpProfile(2.0, 0.8, 1.3)]:
            t = np.linspace(0.0, p.two_area, 4001)
            back = p.t_of_theta(p.theta_of_t(t))
            assert np.max(np.abs(back - t)) <= 1e-14 * max(1.0, p.two_area)

    def test_closed_forms_match_quadrature_table(self):
        theta = np.linspace(0.0, HALF_PI, 1001)
        for p in closed_form_profiles():
            t = np.linspace(0.0, p.two_area, 1001)
            assert np.max(np.abs(p.theta_of_t(t)
                                 - gauss_table_theta_of_t(p, t))) <= 1e-13
            assert np.max(np.abs(p.t_of_theta(theta)
                                 - gauss_table_t_of_theta(p, theta))) <= 1e-13
            assert adaptive_quadrant_area(p) == pytest.approx(
                p.quadrant_area(), rel=1e-13)

    def test_lanes_independent_of_batch(self, profile_matrix):
        rng = np.random.default_rng(5)
        for p in profile_matrix + [LpProfile(2.0, 0.8, 1.3)]:
            t = rng.uniform(0.0, p.two_area, 3000)
            parts = [p.theta_of_t(t[i:i + 700]) for i in range(0, len(t), 700)]
            assert np.array_equal(p.theta_of_t(t), np.concatenate(parts))

    @pytest.mark.parametrize("kind", ["lp1.1", "lp3", "lp40", "spline"])
    def test_tabled_hermite_start_matches_per_lane_formula(self, kind):
        # at every table node, one ulp either side, both ends and seeded t
        if kind == "spline":
            profile = profile_from_json(
                load_perfbench("workloads").profiles(1.0)["spline"])
            r = np.hypot(profile._points[:, 0], profile._points[:, 1])
            slope = 1.0 / (r * r)
        else:
            p = float(kind[2:])
            profile = LpProfile(p, 1.2, 0.9) if p == 3.0 else LpProfile(p)
            slope = 1.0 / profile._panel_rate(profile._area_table()[0], None)
        tnodes = profile._area_table()[1]
        t = np.concatenate([
            tnodes, np.nextafter(tnodes, -np.inf), np.nextafter(tnodes, np.inf),
            [0.0, profile.two_area],
            np.random.default_rng(9).uniform(0.0, profile.two_area, 10 ** 4)])
        tc = np.clip(t, 0.0, tnodes[-1])
        j, th, lo, hi = profile._hermite_start(tc)
        want_j, want = per_lane_hermite_start(profile, tc, slope)
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_array_equal(th.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(lo, profile._area_table()[0][j])
        np.testing.assert_array_equal(hi, profile._area_table()[0][j + 1])

    def test_skewed_ellipsoid_intercepts_exact(self):
        ic = EllipsoidProfile(1e-4, 1e4).intercepts()
        assert (ic.a, ic.b) == (1e-4, 1e4)


def exact_quadrant_area(profile):
    """A of a sampled profile in exact rationals: half the sum over the
    knot intervals of the integral of (c0 + c1 s + c2 s^2 + c3 s^3)^2 over
    [0, h_j], with the profile's own coefficients and interval widths."""
    total = Fraction(0)
    for c, h in zip(profile._coef.T.tolist(),
                    np.diff(profile._knots).tolist()):
        c, h = [Fraction(x) for x in c], Fraction(h)
        total += sum(c[k] * c[l] * h ** (k + l + 1) / (k + l + 1)
                     for k in range(4) for l in range(4))
    return total / 2


def sector_rate(profile):
    def rate(theta):
        r = profile.boundary_radius(theta)
        return r * r
    return rate


def gauss_area_table(profile):
    """The area table every kind without a closed form once inverted: t at
    2049 uniform angles, summed from 20-node Gauss panels of r^2."""
    nodes = np.linspace(0.0, HALF_PI, 2049)
    tnodes = np.concatenate([[0.0], np.cumsum(
        panel_gauss_many(sector_rate(profile), nodes[:-1], nodes[1:]))])
    return nodes, tnodes


def gauss_table_t_of_theta(profile, theta):
    """theta -> t on the Gauss area table: the table's t at the node
    below theta plus one Gauss panel from there."""
    nodes, tnodes = gauss_area_table(profile)
    j = np.clip(np.searchsorted(nodes, theta, side="right") - 1,
                0, len(nodes) - 2)
    return tnodes[j] + panel_gauss_many(sector_rate(profile), nodes[j], theta)


def gauss_table_theta_of_t(profile, t):
    """The t -> theta inversion of sampled profiles before their exact
    area polynomials and of lp profiles before their incomplete-beta
    closed form: a cubic Hermite start on the Gauss area table and Newton
    steps on the panel residual until it is within 1e-14 * max(1, t_max)."""
    rate = sector_rate(profile)
    nodes, tnodes = gauss_area_table(profile)
    slope = 1.0 / rate(nodes)
    t_max = tnodes[-1]
    tc = np.clip(t, 0.0, t_max)
    j = np.clip(np.searchsorted(tnodes, tc, side="right") - 1,
                0, len(tnodes) - 2)
    lo, hi, tlo = nodes[j], nodes[j + 1], tnodes[j]
    h = tnodes[j + 1] - tlo
    s = (tc - tlo) / h
    m0, m1, d = h * slope[j], h * slope[j + 1], hi - lo
    th = np.clip(lo + s * (m0 + s * (3.0 * d - 2.0 * m0 - m1
                                     + s * (m0 + m1 - 2.0 * d))), lo, hi)
    base = lo.copy()
    tol = 1e-14 * max(1.0, t_max)
    live = np.arange(t.size)
    for _ in range(80):
        f = tlo[live] + panel_gauss_many(rate, base[live], th[live]) - tc[live]
        miss = np.abs(f) > tol
        live, f = live[miss], f[miss]
        x = th[live]
        hi[live] = np.where(f > 0, x, hi[live])
        lo[live] = np.where(f < 0, x, lo[live])
        cand = x - f / rate(x)
        inside = (cand > lo[live]) & (cand < hi[live])
        th[live] = np.where(inside, cand, 0.5 * (lo[live] + hi[live]))
    assert live.size == 0
    return th


def adaptive_quadrant_area(profile):
    """A by the panel-doubling Gauss rule to an absolute 1e-10, the area
    of every kind without a closed form before the exact ones."""
    rate = sector_rate(profile)
    val, _ = adaptive_gauss(lambda th: 0.5 * rate(th), 0.0, HALF_PI,
                            tol=1e-10)
    return val


@pytest.fixture(scope="module")
def seeded_stars():
    rng = np.random.default_rng(5)
    return [random_star_profile(rng) for _ in range(30)]


def sampled_cases(spline_p):
    """The golden and benchmark splines, every PCHIP slope branch and
    clustered knots."""
    bench = load_perfbench("workloads").profiles(1.0)["spline"]
    theta = np.concatenate([np.linspace(0.0, 1e-4, 300),
                            np.linspace(0.05, HALF_PI, 12)])
    return [spline_p, profile_from_json(bench),
            SplineProfile(branch_points(BRANCH_R)),
            SplineProfile(polar_points(theta, 1.0 + 0.1 * np.sin(theta)))]


class TestExactArea:
    """Sampled profiles map t <-> theta through the exact degree-7
    interval polynomials of t(theta); lp profiles have the Dirichlet
    area."""

    def test_sampled_area_is_the_exact_polynomial_sum(self, spline_p):
        for p in sampled_cases(spline_p):
            exact = exact_quadrant_area(p)
            assert abs(Fraction(p.quadrant_area()) - exact) <= \
                2 * Fraction(math.ulp(float(exact)))
            assert p.two_area == p.t_of_theta(HALF_PI)

    def test_prefix_fsums_are_correctly_rounded(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.integers(-20, 20, 200)
        sums = prefix_fsums(values)
        assert sums[0] == 0.0
        assert all(sums[i] == math.fsum(values[:i]) for i in range(1, 201))
        with np.errstate(over="ignore"):
            assert np.isinf(prefix_fsums([1e308, 1e308, 1.0])[-1])

    def test_round_trip_within_area_ulps(self, profile_matrix, seeded_stars):
        for p in profile_matrix + seeded_stars:
            t = np.linspace(0.0, p.two_area, 4001)
            back = p.t_of_theta(p.theta_of_t(t))
            assert np.max(np.abs(back - t)) <= 1e-14 * p.two_area

    def test_theta_matches_gauss_table_oracle(self, spline_p, seeded_stars):
        rng = np.random.default_rng(12)
        for p in sampled_cases(spline_p) + seeded_stars:
            t = np.concatenate([np.linspace(0.0, p.two_area, 1001),
                                rng.uniform(0.0, p.two_area, 1000)])
            assert np.max(np.abs(p.theta_of_t(t)
                                 - gauss_table_theta_of_t(p, t))) <= 1e-13

    def test_sampled_profiles_use_no_quadrature(self, spline_p, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        p = SplineProfile(spline_p.to_json()["points"])
        monkeypatch.setattr("reebsys.numerics.panel_gauss_many", refuse)
        monkeypatch.setattr("reebsys.numerics.adaptive_gauss", refuse)
        theta = p.theta_of_t(np.linspace(0.0, p.two_area, 2 ** 15))
        p.t_of_theta(theta)
        p.boundary_arrays(0.3)

    @pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 2.0, 3.0, 4.5])
    def test_lp_area_is_the_dirichlet_integral(self, p):
        a, b = 1.2, 0.9
        area = LpProfile(p, a, b).quadrant_area()
        gamma_form = load_perfbench("checks").profile_area(
            {"kind": "lp", "p": p, "a": a, "b": b})
        # p = 2 keeps pi a b / 4, within an ulp of math.gamma's value
        assert area == pytest.approx(gamma_form, rel=0 if p != 2 else 1e-15)
        graph, _ = quad(lambda x: b * (1.0 - (x / a) ** p) ** (1.0 / p),
                        0.0, a, epsabs=0.0, epsrel=1.2e-14, limit=200)
        assert area == pytest.approx(graph, rel=2e-15)

    def test_lp_area_against_the_adaptive_rule(self):
        # the rule had converged on the matrix's lp p=3; at p = 1.5, where
        # r^2 is not smooth at the axes, its absolute tolerance stopped it
        # more than 1e-11 off
        lp3 = LpProfile(3.0, 1.2, 0.9)
        assert lp3.quadrant_area() == pytest.approx(
            adaptive_quadrant_area(lp3), rel=1e-15)
        lp15 = LpProfile(1.5)
        assert abs(adaptive_quadrant_area(lp15)
                   - lp15.quadrant_area()) > 1e-11


LP_EXPONENTS = [1.0, 1.1, 1.5, 3.0, 4.5, 40.0, 1e3, 1e6]


class TestLpClosedForm:
    """lp with p != 2 maps theta -> t = 2A I_v(1/p, 1/p), v = Y / (X + Y)
    with X = (cos theta / a)^p and Y = (sin theta / b)^p."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", LP_EXPONENTS)
    def test_matches_scipy_betainc(self, p):
        a, b = 1.2, 0.9
        lp = LpProfile(p, a, b)
        corner = math.atan(b / a)           # v = 1/2
        theta = np.concatenate([
            np.linspace(0.0, HALF_PI, 2001),
            corner + np.linspace(-1e-3, 1e-3, 2001),
            corner * (1.0 + np.array([-1e-15, 0.0, 1e-15]))])
        c, s = np.cos(theta) / a, np.sin(theta) / b
        m = np.maximum(c, s)
        x, y = (c / m) ** p, (s / m) ** p
        v, u = y / (x + y), x / (x + y)     # v and 1 - v, each directly
        two_area = lp.two_area
        want = np.where(v <= u, two_area * betainc(1 / p, 1 / p, v),
                        two_area - two_area * betainc(1 / p, 1 / p, u))
        # where min(v, 1 - v) underflows, betainc sees 0 but t is not 0 or
        # 2A there: the closed form keeps v^q (1 - v)^q in x y
        kept = ((np.minimum(u, v) >= np.finfo(float).tiny)
                | (theta == 0.0) | (theta == HALF_PI))
        assert kept.sum() > 600
        got = lp.t_of_theta(theta)
        assert np.max(np.abs(got - want)[kept]) <= 2e-15 * two_area

    @pytest.mark.parametrize("p, tol", [(3.0, 1e-13), (1.1, 2e-13)])
    def test_theta_matches_gauss_table_oracle(self, p, tol):
        # at p = 1.1 the Gauss table's own t is 8.5e-14 * 2A off
        lp = LpProfile(p, 1.2, 0.9)
        rng = np.random.default_rng(12)
        t = np.concatenate([np.linspace(0.0, lp.two_area, 1001),
                            rng.uniform(0.0, lp.two_area, 1000)])
        assert np.max(np.abs(lp.theta_of_t(t)
                             - gauss_table_theta_of_t(lp, t))) <= tol

    @pytest.mark.parametrize("p", [1.1, 3.0, 40.0])
    def test_lanes_independent_of_batch(self, p):
        lp = LpProfile(p, 1.2, 0.9)
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, lp.two_area, 3000)
        theta = rng.uniform(0.0, HALF_PI, 3000)
        for f, x in ((lp.theta_of_t, t), (lp.t_of_theta, theta)):
            whole = f(x)
            for k in (1, 7, 700):
                parts = [f(x[i:i + k]) for i in range(0, x.size, k)]
                assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("p", LP_EXPONENTS)
    def test_ends_of_the_range_are_exact(self, p):
        lp = LpProfile(p, 1.2, 0.9)
        assert lp.t_of_theta(0.0) == 0.0
        assert lp.t_of_theta(HALF_PI) == lp.two_area
        assert lp.theta_of_t(0.0) == 0.0
        assert lp.theta_of_t(lp.two_area) == HALF_PI

    @pytest.mark.parametrize("p", [1.1, 2.0, 3.0])
    @pytest.mark.parametrize("b", [3.0, 10.0, 100.0])
    def test_tall_profile_ends_at_two_area(self, p, b):
        # cos(pi/2) is 6.1e-17, so both forms alone end a few ulps below 2A
        # when b > a; angles below pi/2 keep the bits of those forms
        lp = LpProfile(p, 1.0, b)
        theta = np.r_[np.linspace(0.0, HALF_PI, 1001)[:-1],
                      np.nextafter(HALF_PI, 0.0), HALF_PI, 2.0]
        t = lp.t_of_theta(theta)
        assert lp.t_of_theta(HALF_PI) == lp.two_area
        assert t[-2] == t[-1] == lp.two_area
        below = theta[:-2]
        if p == 2.0:
            form = lp.a * lp.b * np.arctan2(lp.a * np.sin(below),
                                            lp.b * np.cos(below))
        else:
            form = lp._panel_area(below, None)
        assert np.array_equal(t[:-2], form)
        assert np.all(t[:-2] < lp.two_area)

    def test_p1_gives_the_ellipsoid_area(self):
        # d_2 = 0 at p = 1, so the fraction is 1 / (1 - v) and t = a y
        theta = np.linspace(0.0, HALF_PI, 1001)
        lp, e = LpProfile(1.0, 1.2, 0.9), EllipsoidProfile(1.2, 0.9)
        assert lp.two_area == e.two_area
        assert np.max(np.abs(lp.t_of_theta(theta) - e.t_of_theta(theta))) \
            <= 1e-15 * e.two_area

    def test_fraction_depth(self):
        # the steps that converge at v = 1/2, before the margin
        steps = [(symmetric_beta_cf(1.0 / p).size - 1) // 2 - BETA_CF_MARGIN
                 for p in np.geomspace(1.0001, 1e6, 400)]
        assert 1 <= min(steps) and max(steps) <= 11
        assert symmetric_beta_cf(1.0).size == 2 * (1 + BETA_CF_MARGIN) + 1

    def test_uses_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr("reebsys.numerics.panel_gauss_many", refuse)
        monkeypatch.setattr("reebsys.numerics.adaptive_gauss", refuse)
        assert not hasattr(profiles, "panel_gauss_many")
        assert not hasattr(profiles, "adaptive_gauss")
        lp = LpProfile(3.0, 1.2, 0.9)
        theta = lp.theta_of_t(np.linspace(0.0, lp.two_area, 2 ** 15))
        lp.t_of_theta(theta)
        lp.boundary_arrays(0.3)


class TestJson:
    def test_roundtrip(self, profile_matrix):
        # the echoed document rebuilds the same profile bit for bit
        for p in profile_matrix:
            q = profile_from_json(p.to_json())
            assert q.kind == p.kind
            assert q.two_area == p.two_area
            t = np.linspace(0.0, p.two_area, 128)
            for a, b in zip(q.boundary_arrays(t), p.boundary_arrays(t)):
                assert np.array_equal(a, b)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"at \$: keys \['c'\] are not allowed"):
            profile_from_json({"kind": "ellipsoid", "a": 1.0, "b": 1.0, "c": 3})
        with pytest.raises(ValidationError,
                           match=r"at \$: keys \['radius'\] are not allowed"):
            profile_from_json({"kind": "lp", "p": 2.0, "radius": 1.0})

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_json({"kind": "ellipsoid", "a": -1.0, "b": 1.0})
        with pytest.raises(ValidationError):
            profile_from_json({"kind": "lp", "p": 0.5})
        with pytest.raises(ValidationError):
            profile_from_json(["not", "an", "object"])

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "ellipsoid", "a": "inf", "b": 1.0},
         "at $.a: 'inf' is not of type number"),
        ({"kind": "lp", "p": 1e400}, "at $.p: inf is not a finite double"),
        ({"kind": "lp", "p": 2.0, "b": "-inf"},
         "at $.b: '-inf' is not of type number"),
        ({"kind": "sampled",
          "points": [[1.0, 0.0], [0.7, 0.7], ["inf", 1.0], [0.0, 1.0]]},
         "at $.points[2][0]: 'inf' is not of type number"),
    ], ids=["ellipsoid-a", "lp-p", "lp-b", "sampled-point"])
    def test_non_finite_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            profile_from_json(doc)


@given(star_profiles())
def test_random_star_profiles_satisfy_euler(profile):
    ts = np.linspace(0.0, profile.two_area, 64)
    x, y, d1, d2 = profile.boundary_arrays(ts)
    assert np.max(np.abs(x * d1 + y * d2 - 1.0)) < 1e-8
    assert profile.quadrant_area() > 0


@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
def test_ellipsoid_area_formula(a, b):
    assert EllipsoidProfile(a, b).quadrant_area() == pytest.approx(a * b / 2, rel=1e-10)


@given(st.floats(1.0, 5.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(0.0, 1.0))
def test_lp_gradient_zero_homogeneity(p, a, b, frac):
    profile = LpProfile(p, a, b)
    theta = frac * HALF_PI
    x, y = 0.7 * math.cos(theta) + 1e-6, 0.7 * math.sin(theta) + 1e-6
    d1a, d2a = profile.gradient(x, y)
    d1b, d2b = profile.gradient(3 * x, 3 * y)
    assert float(d1a) == pytest.approx(float(d1b), abs=1e-9)
    assert float(d2a) == pytest.approx(float(d2b), abs=1e-9)
