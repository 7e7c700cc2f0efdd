import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from conftest import SPLINE_ARGS, random_star_profile, star_profiles
from reebsys.errors import ValidationError
from reebsys.profiles import (EllipsoidProfile, LpProfile, SplineProfile,
                              ToricProfile, perturbed_ellipsoid_points,
                              profile_from_json, round_profile)

HALF_PI = math.pi / 2


def central_diff(f, x, y, h=1e-6):
    return ((f(x + h, y) - f(x - h, y)) / (2 * h),
            (f(x, y + h) - f(x, y - h)) / (2 * h))


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
            for x, y in [(0.4, 0.2), (0.9, 1.1), (0.05, 0.6)]:
                d1_fd, d2_fd = central_diff(lambda u, v: float(p.value(u, v)), x, y)
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
            bp = round_p.boundary_point(t)
            assert bp.x == pytest.approx(math.cos(t), abs=1e-12)
            assert bp.y == pytest.approx(math.sin(t), abs=1e-12)

    def test_endpoints_hit_intercepts(self, profile_matrix):
        for p in profile_matrix:
            ic = p.intercepts()
            start = p.boundary_point(0.0)
            end = p.boundary_point(p.two_area)
            assert (start.x, start.y) == pytest.approx((ic.a, 0.0), abs=1e-10)
            assert (end.x, end.y) == pytest.approx((0.0, ic.b), abs=1e-10)

    def test_unit_ellipsoid_midpoint_on_diagonal(self, e11):
        bp = e11.boundary_point(0.5)
        assert (bp.x, bp.y) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_out_of_range_rejected(self, round_p):
        with pytest.raises(ValidationError):
            round_p.boundary_point(-0.1)
        with pytest.raises(ValidationError):
            round_p.boundary_point(round_p.two_area + 0.1)

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
            vals = p.value(x, y)
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
                                 - ToricProfile._theta_of_t(p, t))) <= 1e-13
            assert np.max(np.abs(p.t_of_theta(theta)
                                 - ToricProfile._t_of_theta(p, theta))) <= 1e-13
            assert ToricProfile.quadrant_area(p) == pytest.approx(
                p.quadrant_area(), rel=1e-13)

    def test_lanes_independent_of_batch(self, profile_matrix):
        rng = np.random.default_rng(5)
        for p in profile_matrix + [LpProfile(2.0, 0.8, 1.3)]:
            t = rng.uniform(0.0, p.two_area, 3000)
            parts = [p.theta_of_t(t[i:i + 700]) for i in range(0, len(t), 700)]
            assert np.array_equal(p.theta_of_t(t), np.concatenate(parts))

    def test_skewed_ellipsoid_intercepts_exact(self):
        ic = EllipsoidProfile(1e-4, 1e4).intercepts()
        assert (ic.a, ic.b) == (1e-4, 1e4)


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
        with pytest.raises(ValidationError, match="unknown"):
            profile_from_json({"kind": "ellipsoid", "a": 1.0, "b": 1.0, "c": 3})
        with pytest.raises(ValidationError, match="unknown"):
            profile_from_json({"kind": "lp", "p": 2.0, "radius": 1.0})

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            profile_from_json({"kind": "ellipsoid", "a": -1.0, "b": 1.0})
        with pytest.raises(ValidationError):
            profile_from_json({"kind": "lp", "p": 0.5})
        with pytest.raises(ValidationError):
            profile_from_json(["not", "an", "object"])

    @pytest.mark.parametrize("doc", [
        {"kind": "ellipsoid", "a": "inf", "b": 1.0},
        {"kind": "lp", "p": 1e400},
        {"kind": "lp", "p": 2.0, "b": "-inf"},
        {"kind": "sampled",
         "points": [[1.0, 0.0], [0.7, 0.7], ["inf", 1.0], [0.0, 1.0]]},
    ], ids=["ellipsoid-a", "lp-p", "lp-b", "sampled-point"])
    def test_non_finite_rejected(self, doc):
        with pytest.raises(ValidationError, match="finite"):
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
