import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reebsys.errors import CoverageError, ValidationError
from reebsys.flows import (FlowPoint, OrbitSet, approximate_liouville_by_orbits,
                           flow, invariance_test_suite, liouville_sample,
                           liouville_total_mass, make_trajectory, orbit_average,
                           reeb_rates, rng_for_seed)
from reebsys.profiles import (EllipsoidProfile, LpProfile,
                              perturbed_ellipsoid_profile)
from reebsys.systolic import RationalTorus, contact_volume, enumerate_tori

TWO_PI = 2 * math.pi


def trapezoid_average(profile, torus, fn, nodes=1024):
    """Oracle: fn averaged over `nodes` equally spaced times of one period
    of the orbit started at angles (0, 0); exact while the harmonic order
    |m1 p + m2 q| stays below `nodes`."""
    u = np.arange(nodes) / nodes
    return float(np.mean(fn(profile.two_area, np.full(nodes, torus.t),
                            TWO_PI * torus.p * u, TWO_PI * torus.q * u)))


def angle_dist(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


class TestRates:
    def test_ellipsoid_rates_constant(self):
        p = EllipsoidProfile(0.5, 4.0)
        for t in (0.1, 0.37 * p.two_area, 0.9 * p.two_area):
            w1, w2 = reeb_rates(p, t)
            assert float(w1) == pytest.approx(4.0, abs=1e-12)
            assert float(w2) == pytest.approx(0.5, abs=1e-12)

    def test_round_diagonal_rates(self, round_p):
        t11 = enumerate_tori(round_p, 1)[0]
        w1, w2 = reeb_rates(round_p, t11.t)
        assert float(w1) == pytest.approx(math.sqrt(2), abs=1e-10)
        assert float(w2) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_period_closes_orbit(self, profile_matrix):
        for p in profile_matrix:
            for torus in enumerate_tori(p, 4)[:6]:
                start = FlowPoint(torus.t, 0.7, 2.1)
                end = flow(p, start, torus.period)
                assert angle_dist(end.theta1, start.theta1) < 1e-11
                assert angle_dist(end.theta2, start.theta2) < 1e-11

    def test_fractional_period_does_not_close(self, round_p):
        t23 = [t for t in enumerate_tori(round_p, 3) if (t.p, t.q) == (2, 3)][0]
        start = FlowPoint(t23.t, 0.7, 2.1)
        end = flow(round_p, start, t23.period / 2)
        assert angle_dist(end.theta1, start.theta1) + \
            angle_dist(end.theta2, start.theta2) > 0.5


class TestFlowMap:
    def test_zero_time_identity(self, round_p):
        pt = FlowPoint(0.4, 1.0, 2.0)
        out = flow(round_p, pt, 0.0)
        assert (out.t, out.theta1, out.theta2) == (0.4, 1.0, 2.0)

    def test_unit_ellipsoid_period_pi(self, e11):
        # rates are (2, 2); after time pi both angles advance a full turn
        pt = FlowPoint(0.3, 0.5, 1.5)
        out = flow(e11, pt, math.pi)
        assert angle_dist(out.theta1, pt.theta1) < 1e-12
        assert angle_dist(out.theta2, pt.theta2) < 1e-12

    @given(st.floats(-50, 50), st.floats(-50, 50),
           st.floats(0, TWO_PI), st.floats(0, TWO_PI), st.floats(0.05, 0.95))
    def test_group_law(self, s1, s2, th1, th2, frac):
        p = EllipsoidProfile(1.0, 2.0)
        pt = FlowPoint(frac * p.two_area, th1, th2)
        once = flow(p, flow(p, pt, s1), s2)
        both = flow(p, pt, s1 + s2)
        assert angle_dist(once.theta1, both.theta1) < 1e-9
        assert angle_dist(once.theta2, both.theta2) < 1e-9
        assert once.t == both.t


class TestLiouvilleSampling:
    def test_total_mass_equals_contact_volume(self, profile_matrix):
        for p in profile_matrix:
            assert liouville_total_mass(p) == pytest.approx(
                contact_volume(p), rel=1e-12)

    def test_uniform_marginals(self, round_p):
        n = 10 ** 6
        s = liouville_sample(round_p, n, seed=123)
        a = round_p.quadrant_area()
        se_mean = (round_p.two_area / math.sqrt(12)) / math.sqrt(n)
        assert abs(s[:, 0].mean() - a) < 3 * se_mean
        frac = np.mean(s[:, 0] <= a)
        assert abs(frac - 0.5) < 3 * 0.5 / math.sqrt(n)
        assert s[:, 1].max() < TWO_PI and s[:, 1].min() >= 0

    def test_deterministic_given_seed(self, round_p):
        s1 = liouville_sample(round_p, 1000, seed=9)
        s2 = liouville_sample(round_p, 1000, seed=9)
        s3 = liouville_sample(round_p, 1000, seed=10)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, s3)

    @pytest.mark.parametrize("n", [1, 1001, 1003, 70001])
    def test_blocks_match_one_shot_draw(self, round_p, n):
        # the draw before blocks: the three columns one after another
        # from one generator; blocks start at odd offsets, so their first
        # double sits anywhere in a Philox counter's four outputs
        for profile in (round_p, EllipsoidProfile(0.7, 1.9), LpProfile(3.0)):
            rng = rng_for_seed(77)
            whole = np.empty((n, 3))
            whole[:, 0] = rng.uniform(0.0, profile.two_area, n)
            whole[:, 1] = rng.uniform(0.0, TWO_PI, n)
            whole[:, 2] = rng.uniform(0.0, TWO_PI, n)
            assert np.array_equal(liouville_sample(profile, n, 77), whole)
            for lo in range(min(3, n - 1), n, 997):
                hi = min(lo + 997, n)
                assert np.array_equal(
                    liouville_sample(profile, n, 77, lo, hi), whole[lo:hi])

    def test_leading_columns_alone_have_the_same_bits(self, round_p):
        n = 70001
        whole = liouville_sample(round_p, n, 5)
        for columns in (1, 2):
            assert np.array_equal(liouville_sample(round_p, n, 5,
                                                   columns=columns),
                                  whole[:, :columns])
            assert np.array_equal(
                liouville_sample(round_p, n, 5, 1003, 40001, columns),
                whole[1003:40001, :columns])
        with pytest.raises(ValidationError, match="columns"):
            liouville_sample(round_p, n, 5, columns=4)

    def test_rows_outside_the_draw_rejected(self, round_p):
        for lo, hi in ((-1, 5), (6, 5), (0, 11)):
            with pytest.raises(ValidationError, match="outside"):
                liouville_sample(round_p, 10, 1, lo, hi)

    def test_flow_invariance_of_test_function_averages(self, round_p):
        n = 10 ** 5
        s = liouville_sample(round_p, n, seed=31)
        _, _, d1, d2 = round_p.boundary_arrays(s[:, 0])
        pushed1 = (s[:, 1] + 2 * d1 * 0.83) % TWO_PI
        pushed2 = (s[:, 2] + 2 * d2 * 0.83) % TWO_PI
        two_a = round_p.two_area
        for fn in invariance_test_suite():
            before = fn(two_a, s[:, 0], s[:, 1], s[:, 2])
            after = fn(two_a, s[:, 0], pushed1, pushed2)
            se = max(float(np.std(before)) / math.sqrt(n), 1e-12)
            assert abs(before.mean() - after.mean()) < 3 * se + 1e-12


class TestOrbitAverages:
    def test_constant_function(self, round_p):
        torus = enumerate_tori(round_p, 2)[0]
        const = invariance_test_suite()[0]
        assert const.liouville_mean == 1.0
        assert orbit_average(round_p, torus, const) == pytest.approx(1.0, abs=1e-14)

    def test_angle_harmonic_averages_to_zero(self, round_p):
        # oracle: the line integral of cos(theta1) over one period vanishes
        # whenever the orbit winds at least once in theta1
        suite = {f.name: f for f in invariance_test_suite()}
        fn = [f for f in suite.values() if (f.m1, f.m2) == (1, 0)][0]
        for torus in enumerate_tori(round_p, 3):
            assert orbit_average(round_p, torus, fn) == pytest.approx(0.0, abs=1e-13)


    @pytest.mark.parametrize("name", ["round_p", "spline_p"])
    def test_closed_form_matches_trapezoid(self, request, name):
        profile = request.getfixturevalue(name)
        suite = invariance_test_suite()
        for torus in enumerate_tori(profile, 64):
            for fn in suite:
                oracle = trapezoid_average(profile, torus, fn)
                assert abs(orbit_average(profile, torus, fn) - oracle) <= \
                    1e-13 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("p, q, m1, m2", [(1023, 1, 1, 1), (509, 6, 2, 1)])
    def test_high_order_harmonic_not_aliased(self, round_p, p, q, m1, m2):
        # m1 p + m2 q = 1024: a 1024-node trapezoid sees a constant phase.
        # On the round profile the gradient at polar angle theta points
        # along theta, so the (p, q)-torus sits at theta = atan2(q, p).
        theta = math.atan2(q, p)
        d1, _ = round_p.gradient_theta(theta)
        torus = RationalTorus(p, q, float(round_p.t_of_theta(theta)),
                              math.pi * p / float(d1))
        fn = [f for f in invariance_test_suite()
              if (f.j, f.m1, f.m2, f.kind) == (0, m1, m2, "cos")][0]
        assert trapezoid_average(round_p, torus, fn) == pytest.approx(1.0)
        assert orbit_average(round_p, torus, fn) == 0.0


class TestOrbitSets:
    def test_round_discrepancy_small_and_decreasing(self, round_p):
        coarse = approximate_liouville_by_orbits(round_p, 64, 64)
        assert coarse.discrepancy < 0.05
        fine = approximate_liouville_by_orbits(round_p, 256, 256)
        assert fine.discrepancy < coarse.discrepancy

    def test_constant_function_contributes_zero(self, round_p):
        oset = approximate_liouville_by_orbits(round_p, 16, 32)
        name, value, target = oset.per_function[0]
        assert target == 1.0
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_weights_and_membership(self, round_p):
        oset = approximate_liouville_by_orbits(round_p, 32, 48)
        assert math.fsum(oset.weights) == pytest.approx(1.0, abs=1e-13)
        edges = np.linspace(0.0, round_p.two_area, 33)
        for k, torus in enumerate(oset.orbits):
            assert edges[k] <= torus.t < edges[k + 1]

    def test_rational_ellipsoid_supported(self, e12):
        oset = approximate_liouville_by_orbits(e12, 32, 8)
        assert oset.discrepancy < 0.01
        assert all((t.p, t.q) == (2, 1) for t in oset.orbits)

    def test_irrational_constant_gradient_rejected(self):
        with pytest.raises(ValidationError, match="commensurable"):
            approximate_liouville_by_orbits(
                EllipsoidProfile(1.0, math.sqrt(2)), 8, 16)

    def test_no_torus_up_to_max_pq_rejected(self):
        # D1F > D2F everywhere on a slightly perturbed 1 x 2 ellipsoid, so
        # no (1, 1)-torus exists: that is invalid input, not a coverage gap
        profile = perturbed_ellipsoid_profile(1.0, 2.0, (0.01,), n=128)
        assert enumerate_tori(profile, 1) == []
        with pytest.raises(ValidationError, match="commensurable") as exc:
            approximate_liouville_by_orbits(profile, 4, 1)
        assert "max_pq=1" in str(exc.value)

    def test_coverage_error_names_interval(self, round_p):
        with pytest.raises(CoverageError, match="subinterval"):
            approximate_liouville_by_orbits(round_p, 32, 2)

    def test_custom_weights_validated(self):
        with pytest.raises(ValidationError):
            OrbitSet((), (0.5, 0.6), 0.0, ())


def test_trajectory_phases(round_p):
    traj = make_trajectory(round_p, FlowPoint(0.3, 1.0, 2.0), 5.0)
    p1, p2 = traj.end_phases()
    assert p1 == pytest.approx(1.0 + traj.omega1 * 5.0)
    assert p2 == pytest.approx(2.0 + traj.omega2 * 5.0)
