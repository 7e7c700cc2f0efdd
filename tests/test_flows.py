import math

import numpy as np
import pytest

from conftest import load_perfbench
from reebsys import systolic
from reebsys.errors import CoverageError, ValidationError
from reebsys.flows import (OrbitSet, approximate_liouville_by_orbits,
                           invariance_test_suite, liouville_sample,
                           orbit_average, rng_for_seed)
from reebsys.profiles import (EllipsoidProfile, LpProfile,
                              perturbed_ellipsoid_profile, profile_from_json)
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


def rates(profile, t):
    """The angular rates (2*D1F, 2*D2F) of the flow on the torus at t."""
    _, _, d1, d2 = profile.boundary_arrays(t)
    return 2.0 * float(d1), 2.0 * float(d2)


class TestRates:
    def test_ellipsoid_rates_constant(self):
        p = EllipsoidProfile(0.5, 4.0)
        for t in (0.1, 0.37 * p.two_area, 0.9 * p.two_area):
            w1, w2 = rates(p, t)
            assert w1 == pytest.approx(4.0, abs=1e-12)
            assert w2 == pytest.approx(0.5, abs=1e-12)

    def test_round_diagonal_rates(self, round_p):
        t11 = enumerate_tori(round_p, 1)[0]
        w1, w2 = rates(round_p, t11.t)
        assert w1 == pytest.approx(math.sqrt(2), abs=1e-10)
        assert w2 == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_period_closes_orbit(self, profile_matrix):
        # both angles advance by whole turns over one period
        for p in profile_matrix:
            for torus in enumerate_tori(p, 4)[:6]:
                w1, w2 = rates(p, torus.t)
                assert angle_dist(w1 * torus.period, 0.0) < 1e-11
                assert angle_dist(w2 * torus.period, 0.0) < 1e-11

    def test_fractional_period_does_not_close(self, round_p):
        t23 = [t for t in enumerate_tori(round_p, 3) if (t.p, t.q) == (2, 3)][0]
        w1, w2 = rates(round_p, t23.t)
        half = t23.period / 2
        assert angle_dist(w1 * half, 0.0) + angle_dist(w2 * half, 0.0) > 0.5


class TestFlowMap:
    def test_unit_ellipsoid_period_pi(self, e11):
        # rates are (2, 2); after time pi both angles advance a full turn
        for t in (0.3, 0.5, 0.9):
            w1, w2 = rates(e11, t)
            assert angle_dist(w1 * math.pi, 0.0) < 1e-12
            assert angle_dist(w2 * math.pi, 0.0) < 1e-12


class TestLiouvilleSampling:
    def test_total_mass_equals_contact_volume(self, profile_matrix):
        # density 1/4 on [0, 2A] x [0, 2pi)^2
        for p in profile_matrix:
            assert 0.25 * p.two_area * TWO_PI ** 2 == pytest.approx(
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


# ---------------------------------------------------------------------------
# the Stern-Brocot selection against the scan of every torus it replaced


def scan_orbit_set(profile, n_tori, max_pq):
    """The former selection, kept as the oracle: every torus up to max_pq
    is enumerated, and the list is rescanned once per subinterval for
    the smallest max(p, q), ties broken toward the center."""
    tori = enumerate_tori(profile, max_pq,
                          continuum_samples=max(129, 4 * n_tori + 1))
    if not tori:
        raise ValidationError(
            f"no torus with max(p, q) <= max_pq={max_pq}: the gradient has "
            "no commensurable direction there, so no closed orbits")
    edges = np.linspace(0.0, profile.two_area, n_tori + 1)
    chosen = []
    for k in range(n_tori):
        lo, hi = edges[k], edges[k + 1]
        center = 0.5 * (lo + hi)
        inside = [T for T in tori if lo <= T.t < hi]
        if not inside:
            raise CoverageError(
                f"no torus with max(p, q) <= {max_pq} in subinterval "
                f"{k} = [{lo:.6g}, {hi:.6g}]; raise max_pq or lower n_tori")
        pick = min(inside, key=lambda T: (max(T.p, T.q), abs(T.t - center)))
        if pick.continuum:
            pick = RationalTorus(pick.p, pick.q, float(center), pick.period,
                                 True)
        chosen.append(pick)
    weights = tuple(1.0 / n_tori for _ in range(n_tori))
    per_function = []
    disc = 0.0
    for fn in invariance_test_suite():
        avgs = [orbit_average(profile, T, fn) for T in chosen]
        weighted = math.fsum(w * a for w, a in zip(weights, avgs))
        per_function.append((fn.name, weighted, fn.liouville_mean))
        disc = max(disc, abs(weighted - fn.liouville_mean))
    return OrbitSet(tuple(chosen), weights, float(disc), tuple(per_function))


def float_bits(x):
    return float(x).hex()


def assert_matches_scan(profile, n_tori, max_pq):
    """The same orbits, bit for bit, or the same error: the same exit
    code and, for a coverage gap, the same subinterval."""
    try:
        want = scan_orbit_set(profile, n_tori, max_pq)
    except (CoverageError, ValidationError) as exc:
        with pytest.raises(type(exc)) as got:
            approximate_liouville_by_orbits(profile, n_tori, max_pq)
        assert str(got.value).split(";")[0] == str(exc).split(";")[0]
        return
    got = approximate_liouville_by_orbits(profile, n_tori, max_pq)
    assert [(T.p, T.q, T.continuum) for T in got.orbits] == \
        [(T.p, T.q, T.continuum) for T in want.orbits]
    for field in ("t", "period"):
        assert [float_bits(getattr(T, field)) for T in got.orbits] == \
            [float_bits(getattr(T, field)) for T in want.orbits]
    assert got.weights == want.weights
    assert [(name, float_bits(v), target)
            for name, v, target in got.per_function] == \
        [(name, float_bits(v), target)
         for name, v, target in want.per_function]
    assert float_bits(got.discrepancy) == float_bits(want.discrepancy)


def survey_profile(seed, name):
    """A profile of the benchmark's survey workload at a seed's scale."""
    workloads = load_perfbench("workloads")
    return profile_from_json(
        workloads.profiles(workloads.family(seed)["scale"])[name])


class TestSternBrocotSelection:
    @pytest.mark.parametrize("seed", range(12))
    def test_survey_scales_match_scan(self, seed):
        for name in ("round", "lp3", "spline"):
            profile = survey_profile(seed, name)
            for n_tori, max_pq in ((4, 20), (16, 20), (64, 64), (16, 64),
                                   (64, 128)):
                assert_matches_scan(profile, n_tori, max_pq)

    @pytest.mark.parametrize("n_tori", [4, 16, 64])
    @pytest.mark.parametrize("max_pq", [20, 64])
    def test_profile_matrix_matches_scan(self, profile_matrix, n_tori,
                                         max_pq):
        # the golden cases are the last four profiles at 4 / 20
        for profile in profile_matrix:
            assert_matches_scan(profile, n_tori, max_pq)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_round_torus_rounding_onto_the_middle_edge(self, seed):
        # the (1, 1) torus sits at t = A, an edge for every even n_tori; at
        # these scales its t rounds onto the edge from above, so the
        # subinterval below must take the next class on its own side
        profile = survey_profile(seed, "round")
        (diagonal,) = enumerate_tori(profile, 1)
        for n_tori, max_pq, below in ((4, 20, (2, 1)), (16, 64, (6, 5)),
                                      (64, 64, (21, 20))):
            edge = np.linspace(0.0, profile.two_area, n_tori + 1)[n_tori // 2]
            assert 0.0 <= diagonal.t - edge <= 1e-15 * profile.two_area
            oset = approximate_liouville_by_orbits(profile, n_tori, max_pq)
            lower, upper = oset.orbits[n_tori // 2 - 1:n_tori // 2 + 1]
            assert ((lower.p, lower.q), (upper.p, upper.q)) == \
                (below, (1, 1))
            assert_matches_scan(profile, n_tori, max_pq)

    def test_round_torus_just_below_the_middle_edge(self):
        # on the disk of radius 1.5 the (1, 1) torus rounds below t = A,
        # while the gradient at theta(A) points a few ulps below the
        # diagonal: the class is still taken in the subinterval below,
        # because the direction range spans the nodes of the cells that
        # overlap it, not only its ends
        profile = LpProfile(2.0, 1.5, 1.5)
        (diagonal,) = enumerate_tori(profile, 1)
        edge = 0.5 * profile.two_area
        assert -1e-15 * profile.two_area <= diagonal.t - edge < 0.0
        d1, d2 = profile.gradient_theta(profile.theta_of_t(edge))
        assert d2 < d1
        oset = approximate_liouville_by_orbits(profile, 4, 20)
        assert [(T.p, T.q) for T in oset.orbits[1:3]] == [(1, 1), (1, 2)]
        assert_matches_scan(profile, 4, 20)

    def test_only_constant_gradients_enumerate_tori(self, monkeypatch, e12,
                                                    round_p, spline_p):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return enumerate_tori(*args, **kwargs)

        # a constant gradient takes its flat class from the one
        # flat_classes call, so no profile enumerates tori
        monkeypatch.setattr(systolic, "enumerate_tori", counted)
        for profile in (round_p, LpProfile(3.0, 1.2, 0.9), spline_p, e12):
            oset = approximate_liouville_by_orbits(profile, 4, 20)
        assert calls == []
        assert all(T.continuum for T in oset.orbits)

    def test_coverage_error_names_the_covering_max_pq(self):
        # the benchmark spline turns slowly near t = 0.09: subinterval 23
        # of 256 holds no torus up to 512
        profile = survey_profile(0, "spline")
        with pytest.raises(CoverageError,
                           match=r"subinterval 23 = .* max\(p, q\) = 655:"):
            approximate_liouville_by_orbits(profile, 256, 512)

