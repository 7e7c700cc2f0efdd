import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (PICKED_ELLIPSOIDS, load_perfbench, random_star_profile,
                      star_profiles, table_flat_class)
from reebsys.errors import ValidationError
from reebsys.profiles import (HALF_PI, EllipsoidProfile, LpProfile,
                              SplineProfile, perturbed_ellipsoid_profile,
                              profile_from_json)
from reebsys.systolic import (DENSE_N, DENSE_STRIDE, TORUS_GRID_N,
                              RationalTorus, _dense_extremes, axis_orbit,
                              average_identity_residual, contact_volume,
                              enumerate_tori, flat_class, pairing_orbit_orbit,
                              systolic_interval, witness_measure)

PI = math.pi


def pairing_from_definition(profile, orbit1, orbit2):
    """Oracle: the pairing assembled from link * vol / (T * T').

    The linking number of the two orbits is p_far * q_near where "near"
    means closer to the y-intercept orbit (larger area parameter).
    """
    near, far = (orbit1, orbit2) if orbit1.t > orbit2.t else (orbit2, orbit1)
    link = far.p * near.q
    return float(link * contact_volume(profile)
                 / (near.period * far.period))


class TestVolume:
    def test_unit_ellipsoid_matches_ball_volume(self, e11):
        # Stokes oracle: integral of the squared symplectic form over the
        # unit ball is twice its 4-volume, 2 * (pi^2 / 2)
        assert contact_volume(e11) == pytest.approx(PI ** 2, abs=1e-10)

    def test_ellipsoid_scaling(self):
        assert contact_volume(EllipsoidProfile(1.3, 0.4)) == pytest.approx(
            PI ** 2 * 1.3 * 0.4, rel=1e-12)

    def test_round(self, round_p):
        assert contact_volume(round_p) == pytest.approx(PI ** 3 / 2, abs=1e-9)


class TestPairing:
    def test_ellipsoid_axis_pair_is_one(self):
        for a, b in [(1.0, 1.0), (0.5, 2.7), (3.0, 0.8)]:
            p = EllipsoidProfile(a, b)
            rho = pairing_orbit_orbit(p, axis_orbit(p, "y"), axis_orbit(p, "x"))
            assert rho == pytest.approx(1.0, abs=1e-12)

    def test_round_axis_pair(self, round_p):
        rho = pairing_orbit_orbit(round_p, axis_orbit(round_p, "y"),
                                  axis_orbit(round_p, "x"))
        assert rho == pytest.approx(PI / 2, abs=1e-10)
        # oracle route: link * vol / (T1 T2) with link = 1, T = pi
        assert rho == pytest.approx(
            contact_volume(round_p) / (PI * PI), abs=1e-10)

    def test_round_diagonal_torus_with_axis_orbit(self, round_p):
        t11 = [t for t in enumerate_tori(round_p, 1) if (t.p, t.q) == (1, 1)][0]
        rho = pairing_orbit_orbit(round_p, t11, axis_orbit(round_p, "y"))
        assert rho == pytest.approx(PI / (2 * math.sqrt(2)), abs=1e-10)
        # oracle route: link = 1, T(orbit) = pi * sqrt(2), T(axis) = pi
        oracle = contact_volume(round_p) / (PI * math.sqrt(2) * PI)
        assert rho == pytest.approx(oracle, abs=1e-10)

    def test_symmetric_in_argument_order(self, round_p):
        tori = enumerate_tori(round_p, 3)
        a, b = tori[0], tori[3]
        assert pairing_orbit_orbit(round_p, a, b) == \
            pairing_orbit_orbit(round_p, b, a)

    def test_identical_orbits_rejected(self, round_p):
        t11 = enumerate_tori(round_p, 1)[0]
        with pytest.raises(ValidationError, match="distinct"):
            pairing_orbit_orbit(round_p, t11, t11)

    def test_closed_form_matches_definition(self, profile_matrix):
        # 50 random pairs per profile: 2A D1F D2F against link*vol/(T T')
        rng = np.random.default_rng(17)
        for p in profile_matrix:
            tori = [t for t in enumerate_tori(p, 6)]
            orbits = tori + [axis_orbit(p, "x"), axis_orbit(p, "y")]
            if len(orbits) < 2:
                continue
            for _ in range(50):
                i, j = rng.choice(len(orbits), size=2, replace=False)
                o1, o2 = orbits[i], orbits[j]
                if abs(o1.t - o2.t) < 1e-9 * p.two_area:
                    continue
                lhs = pairing_orbit_orbit(p, o1, o2)
                rhs = pairing_from_definition(p, o1, o2)
                assert lhs == pytest.approx(rhs, rel=1e-8)


def reference_tori(profile, max_pq, grid_n=4096, continuum_samples=65):
    """The per-class enumeration: for every coprime class, a sign-change
    scan of q*D1F - p*D2F on the grid and one scalar brentq per root."""
    theta = np.linspace(0.0, HALF_PI, grid_n)
    d1g, d2g = profile.gradient_theta(theta)
    scale = float(np.max(np.abs(d1g)) + np.max(np.abs(d2g)))
    tori = []
    for p in range(1, max_pq + 1):
        for q in range(1, max_pq + 1):
            if math.gcd(p, q) != 1:
                continue
            h = q * d1g - p * d2g
            if np.max(np.abs(h)) <= 1e-12 * (p + q) * scale:
                ts = np.linspace(0.0, profile.two_area,
                                 continuum_samples + 2)[1:-1]
                period = math.pi * p / float(d1g[0])
                tori.extend(RationalTorus(p, q, float(t), period, True)
                            for t in ts)
                continue
            for i in np.nonzero(h[:-1] * h[1:] < 0)[0]:
                f = lambda th: float(q * profile.gradient_theta(th)[0]
                                     - p * profile.gradient_theta(th)[1])
                root = brentq(f, theta[i], theta[i + 1], xtol=1e-15, rtol=1e-15)
                period = math.pi * p / float(profile.gradient_theta(root)[0])
                tori.append(RationalTorus(p, q, float(profile.t_of_theta(root)),
                                          period, False))
    tori.sort(key=lambda T: (max(T.p, T.q), T.p, T.t))
    return tori


class TestEnumerate:
    @pytest.mark.parametrize("max_pq", [12, 64])
    def test_one_pass_matches_per_class_scan(self, profile_matrix, max_pq):
        # t is compared relative to the parameter range 2A: roots of h are
        # fixed only to its rounding level, ~1e-15 in theta where the
        # gradient angle turns slowly, which is 2e-13 of a t near 0.03
        bumpy = perturbed_ellipsoid_profile(1.0, 1.0, (0.06, -0.05), n=256)
        for p in profile_matrix + [bumpy]:
            got, ref = enumerate_tori(p, max_pq), reference_tori(p, max_pq)
            assert [(T.p, T.q, T.continuum) for T in got] == \
                [(T.p, T.q, T.continuum) for T in ref]
            for T, R in zip(got, ref):
                assert abs(T.t - R.t) <= 1e-13 * p.two_area
                assert T.period == pytest.approx(R.period, rel=1e-13)

    def test_rational_ellipsoid_single_continuum_class(self, e12):
        tori = enumerate_tori(e12, 3)
        assert tori and all((t.p, t.q) == (2, 1) for t in tori)
        assert all(t.continuum for t in tori)
        assert all(t.period == pytest.approx(2 * PI, rel=1e-12) for t in tori)

    def test_round_diagonal_torus(self, round_p):
        t11 = [t for t in enumerate_tori(round_p, 1) if (t.p, t.q) == (1, 1)][0]
        x, y, _, _ = round_p.boundary_arrays(t11.t)
        assert (float(x), float(y)) == pytest.approx(
            (1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-10)
        assert t11.period == pytest.approx(PI * math.sqrt(2), abs=1e-10)

    def test_round_periods_by_pythagoras(self, round_p):
        # gradient on the quarter circle is the unit direction, so the
        # period of a (p, q) orbit is pi * sqrt(p^2 + q^2)
        for t in enumerate_tori(round_p, 4):
            assert t.period == pytest.approx(
                PI * math.hypot(t.p, t.q), rel=1e-10)

    def test_commensurability_and_period_identities(self, profile_matrix):
        for p in profile_matrix:
            for t in enumerate_tori(p, 5):
                _, _, d1, d2 = p.boundary_arrays(t.t)
                scale = abs(d1) + abs(d2)
                assert abs(t.q * d1 - t.p * d2) < 1e-9 * (t.p + t.q) * scale
                assert t.period == pytest.approx(PI * t.p / d1, rel=1e-9)
                assert t.period == pytest.approx(PI * t.q / d2, rel=1e-9)

    def test_irrational_ellipsoid_has_no_tori(self):
        assert enumerate_tori(EllipsoidProfile(1.0, math.sqrt(2)), 12) == []

    def test_nonconvex_profile_multiple_roots_per_class(self):
        # gradient direction non-monotone: some classes occur at two tori
        bumpy = perturbed_ellipsoid_profile(1.0, 1.0, (0.06, -0.05), n=256)
        assert bumpy.has_positive_partials()
        tori = enumerate_tori(bumpy, 3)
        diag = sorted(t.t for t in tori if (t.p, t.q) == (1, 1))
        assert len(diag) == 2
        for t in tori:
            _, _, d1, d2 = bumpy.boundary_arrays(t.t)
            assert abs(t.q * d1 - t.p * d2) < 1e-9 * (t.p + t.q)
            assert t.period == pytest.approx(math.pi * t.p / d1, rel=1e-9)
        # parallel tori of one class are distinct orbits that link once
        pair = [t for t in tori if (t.p, t.q) == (1, 1)]
        rho = pairing_orbit_orbit(bumpy, pair[0], pair[1])
        assert rho == pytest.approx(
            pairing_from_definition(bumpy, pair[0], pair[1]), rel=1e-9)


SWEEP_MAX_PQ = (1, 5, 12, 64, 128, 512)


def flat_sweep_profiles(seed):
    """Ellipsoids whose gradient points along a random class (p, q) up to
    600, at a random scale, with a perturbed by f times the relative
    amount at which the class stops passing (f = +-1 is on the
    tolerance); lp p = 1, the ellipsoid by another formula; and profiles
    whose gradient turns."""
    rng = np.random.default_rng(seed)
    for _ in range(6):
        p, q = (int(v) for v in rng.integers(1, 601, 2))
        s = 2.0 ** rng.uniform(-30.0, 30.0)
        edge = 1e-12 * (p + q) ** 2 / (p * q)
        for f in (0.0, 0.5, 1 - 1e-3, 1 - 1e-9, 1 + 1e-9, 1 + 1e-3, 2.0):
            yield EllipsoidProfile(s * q * (1 + rng.choice((-1, 1)) * f * edge),
                                   s * p)
    a, b = 2.0 ** rng.uniform(-3.0, 3.0, 2)
    yield LpProfile(1.0, a, b)
    yield EllipsoidProfile(a, b)
    yield LpProfile(float(rng.uniform(1.5, 4.0)), a, b)
    yield random_star_profile(rng)


class TestFlatClass:
    def test_matches_table_on_picked_ellipsoids(self):
        for a, b in PICKED_ELLIPSOIDS:
            d1g, d2g = EllipsoidProfile(a, b).gradient_theta(
                np.linspace(0.0, HALF_PI, TORUS_GRID_N))
            for max_pq in SWEEP_MAX_PQ + (4, 8, 20):
                assert flat_class(d1g, d2g, max_pq) == \
                    table_flat_class(d1g, d2g, max_pq), (a, b, max_pq)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_table_on_seeded_sweep(self, seed):
        theta = np.linspace(0.0, HALF_PI, TORUS_GRID_N)
        found = 0
        for profile in flat_sweep_profiles(seed):
            d1g, d2g = profile.gradient_theta(theta)
            for max_pq in SWEEP_MAX_PQ:
                got = flat_class(d1g, d2g, max_pq)
                assert got == table_flat_class(d1g, d2g, max_pq), \
                    (profile.to_json(), max_pq)
                found += got is not None
        assert found > 0


class TestInterval:
    def test_ellipsoids_pin_one(self):
        for a, b in [(1.0, 1.0), (0.5, 2.7), (2.2, 0.6)]:
            rep = systolic_interval(EllipsoidProfile(a, b), grid_n=512)
            assert rep.interval[0] == pytest.approx(1.0, abs=1e-9)
            assert rep.interval[1] == pytest.approx(1.0, abs=1e-9)
            assert rep.norm < 1e-9
            assert rep.contains_one

    def test_round_interval(self, round_p):
        rep = systolic_interval(round_p, grid_n=4096)
        assert rep.interval[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.interval[1] == pytest.approx(PI / 2, abs=1e-9)
        assert rep.norm == pytest.approx(PI / 2, abs=1e-9)
        assert rep.contains_one

    def test_matrix_contains_one_and_enlarged_matches(self, profile_matrix):
        for p in profile_matrix:
            rep = systolic_interval(p, grid_n=2048)
            assert rep.contains_one
            assert rep.enlarged_interval[0] == pytest.approx(rep.interval[0], abs=1e-6)
            assert rep.enlarged_interval[1] == pytest.approx(rep.interval[1], abs=1e-6)
            assert rep.interval[0] <= rep.interval[1]
            assert rep.norm >= 0

    def test_small_grid_rejected(self, round_p):
        with pytest.raises(ValidationError):
            systolic_interval(round_p, grid_n=4)

    def test_vanishing_norm_characterizes_constant_partials(self, profile_matrix):
        for p in profile_matrix:
            rep = systolic_interval(p, grid_n=1024)
            m1, M1, m2, M2 = p.partials_range()
            constant = max(M1 - m1, M2 - m2) < 1e-7
            if rep.norm < 1e-9:
                assert constant
            if constant:
                assert rep.norm < 1e-9

    def test_negative_partials_refused(self):
        bumpy = perturbed_ellipsoid_profile(0.7, 2.3, (0.35,), n=256)
        assert not bumpy.has_positive_partials()
        with pytest.raises(ValidationError, match="negative partial"):
            systolic_interval(bumpy, grid_n=512)

    def test_diagonal_values_are_pairing_limits(self, round_p):
        # pairings of tori straddling a common parameter converge to the
        # diagonal value 2A * D1F * D2F there, which the enlarged interval
        # therefore adds without changing the range
        t0 = 0.4 * round_p.two_area
        _, _, d1, d2 = round_p.boundary_arrays(t0)
        diag = 2 * round_p.quadrant_area() * float(d1) * float(d2)
        gaps = []
        for delta in (1e-2, 1e-3, 1e-4):
            near = RationalTorus(1, 1, t0 - delta, 1.0)
            far = RationalTorus(1, 1, t0 + delta, 1.0)
            gaps.append(abs(pairing_orbit_orbit(round_p, near, far) - diag))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_pairing_values_match_scalar_pairings(self, profile_matrix):
        for p in profile_matrix:
            rep = systolic_interval(p, grid_n=1024)
            reps = ([T for T in rep.tori if not T.continuum]
                    or list(rep.tori))[:40]
            vals = [pairing_orbit_orbit(p, a, b)
                    for a, b in itertools.combinations(reps, 2)
                    if abs(a.t - b.t) > 1e-9 * max(1.0, p.two_area)]
            if not vals:
                assert rep.pairing_values == {}
                continue
            assert rep.pairing_values["count"] == len(vals)
            assert rep.pairing_values["min"] == pytest.approx(min(vals),
                                                              rel=1e-13)
            assert rep.pairing_values["max"] == pytest.approx(max(vals),
                                                              rel=1e-13)

    def test_witnesses_cover_extrema(self, round_p):
        rep = systolic_interval(round_p, grid_n=2048)
        slots = {(w.extremum, w.slot) for w in rep.witnesses}
        assert slots == {("lo", "d1"), ("lo", "d2"), ("hi", "d1"), ("hi", "d2")}
        w_hi_d1 = [w for w in rep.witnesses if (w.extremum, w.slot) == ("hi", "d1")][0]
        assert w_hi_d1.t == pytest.approx(0.0, abs=1e-9)
        assert w_hi_d1.value == pytest.approx(1.0, abs=1e-9)


class TestAverageIdentity:
    def test_rational_ellipsoid(self, e12):
        # the factored integrals are b = 2 and a = 1, product ab = 2
        assert average_identity_residual(e12) < 1e-8

    def test_round(self, round_p):
        assert average_identity_residual(round_p) < 1e-8

    def test_matrix(self, profile_matrix):
        for p in profile_matrix:
            assert average_identity_residual(p) < 1e-9


class TestWitnessMeasure:
    def test_ellipsoid_full_measure(self):
        wm = witness_measure(EllipsoidProfile(1.3, 0.6), "y", 0.1)
        assert wm.fraction_ge == pytest.approx(1.0, abs=1e-9)
        assert wm.fraction_le == pytest.approx(1.0, abs=1e-9)

    def test_round_against_closed_form(self, round_p):
        # t equals the polar angle, so the pairing along the curve is
        # (pi/2) cos(theta) and level sets invert through arccos
        for eps in (0.1, 0.3):
            wm = witness_measure(round_p, "y", eps)
            ge_oracle = math.acos(2 * (1 - eps) / PI) / (PI / 2)
            le_arg = min(1.0, 2 * (1 + eps) / PI)
            le_oracle = 1.0 - math.acos(le_arg) / (PI / 2)
            assert wm.fraction_ge == pytest.approx(ge_oracle, abs=1e-9)
            assert wm.fraction_le == pytest.approx(le_oracle, abs=1e-9)

    def test_positive_on_matrix(self, profile_matrix):
        for p in profile_matrix:
            for axis in ("x", "y"):
                wm = witness_measure(p, axis, 0.2)
                assert wm.fraction_ge > 0
                assert wm.fraction_le > 0

    def test_monotone_in_epsilon(self, round_p):
        small = witness_measure(round_p, "y", 0.05)
        large = witness_measure(round_p, "y", 0.4)
        assert small.fraction_ge <= large.fraction_ge
        assert small.fraction_le <= large.fraction_le

    def test_epsilon_domain(self, round_p):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                witness_measure(round_p, "y", bad)


class TestFormulaInvariances:
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 9),
           st.integers(1, 9))
    def test_pairing_invariant_under_iterates(self, t1, t2, k1, k2):
        # exact rational identity: scaling a period by k and the linking
        # number by the same k leaves link*vol/(T1*T2) unchanged
        link, vol = Fraction(3), Fraction(22, 7)
        base = link * vol / (Fraction(t1) * Fraction(t2))
        iterated = (k1 * k2 * link) * vol / (Fraction(k1 * t1) * Fraction(k2 * t2))
        assert base == iterated

    def test_pairing_invariant_under_rescaling(self, round_p):
        # dilating the domain scales volume by s^2 and periods by s
        s = 1.7
        scaled = round_p.scaled(s)
        t_orig = enumerate_tori(round_p, 3)
        t_scal = enumerate_tori(scaled, 3)
        assert contact_volume(scaled) == pytest.approx(
            s * s * contact_volume(round_p), rel=1e-10)
        for a, b in zip(t_orig, t_scal):
            assert (a.p, a.q) == (b.p, b.q)
            assert b.period == pytest.approx(s * a.period, rel=1e-9)
        rho_o = pairing_orbit_orbit(round_p, t_orig[0], axis_orbit(round_p, "y"))
        rho_s = pairing_orbit_orbit(scaled, t_scal[0], axis_orbit(scaled, "y"))
        assert rho_s == pytest.approx(rho_o, rel=1e-9)

    def test_interval_invariant_under_rescaling(self, spline_p):
        rep = systolic_interval(spline_p, grid_n=1024)
        rep_s = systolic_interval(spline_p.scaled(0.6), grid_n=1024)
        assert rep_s.interval[0] == pytest.approx(rep.interval[0], abs=1e-8)
        assert rep_s.interval[1] == pytest.approx(rep.interval[1], abs=1e-8)


@pytest.fixture(scope="module")
def seeded_stars():
    rng = np.random.default_rng(5)
    return [random_star_profile(rng) for _ in range(30)]


# (star index, grid) where a partial's extremum sits on a spline knot
# between scan nodes and the refined grid extremum lies in another basin
@pytest.mark.parametrize("index, grid_n", [(4, 256), (20, 4096), (26, 4096)])
def test_interval_reaches_extrema_on_spline_knots(seeded_stars, index, grid_n):
    profile = seeded_stars[index]
    rep = systolic_interval(profile, grid_n=grid_n, max_pq_witness=2)
    theta = np.concatenate([np.linspace(0.0, HALF_PI, 1 << 18),
                            profile.kink_angles()])
    d1, d2 = profile.gradient_theta(theta)
    lo = profile.two_area * d1.min() * d2.min()
    hi = profile.two_area * d1.max() * d2.max()
    assert rep.interval[0] <= lo * (1.0 + 1e-12)
    assert rep.interval[1] >= hi * (1.0 - 1e-12)
    # the witnesses of the widened ends sit on knots
    on_knot = {float(profile.t_of_theta(th)) for th in profile.kink_angles()}
    assert any(w.t in on_knot for w in rep.witnesses)


def full_dense_extremes(profile, n):
    """The scan the enlarged interval came from before the strided pass:
    D1F, D2F and the diagonal D1F*D2F at every node of the dense grid."""
    dense = np.linspace(0.0, HALF_PI, n)
    d1d, d2d = profile.gradient_theta(dense)
    diag = d1d * d2d
    return (float(d1d.min()), float(d1d.max()), float(d2d.min()),
            float(d2d.max()), float(diag.min()), float(diag.max()))


def benchmark_profiles(seeds):
    """The dilated profiles of the benchmark's survey at these seeds."""
    workloads = load_perfbench("workloads")
    return [profile_from_json(doc) for seed in seeds
            for doc in workloads.profiles(
                workloads.family(seed)["scale"]).values()]


class TestDenseExtremes:
    @pytest.mark.parametrize("n", [DENSE_N, DENSE_N + 7])
    def test_matrix_and_benchmark_profiles_match_full_scan(
            self, profile_matrix, n):
        for profile in profile_matrix + benchmark_profiles((1, 2, 3)):
            assert _dense_extremes(profile, n) == \
                full_dense_extremes(profile, n)

    def test_random_stars_match_full_scan(self, seeded_stars):
        for profile in seeded_stars:
            assert _dense_extremes(profile, DENSE_N) == \
                full_dense_extremes(profile, DENSE_N)

    def test_narrow_extreme_is_found_from_its_knots(self):
        # a unit circle whose r rises by 2e-8 at the middle of five knots
        # 6 dense nodes apart, midway between two strided nodes: D1F peaks
        # above its axis value 1 inside the bump, which no strided node sees
        step = HALF_PI / (DENSE_N - 1)
        bump = (10.5 * DENSE_STRIDE + 6 * np.arange(-2.0, 3.0)) * step
        theta = np.union1d(np.linspace(0.0, HALF_PI, 64), bump)
        r = np.where(theta == bump[2], 1.0 + 2e-8, 1.0)
        profile = SplineProfile(np.c_[r * np.cos(theta), r * np.sin(theta)])
        extremes = full_dense_extremes(profile, DENSE_N)
        assert extremes[1] > 1.0 and extremes[2] == 0.0
        assert _dense_extremes(profile, DENSE_N) == extremes

    # from DENSE_N nodes on, the --grid grid is the dense grid
    @pytest.mark.parametrize("grid_n", [64, 256, 4096, DENSE_N + 7])
    def test_enlarged_interval_matches_full_scan(self, profile_matrix,
                                                 grid_n):
        for profile in profile_matrix:
            m1, M1, m2, M2, m12, M12 = full_dense_extremes(
                profile, max(grid_n, DENSE_N))
            two_a = profile.two_area
            rep = systolic_interval(profile, grid_n=grid_n, max_pq_witness=2)
            assert rep.enlarged_interval == (two_a * min(m1 * m2, m12),
                                             two_a * max(M1 * M2, M12))

    def test_default_grid_evaluates_few_points(self, profile_matrix,
                                               monkeypatch):
        # scanning every dense node would pass more than DENSE_N = 2^19
        # points to gradient_theta; on the ellipsoids, so would windows
        # around every node of a constant gradient
        for profile in profile_matrix:
            cls = type(profile)
            gradient_theta = cls.gradient_theta
            points = []

            def counting(self, theta):
                points.append(np.size(theta))
                return gradient_theta(self, theta)

            monkeypatch.setattr(cls, "gradient_theta", counting)
            systolic_interval(profile)
            monkeypatch.undo()
            assert 0 < sum(points) < 1 << 17


def test_only_sampled_profiles_have_kinks(profile_matrix):
    for profile in profile_matrix:
        kinks = profile.kink_angles()
        if profile.kind == "sampled":
            assert kinks[0] == 0.0 and kinks[-1] == HALF_PI
            assert np.all(np.diff(kinks) > 0)
        else:
            assert kinks.size == 0


@given(star_profiles())
def test_interval_of_random_star_profile_contains_one(profile):
    rep = systolic_interval(profile, grid_n=512)
    assert rep.contains_one
    assert rep.interval[0] <= 1.0 + 1e-9 <= rep.interval[1] + 2e-9
