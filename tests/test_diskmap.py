import math
import re

import numpy as np
import pytest

from reebsys import diskmap
from reebsys.diskmap import (SHIFT_SCALE, RadialHamiltonian,
                             _resonant_circles, action, calabi,
                             calabi_eta_residual, default_suspension_constant,
                             flow_map, hamiltonian_from_json,
                             mean_action_theorem_check, periodic_points,
                             radial_action_exact, resonance_count,
                             suspension_dictionary,
                             suspension_period_integral,
                             suspension_volume_quadrature)
from reebsys.errors import ValidationError

PI = math.pi


def action_with_shifted_primitive(H, z):
    """Oracle: the action of a point with the primitive
    eta + d(SHIFT_SCALE*x*y), which adds the boundary terms of the exact
    form to the standard action."""
    z = np.asarray(z, float)
    z1 = np.asarray(flow_map(H, z, 0.0, 1.0), float)
    g = lambda p: SHIFT_SCALE * float(p[0]) * float(p[1])
    return float(action(H, z)) + g(z1) - g(z)


def full_turn():
    # h(s) = pi (1 - s): rigid rotation by 2 pi in unit time
    return RadialHamiltonian([PI, -PI])


def quadratic_well():
    # h(s) = pi (1 - s)^2
    return RadialHamiltonian([PI, -2 * PI, PI])


def zero_h():
    return RadialHamiltonian([0.0])


def integrand(H, p):
    """eta(X_H) + H at the point p, with X_H = (dH/dy, -dH/dx)."""
    x, y = p
    s = x * x + y * y
    hp = float(H.h_prime(s))
    return 0.5 * (x * (-2.0 * x * hp) - y * (2.0 * y * hp)) + float(H.h(s))


def gauss_action(H, z, order=48):
    """Oracle: the integrand summed at Gauss-Legendre times along flow_map."""
    x, w = np.polynomial.legendre.leggauss(order)
    return sum(wn * integrand(H, flow_map(H, z, 0.0, tn))
               for tn, wn in zip(0.5 * (x + 1.0), 0.5 * w))


def gauss_period(H, z, k, c, order=64):
    """Oracle: (H + c) dt + eta integrated pass by pass over k map periods."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for wrap in range(k):
        start = flow_map(H, z, 0.0, float(wrap))
        for tn, wn in zip(0.5 * (x + 1.0), 0.5 * w):
            total += wn * (integrand(H, flow_map(H, start, 0.0, tn)) + c)
    return total


def oracle_cases():
    """(H, z, k) on the well, the full turn and 20 seeded random cubics."""
    rng = np.random.default_rng(7)
    hams = [quadratic_well(), full_turn()]
    hams += [RadialHamiltonian(rng.uniform(-2.0, 2.0, 4)) for _ in range(20)]
    cases = []
    for H in hams:
        for _ in range(3):
            r, ang = math.sqrt(rng.uniform()), rng.uniform(0.0, 2 * PI)
            cases.append((H, np.array([r * math.cos(ang), r * math.sin(ang)]),
                          int(rng.integers(1, 6))))
    return cases


def within(value, oracle):
    return abs(value - oracle) <= 1e-13 * max(1.0, abs(oracle))


class TestFlowMap:
    def test_full_turn_time_one_identity(self):
        H = full_turn()
        pts = np.array([[0.3, 0.4], [0.0, 0.0], [-0.8, 0.1]])
        out = flow_map(H, pts, 0.0, 1.0)
        assert np.max(np.abs(out - pts)) < 1e-12

    def test_zero_hamiltonian_identity(self):
        out = flow_map(zero_h(), np.array([0.5, -0.2]), 0.0, 0.37)
        assert np.allclose(out, [0.5, -0.2], atol=1e-15)

    def test_points_outside_disk_rejected(self):
        with pytest.raises(ValidationError, match="disk"):
            flow_map(full_turn(), np.array([1.2, 0.0]), 0.0, 1.0)


class TestAction:
    def test_full_turn_action_constant_pi(self):
        H = full_turn()
        for z in ([0.0, 0.0], [0.6, 0.0], [0.2, -0.7]):
            assert action(H, np.array(z)) == pytest.approx(PI, abs=1e-12)

    def test_quadratic_well_closed_form(self):
        H = quadratic_well()
        # oracle h - s h' = pi (1 - s^2)
        for s in (0.0, 0.25, 0.5, 0.9):
            z = np.array([math.sqrt(s), 0.0])
            assert action(H, z) == pytest.approx(PI * (1 - s * s), abs=1e-12)
        assert action(H, np.array([math.sqrt(0.5), 0.0])) == \
            pytest.approx(3 * PI / 4, abs=1e-12)

    def test_zero_hamiltonian(self):
        assert action(zero_h(), np.array([0.3, 0.1])) == 0.0

    def test_matches_gauss_quadrature_along_the_flow(self):
        for H, z, _ in oracle_cases():
            assert within(action(H, z), gauss_action(H, z))
        H, z = quadratic_well(), np.array([[0.3, 0.4], [-0.9, 0.1]])
        assert np.array_equal(action(H, z), [action(H, p) for p in z])

    def test_points_outside_disk_rejected(self):
        with pytest.raises(ValidationError, match="disk"):
            action(full_turn(), np.array([0.8, 0.7]))


class TestCalabi:
    def test_reference_values(self):
        assert calabi(full_turn()) == pytest.approx(PI, abs=1e-12)
        assert calabi(zero_h()) == pytest.approx(0.0, abs=1e-14)
        # oracle: integral of pi (1 - s^2) ds = 2 pi / 3
        assert calabi(quadratic_well()) == pytest.approx(2 * PI / 3, abs=1e-12)

    def test_primitive_independence(self):
        assert calabi_eta_residual(quadratic_well()) < 1e-8


class TestPeriodicPoints:
    def test_full_turn_everything_fixed(self):
        pts = periodic_points(full_turn(), 1)
        assert pts, "expected fixed points"
        assert all(p.k == 1 for p in pts)
        assert all(p.mean_action == pytest.approx(PI, abs=1e-10) for p in pts)

    def test_zero_hamiltonian_fixed_with_zero_action(self):
        pts = periodic_points(zero_h(), 2)
        assert all(p.mean_action == pytest.approx(0.0, abs=1e-14) for p in pts)

    def test_quadratic_well_period_two_circle(self):
        pts = periodic_points(quadratic_well(), 2)
        two = [p for p in pts if p.k == 2 and abs(p.s - 0.75) < 1e-9]
        assert len(two) == 1
        assert two[0].mean_action == pytest.approx(7 * PI / 16, abs=1e-12)

    def test_quadratic_well_roots_on_scan_nodes_listed_once(self):
        # the period-5 circles |z|^2 = 0.2, 0.4, 0.6, 0.8 fall on nodes of
        # the 256-point scan grid, where the resonance equation is exactly 0
        H = quadratic_well()
        five = [p for p in periodic_points(H, 5) if p.k == 5]
        for s in (0.2, 0.4, 0.6, 0.8):
            on = [p for p in five if abs(p.s - s) < 1e-12]
            assert len(on) == 1
            assert on[0].mean_action == pytest.approx(
                float(radial_action_exact(H, s)), abs=1e-12)

    @pytest.mark.parametrize("coeffs, k_max", [([0.0, 0.0, 300.0], 3),
                                               ([PI, -2 * PI, PI], 5)],
                             ids=["steep-300", "well-k5"])
    def test_duplicate_rule_matches_pairwise_scan(self, coeffs, k_max):
        # oracle: keep a root unless an earlier kept root of the same
        # period lies within 1e-10 of it, tested against every kept root
        H = RadialHamiltonian(coeffs)
        circles = list(_resonant_circles(H, k_max))
        kept = []
        for s, k, m in circles:
            if not any(abs(s - s0) < 1e-10 and k == k0 for s0, k0, _ in kept):
                kept.append((s, k, m))
        kept.sort(key=lambda f: (f[1], f[0]))
        pts = periodic_points(H, k_max)
        assert pts[0].s == 0.0 and pts[0].resonance is None
        assert [(P.s, P.k, P.resonance) for P in pts[1:]] == kept
        if k_max == 5:
            assert len(kept) < len(circles)      # scan-node roots repeat

    def test_resonance_count_of_the_quadratic_well(self):
        # omega = 4 pi (1 - s) spans [0, 4 pi]: period k scans 2k + 3 values
        H = quadratic_well()
        for k_max in range(1, 9):
            assert resonance_count(H, k_max) == sum(
                2 * k + 3 for k in range(1, k_max + 1))

    @pytest.mark.parametrize("coeffs", [[PI, -2 * PI, PI], [0, 0, 1e3],
                                        [0.3, 1.0, -2.5, 0.7]])
    def test_resonance_count_bounds_the_scans(self, coeffs, monkeypatch):
        # every m is scanned at period 1; later periods skip the m not
        # prime to k
        H = RadialHamiltonian(coeffs)
        scan_roots = diskmap.scan_roots
        for k_max in (1, 4):
            calls = []
            monkeypatch.setattr(diskmap, "scan_roots",
                                lambda f: calls.append(1) or scan_roots(f))
            list(_resonant_circles(H, k_max))
            monkeypatch.undo()
            count = resonance_count(H, k_max)
            assert len(calls) == count if k_max == 1 else len(calls) <= count

    def test_resonance_count_past_float_range(self):
        assert resonance_count(RadialHamiltonian([0, 0, 1e300]), 64) == math.inf

    def test_mean_action_period_invariant(self):
        # the s = 3/4 circle seen at period 2 and period 4 (resonance doubled)
        H = quadratic_well()
        sig = radial_action_exact(H, 0.75)
        assert (2 * sig) / 2 == pytest.approx((4 * sig) / 4, abs=1e-10)

    def test_orbit_action_independent_of_primitive(self):
        # summed over a closed orbit the primitive shift telescopes away
        H = quadratic_well()
        z = np.array([math.sqrt(0.75), 0.0])
        orbit = [z, flow_map(H, z, 0.0, 1.0)]
        plain = sum(float(action(H, p)) for p in orbit)
        shifted = sum(action_with_shifted_primitive(H, p) for p in orbit)
        assert shifted == pytest.approx(plain, abs=1e-9)


class TestSuspension:
    def test_full_turn_dictionary(self):
        rep = suspension_dictionary(full_turn(), c=1.0, k_max=1)
        assert rep.volume == pytest.approx(PI * (PI + 1), abs=1e-10)
        assert rep.volume_residual < 1e-10
        for row in rep.rows:
            assert row.period == pytest.approx(PI + 1, abs=1e-10)
            assert row.page_crossings == 1
            assert row.pairing == pytest.approx(1.0, abs=1e-10)

    def test_zero_hamiltonian_dictionary(self):
        rep = suspension_dictionary(zero_h(), c=1.0, k_max=2)
        for row in rep.rows:
            assert row.period == pytest.approx(row.k * 1.0, abs=1e-12)
            assert row.pairing == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_well_rows_consistent(self):
        rep = suspension_dictionary(quadratic_well(), c=1.0, k_max=3,
                                    epsilon=0.1)
        assert rep.calabi == pytest.approx(2 * PI / 3, abs=1e-10)
        assert rep.volume_residual < 1e-8
        assert rep.rows
        for row in rep.rows:
            assert row.period_residual < 1e-8
            assert row.page_crossings == row.k
            assert row.equivalence_ok

    def test_low_mean_action_gives_large_pairing(self):
        rep = suspension_dictionary(quadratic_well(), c=1.0, k_max=2)
        row = [r for r in rep.rows
               if r.k == 2 and abs(r.z[0] ** 2 - 0.75) < 1e-9][0]
        assert row.mean_action == pytest.approx(7 * PI / 16, abs=1e-10)
        assert row.mean_action < rep.calabi
        assert row.pairing > 1.0

    def test_volume_quadrature_route(self):
        # independent volume integral against pi (CAL + c)
        vol = suspension_volume_quadrature(quadratic_well(), 2.0)
        assert vol == pytest.approx(PI * (2 * PI / 3 + 2.0), abs=1e-10)

    def test_period_matches_pass_by_pass_quadrature(self):
        for H, z, k in oracle_cases():
            assert within(suspension_period_integral(H, z, k, 1.5),
                          gauss_period(H, z, k, 1.5))

    def test_period_integral_matches_action_route(self):
        H = quadratic_well()
        z = np.array([0.5, 0.0])  # s = 1/4 point, not periodic; k = 1 arc
        direct = suspension_period_integral(H, z, 1, 3.0)
        assert direct == pytest.approx(float(action(H, z)) + 3.0, abs=1e-10)

    def test_positivity_precondition(self):
        with pytest.raises(ValidationError, match="H \\+ c > 0"):
            suspension_dictionary(quadratic_well(), c=0.0, k_max=1)

    def test_negative_period_precondition(self):
        # h = 3 s^2 > 0 on the disk, but h - s h' = -3 s^2: with c = 1 the
        # outer circles would have negative periods
        with pytest.raises(ValidationError, match="h - s h' \\+ c > 0"):
            suspension_dictionary(RadialHamiltonian([0.0, 0.0, 3.0]), c=1.0)

    def test_default_constant(self):
        assert default_suspension_constant(zero_h()) == pytest.approx(1.0)
        assert default_suspension_constant(quadratic_well()) == 1.0
        dipped = RadialHamiltonian([-0.5, 0.0])
        assert default_suspension_constant(dipped) == pytest.approx(1.5)
        steep = RadialHamiltonian([0.0, 0.0, 3.0])
        assert default_suspension_constant(steep) == pytest.approx(4.0)
        rep = suspension_dictionary(steep, k_max=3)
        assert rep.c == pytest.approx(4.0) and rep.volume > 0
        assert rep.rows and all(row.period > 0 for row in rep.rows)


class TestMeanActionCheck:
    def test_quadratic_well_witnesses(self):
        chk = mean_action_theorem_check(quadratic_well(), 0.1, k_max=8)
        assert chk.found_low and chk.found_high
        assert chk.witness_low.mean_action <= chk.calabi + 0.1
        assert chk.witness_high.mean_action >= chk.calabi - 0.1
        # low witness sits at large radius, high witness at the center
        assert chk.witness_low.s > 0.9
        assert chk.witness_high.s == pytest.approx(0.0)
        assert chk.boundary_rotation == pytest.approx(0.0)
        assert chk.hypothesis_cal_lt_half_rotation is False

    def test_full_turn_every_point_witnesses(self):
        chk = mean_action_theorem_check(full_turn(), 0.01, k_max=2)
        assert chk.found_low and chk.found_high
        assert chk.witness_low.mean_action == pytest.approx(PI, abs=1e-10)

    def test_zero_hamiltonian(self):
        chk = mean_action_theorem_check(zero_h(), 0.05)
        assert chk.found_low and chk.found_high
        assert chk.calabi == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_validated(self):
        with pytest.raises(ValidationError):
            mean_action_theorem_check(full_turn(), 0.0)


class TestBoundaryFlags:
    def test_full_turn_is_rigid(self):
        flags = full_turn().boundary_flags()
        assert flags["boundary_zero"] and flags["rigid_near_boundary"]

    def test_quadratic_well_not_rigid(self):
        flags = quadratic_well().boundary_flags()
        assert flags["boundary_zero"] and not flags["rigid_near_boundary"]


class TestJson:
    def test_radial_roundtrip(self):
        H = quadratic_well()
        H2 = hamiltonian_from_json(H.to_json())
        assert H2.coeffs == H.coeffs

    def test_bad_specs_rejected(self):
        # a wrong kind is named before the keys that kind would need
        with pytest.raises(ValidationError, match=re.escape(
                "at $.kind: 'nope' is not one of ['radial']")):
            hamiltonian_from_json({"kind": "nope"})
        with pytest.raises(ValidationError, match=re.escape(
                "at $.h.type: 'spline' is not one of ['poly']")):
            hamiltonian_from_json({"kind": "radial", "h": {"type": "spline"}})
        with pytest.raises(ValidationError, match=re.escape(
                "at $: keys ['extra'] are not allowed")):
            hamiltonian_from_json({"kind": "radial", "h": {"type": "poly",
                                                           "coeffs": [1.0]},
                                   "extra": 1})
