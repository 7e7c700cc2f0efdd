import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import load_perfbench, wrap_to_pi
from reebsys import topology
from reebsys.cli import main
from reebsys.errors import (NumericalError, StatisticalError,
                            ValidationError)
from reebsys.flows import liouville_sample
from reebsys.systolic import (axis_orbit, contact_volume, enumerate_tori,
                              pairing_orbit_orbit)
from reebsys.profiles import (EllipsoidProfile, LpProfile, SplineProfile,
                              profile_from_json)
from reebsys.topology import (GAUSS_BLOCK, GAUSS_TILE, MIN_DIST_BALL,
                              MIN_DIST_BLOCK, MIN_DIST_TILE, RATE_BLOCK,
                              _POLES, ClosedCurve, LinkResult, _batch_rates,
                              _best_convergents, _gauss_linking_sum,
                              _min_distance, _segment_separation,
                              _stereographic, action_linking_verify,
                              axis_disk, check_statistical, linking_number,
                              signed_sweep_count, toric_orbit_curve)

PI = math.pi


def open_count(profile, rows, surface, duration):
    """Signed crossings of the flow segments of the given duration from
    rows (t, theta1, theta2) with an axis disk: the intersection number
    that the asymptotic rate averages, exact for the linear flow."""
    rows = np.asarray(rows, float)
    idx = surface.phase_index
    omega = 2.0 * profile.boundary_arrays(rows[..., 0])[2 + idx]
    phase0 = rows[..., 1 + idx]
    return surface.orientation * signed_sweep_count(
        phase0, phase0 + omega * duration, surface.angle)


def one_row_rate(profile, row, surface, horizon):
    """(rate, return time, fallback) of _batch_rates for one sample."""
    rates, t_ret, fallback = _batch_rates(
        profile, np.array([row], float), surface, horizon, 0.1)
    return float(rates[0]), float(t_ret[0]), bool(fallback[0])


def dense_best_convergents(alpha, q_cap):
    """Reference: every lane runs every step, masked by np.where."""
    n = alpha.shape[0]
    a0 = np.floor(alpha)
    p_prev, q_prev = np.ones(n), np.zeros(n)
    p_cur, q_cur = a0.copy(), np.ones(n)
    x = alpha - a0
    feasible = q_cap >= 1.0
    best_p = np.where(feasible, p_cur, 0.0)
    best_q = np.where(feasible, 1.0, 0.0)
    active = feasible & (x > 1e-15)
    for _ in range(80):
        if not active.any():
            break
        inv = np.where(active, 1.0 / np.where(active, x, 1.0), 0.0)
        a = np.floor(inv)
        x_next = inv - a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        ok = active & (q_next <= q_cap)
        best_p = np.where(ok, p_next, best_p)
        best_q = np.where(ok, q_next, best_q)
        p_prev = np.where(ok, p_cur, p_prev)
        q_prev = np.where(ok, q_cur, q_prev)
        p_cur = np.where(ok, p_next, p_cur)
        q_cur = np.where(ok, q_next, q_cur)
        x = np.where(ok, x_next, x)
        active = ok & (x > 1e-15)
    err = np.abs(best_q * alpha - best_p)
    return best_p, best_q, err


def parent_best_convergents(alpha, q_cap):
    """Reference: the kernel before the full-width loop, which steps only
    the lanes whose expansion is still running, by fancy indexing."""
    alpha = np.asarray(alpha, float)
    q_cap = np.asarray(q_cap, float)
    n = alpha.shape[0]
    a0 = np.floor(alpha)
    p_prev, q_prev = np.ones(n), np.zeros(n)
    p_cur, q_cur = a0.copy(), np.ones(n)
    x = alpha - a0
    feasible = q_cap >= 1.0
    best_p = np.where(feasible, p_cur, 0.0)
    best_q = np.where(feasible, 1.0, 0.0)
    live = np.flatnonzero(feasible & (x > 1e-15))
    for _ in range(80):
        if live.size == 0:
            break
        inv = 1.0 / x[live]
        a = np.floor(inv)
        p_next = a * p_cur[live] + p_prev[live]
        q_next = a * q_cur[live] + q_prev[live]
        ok = q_next <= q_cap[live]
        live = live[ok]
        p_next, q_next = p_next[ok], q_next[ok]
        best_p[live] = p_next
        best_q[live] = q_next
        p_prev[live] = p_cur[live]
        q_prev[live] = q_cur[live]
        p_cur[live] = p_next
        q_cur[live] = q_next
        x_next = (inv - a)[ok]
        x[live] = x_next
        live = live[x_next > 1e-15]
    err = np.abs(best_q * alpha - best_p)
    return best_p, best_q, err


def test_best_convergents_match_parent_on_edge_lanes():
    rng = np.random.default_rng(29)
    n = 1 << 15
    alpha = rng.uniform(0.0, 8.0, n)
    q_cap = 2.0 ** rng.uniform(-2.0, 53.0, n)
    edges = [
        (0.7, 0.5), (2.5, 0.999), (1.0, 100.0), (3.0, 2.0 ** 53),
        (0.0, 50.0), (0.0, 0.5), (1.0 + 1e-16, 1e6), (5.0 + 8e-16, 1e9),
        (1e-16, 1e3), (1.0 / 3.0, 2.0 ** 53), (math.pi, 2.0 ** 53),
        (math.sqrt(2.0), 2.0 ** 53 - 1.0), (0.5 * (1 + math.sqrt(5)), 2.0 ** 53),
        (1e-15 * (1 + 1e-9), 2.0 ** 53), (np.nan, 10.0), (np.nan, 0.5),
        (2.5, np.nan), (0.3, 1.0),
        # q_cap equal to a convergent's denominator keeps that convergent
        (1.0 / 3.0, 3.0), (math.pi, 7.0), (math.pi, 113.0),
        (math.sqrt(2.0), 12.0), (0.75, 4.0),
        # the remainder after a step falls to 8.9e-16: the expansion ends
        # there, although the next q would fit under q_cap
        (0.75, 2.0 ** 53), (4.0 / 7.0, 2.0 ** 53),
    ]
    for i, (a, q) in enumerate(edges):
        alpha[i], q_cap[i] = a, q
    # lanes whose expansion ends on a remainder at or under 1e-15 late on
    alpha[100:200] = rng.integers(1, 2 ** 20, 100) / 2.0 ** 20
    got = _best_convergents(alpha, q_cap)
    want = parent_best_convergents(alpha, q_cap)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_best_convergents_match_dense_loop():
    rng = np.random.default_rng(17)
    n = 100_000
    alpha = rng.uniform(0.0, 4.0, n)
    # rational ratios end their expansion early; q_cap < 1 is infeasible
    alpha[:5000] = rng.integers(1, 60, 5000) / rng.integers(1, 60, 5000)
    q_cap = rng.uniform(0.0, 3000.0, n)
    q_cap[5000:6000] = rng.uniform(0.0, 1.0, 1000)
    got = _best_convergents(alpha, q_cap)
    want = dense_best_convergents(alpha, q_cap)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def assert_kernels_agree(alpha, q_cap):
    got = _best_convergents(alpha, q_cap)
    for oracle in (dense_best_convergents, parent_best_convergents):
        for g, w in zip(got, oracle(alpha, q_cap)):
            np.testing.assert_array_equal(g, w, strict=True)


GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))


def fibonacci(m):
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return float(a)


@pytest.mark.parametrize("n", [1, 2, 3, RATE_BLOCK, RATE_BLOCK + 1])
def test_best_convergents_at_any_width(n):
    rng = np.random.default_rng(n)
    alpha = rng.uniform(0.0, 8.0, n)
    q_cap = 2.0 ** rng.uniform(-2.0, 53.0, n)
    lanes = [(GOLDEN, 2.0 ** 53), (math.pi, 113.0), (0.75, 2.0 ** 53)]
    for i, (a, q) in enumerate(lanes[:n]):
        alpha[i], q_cap[i] = a, q
    assert_kernels_agree(alpha, q_cap)


def test_best_convergents_gather_at_several_widths():
    # the float expansion of the golden ratio is all ones for 37 steps, so
    # its step k convergent has q = F(k + 2), and a lane with q_cap = F(m)
    # keeps steps 0 to m - 2: here the lanes that keep halve about every
    # second step
    n = RATE_BLOCK
    m = 2 + (2.0 * np.log2(n / np.arange(1.0, n + 1))).astype(int)
    alpha = np.full(n, GOLDEN)
    q_cap = np.array([fibonacci(k) for k in range(m.max() + 1)])[m]
    # the widths the kernel runs at: it gathers the lanes that keep a
    # step once they are fewer than half of the width
    widths = [n]
    for kept in np.bincount(m - 1)[::-1].cumsum()[::-1][1:]:
        if 2 * kept < widths[-1]:
            widths.append(kept)
    assert len(widths) >= 10
    assert_kernels_agree(alpha, q_cap)
    # the same lanes shuffled, among random ones
    rng = np.random.default_rng(3)
    order = rng.permutation(n)
    alpha = np.concatenate([alpha[order], rng.uniform(0.0, 4.0, 999)])
    q_cap = np.concatenate([q_cap[order], rng.uniform(0.0, 3000.0, 999)])
    assert_kernels_agree(alpha, q_cap)


@pytest.mark.parametrize("stop", [RATE_BLOCK // 2, RATE_BLOCK // 2 + 1])
def test_best_convergents_half_the_lanes_stop_at_step_one(stop):
    # q_cap = 1 keeps the golden ratio's step 0 convergent 2/1 and ends at
    # step 1; exactly half ending leaves the width as it is, one more
    # lane ending halves it
    n = RATE_BLOCK
    rng = np.random.default_rng(stop)
    alpha = np.full(n, GOLDEN)
    q_cap = np.full(n, 2.0 ** 40)
    q_cap[rng.permutation(n)[:stop]] = 1.0
    _, q, _ = _best_convergents(alpha, q_cap)
    assert np.count_nonzero(q == 1.0) == stop
    assert_kernels_agree(alpha, q_cap)


def scalar_denominators(alpha, steps):
    """q of the first continued-fraction steps of alpha, in floats."""
    x = alpha - math.floor(alpha)
    q_prev, q = 0.0, 1.0
    out = []
    for _ in range(steps):
        x = 1.0 / x
        a = math.floor(x)
        x -= a
        q_prev, q = q, a * q + q_prev
        out.append(q)
    return out


def test_best_convergents_to_the_step_cap():
    # golden-ratio lanes at q_cap 2^53 keep 57 steps; at q_cap 1e300 every
    # lane keeps all 80, and the last one kept is the answer
    n = 1000
    rng = np.random.default_rng(80)
    alpha = np.where(rng.random(n) < 0.5, GOLDEN, rng.uniform(0.0, 8.0, n))
    q_cap = np.where(rng.random(n) < 0.5, 2.0 ** 53, 1e300)
    assert_kernels_agree(alpha, q_cap)
    qs = scalar_denominators(GOLDEN, 80)
    _, q, _ = _best_convergents(np.full(2, GOLDEN),
                                np.array([2.0 ** 53, 1e300]))
    assert q[0] == qs[56] and qs[57] > 2.0 ** 53
    assert q[1] == qs[79]


class TestCrossings:
    def test_unit_ellipsoid_one_sweep_per_period(self, e11):
        disk = axis_disk(e11, "y", angle=0.3)
        assert open_count(e11, (0.5, 1.0, 2.0), disk, PI) == 1

    def test_zero_duration(self, e11):
        # the swept interval is half-open: starting on the disk's angle
        # is no crossing
        for theta1 in (1.0, 0.3):
            assert open_count(e11, (0.5, theta1, 2.0),
                              axis_disk(e11, "y", angle=0.3), 0.0) == 0

    def test_torus_orbit_crosses_p_times(self, round_p):
        t23 = [t for t in enumerate_tori(round_p, 3) if (t.p, t.q) == (2, 3)][0]
        row = (t23.t, 0.3, 0.7)
        assert open_count(round_p, row, axis_disk(round_p, "y", angle=0.1),
                          t23.period) == 2
        assert open_count(round_p, row, axis_disk(round_p, "x", angle=0.1),
                          t23.period) == 3

    def test_orientation_flip_negates(self, round_p):
        row = (0.4, 0.0, 0.0)
        plus = open_count(round_p, row, axis_disk(round_p, "y", angle=1.0),
                          7.0)
        minus = open_count(round_p, row, axis_disk(round_p, "y", angle=1.0,
                                                   orientation=-1), 7.0)
        assert plus != 0 and minus == -plus

    def test_iterate_covariance(self, round_p):
        t11 = enumerate_tori(round_p, 1)[0]
        disk = axis_disk(round_p, "y", angle=0.2)
        row = (t11.t, 0.5, 0.5)
        assert open_count(round_p, row, disk, 2 * t11.period) == \
            2 * open_count(round_p, row, disk, t11.period)

    @given(st.floats(0, 2 * PI), st.floats(-8, 8), st.floats(0, 40),
           st.floats(0, 40), st.floats(0, 2 * PI))
    def test_sweep_count_additive(self, phase0, omega, d1, d2, star):
        mid = phase0 + omega * d1
        end = mid + omega * d2
        total = signed_sweep_count(phase0, end, star)
        assert total == signed_sweep_count(phase0, mid, star) + \
            signed_sweep_count(mid, end, star)


class TestAsymptoticRate:
    def test_rational_orbit_rate_exact(self, round_p):
        t23 = [t for t in enumerate_tori(round_p, 3) if (t.p, t.q) == (2, 3)][0]
        rate, _, fallback = one_row_rate(round_p, (t23.t, 0.3, 0.7),
                                         axis_disk(round_p, "y"), 100.0)
        assert rate == pytest.approx(2 / t23.period, abs=1e-14)
        assert not fallback

    def test_irrational_rate_against_sweep_rate(self, round_p):
        # the error bar: 1/t resolution plus the chord's one crossing
        disk = axis_disk(round_p, "y")
        for frac in (0.15, 0.37, 0.52, 0.81):
            t = frac * round_p.two_area
            _, _, d1, _ = round_p.boundary_arrays(t)
            rate, t_ret, fallback = one_row_rate(round_p, (t, 0.0, 0.0), disk,
                                                 1000.0)
            assert not fallback
            assert abs(rate - d1 / PI) <= 2.0 / t_ret
            assert abs(rate - d1 / PI) < 1e-4

    def test_irrational_rate_second_angle(self, round_p):
        # the x-axis disk counts theta2 sweeps; the near-return chord can
        # contribute a crossing there, and the closed-loop count still
        # tracks the sweep rate
        disk = axis_disk(round_p, "x")
        for frac in (0.2, 0.45, 0.7):
            t = frac * round_p.two_area
            _, _, _, d2 = round_p.boundary_arrays(t)
            rate, t_ret, fallback = one_row_rate(round_p, (t, 0.0, 0.0), disk,
                                                 1000.0)
            assert not fallback
            assert abs(rate - d2 / PI) <= 2.0 / t_ret

    def test_orientation_flip(self, round_p):
        row = (0.37 * round_p.two_area, 0.0, 0.0)
        plus, _, fallback = one_row_rate(
            round_p, row, axis_disk(round_p, "y"), 500.0)
        minus, _, fallback_minus = one_row_rate(
            round_p, row, axis_disk(round_p, "y", orientation=-1), 500.0)
        assert not (fallback or fallback_minus)
        assert minus == pytest.approx(-plus, abs=1e-15)

    def test_no_return_falls_back(self, round_p):
        # near the y-intercept the first rate is tiny: no return in time 1
        row = (round_p.two_area * (1 - 1e-9), 0.0, 0.0)
        _, t_ret, fallback = one_row_rate(
            round_p, row, axis_disk(round_p, "y"), 1.0)
        assert fallback
        assert t_ret == 1.0

    @pytest.mark.parametrize("kind", ["round", "lp3", "spline"])
    def test_rates_count_the_open_trajectory(self, round_p, spline_p, kind):
        # the rate times the return time is the crossing count of the
        # loop closed by the chord; the open trajectory misses at most
        # the chord's one crossing, and none where the chord passes no
        # disk angle
        profile = {"round": round_p, "lp3": LpProfile(3.0),
                   "spline": spline_p}[kind]
        rows = liouville_sample(profile, 4000, seed=31)
        tori = enumerate_tori(profile, 6)
        torus_rows = np.column_stack([[T.t for T in tori],
                                      rows[:len(tori), 1:]])
        periods = np.array([T.period for T in tori])
        chord_crossings = 0
        for axis in ("y", "x"):
            for orientation in (1, -1):
                surface = axis_disk(profile, axis, angle=0.9,
                                    orientation=orientation)
                rates, t_ret, _ = _batch_rates(profile, rows, surface, 300.0,
                                               0.1)
                closed = np.round(rates * t_ret)
                np.testing.assert_allclose(rates * t_ret, closed, atol=1e-9)
                opened = open_count(profile, rows, surface, t_ret)
                assert np.max(np.abs(closed - opened)) <= 1
                idx = surface.phase_index
                sweep = 2.0 * profile.boundary_arrays(rows[:, 0])[2 + idx] \
                    * t_ret
                end = rows[:, 1 + idx] + sweep
                chord = wrap_to_pi(-sweep)
                lo = np.minimum(end, end + chord) - 1e-9
                hi = np.maximum(end, end + chord) + 1e-9
                clear = signed_sweep_count(lo, hi, surface.angle) == 0
                chord_crossings += np.count_nonzero(~clear)
                np.testing.assert_array_equal(closed[clear], opened[clear])

                # a rational torus closes at its period: p crossings of
                # the y disk, q of the x disk
                rates, _, fallback = _batch_rates(
                    profile, torus_rows, surface, 300.0, 0.1)
                assert not fallback.any()
                closed = np.round(rates * periods)
                np.testing.assert_allclose(rates * periods, closed,
                                           atol=1e-9)
                windings = [T.p if axis == "y" else T.q for T in tori]
                np.testing.assert_array_equal(
                    open_count(profile, torus_rows, surface, periods),
                    orientation * np.array(windings))
                np.testing.assert_array_equal(closed,
                                              orientation * np.array(windings))
        assert chord_crossings > 0


def test_wrap_helpers():
    assert wrap_to_pi(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_to_pi(-0.1) == pytest.approx(-0.1)


@pytest.mark.parametrize("return_tol", [0.1, 2.0])
@pytest.mark.parametrize("horizon", [100.0, 1000.0])
@pytest.mark.parametrize("kind", ["round", "lp3", "spline", "ellipsoid"])
def test_rint_count_is_the_chord_closed_count(round_p, kind, horizon,
                                              return_tol):
    # every lane of a seeded block, fallback lanes included: the count is
    # the nearest whole number of turns, the count of the sweep closed by
    # the shorter chord
    doc = load_perfbench("workloads").profiles(1.0)[kind]
    profile = round_p if kind == "round" else profile_from_json(doc)
    rows = liouville_sample(profile, 20 * RATE_BLOCK, 23, 0, RATE_BLOCK,
                            columns=1)
    w = 2.0 * np.array(profile.gradient_theta(profile.theta_of_t(rows[:, 0])))
    fallbacks = 0
    for axis in ("y", "x"):
        surface = axis_disk(profile, axis)
        rates, t_ret, fallback = _batch_rates(profile, rows, surface,
                                              horizon, return_tol)
        sweep = w[surface.phase_index] * t_ret
        chord_closed = np.round((sweep + wrap_to_pi(-sweep)) / (2.0 * PI))
        np.testing.assert_array_equal(np.rint(sweep / (2.0 * PI)),
                                      chord_closed)
        np.testing.assert_array_equal(rates, chord_closed / t_ret)
        fallbacks += np.count_nonzero(fallback)
    # round and lp3 fall back on 100 to 22754 of the lanes in every case,
    # the spline on 13747 at horizon 100 and return_tol 0.1 only, and the
    # ellipsoid's lanes, all alike, always return
    assert (fallbacks > 0) == (kind in ("round", "lp3") or (
        kind == "spline" and (horizon, return_tol) == (100.0, 0.1)))


@pytest.mark.parametrize("turns, count", [(1.5, 2.0), (2.5, 2.0)])
def test_rint_count_at_a_half_turn(turns, count):
    # w2 = 8 and no return within the horizon (q_cap = turns / 4): the
    # sample sweeps exactly k + 1/2 turns of theta2, and the count is the
    # even neighbour (the chord form gave 1 at 1.5 turns, wrap_to_pi's
    # rounding choosing the chord)
    profile = EllipsoidProfile(1.0, 0.25)
    horizon = turns / 8.0 * 2.0 * PI
    assert 8.0 * horizon / (2.0 * PI) == turns
    rates, t_ret, fallback = _batch_rates(
        profile, np.array([[0.1]]), axis_disk(profile, "x"), horizon, 0.1)
    assert fallback[0] and t_ret[0] == horizon
    assert rates[0] == count / horizon


class TestActionLinkingVerify:
    def test_ellipsoid_exact(self, e12):
        for axis, expected in (("y", 2 * PI), ("x", PI)):
            rep = action_linking_verify(e12, axis_disk(e12, axis),
                                        n_samples=2000, horizon=1000.0, seed=5)
            assert abs(rep.lhs - rep.rhs) < 1e-10
            assert rep.rhs == pytest.approx(expected, abs=1e-10)
            assert rep.stderr == 0.0 and rep.z == 0.0

    def test_round_statistically_consistent(self, round_p):
        rep = action_linking_verify(round_p, axis_disk(round_p, "y"),
                                    n_samples=20000, horizon=1000.0, seed=5)
        assert rep.rhs == pytest.approx(PI, abs=1e-12)
        assert rep.z <= 4.0
        check_statistical(rep, 4.0)
        with pytest.raises(StatisticalError):
            check_statistical(rep, rep.z / 2)

    def test_orientation_flip_negates_both_sides(self, round_p):
        kw = dict(n_samples=5000, horizon=500.0, seed=8)
        plus = action_linking_verify(round_p, axis_disk(round_p, "y"), **kw)
        minus = action_linking_verify(
            round_p, axis_disk(round_p, "y", orientation=-1), **kw)
        assert minus.lhs == pytest.approx(-plus.lhs, abs=1e-13)
        assert minus.rhs == pytest.approx(-plus.rhs, abs=1e-13)
        assert minus.z == pytest.approx(plus.z, abs=1e-9)

    def test_seed_reproducibility_and_thread_invariance(self, round_p):
        kw = dict(n_samples=4000, horizon=500.0, seed=21)
        a = action_linking_verify(round_p, axis_disk(round_p, "y"), **kw)
        b = action_linking_verify(round_p, axis_disk(round_p, "y"), **kw)
        c = action_linking_verify(round_p, axis_disk(round_p, "y"), threads=4,
                                  **kw)
        assert (a.lhs, a.stderr) == (b.lhs, b.stderr)
        assert (a.lhs, a.stderr) == (c.lhs, c.stderr)

    def test_blocks_thread_invariant(self, spline_p):
        # n is not a multiple of the block size: the last block is short
        surface = axis_disk(spline_p, "y")
        reps = [action_linking_verify(spline_p, surface, 2 * RATE_BLOCK + 777,
                                      300.0, 13, threads=k)
                for k in (1, 2, 3)]
        assert reps[0] == reps[1] == reps[2]

    @pytest.mark.parametrize("n", [RATE_BLOCK - 1, RATE_BLOCK,
                                   RATE_BLOCK + 1, 3 * RATE_BLOCK + 7])
    @pytest.mark.parametrize("kind", ["spline", "lp3", "round"])
    def test_blocks_thread_invariant_at_block_edges(self, spline_p, round_p,
                                                    kind, n):
        # block counts 1, 1, 2 and 4, the last block short, one row long
        # or full
        profile = {"spline": spline_p, "lp3": LpProfile(3.0, 1.2, 0.9),
                   "round": round_p}[kind]
        surface = axis_disk(profile, "y")
        reps = [action_linking_verify(profile, surface, n, 300.0, 13,
                                      threads=k)
                for k in (1, 2, 3)]
        assert reps[0] == reps[1] == reps[2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_working_set_is_bounded_by_blocks(self, spline_p, monkeypatch,
                                              threads):
        # drawing every sample up front, or evaluating the area map on a
        # whole run's lanes at once, would exceed these
        area_points, sample_rows = [], []
        liouville_sample = topology.liouville_sample

        def counting(area):
            def counting_area(self, theta, j):
                area_points.append(np.size(theta))
                return area(self, theta, j)
            return counting_area

        def counting_sample(profile, n, seed, lo=0, hi=None, **kw):
            sample_rows.append((n if hi is None else hi) - lo)
            return liouville_sample(profile, n, seed, lo, hi, **kw)

        for kind in (LpProfile, SplineProfile):
            monkeypatch.setattr(kind, "_panel_area",
                                counting(kind._panel_area))
        monkeypatch.setattr(topology, "liouville_sample", counting_sample)
        n = 2 * RATE_BLOCK + 777
        for profile in (LpProfile(3.0, 1.2, 0.9), spline_p):
            action_linking_verify(profile, axis_disk(profile, "y"), n, 300.0,
                                  13, threads=threads)
        assert 0 < max(area_points) <= RATE_BLOCK
        assert max(sample_rows) <= RATE_BLOCK and sum(sample_rows) == 2 * n

    def test_worker_loop(self, monkeypatch):
        # five blocks, the last one short; the caller and the helpers
        # share one iterator of block indices, so each block is computed
        # once whatever the thread count, and an error in any block is
        # raised once every worker has stopped
        profile = LpProfile(3.0, 1.2, 0.9)
        surface = axis_disk(profile, "y")
        n = 4 * RATE_BLOCK + 999
        first_t = liouville_sample(profile, n, 13, columns=1)[::RATE_BLOCK, 0]
        block_of = {t: i for i, t in enumerate(first_t.tolist())}
        batch_rates = topology._batch_rates
        computed, fail = [], []

        def counting(profile, samples, *args):
            i = block_of[samples[0, 0]]
            computed.append(i)
            if i in fail:
                raise NumericalError("third block")
            return batch_rates(profile, samples, *args)

        monkeypatch.setattr(topology, "_batch_rates", counting)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reps = []
            for threads in (1, 2, 3, 40):
                computed.clear()
                reps.append(action_linking_verify(profile, surface, n, 300.0,
                                                  13, threads=threads))
                assert sorted(computed) == list(range(5))
                assert threading.active_count() == before
            fail.append(2)
            for threads in (1, 2, 3):
                with pytest.raises(NumericalError, match="third block"):
                    action_linking_verify(profile, surface, n, 300.0, 13,
                                          threads=threads)
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        assert reps[0] == reps[1] == reps[2] == reps[3]
        assert reps[0].n_samples == n

    def test_skewed_ellipsoid_zero_variance(self):
        # 1e-4 x 1e4: rhs = pi*b must not pick up cos(pi/2) rounding
        e = EllipsoidProfile(1e-4, 1e4)
        rep = action_linking_verify(e, axis_disk(e, "y"), n_samples=1000,
                                    horizon=1000.0, seed=3)
        assert rep.rhs == PI * 1e4
        assert rep.stderr == 0.0 and rep.z == 0.0

    def test_pairing_definition_cross_check(self, round_p, spline_p):
        # crossings * vol / (T * T(disk)) against the closed-form pairing
        for p in (round_p, spline_p):
            disk = axis_disk(p, "y")
            vol = contact_volume(p)
            for torus in enumerate_tori(p, 4)[:8]:
                crossings = int(open_count(p, (torus.t, 0.2, 1.1), disk,
                                           torus.period))
                rho = crossings * vol / (torus.period * disk.contact_area)
                oracle = pairing_orbit_orbit(p, torus, axis_orbit(p, "y"))
                assert rho == pytest.approx(oracle, rel=1e-8)


class TestClosedCurves:
    def test_validation(self):
        open_arc = np.column_stack([np.cos(np.linspace(0, 3, 32)),
                                    np.sin(np.linspace(0, 3, 32)),
                                    np.zeros(32), np.zeros(32)])
        with pytest.raises(ValidationError, match="closed"):
            ClosedCurve.from_points(open_arc)
        sparse = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0],
                           [0, -1, 0, 0], [1, 0, 0, 0]], float)
        with pytest.raises(ValidationError, match="chord"):
            ClosedCurve.from_points(sparse, chord_bound=0.5)

    def test_radial_projection_normalizes(self):
        ang = np.linspace(0, 2 * PI, 64)
        pts = 3.0 * np.column_stack([np.cos(ang), np.sin(ang),
                                     np.zeros(64), np.zeros(64)])
        pts[-1] = pts[0]
        curve = ClosedCurve.from_points(pts)
        assert np.allclose(np.linalg.norm(curve.points, axis=1), 1.0)


class TestLinking:
    def test_hopf_link(self, e11):
        c1 = toric_orbit_curve(e11, axis_orbit(e11, "y"), 200)
        c2 = toric_orbit_curve(e11, axis_orbit(e11, "x"), 200)
        res = linking_number(c1, c2)
        assert res.link == 1
        assert res.residual < 1e-9

    def test_torus_orbit_vs_axis_orbits(self, round_p):
        t23 = [t for t in enumerate_tori(round_p, 3) if (t.p, t.q) == (2, 3)][0]
        c = toric_orbit_curve(round_p, t23, 1024)
        cy = toric_orbit_curve(round_p, axis_orbit(round_p, "y"), 200)
        cx = toric_orbit_curve(round_p, axis_orbit(round_p, "x"), 200)
        assert linking_number(c, cy).link == 2   # winds twice in theta1
        assert linking_number(c, cx).link == 3   # winds thrice in theta2

    def test_two_torus_orbits(self, round_p):
        tori = enumerate_tori(round_p, 2)
        t12 = [t for t in tori if (t.p, t.q) == (1, 2)][0]
        t21 = [t for t in tori if (t.p, t.q) == (2, 1)][0]
        res = linking_number(toric_orbit_curve(round_p, t12, 1024),
                             toric_orbit_curve(round_p, t21, 1024))
        # the (1, 2) torus sits closer to the y-intercept orbit: the link is
        # (p of the farther) * (q of the nearer) = 2 * 2
        assert res.link == 4

    def test_disjointness_enforced(self, round_p):
        t11 = enumerate_tori(round_p, 1)[0]
        c = toric_orbit_curve(round_p, t11, 256)
        with pytest.raises(ValidationError, match="within"):
            linking_number(c, c)

    def test_same_torus_distinct_orbits(self, round_p):
        # two orbits on one torus are disjoint and link like nearby tori
        t11 = enumerate_tori(round_p, 1)[0]
        c1 = toric_orbit_curve(round_p, t11, 512, phase2=0.0)
        c2 = toric_orbit_curve(round_p, t11, 512, phase2=PI)
        assert linking_number(c1, c2).link == 1

    def test_parallel_tori_on_nonconvex_profile(self):
        # two distinct tori of the same class on a non-convex boundary
        from reebsys.profiles import perturbed_ellipsoid_profile
        bumpy = perturbed_ellipsoid_profile(1.0, 1.0, (0.06, -0.05), n=256)
        pair = [t for t in enumerate_tori(bumpy, 1) if (t.p, t.q) == (1, 1)]
        assert len(pair) == 2
        res = linking_number(toric_orbit_curve(bumpy, pair[0], 768),
                             toric_orbit_curve(bumpy, pair[1], 768))
        assert res.link == 1
        rho = pairing_orbit_orbit(bumpy, pair[0], pair[1])
        vol = contact_volume(bumpy)
        assert rho == pytest.approx(
            res.link * vol / (pair[0].period * pair[1].period), rel=1e-8)


def einsum_gauss_sum(P, Q):
    """Reference: the per-pair Gauss sum over (rows, cols, 3) corner arrays,
    the longer curve on the P axis, one np.sum per GAUSS_BLOCK x GAUSS_TILE
    tile, the tile sums added Q block by Q block and P tile by P tile."""
    if len(Q) > len(P):
        P, Q = Q, P
    total = 0.0
    for i in range(0, len(Q) - 1, GAUSS_BLOCK):
        q0 = Q[i:i + GAUSS_BLOCK + 1][:-1]
        q1 = Q[i + 1:i + GAUSS_BLOCK + 1]
        for j in range(0, len(P) - 1, GAUSS_TILE):
            p0 = P[j:j + GAUSS_TILE + 1][:-1]
            p1 = P[j + 1:j + GAUSS_TILE + 1]
            a = p0[None, :, :] - q0[:, None, :]
            b = p0[None, :, :] - q1[:, None, :]
            c = p1[None, :, :] - q1[:, None, :]
            d = p1[None, :, :] - q0[:, None, :]
            cross_bc = np.cross(b, c)
            p = np.einsum("ijk,ijk->ij", a, cross_bc)
            an = np.linalg.norm(a, axis=2)
            bn = np.linalg.norm(b, axis=2)
            cn = np.linalg.norm(c, axis=2)
            dn = np.linalg.norm(d, axis=2)
            ab = np.einsum("ijk,ijk->ij", a, b)
            bc = np.einsum("ijk,ijk->ij", b, c)
            ca = np.einsum("ijk,ijk->ij", c, a)
            ad = np.einsum("ijk,ijk->ij", a, d)
            dc = np.einsum("ijk,ijk->ij", d, c)
            d1 = an * bn * cn + ab * cn + bc * an + ca * bn
            d2 = an * dn * cn + ad * cn + dc * an + ca * dn
            total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
    return total / (2 * PI)


def loop_min_distance(p1, p2):
    """Reference: the least distance over (512, N, 4) difference blocks."""
    min_dist = math.inf
    for start in range(0, len(p1), 512):
        diff = p1[start:start + 512][:, None, :] - p2[None, :, :]
        min_dist = min(min_dist, float(np.sqrt((diff ** 2).sum(axis=2)).min()))
    return min_dist


def one_tile_width_min_distance(p1, p2):
    """The min-distance scan before short sides got wider tiles: always
    MIN_DIST_BLOCK x MIN_DIST_TILE tiles, so a pole made 1 x 1024 ones."""
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    rows = min(MIN_DIST_BLOCK, len(p1))
    cols = min(MIN_DIST_TILE, len(p2))
    work = np.empty((2, rows * cols))
    min_sq = math.inf
    for i in range(0, len(p1), MIN_DIST_BLOCK):
        a = p1[i:i + MIN_DIST_BLOCK]
        for j in range(0, len(p2), MIN_DIST_TILE):
            b = p2[j:j + MIN_DIST_TILE]
            sq, diff = (w[:len(a) * len(b)].reshape(len(a), len(b))
                        for w in work)
            for k in range(p1.shape[1]):
                np.subtract(a[:, None, k], b[None, :, k], out=diff)
                if k:
                    np.add(sq, np.multiply(diff, diff, out=diff), out=sq)
                else:
                    np.multiply(diff, diff, out=sq)
            min_sq = min(min_sq, float(sq.min()))
    return math.sqrt(min_sq)


def assert_same_bits(x, y):
    assert np.float64(x).tobytes() == np.float64(y).tobytes(), (x, y)


class TestGaussOracle:
    """The vertex-grid Gauss sum and the min-distance scan repeat the
    per-pair reference arithmetic bit for bit."""

    def test_lp3_orbit_and_axis_curves(self):
        lp3 = LpProfile(3.0, 1.2, 0.9)
        t23 = [t for t in enumerate_tori(lp3, 3) if (t.p, t.q) == (2, 3)][0]
        orbit = toric_orbit_curve(lp3, t23, 300)
        for axis, n in (("x", 130), ("y", 64)):
            c1, c2 = orbit, toric_orbit_curve(lp3, axis_orbit(lp3, axis), n)
            assert_same_bits(_min_distance(c1.points, c2.points),
                             loop_min_distance(c1.points, c2.points))
            for level in range(2):
                for pole in _POLES[[0, 4]]:
                    P = _stereographic(c1.points, pole)
                    Q = _stereographic(c2.points, pole)
                    assert_same_bits(_gauss_linking_sum(P, Q),
                                     einsum_gauss_sum(P, Q))
                c1, c2 = c1.subdivided(), c2.subdivided()

    @pytest.mark.parametrize("q_segments", [2 * GAUSS_BLOCK - 1,
                                            2 * GAUSS_BLOCK,
                                            2 * GAUSS_BLOCK + 1, 5])
    def test_random_polylines(self, q_segments):
        rng = np.random.default_rng(q_segments)
        for _ in range(4):
            P = np.cumsum(rng.standard_normal((97, 3)), axis=0)
            Q = np.cumsum(rng.standard_normal((q_segments + 1, 3)), axis=0)
            assert_same_bits(_gauss_linking_sum(P, Q), einsum_gauss_sum(P, Q))
            assert_same_bits(_min_distance(P, Q), loop_min_distance(P, Q))

    # sums over four and eight tiles, whose last tile has GAUSS_TILE - 1,
    # GAUSS_TILE, 1 and 3 segments
    @pytest.mark.parametrize("p_segments", [4 * GAUSS_TILE - 1,
                                            4 * GAUSS_TILE,
                                            4 * GAUSS_TILE + 1,
                                            8 * GAUSS_TILE + 3])
    @pytest.mark.parametrize("q_segments", [1, GAUSS_BLOCK, GAUSS_BLOCK + 1])
    def test_tile_edges(self, p_segments, q_segments):
        rng = np.random.default_rng(1000 * p_segments + q_segments)
        P = np.cumsum(rng.standard_normal((p_segments + 1, 3)), axis=0)
        Q = np.cumsum(rng.standard_normal((q_segments + 1, 3)), axis=0)
        for a, b in ((P, Q), (Q, P)):
            assert_same_bits(_gauss_linking_sum(a, b), einsum_gauss_sum(a, b))
            assert_same_bits(_min_distance(a, b), loop_min_distance(a, b))

    def test_integer_grid_polylines(self):
        # exact zeros: a coplanar pair has p = a . (b x c) = 0, and its sign
        # picks arctan2(p, d) = +-pi when d < 0; einsum never returns -0.0
        rng = np.random.default_rng(3)
        for _ in range(400):
            P = rng.integers(-2, 3, (6, 3)).astype(float)
            Q = rng.integers(-2, 3, (6, 3)).astype(float)
            P[-1], Q[-1] = P[0], Q[0]
            assert_same_bits(_gauss_linking_sum(P, Q), einsum_gauss_sum(P, Q))


class TestPoleScores:
    """Pole scores run one-row scans over wider tiles, with the bits of
    the one-tile-width scan."""

    @pytest.mark.parametrize("n_orbit, n_axis", [(MIN_DIST_TILE - 1, 16),
                                                 (5000, 3 * MIN_DIST_BLOCK),
                                                 (70000, 40)])
    def test_scores_and_pole_match_one_tile_width_scan(self, monkeypatch,
                                                       n_orbit, n_axis):
        lp3 = LpProfile(3.0, 1.2, 0.9)
        t23 = [t for t in enumerate_tori(lp3, 3) if (t.p, t.q) == (2, 3)][0]
        c1 = toric_orbit_curve(lp3, t23, n_orbit)
        c2 = toric_orbit_curve(lp3, axis_orbit(lp3, "x"), n_axis)
        for curve in (c1, c2):
            for pole in _POLES:
                for args in ((curve.points, pole[None]),
                             (pole[None], curve.points)):
                    assert_same_bits(_min_distance(*args),
                                     one_tile_width_min_distance(*args))
        for rows in (2, 17, MIN_DIST_BLOCK - 1):
            assert_same_bits(
                _min_distance(c1.points, c2.points[:rows]),
                one_tile_width_min_distance(c1.points, c2.points[:rows]))
        result = linking_number(c1, c2)
        monkeypatch.setattr(topology, "_min_distance",
                            one_tile_width_min_distance)
        assert linking_number(c1, c2) == result


def random_closed_curve(rng, n):
    """A (p, q) torus curve with a small random low-frequency wobble,
    n segments, on the unit 3-sphere."""
    u = np.linspace(0.0, 2 * PI, n + 1)[:, None]
    p, q = rng.integers(1, 4, 2)
    r1, r2 = rng.uniform(0.5, 1.0, 2)
    f1, f2 = rng.uniform(0.0, 2 * PI, 2)
    pts = np.hstack([r1 * np.cos(p * u + f1), r1 * np.sin(p * u + f1),
                     r2 * np.cos(q * u + f2), r2 * np.sin(q * u + f2)])
    for k in (1, 2):
        a, b = 0.05 * rng.standard_normal((2, 4))
        pts += np.cos(k * u) * a + np.sin(k * u) * b
    pts[-1] = pts[0]
    return ClosedCurve.from_points(pts)


def linking_outcome(c1, c2):
    try:
        return linking_number(c1, c2)
    except (ValidationError, NumericalError) as exc:
        return type(exc)


class TestLinkingSymmetry:
    """Lk(c1, c2) = Lk(c2, c1): the Gauss linking integral is symmetric.
    With equal segment counts no swap happens, so the two orders sum over
    transposed vertex grids."""

    @staticmethod
    def assert_symmetric(c1, c2):
        r12, r21 = linking_outcome(c1, c2), linking_outcome(c2, c1)
        if isinstance(r12, LinkResult):
            assert r12.link == r21.link
            assert abs(r12.raw - r21.raw) <= 1e-12
        else:
            assert r12 is r21

    @pytest.mark.parametrize("n_orbit, n_axis", [(300, 130), (256, 256),
                                                 (64, 700)])
    def test_lp3_orbit_and_axis_curves(self, n_orbit, n_axis):
        lp3 = LpProfile(3.0, 1.2, 0.9)
        tori = enumerate_tori(lp3, 3)
        t23 = [t for t in tori if (t.p, t.q) == (2, 3)][0]
        t12 = [t for t in tori if (t.p, t.q) == (1, 2)][0]
        orbit = toric_orbit_curve(lp3, t23, n_orbit)
        for other in (toric_orbit_curve(lp3, axis_orbit(lp3, "x"), n_axis),
                      toric_orbit_curve(lp3, axis_orbit(lp3, "y"), n_axis),
                      toric_orbit_curve(lp3, t12, n_axis)):
            self.assert_symmetric(orbit, other)

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([(160, 160), (257, 130), (96, 600)]))
    def test_random_closed_curves(self, seed, sizes):
        rng = np.random.default_rng(seed)
        c1, c2 = (random_closed_curve(rng, n) for n in sizes)
        self.assert_symmetric(c1, c2)


def test_linking_memory_is_set_by_the_tile():
    # a 131072 x 16 pair in both orders: per-block grids as long as the
    # first curve would take about 18 MB per temporary
    rng = np.random.default_rng(11)
    long = np.cumsum(rng.standard_normal((131073, 4)), axis=0)
    short = np.cumsum(rng.standard_normal((17, 4)), axis=0)
    gauss_work = 12 * (GAUSS_BLOCK + 1) * (GAUSS_TILE + 1) * 8
    for f, width in ((_gauss_linking_sum, 3), (_min_distance, 4)):
        a, b = long[:, :width], short[:, :width]
        peaks = []
        for args in ((a, b), (b, a)):
            tracemalloc.start()
            try:
                f(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < gauss_work + (1 << 20)
        assert abs(peaks[0] - peaks[1]) <= 0.1 * max(peaks)


class TestPrunedScans:
    """The distance scans skip tiles by their bounding balls and keep the
    bits of the full scan."""

    def test_far_apart_tiles(self):
        # clusters of points far apart from one another, so that most
        # block pairs are skipped; the nearest pair sits in one of them
        rng = np.random.default_rng(5)
        for width in (3, 4):
            offsets = 50.0 * rng.standard_normal((40, width))
            p1 = np.repeat(offsets[:20], 37, axis=0) + rng.standard_normal(
                (740, width))
            p2 = np.repeat(offsets[20:], 211, axis=0) + rng.standard_normal(
                (4220, width))
            p2[3000] = p1[500] + 1e-3
            for a, b in ((p1, p2), (p2, p1), (p1, p2[::-1])):
                assert_same_bits(_min_distance(a, b), loop_min_distance(a, b))

    def test_nearest_pair_in_a_late_tile(self):
        # 300 blocks whose balls come nearer than the nearest pair's block
        # but whose points all stay farther: they fill the first tiles,
        # and the block of the nearest pair is scanned only if its bound
        # is weighed against the least cell exactly
        rng = np.random.default_rng(8)
        p1 = 1e-4 * rng.standard_normal((MIN_DIST_BALL + 1, 4))
        decoys = []
        for _ in range(300):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            block = -10.0 * u + rng.standard_normal((MIN_DIST_BALL, 4))
            block[0] = rng.uniform(0.85, 0.9) * u
            decoys.append(block)
        near = 0.8 * np.eye(4)[0] + 1e-4 * rng.standard_normal(
            (MIN_DIST_BALL, 4))
        p2 = np.concatenate(decoys + [near])
        assert loop_min_distance(p1, p2) < 0.81
        assert_same_bits(_min_distance(p1, p2), loop_min_distance(p1, p2))

    @pytest.mark.parametrize("n1, n2", [(MIN_DIST_BALL + 1, 5000),
                                        (700, 4 * MIN_DIST_TILE + 3)])
    def test_nothing_to_prune(self, n1, n2):
        # two clouds in one small ball: every block ball meets every other,
        # so no tile can be skipped
        rng = np.random.default_rng(n1)
        p1 = rng.uniform(-1.0, 1.0, (n1, 4))
        p2 = rng.uniform(-1.0, 1.0, (n2, 4))
        assert_same_bits(_min_distance(p1, p2), loop_min_distance(p1, p2))

    @pytest.mark.parametrize("n_orbit, n_axis", [(4096, 512), (300, 16)])
    def test_separation_matches_the_full_scan(self, n_orbit, n_axis):
        lp3 = LpProfile(3.0, 1.2, 0.9)
        t23 = [t for t in enumerate_tori(lp3, 3) if (t.p, t.q) == (2, 3)][0]
        c1 = toric_orbit_curve(lp3, t23, n_orbit)
        c2 = toric_orbit_curve(lp3, axis_orbit(lp3, "x"), n_axis)
        P = _stereographic(c1.points, _POLES[4])
        Q = _stereographic(c2.points, _POLES[4])
        sep = full_separation(P, Q)
        assert sep > 0
        assert_same_bits(_segment_separation(P, Q), sep)
        assert_same_bits(_segment_separation(Q, P), sep)
        # below the floor the scan may stop at the first cell under it
        assert _segment_separation(P, Q, floor=2 * sep) < 2 * sep


def full_separation(P, Q):
    """Reference: the least over segment pairs of the midpoint distance
    less the two half lengths, the squares summed in coordinate order."""
    def midpoints_and_halves(X):
        d = X[1:] - X[:-1]
        return 0.5 * (X[:-1] + X[1:]), 0.5 * np.sqrt((d * d).sum(axis=1))
    (m1, h1), (m2, h2) = midpoints_and_halves(P), midpoints_and_halves(Q)
    sq = (m1[:, None, 0] - m2[None, :, 0]) ** 2
    for k in (1, 2):
        sq = sq + (m1[:, None, k] - m2[None, :, k]) ** 2
    return float((np.sqrt(sq) - (h1[:, None] + h2[None, :])).min())


def index_deviation(X, coarse):
    """Largest distance from a vertex of X to the coarse polyline at the
    same index parameter, coarse being X[::s] with its last vertex."""
    n = len(X) - 1
    s = next(s for s in (2 ** e for e in range(n.bit_length()))
             if len(coarse) == len(np.r_[0:n:s, n])
             and np.array_equal(coarse, X[np.r_[0:n:s, n]]))
    worst = 0.0
    for k in range(n + 1):
        k0 = k - k % s
        k1 = min(k0 + s, n)
        w = (k - k0) / (k1 - k0) if k1 > k0 else 0.0
        worst = max(worst, float(np.linalg.norm(
            X[k] - (X[k0] + w * (X[k1] - X[k0])))))
    return worst


def certified_sums(monkeypatch, c1, c2):
    """linking_number(c1, c2) and the polylines each Gauss sum ran on."""
    calls = []

    def recording(P, Q):
        calls.append((P, Q))
        return _gauss_linking_sum(P, Q)

    monkeypatch.setattr(topology, "_gauss_linking_sum", recording)
    return linking_number(c1, c2), calls


def projected(c1, c2, result):
    """The full polylines of the pole and level a result was found at."""
    for _ in range(result.subdivisions):
        c1, c2 = c1.subdivided(), c2.subdivided()
    pole = _POLES[result.pole_index]
    return _stereographic(c1.points, pole), _stereographic(c2.points, pole)


def assert_certified(P, Q, A, B):
    """The coarse copies A and B of P and Q keep within the certificate:
    their deviations add up to at most half the separation bound."""
    assert len(A) < len(P) or len(B) < len(Q)
    assert min(len(A), len(B)) >= 4
    deviation = index_deviation(P, A) + index_deviation(Q, B)
    assert deviation <= 0.5 * full_separation(P, Q)


def near_pair(rng, n1, n2, shift):
    """Two wobbly (p, q) torus curves of one family, the second with its
    second angle moved by shift: disjoint, and close for a small shift."""
    p, q = rng.integers(1, 4, 2)
    r1, r2 = rng.uniform(0.5, 1.0, 2)
    f1, f2 = rng.uniform(0.0, 2 * PI, 2)
    wobble = 0.05 * rng.standard_normal((2, 2, 4))
    curves = []
    for n, g in ((n1, f2), (n2, f2 + shift)):
        u = np.linspace(0.0, 2 * PI, n + 1)[:, None]
        pts = np.hstack([r1 * np.cos(p * u + f1), r1 * np.sin(p * u + f1),
                         r2 * np.cos(q * u + g), r2 * np.sin(q * u + g)])
        for k, (a, b) in enumerate(wobble, start=1):
            pts += np.cos(k * u) * a + np.sin(k * u) * b
        pts[-1] = pts[0]
        curves.append(ClosedCurve.from_points(pts))
    return curves


def clasp(n_large, n_small, eps, s_break):
    """A great circle of n_large segments and a circle of radius about eps
    around one of its points, which links it once.  The small circle sits
    at the middle of the large one's first chord when only every
    s_break-th vertex is kept, and at a vertex of every finer copy."""
    t = np.linspace(0.0, 2 * PI, n_large + 1)
    large = np.column_stack([np.cos(t), np.sin(t), 0 * t, 0 * t])
    large[-1] = large[0]
    phi = t[s_break // 2]
    u = np.linspace(0.0, 2 * PI, n_small + 1)
    small = np.column_stack([
        np.full_like(u, math.cos(eps) * math.cos(phi)),
        np.full_like(u, math.cos(eps) * math.sin(phi)),
        math.sin(eps) * np.cos(u), math.sin(eps) * np.sin(u)])
    small[-1] = small[0]
    return (ClosedCurve.from_points(large, chord_bound=1.0),
            ClosedCurve.from_points(small, chord_bound=1.0))


class TestCertifiedCoarsening:
    """The Gauss sum runs on coarse copies of the projected curves only
    where the certificate holds, and gives the full curves' link."""

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([(160, 160), (257, 130), (96, 600), (1024, 300),
                            (2048, 512)]),
           st.sampled_from([None, 1.0, 0.3, 0.1, 0.03, 3e-3]))
    def test_random_pairs_link_as_the_full_sum(self, seed, sizes, shift):
        rng = np.random.default_rng(seed)
        if shift is None:
            c1, c2 = (random_closed_curve(rng, n) for n in sizes)
        else:
            c1, c2 = near_pair(rng, *sizes, shift)
        with pytest.MonkeyPatch.context() as mp:
            try:
                result, calls = certified_sums(mp, c1, c2)
            except (ValidationError, NumericalError):
                return
        P, Q = projected(c1, c2, result)
        assert result.link == round(_gauss_linking_sum(P, Q))
        A, B = calls[-1]
        if (len(A), len(B)) != (len(P), len(Q)):
            assert_certified(P, Q, A, B)

    def test_tight_clasp(self, monkeypatch):
        c1, c2 = clasp(4096, 16, 0.01, 256)
        result, calls = certified_sums(monkeypatch, c1, c2)
        assert result.link == 1 and result.subdivisions == 0
        assert len(calls) == 1
        P, Q = projected(c1, c2, result)
        [(A, B)] = calls
        assert_certified(P, Q, A, B)
        # coarsened to every 256th vertex the large circle passes outside
        # the small one: the link changes, far past the certificate
        n = len(P) - 1
        too_coarse = P[np.r_[0:n:256, n]]
        assert round(_gauss_linking_sum(too_coarse, Q)) == 0
        assert index_deviation(P, too_coarse) > full_separation(P, Q)

    def test_close_pair_takes_the_full_sum(self, monkeypatch):
        # the golden linking-close-orbit11 case: two (1, 1) round orbits
        # 3e-3 apart in phase, with no certified copy at any pole, so the
        # one sum runs on the full polylines, across several P tiles
        round_ = LpProfile(2.0, 1.0, 1.0)
        [t11] = [t for t in enumerate_tori(round_, 1) if (t.p, t.q) == (1, 1)]
        c1 = toric_orbit_curve(round_, t11, 300)
        c2 = toric_orbit_curve(round_, t11, 150, phase2=3e-3)
        result, calls = certified_sums(monkeypatch, c1, c2)
        assert (result.link, result.subdivisions) == (1, 0)
        P, Q = projected(c1, c2, result)
        assert topology._certified_coarsening(P, Q) is None
        assert len(P) - 1 > GAUSS_TILE
        [(A, B)] = calls
        assert np.array_equal(A, P) and np.array_equal(B, Q)


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_linking_ops_match_the_full_sum(tmp_path, monkeypatch,
                                                   seed):
    """The dictionary benchmark's linking ops pass its own check, with the
    pole and subdivision level, the link and (to 1e-12) the raw sum of
    the full-curve Gauss sum."""
    workloads = load_perfbench("workloads")
    checks = load_perfbench("checks")
    ops = [op for op in workloads.build("dictionary", seed,
                                        str(tmp_path / "in"))
           if op["command"] == "linking"]
    assert len(ops) == 3

    def report(op, out):
        assert main(op["argv"] + ["--output", str(out), "--quiet"]) == 0
        with open(out / "linking.json") as fh:
            return json.load(fh)

    for i, op in enumerate(ops):
        rep = report(op, tmp_path / f"c{i}")
        checks.check_linking(op, rep)
        with monkeypatch.context() as mp:
            mp.setattr(topology, "_certified_coarsening", lambda P, Q: None)
            full = report(op, tmp_path / f"f{i}")
        assert ((rep["link"], rep["pole_index"], rep["subdivisions"])
                == (full["link"], full["pole_index"], full["subdivisions"]))
        assert abs(rep["raw"] - full["raw"]) <= 1e-12


class TestSurfaces:
    def test_contact_area_matches_boundary_period(self, profile_matrix):
        for p in profile_matrix:
            for axis in ("x", "y"):
                disk = axis_disk(p, axis)
                assert disk.contact_area == pytest.approx(
                    axis_orbit(p, axis).period, abs=1e-10)

    def test_flip_negates_area(self, round_p):
        disk = axis_disk(round_p, "y")
        flipped = axis_disk(round_p, "y", orientation=-1)
        assert flipped.contact_area == -disk.contact_area
