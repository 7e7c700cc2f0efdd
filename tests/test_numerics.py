import math

import numpy as np
import pytest

from reebsys.errors import NumericalError, ValidationError
from reebsys.numerics import (PANEL_CHUNK, _leggauss, adaptive_gauss,
                              bracketed_roots, fixed_gauss, panel_gauss_many,
                              refine_extremum, scan_roots, wrap_angle,
                              wrap_to_pi)
from reebsys.profiles import HALF_PI, profile_from_json


def test_adaptive_gauss_known_integrals():
    val, res = adaptive_gauss(np.cos, 0.0, math.pi / 2, tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert res <= 1e-12
    val, _ = adaptive_gauss(lambda x: np.exp(-x * x), 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(0.7468241328124271, abs=1e-12)


def test_adaptive_gauss_reports_nonconvergence():
    # white-noise integrand never stabilizes between refinements
    rng = np.random.default_rng(0)
    with pytest.raises(NumericalError, match="residual"):
        adaptive_gauss(lambda x: rng.normal(size=np.shape(x)), 0.0, 1.0,
                       tol=1e-12, max_panels=64)


def test_panel_gauss_matches_fixed_rule():
    edges = np.linspace(0.0, 2.0, 9)
    pieces = panel_gauss_many(np.sin, edges[:-1], edges[1:])
    assert pieces.sum() == pytest.approx(fixed_gauss(np.sin, 0.0, 2.0, 8),
                                         abs=1e-14)
    assert pieces.sum() == pytest.approx(1.0 - math.cos(2.0), abs=1e-13)


def one_shot_panel_gauss_many(f, a, b, order=20):
    """The rule before chunking: f on the nodes of every panel at once."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    x, w = _leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[None, :] + half[None, :] * x[:, None]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return np.einsum("i,ij->j", w, vals) * half


@pytest.mark.parametrize("panels", [1, PANEL_CHUNK - 1, PANEL_CHUNK,
                                    PANEL_CHUNK + 1, 3 * PANEL_CHUNK + 5])
def test_chunked_panel_gauss_matches_one_shot(profile_matrix, panels):
    # panels of uneven width and start, as theta_of_t's residual pass has
    rng = np.random.default_rng(panels)
    a = rng.uniform(0.0, HALF_PI, panels)
    b = np.minimum(a + rng.uniform(0.0, 1e-3, panels), HALF_PI)
    for profile in profile_matrix:
        got = panel_gauss_many(profile._sector_rate, a, b)
        want = one_shot_panel_gauss_many(profile._sector_rate, a, b)
        assert got.tobytes() == want.tobytes()


def test_refine_extremum_interior_and_boundary():
    xs = np.linspace(0.0, math.pi, 101)
    f = lambda x: math.cos(x)
    fs = np.cos(xs)
    x_min, f_min = refine_extremum(f, xs, fs, "min")
    assert x_min == pytest.approx(math.pi, abs=1e-8)  # boundary, kept as is
    x_max, f_max = refine_extremum(f, xs, fs, "max")
    assert (x_max, f_max) == (0.0, 1.0)
    xs2 = np.linspace(0.0, math.pi, 37)
    g = lambda x: math.sin(x)
    x_hi, g_hi = refine_extremum(g, xs2, np.sin(xs2), "max")
    assert x_hi == pytest.approx(math.pi / 2, abs=1e-7)
    assert g_hi == pytest.approx(1.0, abs=1e-12)


def test_refine_extremum_flat_returns_grid_value():
    xs = np.linspace(0.0, 1.0, 11)
    fs = np.ones(11)
    assert refine_extremum(lambda x: 1.0, xs, fs, "min") == (0.0, 1.0)


def test_bracketed_roots_many_brackets_in_one_call():
    k = np.arange(1, 51)
    a, b = k * math.pi - 0.5, k * math.pi + 0.3
    roots = bracketed_roots(lambda x: np.sin(x), a, b, np.sin(a), np.sin(b))
    assert np.max(np.abs(roots - k * math.pi) / (k * math.pi)) < 4e-15
    # per-bracket parameters reach f restricted to the live brackets
    c = np.linspace(1.0, 100.0, 37)
    cube = bracketed_roots(lambda x, c: x ** 3 - c, np.zeros_like(c),
                           np.full_like(c, 5.0), -c, 125.0 - c, args=(c,))
    assert np.max(np.abs(cube - np.cbrt(c)) / np.cbrt(c)) < 4e-15


def test_bracketed_roots_never_slower_than_bisection_plus_one():
    # a root of high multiplicity defeats interpolation; the projection
    # step still bounds the evaluations by the bisection count plus one
    calls = []

    def f(x):
        calls.append(len(x))
        return (x - 0.3) ** 9

    roots = bracketed_roots(f, [-1.0], [2.0], [(-1.3) ** 9], [1.7 ** 9])
    eps = 0.5 * (1e-15 + 2e-15)
    assert len(calls) <= math.ceil(math.log2(3.0 / (2 * eps))) + 1
    assert abs(roots[0] - 0.3) <= 2 * eps


def test_bracketed_roots_ends_and_sign_checks():
    f = lambda x: x - 0.5
    assert bracketed_roots(f, [0.5, 0.0], [1.0, 0.5], [0.0, -0.5],
                           [0.5, 0.0]).tolist() == [0.5, 0.5]
    assert bracketed_roots(f, [], [], [], []).size == 0
    with pytest.raises(ValueError, match="change sign"):
        bracketed_roots(f, [0.6], [1.0], [0.1], [0.5])


def test_scan_roots_counts_node_zeros_once():
    xs = np.linspace(0.0, 1.0, 9)
    nodes, cells = scan_roots((xs - 0.25) * (xs - 0.6))
    assert nodes.tolist() == [2]          # x = 0.25 is a grid node
    assert cells.tolist() == [4]          # 0.6 lies inside (0.5, 0.625)
    nodes, cells = scan_roots(np.cos(xs))
    assert nodes.size == 0 and cells.size == 0
    assert scan_roots(xs)[0].tolist() == [0]
    # a function vanishing on a stretch has no isolated roots there
    nodes, cells = scan_roots(np.maximum(xs - 0.5, 0.0))
    assert nodes.size == 0 and cells.size == 0


def test_wrap_helpers():
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)
    assert wrap_to_pi(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_to_pi(-0.1) == pytest.approx(-0.1)


@pytest.mark.parametrize("doc", [
    {"quad_tol": "x"}, {"quad_tol": 0.0}, {"quad_tol": float("inf")},
    {"curvature_bound": -1.0}, {"curvature_bound": None},
    {"table_panels": 0}, {"table_panels": True}, {"table_panels": 64.0},
    {"root_tol": 1e-13}])
def test_numerics_json_rejects_bad_values(doc):
    # the tolerances are constants: a profile document that still carries
    # a block of overrides, well formed or not, is rejected by its key
    with pytest.raises(ValidationError,
                       match=r"^unknown profile keys: \['numerics'\]$"):
        profile_from_json({"kind": "lp", "p": 2.0, "numerics": doc})
