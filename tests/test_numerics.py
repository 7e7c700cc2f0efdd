import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reebsys.errors import NumericalError, ValidationError
from reebsys.numerics import (PANEL_CHUNK, IntervalLookup, _leggauss,
                              adaptive_gauss, bracketed_roots, exact_partial,
                              exact_total, fixed_gauss, panel_gauss_many,
                              refine_extremum, scan_roots, simplest_fraction,
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


def parent_block_fsum(blocks):
    """Reference: the block sums before exact partials, math.fsum over the
    blocks' values chained as Python floats."""
    return math.fsum(v for block in blocks for v in np.asarray(block).tolist())


def adversarial_blocks():
    rng = np.random.default_rng(5)
    tiny = 2.0 ** -1074
    big = rng.uniform(-1.0, 1.0, 4000) * 2.0 ** rng.integers(-1074, 1001, 4000)
    yield "single", [np.array([0.1])]
    yield "zeros", [np.zeros(7), np.zeros(3)]
    yield "negative-zeros", [np.full(5, -0.0), np.array([-0.0])]
    yield "cancellation", [np.array([1e100, 1.0, -1e100, 1e-100]),
                           np.array([3.0, -1e-100, 2.0 ** -60])]
    yield "mixed-signs", [rng.standard_normal(1000) * 1e12,
                          -rng.standard_normal(1000) * 1e12,
                          rng.standard_normal(17)]
    yield "subnormals", [np.array([tiny, 3 * tiny, -tiny, 2.0 ** -1022]),
                         np.full(1001, tiny)]
    yield "subnormal-result", [np.array([2.0 ** -1022, -2.0 ** -1022 + tiny,
                                         5 * tiny])]
    yield "exponent-range", [big, -big[::3], np.array([2.0 ** 1000,
                                                      -(2.0 ** 1000), tiny])]
    yield "halfway-ties", [np.array([1.0, 2.0 ** -53, 2.0 ** -106]),
                           np.array([1.0, 2.0 ** -53]),
                           np.array([-(2.0 ** -53)])]
    # the variance pass: squares of the rates' deviations from their mean
    rates = rng.choice([0.0, 1.0 / 3.0, 2.0 / 7.0], 1 << 15)
    yield "squared-deviations", [(rates - rates.mean()) ** 2]


@pytest.mark.parametrize("name, blocks", list(adversarial_blocks()),
                         ids=[name for name, _ in adversarial_blocks()])
def test_exact_total_matches_fsum(name, blocks):
    got = exact_total(exact_partial(b) for b in blocks)
    want = parent_block_fsum(blocks)
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert got == want
    # one block or many, the total is the same
    assert exact_total([exact_partial(np.concatenate(blocks))]) == want


@pytest.mark.parametrize("values", [[1.0, math.inf], [math.nan, 2.0],
                                    [-math.inf, 5.0, -math.inf],
                                    [math.inf, -math.inf], [1e308, 1e308]],
                         ids=["inf", "nan", "minus-inf", "inf-minus-inf",
                              "overflow"])
def test_exact_total_keeps_fsum_behaviour_when_not_finite(values):
    try:
        want = math.fsum(values)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_total([exact_partial(np.array(values))])
        return
    got = exact_total([exact_partial(np.array(values))])
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_exact_partial_splits_bins_of_many_values(monkeypatch):
    # one exponent bin of more than 2^26 mantissa halves is summed in chunks
    monkeypatch.setattr("reebsys.numerics.EXACT_SUM_CHUNK", 3)
    x = np.full(10, 1.0 - 2.0 ** -53)
    assert exact_partial(x) == sum(exact_partial(x[i:i + 1])
                                   for i in range(10))
    assert exact_total([exact_partial(x)]) == math.fsum(x.tolist())


def parent_interval(nodes, v):
    """Reference: the binary search the lookups replace."""
    return np.clip(np.searchsorted(nodes, v, side="right") - 1,
                   0, len(nodes) - 2)


@pytest.mark.parametrize("kind", ["uniform", "area", "clustered"])
def test_interval_lookup_matches_searchsorted(kind):
    if kind == "uniform":
        nodes = np.linspace(0.0, math.pi / 2, 2049)
    elif kind == "area":
        # t at the knots of a sampled profile: the cumulative areas T_j
        rng = np.random.default_rng(3)
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.1, 255))])
    else:
        nodes = np.concatenate([np.linspace(0.0, 1e-4, 300),
                                np.linspace(0.05, 2.0, 12)])
    lookup = IntervalLookup(nodes)
    end = nodes[-1]
    v = np.concatenate([nodes, np.nextafter(nodes, -np.inf),
                        np.nextafter(nodes, np.inf), [0.0, -0.0, end],
                        [end * (1 + 1e-12), 2.0 * end, np.inf, -1.0],
                        np.random.default_rng(4).uniform(0.0, end, 10000)])
    np.testing.assert_array_equal(lookup(v), parent_interval(nodes, v))


# every fraction q/p with coprime 0 <= q <= 64 and 1 <= p <= 64
SMALL_FRACTIONS = [(Fraction(q, p), (q, p)) for p in range(1, 65)
                   for q in range(65) if math.gcd(p, q) == 1]
END = st.tuples(st.integers(0, 80), st.integers(1, 80))


@settings(max_examples=400, derandomize=True)
@given(END, st.one_of(st.none(), END), st.booleans(), st.booleans(),
       st.booleans())
@example((0, 1), (1, 3), False, False, False)       # starts at 0, closed
@example((0, 1), (1, 3), True, False, False)        # starts at 0, open
@example((2, 3), None, True, True, False)           # reaches infinity
@example((0, 1), None, True, True, False)           # (0, infinity)
@example((3, 7), (3, 7), False, False, False)       # degenerate, closed
@example((3, 7), (3, 7), True, False, False)        # degenerate, open: empty
@example((1, 3), (2, 3), True, True, False)         # ties in max(p, q)
@example((21, 40), (11, 21), False, True, False)
def test_simplest_fraction_matches_brute_force(lo, hi, lo_open, hi_open,
                                               same_ends):
    lo = Fraction(*lo)
    hi = lo if same_ends else (None if hi is None else Fraction(*hi))
    if hi is not None and hi < lo:
        lo, hi = hi, lo
    hi_open = hi_open or hi is None
    got = simplest_fraction((lo.numerator, lo.denominator),
                            (1, 0) if hi is None else
                            (hi.numerator, hi.denominator), lo_open, hi_open)

    def inside(f):
        return ((f > lo if lo_open else f >= lo)
                and (hi is None or (f < hi if hi_open else f <= hi)))

    members = [m for f, m in SMALL_FRACTIONS if inside(f)]
    empty = hi is not None and (lo > hi or (lo == hi and (lo_open or
                                                          hi_open)))
    if empty:
        assert got is None
        return
    q, p = got
    assert p >= 1 and math.gcd(p, q) == 1 and inside(Fraction(q, p))
    if not members:
        assert max(p, q) > 64
        return
    assert p == min(m[1] for m in members)
    assert q == min(m[0] for m in members)
    # a range holding 0 has 0/1, which shares max(p, q) = 1 with 1/1;
    # without 0 the smallest max(p, q) is unique
    least = min(max(m) for m in members)
    assert got in [m for m in members if max(m) == least]
    assert q == 0 or [m for m in members if max(m) == least] == [got]
