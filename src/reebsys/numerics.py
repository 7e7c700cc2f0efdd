"""Quadrature, root finding and extremum refinement.

All 1D integrands in this package are smooth on closed intervals, so the
workhorse is a composite Gauss-Legendre rule with panel doubling until two
successive refinements agree.  A vectorized single-panel rule supports the
cumulative sector-area tables used to invert area parametrizations.  Roots
are located by a grid scan and refined in one vectorized batch of
bracketed steps; grid extrema are refined by golden-section search.
Sums of many doubles are exact and correctly rounded (exact_partial,
exact_total, and prefix_fsums for running sums), values are located among
increasing nodes through a uniform cell table (IntervalLookup), and the
simplest fraction of a range comes from the Stern-Brocot descent
(simplest_fraction).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NumericalError

# Panels per f call in panel_gauss_many: at order 20 one node block is
# 20 x 2048 doubles, 320 KB, which fits a per-core L2 cache.
PANEL_CHUNK = 2048


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def fixed_gauss(f, a: float, b: float, n_panels: int, order: int = 20) -> float:
    """Composite Gauss-Legendre integral of f over [a, b] with n_panels panels."""
    x, w = _leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return float(np.sum(vals * w[None, :] * half[:, None]))


def adaptive_gauss(f, a: float, b: float, tol: float = 1e-10, order: int = 20,
                   max_panels: int = 1 << 14):
    """Panel-doubling composite Gauss rule.

    Returns (value, residual) where residual is the difference between the
    last two refinements.  Raises NumericalError if the residual never drops
    below tol.
    """
    n = 8
    prev = fixed_gauss(f, a, b, n, order)
    while n < max_panels:
        n *= 2
        cur = fixed_gauss(f, a, b, n, order)
        res = abs(cur - prev)
        if res <= tol:
            return cur, res
        prev = cur
    raise NumericalError(
        f"quadrature over [{a:g}, {b:g}] did not converge to tol={tol:g}; "
        f"achieved residual {res:g}")


def panel_gauss_many(f, a, b, order: int = 20):
    """Gauss-Legendre integral of f over each interval [a_i, b_i].

    a and b are equal-length 1-D arrays; returns the array of panel
    integrals.  f is evaluated on the nodes of PANEL_CHUNK panels at a
    time, so its (order, PANEL_CHUNK) temporaries stay cache-sized however
    many panels there are; each panel's value is formed by the same
    operations whatever the chunking, so the result is too.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    x, w = _leggauss(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    out = np.empty_like(mid)
    lo = 0
    while lo < mid.size:
        # a block of one panel would make einsum take its dot-product
        # path, which sums in another order; a lone last panel joins
        # the block before it
        hi = lo + PANEL_CHUNK
        if hi + 1 >= mid.size:
            hi = mid.size
        m, h = mid[lo:hi], half[lo:hi]
        nodes = m[None, :] + h[None, :] * x[:, None]
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        out[lo:hi] = np.einsum("i,ij->j", w, vals) * h
        lo = hi
    return out


def refine_extremum(f, xs, fs, mode: str, xtol: float = 1e-12):
    """Refine a grid extremum of f by golden-section search.

    xs, fs are the scan grid and its values.  mode is 'min' or 'max'.
    Returns (x, f(x)).  Falls back to the grid value when the extremum sits
    on the boundary or the bracket is degenerate (flat function).
    """
    sign = 1.0 if mode == "min" else -1.0
    g = sign * np.asarray(fs, float)
    i = int(np.argmin(g))
    if i == 0 or i == len(xs) - 1:
        return float(xs[i]), float(fs[i])
    if not (g[i] < g[i - 1] and g[i] < g[i + 1]):
        return float(xs[i]), float(fs[i])
    x_star = _golden_min(lambda x: sign * float(f(x)),
                         float(xs[i - 1]), float(xs[i]), float(xs[i + 1]), xtol)
    if not np.isfinite(x_star):
        return float(xs[i]), float(fs[i])
    x_star = float(np.clip(x_star, xs[i - 1], xs[i + 1]))
    return x_star, float(f(x_star))


_GOLDEN_R = 0.5 * (math.sqrt(5.0) - 1.0)
_GOLDEN_C = 1.0 - _GOLDEN_R


def _golden_min(f, xa: float, xb: float, xc: float, xtol: float) -> float:
    """Golden-section search for a minimum of f bracketed by xa < xb < xc
    with f(xb) below both ends; stops when the bracket is narrower than
    xtol relative to the inner points."""
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, x2 = x1, x2, _GOLDEN_R * x2 + _GOLDEN_C * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2, x1 = x2, x1, _GOLDEN_R * x1 + _GOLDEN_C * x0
            f2, f1 = f1, f(x1)
    return x1 if f1 < f2 else x2


def scan_roots(fs):
    """Roots of sampled values fs on a grid, located to grid resolution.

    Returns (nodes, cells): indices i with fs[i] == 0 and no zero
    neighbour, each an exact root at a grid node counted once, and
    indices i with fs[i] * fs[i + 1] < 0, each a cell [x_i, x_i+1] with a
    root strictly inside.  A run of zeros is a stretch where f vanishes,
    not a root, and is not reported.
    """
    fs = np.asarray(fs, float)
    zero = np.concatenate([[False], fs == 0.0, [False]])
    isolated = zero[1:-1] & ~zero[:-2] & ~zero[2:]
    return np.flatnonzero(isolated), np.flatnonzero(fs[:-1] * fs[1:] < 0)


def bracketed_roots(f, a, b, fa, fb, xtol: float = 1e-15,
                    rtol: float = 1e-15, args=()):
    """Roots of f in the brackets [a_i, b_i], all refined together.

    f(x, *args) is vectorized over x; each array in args holds one
    parameter per bracket and reaches f restricted to the brackets still
    being refined.  fa, fb are f at the bracket ends and must differ in
    sign.  Steps are interpolate-truncate-project (ITP; Oliveira and
    Takahashi, ACM TOMS 47, 2021): regula falsi nudged toward the
    midpoint and kept within the bisection worst case plus one step, so
    smooth roots converge superlinearly and no bracket stalls.  A bracket
    is done when it is narrower than xtol + rtol * |x|; the end with the
    smaller |f| is returned.
    """
    a = np.array(a, float, ndmin=1)
    b = np.array(b, float, ndmin=1)
    fa = np.array(fa, float, ndmin=1)
    fb = np.array(fb, float, ndmin=1)
    if np.any(fa * fb > 0):
        raise ValueError("f must change sign across every bracket")
    args = tuple(np.asarray(arg) for arg in args)
    width = b - a
    eps = 0.5 * (xtol + rtol * np.maximum(np.abs(a), np.abs(b)))
    n_max = np.ceil(np.log2(np.maximum(width / (2.0 * eps), 1.0))) + 1.0
    k1 = 0.2 / np.where(width > 0, width, 1.0)
    live = np.flatnonzero((width > 2.0 * eps) & (fa != 0) & (fb != 0))
    j = 0
    while live.size:
        A, B, FA, FB = a[live], b[live], fa[live], fb[live]
        w = B - A
        half = 0.5 * (A + B)
        x_f = (FB * A - FA * B) / (FB - FA)
        sigma = np.sign(half - x_f)
        delta = k1[live] * w * w
        x_t = np.where(delta <= np.abs(half - x_f), x_f + sigma * delta, half)
        r = np.maximum(eps[live] * np.exp2(n_max[live] - j) - 0.5 * w, 0.0)
        # stepping at least eps inside keeps a bracket from stalling at
        # an end whose f is already at rounding level
        x = np.clip(np.where(np.abs(x_t - half) <= r, x_t, half - sigma * r),
                    A + eps[live], B - eps[live])
        y = np.asarray(f(x, *(arg[live] for arg in args)), float)
        keep_b = np.sign(y) == np.sign(FA)
        hit = y == 0
        a[live] = np.where(keep_b | hit, x, A)
        fa[live] = np.where(keep_b | hit, y, FA)
        b[live] = np.where(keep_b, B, x)
        fb[live] = np.where(keep_b, FB, y)
        j += 1
        live = live[(b[live] - a[live] > 2.0 * eps[live]) & ~hit]
        if j > 200:
            raise NumericalError("bracketed root refinement did not converge")
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


# exact_partial holds a double x = M * 2**(e - 53), with M its signed
# 53-bit integer mantissa and e >= -1073 its np.frexp exponent, as the
# integer M * 2**(e + 1073): a count of 2**-EXACT_SUM_SHIFT.
EXACT_SUM_SHIFT = 1126
# values per np.bincount pass: a bin of fewer than 2**26 mantissa halves,
# each below 2**27, sums exactly in doubles
EXACT_SUM_CHUNK = 1 << 25


def exact_partial(x):
    """The exact sum of the doubles x, as an integer count of
    2**-EXACT_SUM_SHIFT; math.fsum(x) instead when x holds an inf or a nan.

    A small superaccumulator (Neal, "Fast exact summation using small and
    large superaccumulators", 2015): np.frexp splits each value into its
    integer mantissa and exponent, the high 27 and low 26 bits of the
    mantissas are summed per exponent by np.bincount, exactly, and the
    per-exponent sums are combined as Python ints.  Partials of several
    blocks add as they are; exact_total rounds them once.
    """
    x = np.asarray(x, float).ravel()
    if not np.isfinite(x).all():
        return math.fsum(x.tolist())
    total = 0
    for lo in range(0, x.size, EXACT_SUM_CHUNK):
        m, e = np.frexp(x[lo:lo + EXACT_SUM_CHUNK])
        m *= 2.0 ** 27
        high = np.trunc(m)
        m -= high
        m *= 2.0 ** 26
        e += EXACT_SUM_SHIFT - 53
        high = np.bincount(e, weights=high)
        low = np.bincount(e, weights=m)
        bins = np.flatnonzero((high != 0) | (low != 0))
        for k, h, l in zip(bins.tolist(), high[bins].tolist(),
                           low[bins].tolist()):
            total += ((int(h) << 26) + int(l)) << k
    return total


def exact_total(partials) -> float:
    """The correctly rounded sum of the blocks whose exact_partial values
    are given: math.fsum of all their values, which it equals bit for bit
    (Shewchuk, Discrete Comput. Geom. 18, 1997).  A block with an inf or a
    nan makes the result math.fsum of those blocks' sums; an exact sum
    beyond the double range raises OverflowError, as math.fsum does.
    """
    partials = list(partials)
    special = [p for p in partials if isinstance(p, float)]
    if special:
        return math.fsum(special)
    # int / int is correctly rounded, subnormal results included
    return sum(partials) / (1 << EXACT_SUM_SHIFT)


def prefix_fsums(values) -> np.ndarray:
    """[0, fsum(values[:1]), fsum(values[:2]), ...], each correctly
    rounded, in one pass: the running sum is kept exactly as an integer
    count of 2**-EXACT_SUM_SHIFT, exact_partial's encoding, and each
    prefix is rounded by one integer division.  Non-finite values give
    the plain cumulative sum."""
    values = np.asarray(values, float)
    out = np.concatenate([[0.0], np.cumsum(values)])
    if not math.isfinite(out[-1]):
        return out
    m, e = np.frexp(values)
    counts = map(int.__lshift__, map(int, (m * 2.0 ** 53).tolist()),
                 (e + EXACT_SUM_SHIFT - 53).tolist())
    # int / int is correctly rounded, as in exact_total
    scale = 1 << EXACT_SUM_SHIFT
    out[1:] = [total / scale for total in accumulate(counts)]
    return out


def simplest_fraction(lo, hi, lo_open=False, hi_open=False):
    """The simplest fraction n/d in the range from lo to hi, as (n, d).

    lo = (n, d) and hi = (n, d) are exact nonnegative ratios of ints with
    d > 0; hi may be (1, 0), +infinity, which must then be open.  Either
    end is excluded when it is open.  The simplest fraction of a range has
    both the smallest numerator and the smallest denominator of all
    fractions in it, so, unless the range holds 0, it is the unique one
    with the smallest max(n, d).  It is found by the Stern-Brocot descent
    in continued-fraction steps (Graham, Knuth and Patashnik, Concrete
    Mathematics, section 4.5): take the smallest integer in the range if
    there is one, else strip the common integer part k and go on with the
    reciprocals 1/(hi - k) to 1/(lo - k), whose ends swap.  Returns None
    for an empty range.
    """
    (ln, ld), (hn, hd) = lo, hi
    # numerators and denominators of the last two convergents
    n0, n1, d0, d1 = 0, 1, 1, 0
    while True:
        if hd and (ln * hd > hn * ld
                   or (ln * hd == hn * ld and (lo_open or hi_open))):
            return None
        k, rem = divmod(ln, ld)
        m = k + (rem > 0 or lo_open)         # the smallest integer above lo
        if not hd or m * hd < hn or (m * hd == hn and not hi_open):
            return m * n1 + n0, m * d1 + d0
        n0, n1, d0, d1 = n1, k * n1 + n0, d1, k * d1 + d0
        ln, ld, hn, hd = hd, hn - k * hd, ld, rem
        lo_open, hi_open = hi_open, lo_open


class IntervalLookup:
    """Interval index of values among increasing nodes x_0 < ... < x_m.

    Calling it on an array v gives j with x_j <= v < x_j+1, clipped to
    [0, m - 1]: clip(searchsorted(nodes, v, side="right") - 1, 0, m - 1),
    so the last interval is closed on the right and values beyond either
    end get the end interval.  Each cell of a uniform grid over
    [x_0, x_m] holds the interval of the previous cell's left edge, a
    lower bound for every value in the cell, from which the lookup steps
    up node by node; cells at most half the closest node spacing keep
    that to one or two steps, up to a grid of 2**16 cells.
    """

    def __init__(self, nodes):
        nodes = np.asarray(nodes, float)
        origin, span = nodes[0], nodes[-1] - nodes[0]
        cells = int(min(1 << 16, max(4 * nodes.size,
                                     2.0 * span / np.diff(nodes).min())))
        self._origin = origin
        self._scale = cells / span
        self._start = np.searchsorted(
            nodes[1:-1], origin + (np.arange(cells) - 1) / self._scale,
            side="right")
        # no value, inf included, is >= the nan after the last inner node
        self._next = np.append(nodes[1:-1], np.nan)

    def __call__(self, v):
        # fmax and fmin send a nan to a cell instead of into the cast
        cell = np.fmin(np.fmax((v - self._origin) * self._scale, 0.0),
                       self._start.size - 1)
        j = self._start[cell.astype(np.intp)]
        while True:
            up = v >= self._next[j]
            if not up.any():
                return j
            j = j + up

