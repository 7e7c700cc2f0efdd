"""Liouville sampling and orbit sets of the boundary flow.

On the boundary sphere a point is (t, theta1, theta2): the area parameter
of its invariant torus and the two circle angles.  The flow is linear on
each torus with angular rates (2*D1F, 2*D2F) evaluated at C(t), so its
orbits are known exactly, with no ODE integration.  In these coordinates the
volume form has constant density 1/4, hence the normalized invariant
measure is the uniform distribution on [0, 2A] x [0, 2pi)^2 and its total
mass (1/4)(2A)(2pi)^2 reproduces the contact volume 2*pi^2*A.

Orbit averages of the test functions are closed forms too: along a
(p, q)-orbit the harmonic of (m1, m2) winds m1 p + m2 q times, so its
average is 0 unless that count is 0.

Monte Carlo draws use a counter-based generator (Philox) keyed by an
explicit 64-bit seed so every report is bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, ValidationError
from .numerics import simplest_fraction
from .profiles import HALF_PI, ToricProfile
from .systolic import TORUS_GRID_N, RationalTorus, flat_class, torus_roots

RNG_NAME = "philox4x64"
TWO_PI = 2.0 * math.pi


def rng_for_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def liouville_sample(profile: ToricProfile, n: int, seed: int,
                     lo: int = 0, hi: int | None = None,
                     columns: int = 3) -> np.ndarray:
    """Rows lo:hi of n independent draws from the normalized invariant
    measure.

    Returns an (hi - lo, 3) array of rows (t, theta1, theta2), uniform on
    [0, 2A] x [0, 2pi)^2; hi defaults to n.  Deterministic given the
    seed: the n draws of column c are doubles c*n to (c+1)*n - 1 of the
    Philox stream keyed by the seed, one 64-bit output each.  A block
    starts its own stream at its first double (Philox yields four
    outputs per counter, so it advances (c*n + lo) // 4 counters and
    discards the rest), so any split into blocks gives the rows of the
    full draw bit for bit.  columns = 1 or 2 draws only the first
    columns, with the same bits, since each is its own stretch of the
    stream.
    """
    n = int(n)
    hi = n if hi is None else hi
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    if not 0 <= lo <= hi <= n:
        raise ValidationError(f"sample rows {lo}:{hi} outside 0:{n}")
    if columns not in (1, 2, 3):
        raise ValidationError(
            f"sample columns must be 1, 2 or 3, got {columns}")
    out = np.empty((hi - lo, columns))
    widths = (profile.two_area, TWO_PI, TWO_PI)[:columns]
    for c, width in enumerate(widths):
        pos = c * n + lo
        rng = rng_for_seed(seed)
        rng.bit_generator.advance(pos // 4)
        rng.bit_generator.random_raw(pos % 4)
        out[:, c] = rng.uniform(0.0, width, hi - lo)
    return out


# ---------------------------------------------------------------------------
# weak* test functions and orbit sets


@dataclass(frozen=True)
class TestFunction:
    """cos(j*pi*t/(2A)) times a circle harmonic of the two angles."""

    name: str
    j: int
    m1: int
    m2: int
    kind: str            # 'cos' or 'sin' applied to m1*theta1 + m2*theta2
    liouville_mean: float

    def __call__(self, two_area, t, theta1, theta2):
        radial = np.cos(self.j * math.pi * np.asarray(t, float) / two_area)
        phase = self.m1 * np.asarray(theta1, float) + self.m2 * np.asarray(theta2, float)
        trig = np.cos(phase) if self.kind == "cos" else np.sin(phase)
        return radial * trig


def invariance_test_suite():
    """The fixed family of 20 smooth observables used for discrepancies.

    The invariant measure integrates every non-constant member to zero:
    the angle harmonics average out over the torus fibers and the radial
    cosines integrate to zero over a uniform t.
    """
    spec = [(0, 0, 0, "cos")]
    spec += [(j, 0, 0, "cos") for j in range(1, 7)]
    spec += [(0, 1, 0, "cos"), (0, 1, 0, "sin"), (0, 0, 1, "cos"),
             (0, 0, 1, "sin"), (0, 1, 1, "cos"), (0, 1, -1, "cos"),
             (0, 1, -1, "sin"), (0, 2, 1, "cos"), (0, 1, 2, "cos")]
    spec += [(1, 1, 0, "cos"), (1, 0, 1, "cos"), (2, 1, 1, "cos"),
             (1, 1, -1, "cos")]
    suite = []
    for j, m1, m2, kind in spec:
        mean = 1.0 if (j == 0 and m1 == 0 and m2 == 0 and kind == "cos") else 0.0
        name = f"{kind}[{j}pi t/2A; {m1},{m2}]"
        suite.append(TestFunction(name, j, m1, m2, kind, mean))
    return suite


def orbit_average(profile: ToricProfile, torus: RationalTorus,
                  fn: TestFunction) -> float:
    """Time average of fn over one primitive period of an orbit started at
    angles (0, 0).

    Along the orbit the phase m1 theta1 + m2 theta2 is 2 pi (m1 p + m2 q) u
    for u in [0, 1), so the harmonic averages to 0 unless m1 p + m2 q = 0,
    when it is constant and the average is fn at the start (t, 0, 0).
    """
    if fn.m1 * torus.p + fn.m2 * torus.q != 0:
        return 0.0
    return float(fn(profile.two_area, torus.t, 0.0, 0.0))


@dataclass(frozen=True)
class OrbitSet:
    """Weighted closed orbits approximating the invariant measure."""

    orbits: tuple
    weights: tuple
    discrepancy: float
    per_function: tuple    # (name, weighted orbit average, target) triples

    def __post_init__(self):
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValidationError("orbit-set weights must sum to 1")


# the search that names the class covering a subinterval in a
# CoverageError: rounds past max_pq, and the largest max(p, q) it tries
# (h = q*D1F - p*D2F is formed from int64 classes)
COVER_SEARCH_ROUNDS = 64
COVER_SEARCH_MAX_PQ = 1 << 31
# a subinterval's roots are searched in the grid cells within this many
# radians of its theta range: a root in a cell next to an edge node may
# round to either side of the edge
THETA_SLACK = 1e-12


def _ratio_end(d1: float, d2: float):
    """The gradient ratio D2F/D1F as an exact (numerator, denominator)
    and whether the range end there is open.  0 and infinity are the axis
    classes (1, 0) and (0, 1), so those ends are open."""
    if d2 <= 0.0:
        return (0, 1), True
    if d1 <= 0.0:
        return (1, 0), True
    n1, m1 = d1.as_integer_ratio()
    n2, m2 = d2.as_integer_ratio()
    return (n2 * m1, m2 * n1), False


def _push(pending: list, lo, hi, lo_open: bool, hi_open: bool):
    """Queue the simplest class q/p of a ratio range, keyed by max(p, q).
    A range from infinity up (every direction at or past the y axis) and
    an empty range hold no class."""
    if lo[1] == 0:
        return
    f = simplest_fraction(lo, hi, lo_open, hi_open)
    if f is not None:
        pending.append((max(f), f, lo, hi, lo_open, hi_open))


def _search(profile, grid, cells, edges, pending, best, subs, limit,
            rounds=None):
    """Search subintervals subs for their tori, up to max(p, q) = limit.

    pending[k] holds ratio ranges with their simplest classes.  Each
    round takes, in every subinterval still searching, the ranges whose
    class has the smallest key max(p, q), and finds the roots of those
    classes in the cells[k] range of grid cells, all in one torus_roots
    batch.  Roots with t in [edges[k], edges[k + 1]) compete for best[k]
    by (|t - center|, p, t), the order of the enumerated scan.  A
    subinterval with no such root splits those ranges at their classes,
    open there, and goes on.  Both parts of a split range hold only
    classes of a larger key: between two classes of one key there is a
    class of a smaller one, which would have been the range's simplest.
    So the first round with a root inside ends a subinterval's search.
    """
    theta, d1g, d2g = grid
    center = 0.5 * (edges[:-1] + edges[1:])
    while subs and rounds != 0:
        rounds = None if rounds is None else rounds - 1
        now = {}
        for k in subs:
            key = min((e[0] for e in pending[k]), default=limit + 1)
            if key <= limit:
                now[k] = [e for e in pending[k] if e[0] == key]
                pending[k] = [e for e in pending[k] if e[0] != key]
        if not now:
            break
        owner = np.array([k for k, ranges in now.items() for _ in ranges])
        q, p = np.array([e[1] for ranges in now.values() for e in ranges],
                        np.int64).T
        first, last = cells[0][owner], cells[1][owner]
        counts = last - first
        lane = np.repeat(np.arange(len(owner)), counts)
        cell = (np.arange(counts.sum())
                + np.repeat(first - np.cumsum(counts) + counts, counts))
        i, t, period = torus_roots(profile, theta, d1g, d2g, cell,
                                   p[lane], q[lane])
        k = owner[lane[i]]
        inside = np.flatnonzero((edges[k] <= t) & (t < edges[k + 1]))
        dist = np.abs(t - center[k])
        for j in inside.tolist():
            pq = (int(p[lane[i[j]]]), int(q[lane[i[j]]]))
            cand = (max(pq), float(dist[j]), pq[0], float(t[j]), pq[1],
                    float(period[j]))
            kj = int(k[j])
            if best[kj] is None or cand < best[kj]:
                best[kj] = cand
        subs = [k for k in now if best[k] is None]
        for k in subs:
            for _, f, lo, hi, lo_open, hi_open in now[k]:
                _push(pending[k], lo, f, lo_open, True)
                _push(pending[k], f, hi, True, hi_open)


def approximate_liouville_by_orbits(profile: ToricProfile, n_tori: int,
                                    max_pq: int) -> OrbitSet:
    """Equidistributed orbit set with a weak* discrepancy score.

    [0, 2A] is split into n_tori equal subintervals [lo, hi); in each,
    the torus with the smallest max(p, q) and t in [lo, hi) is selected,
    ties broken toward the subinterval center.  It is found by a
    Stern-Brocot search instead of a scan of every torus.  A torus lies
    in a cell of the theta grid of enumerate_tori where h = q*D1F -
    p*D2F changes sign, so its ratio q/p lies between the gradient ratios
    D2F/D1F at the nodes of that cell.  The extreme directions, by
    atan2(D2F, D1F), over the nodes of the cells that overlap the
    subinterval give a range of ratios, taken exactly; the simplest
    fraction q/p in that range is the unique class with the smallest
    max(p, q) there (numerics.simplest_fraction).  Its roots in those
    cells are refined as enumerate_tori refines them
    (systolic.torus_roots), so t and the period have the same bits, and
    membership is decided by t.  The range is split at q/p, open there,
    and the search goes on in both parts in order of max(p, q), until no
    class in the range can beat the best root in [lo, hi): so a root on
    an edge, such as the round profile's (1, 1) torus at t = A, gives
    way to the next class on the side where it does not land.

    A profile whose gradient is constant along a commensurable direction
    (systolic.flat_class) carries its one class on every torus: each
    subinterval gets it at its center, with continuum=True.

    The orbits are weighted equally.  The discrepancy is the maximum over
    the fixed test-function family of |weighted orbit average - invariant
    average|.  A subinterval with no torus up to max_pq is a
    CoverageError that names the max(p, q) which would cover it; a
    profile with no torus up to max_pq in any subinterval (for instance
    a constant gradient in an irrational direction) is a ValidationError.
    """
    if n_tori < 1:
        raise ValidationError("n_tori must be at least 1")
    theta = np.linspace(0.0, HALF_PI, TORUS_GRID_N)
    d1g, d2g = profile.gradient_theta(theta)
    edges = np.linspace(0.0, profile.two_area, n_tori + 1)
    center = 0.5 * (edges[:-1] + edges[1:])
    flat = flat_class(d1g, d2g, max_pq)
    if flat:
        # with the period enumerate_tori gives its continuum
        p, q = flat
        period = math.pi * p / float(d1g[0])
        chosen = [RationalTorus(p, q, c, period, True)
                  for c in center.tolist()]
    else:
        chosen = _search_orbits(profile, (theta, d1g, d2g), edges, max_pq)
    weights = tuple(1.0 / n_tori for _ in range(n_tori))

    w = np.array(weights)
    p = np.array([T.p for T in chosen])
    q = np.array([T.q for T in chosen])
    t = np.array([T.t for T in chosen])
    per_function = []
    disc = 0.0
    for fn in invariance_test_suite():
        # orbit_average of every orbit at once
        avgs = np.where(fn.m1 * p + fn.m2 * q == 0,
                        fn(profile.two_area, t, 0.0, 0.0), 0.0)
        weighted = math.fsum((w * avgs).tolist())
        per_function.append((fn.name, weighted, fn.liouville_mean))
        disc = max(disc, abs(weighted - fn.liouville_mean))
    return OrbitSet(tuple(chosen), weights, float(disc), tuple(per_function))


def _search_orbits(profile, grid, edges, max_pq):
    """The orbits of approximate_liouville_by_orbits for a profile whose
    gradient direction turns."""
    theta, d1g, d2g = grid
    n = len(edges) - 1
    # the grid cells that overlap each subinterval, widened by a rounding
    # slack in theta: cells first to stop - 1
    theta_edges = profile.theta_of_t(edges)
    first, stop = np.clip(
        np.searchsorted(theta, [theta_edges[:-1] - THETA_SLACK,
                                theta_edges[1:] + THETA_SLACK],
                        side="right") - 1, 0, len(theta) - 2)
    stop += 1
    # every class with a sign change of h in those cells points strictly
    # between the extreme gradient directions at their nodes
    nodes = np.minimum(first[:, None] + np.arange(np.max(stop - first) + 1),
                       stop[:, None])
    angle = np.arctan2(d2g, d1g)[nodes]
    rows = np.arange(n)
    lows = nodes[rows, np.argmin(angle, axis=1)].tolist()
    highs = nodes[rows, np.argmax(angle, axis=1)].tolist()
    pending = []
    d1, d2 = d1g.tolist(), d2g.tolist()
    for lo, hi in zip(lows, highs):
        (lo, lo_open), (hi, hi_open) = (_ratio_end(d1[lo], d2[lo]),
                                        _ratio_end(d1[hi], d2[hi]))
        pending.append([])
        _push(pending[-1], lo, hi, lo_open, hi_open)
    best = [None] * n
    _search(profile, grid, (first, stop), edges, pending, best,
            list(range(n)), max_pq)
    if all(b is None for b in best):
        raise ValidationError(
            f"no torus with max(p, q) <= max_pq={max_pq}: the gradient has "
            "no commensurable direction there, so no closed orbits")
    if None in best:
        k = best.index(None)
        _search(profile, grid, (first, stop), edges, pending, best, [k],
                COVER_SEARCH_MAX_PQ, COVER_SEARCH_ROUNDS)
        keys = [e[0] for e in pending[k]]
        needed = (f"the simplest torus there has max(p, q) = {best[k][0]}"
                  if best[k] is not None else
                  f"no torus there has max(p, q) < {min(keys)}" if keys else
                  "no torus is there")
        raise CoverageError(
            f"no torus with max(p, q) <= {max_pq} in subinterval {k} = "
            f"[{edges[k]:.6g}, {edges[k + 1]:.6g}]; {needed}: raise max_pq "
            "or lower n_tori")
    return [RationalTorus(p, q, t, period)
            for _, _, p, t, q, period in best]
