"""Surfaces, signed crossings, asymptotic intersection rates and linking.

The surfaces handled here are the disks bounded by the two axis orbits,
{theta1 = const} bounded by the y-axis orbit and {theta2 = const} bounded
by the x-axis orbit.  Their contact area equals the period of the
boundary orbit, by Stokes.  The disk-map module counts the crossings of
a suspension's page {time = const} with the same sweep counter.

For the linear toric flow a trajectory crosses an axis disk exactly when
the corresponding angle sweeps through the disk's angle, so signed counts
are floor differences of the angle history and are exact
(signed_sweep_count).  The asymptotic crossing rate of a sampled
trajectory is taken at a near-return time, located through
continued-fraction convergents of the rotation ratio: the loop is closed
by the short geodesic chord on the torus, whose crossing contribution is
included and bounded by one, and its winding number over that time is
the rate (_batch_rates).

The Liouville-averaged crossing rate with a surface, scaled by the contact
volume, recovers the contact area of the surface; action_linking_verify
checks this identity by seeded Monte Carlo and reports a z score.  It
computes the rates in blocks of RATE_BLOCK samples: the calling thread and
threads - 1 helpers take block indices from one shared iterator, in this
pass and in the pass that sums the squared deviations from the mean.  A
block draws its area parameters t from the seeded sample stream (a rate
depends on t alone), finds the near-return times with a continued-fraction
kernel, and sums its rates exactly (numerics.exact_partial).  The kernel
(_best_convergents) steps all the lanes of a block together with ufuncs
writing into buffers; a lane's answer is written out at the step where its
expansion first passes q_cap, and once fewer than half of the lanes at the
current width still run, those are gathered into buffers of their own
count.  A typical block has 12 steps, but a lane ends after about 5 of
them (ln q grows like 1.19 per step, Levy), so most steps run on a few
thousand lanes instead of 2^15.  The working memory beyond the rates is
bounded by the block size, not the sample count.  The mean and the
variance are the correctly rounded totals of the exact block sums, equal
to math.fsum over all the rates, and each rate depends on its own sample
only, so the report is the same for any thread count.

Linking numbers of closed curves on the 3-sphere are computed by
stereographic projection followed by the exact solid-angle (Gauss) sum
over polyline segment pairs.  The sum runs over fixed tiles of
GAUSS_BLOCK segments of one curve by GAUSS_TILE segments of the other,
with the longer curve on the GAUSS_TILE axis, so the memory is set by the
tile and not by the curves.  A tile works on the grid of vertex
differences P_j - Q_i, one plain numpy array per coordinate: the four
corners of a segment pair are neighbouring grid points, so each vertex
norm and each dot of neighbouring vertices is computed once and shared
by the pairs that meet there.  Every term has the bits of the per-pair
formula written with np.cross and np.einsum (_gauss_tile).  Each tile's
terms go to one np.sum and the tile sums are added in a fixed tile
order.  The curves themselves are built, normalized and projected
CURVE_CHUNK rows at a time.

The linking number does not change under a homotopy that keeps the two
curves disjoint, so the sum usually runs on coarse copies of the
projected polylines: every s-th vertex and the last, s a power of two
(_certified_coarsening).  Copies are used only when the two curves
together move by at most half of a lower bound on the distance between
them along the straight-line homotopies to their copies.  The reported
raw sum is then the Gauss sum of the coarse polygons, an integer up to
rounding like the full sum, but not the full sum's bits.  The full curves
are summed when no copy is certified or a coarse sum misses the residual
tolerance.  The distance scans between the curves (the separation check
and that lower bound) hold blocks of rows in bounding balls and skip the
block pairs that cannot hold the least distance, with the bits of the
full scan (_least_cell).

On the benchmark's lp p=3 cases of 4096 x 512, 1024 x 256 and 2048 x
1024 segments linking_number takes 5-9, 2.3-4.5 and 6-10 ms in-process
(106-145, 14-21 and 111-146 ms with full sums), on a 2-core host with
numpy 2.4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, ResolutionError, StatisticalError,
                     ValidationError)
from .numerics import exact_partial, exact_total
from .profiles import ToricProfile
from .systolic import AxisOrbit, RationalTorus, axis_orbit, contact_volume
from .flows import liouville_sample

TWO_PI = 2.0 * math.pi
# Samples per _batch_rates call in action_linking_verify: the unit dealt
# to worker threads, each of which draws its block's samples itself.
RATE_BLOCK = 1 << 15


@dataclass(frozen=True)
class SeifertSurfaceSpec:
    """An oriented surface adapted to the flow with its contact area.

    kind 'axis-disk-y' is {theta1 = angle}, bounded by the y-axis orbit;
    kind 'axis-disk-x' is {theta2 = angle}, bounded by the x-axis orbit.
    Orientation -1 negates the contact area and every signed crossing, so
    pairings with the surface are orientation independent.
    """

    kind: str
    angle: float
    orientation: int
    contact_area: float

    @property
    def phase_index(self) -> int:
        """0 where crossings sweep theta1, 1 where they sweep theta2."""
        return 0 if self.kind == "axis-disk-y" else 1


def axis_disk(profile: ToricProfile, axis: str, angle: float = 0.0,
              orientation: int = 1) -> SeifertSurfaceSpec:
    """The disk bounded by the orbit over the x- or y-intercept.

    Its contact area equals the period of the boundary orbit (pi times the
    opposite intercept), signed by orientation.
    """
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    boundary = axis_orbit(profile, axis)
    kind = "axis-disk-y" if axis == "y" else "axis-disk-x"
    return SeifertSurfaceSpec(kind, float(angle), orientation,
                              orientation * boundary.period)


def signed_sweep_count(phase_a, phase_b, phase_star, period: float = TWO_PI):
    """Signed number of sweeps of a linear phase across phase_star.

    Counts solutions of phase = phase_star (mod period) on the half-open
    phase interval (phase_a, phase_b], with sign from the sweep direction.
    Being a floor difference, it is exactly additive over concatenations
    that share the intermediate phase value.
    """
    fa = np.floor((np.asarray(phase_a, float) - phase_star) / period)
    fb = np.floor((np.asarray(phase_b, float) - phase_star) / period)
    return fb - fa


# ---------------------------------------------------------------------------
# near-return times by continued-fraction convergents


def _best_convergents(alpha, q_cap):
    """Largest continued-fraction convergent denominators q <= q_cap.

    alpha and q_cap are arrays.  Returns (p, q, err) with err = |q*alpha - p|;
    lanes with q_cap < 1 come back with q = 0 (no admissible return).

    The lanes step together in buffers written by ufuncs with out=.  A
    lane whose remainder falls to 1e-15 or below has ended its expansion:
    the remainder becomes nan, and so does everything computed from it.
    A convergent is kept where q <= q_cap.  q never decreases from one
    step to the next, so a lane that keeps none at a step keeps none
    after it: its answer is the convergent kept the step before, written
    out at the block index of the lane at that step, and the loop ends
    at the first step that keeps none (or after 80 steps).  Lanes that
    keep nothing go on stepping in place until fewer than half of the
    current width keep; the lanes that keep are then gathered into
    buffers of their own count, once per halving, since gathering at
    every step costs more than it saves.  Every lane does the same
    arithmetic in the same order at any width, so its answer does not
    depend on when it was gathered or on the other lanes of its block.
    """
    alpha = np.asarray(alpha, float)
    cap = np.asarray(q_cap, float)
    n = alpha.shape[0]
    p_cur = np.floor(alpha)
    x = alpha - p_cur
    np.copyto(x, np.nan, where=~(x > 1e-15))
    p_prev, q_prev, q_cur = np.ones(n), np.zeros(n), np.ones(n)
    best_p, best_q = np.zeros(n), np.zeros(n)
    live = cap >= 1.0        # the lanes whose last convergent was kept
    lanes = None             # block indices of the working lanes, or all

    def scratch(width):
        """Buffers for p_next, q_next, a and keep at a width."""
        return (np.empty(width), np.empty(width), np.empty(width),
                np.empty(width, bool))

    def end(mask):
        """Write out the lanes of mask at the convergent they reached."""
        ended = np.flatnonzero(mask)
        at = ended if lanes is None else lanes[ended]
        best_p[at] = p_cur[ended]
        best_q[at] = q_cur[ended]

    p_next, q_next, a, keep = scratch(n)
    # the lanes past q_cap keep running until the next gather, and their
    # p and q may overflow
    with np.errstate(over="ignore"):
        for _ in range(80):
            np.divide(1.0, x, out=x)
            np.floor(x, out=a)
            np.subtract(x, a, out=x)
            np.copyto(x, np.nan, where=np.less_equal(x, 1e-15, out=keep))
            np.add(np.multiply(a, p_cur, out=p_next), p_prev, out=p_next)
            np.add(np.multiply(a, q_cur, out=q_next), q_prev, out=q_next)
            np.less_equal(q_next, cap, out=keep)
            end(np.greater(live, keep, out=live))
            kept = np.count_nonzero(keep)
            if kept == 0:
                break
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
            q_prev, q_cur, q_next = q_cur, q_next, q_prev
            live, keep = keep, live
            if 2 * kept < live.shape[0]:
                sel = np.flatnonzero(live)
                lanes = sel if lanes is None else lanes[sel]
                x, cap, p_prev, p_cur, q_prev, q_cur = (
                    v[sel] for v in (x, cap, p_prev, p_cur, q_prev, q_cur))
                live = np.ones(kept, bool)
                p_next, q_next, a, keep = scratch(kept)
        else:
            end(live)        # the lanes that kept all 80 steps
    err = np.abs(best_q * alpha - best_p)
    return best_p, best_q, err


def _batch_rates(profile, samples, surface, horizon, return_tol):
    """Per-sample signed crossing rates at near-return times.

    samples is an (n, 3) array of (t, theta1, theta2).  Returns
    (rates, return_times, fallback_mask).  Samples without an admissible
    near-return fall back to the homologically closed loop at the full
    horizon, whose rate error is bounded by 2/horizon.  A sample has none
    where q_cap = w1 * horizon / 2 pi is below 1, at any scale.

    The loop over the return time is closed by the shorter geodesic chord
    on the torus, so its winding number is the nearest whole number of
    turns to sweep / 2 pi, np.rint of it.  At an exact half turn the two
    chords are equally short, and rint takes the even count.
    """
    w1, w2 = profile.gradient_theta(profile.theta_of_t(samples[:, 0]))
    w1 *= 2.0
    w2 *= 2.0

    # a lane whose D1F underflows to 0 has q_cap = 0 and falls back; the
    # divisions by its zeros are never selected
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = w2 / w1
        q_cap = w1 * horizon / TWO_PI
        _, q_c, err = _best_convergents(alpha, q_cap)
        good = q_c >= 1.0
        # 2 pi mult: q_c's multiple within q_cap, or 1 where that misses
        scale = np.floor(np.divide(q_cap, q_c, out=q_cap), out=q_cap)
        np.copyto(scale, 1.0, where=~good)
        scale *= TWO_PI
        angle_err = np.multiply(scale, err, out=alpha)
        over_tol = angle_err > return_tol
        np.copyto(scale, TWO_PI, where=over_tol)
        np.multiply(scale, err, out=angle_err, where=over_tol)
        good &= angle_err <= return_tol
        t_ret = np.divide(np.multiply(scale, q_c, out=q_c), w1, out=q_c)
        np.copyto(t_ret, horizon, where=~good)

    # a closed loop crosses the disk its winding number of times whatever
    # the disk angle and start phase
    turns = (w1, w2)[surface.phase_index]
    turns *= t_ret
    turns /= TWO_PI
    np.rint(turns, out=turns)
    turns *= surface.orientation
    turns /= t_ret
    return turns, t_ret, ~good


@dataclass(frozen=True)
class ActionLinkingReport:
    """Monte Carlo check that vol * E[crossing rate] equals T(surface)."""

    lhs: float
    rhs: float
    stderr: float
    z: float
    n_samples: int
    horizon: float
    n_fallback: int


def action_linking_verify(profile: ToricProfile, surface: SeifertSurfaceSpec,
                          n_samples: int, horizon: float, seed: int,
                          return_tol: float = 0.1,
                          threads: int = 1) -> ActionLinkingReport:
    """Verify the crossing-rate identity for a surface by Monte Carlo.

    lhs is the contact volume times the sample mean of the asymptotic
    crossing rate over Liouville draws; rhs is the surface's contact area.
    The report carries the standard error of lhs and z = |lhs - rhs| over
    it.  A constant-rate profile (ellipsoid) has zero variance, in which
    case z is 0 when the identity holds to 1e-9 relative to the contact
    area and infinity otherwise.

    Samples with no admissible near-return (tori near the axes, where one
    angular rate nearly vanishes) use the horizon-closed loop; their count
    is reported.
    """
    if n_samples < 1:
        raise ValidationError("sample count must be at least 1")
    vol = contact_volume(profile)
    profile.boundary_arrays(0.0)   # build the profile caches before fan-out
    rates = np.empty(n_samples)
    n_blocks = -(-n_samples // RATE_BLOCK)
    helpers = min(max(1, int(threads)), n_blocks) - 1

    def on_workers(task):
        """[task(lo) for each block start lo], in block order."""
        results = [None] * n_blocks
        blocks = iter(range(n_blocks))

        def drain():
            for i in blocks:
                results[i] = task(i * RATE_BLOCK)

        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
        for future in futures:
            future.result()
        return results

    def rate_block(lo):
        hi = min(lo + RATE_BLOCK, n_samples)
        block, _, fallback = _batch_rates(
            profile, liouville_sample(profile, n_samples, seed, lo, hi,
                                      columns=1),
            surface, horizon, return_tol)
        rates[lo:hi] = block
        return exact_partial(block), int(fallback.sum())

    def square_block(lo):
        return exact_partial((rates[lo:lo + RATE_BLOCK] - mean) ** 2)

    # the block sums are exact, so their correctly rounded totals are the
    # math.fsum of all the rates whatever the blocks and threads
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:
        blocks = on_workers(rate_block)
        mean = exact_total(partial for partial, _ in blocks) / n_samples
        var = (exact_total(on_workers(square_block)) / (n_samples - 1)
               if n_samples > 1 else 0.0)
    n_fallback = sum(fallbacks for _, fallbacks in blocks)
    lhs = vol * mean
    rhs = surface.contact_area
    stderr = vol * math.sqrt(var / n_samples)
    diff = abs(lhs - rhs)
    if stderr == 0.0:
        z = 0.0 if diff <= 1e-9 * abs(rhs) else math.inf
    else:
        z = diff / stderr
    return ActionLinkingReport(float(lhs), float(rhs), float(stderr), float(z),
                               int(n_samples), float(horizon), n_fallback)


# ---------------------------------------------------------------------------
# closed curves on the 3-sphere and Gauss linking


# Rows per pass when a whole curve is normalized, measured or projected.
CURVE_CHUNK = 1 << 14
_SMALLEST_NORMAL = np.finfo(float).smallest_normal


def _row_chunks(n: int) -> list:
    """Slices of CURVE_CHUNK rows covering range(n), in order.  A lone last
    row joins the slice before it: a one-row matrix-vector product takes
    numpy's dot path, which can differ from the gemv result in the last
    bit."""
    edges = list(range(0, n, CURVE_CHUNK)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class ClosedCurve:
    """Closed polyline on the unit 3-sphere, rows of an (n, 4) array.

    Input points are projected radially onto the sphere; the first and
    last rows must then coincide and consecutive samples must stay within
    the chord bound.
    """

    points: np.ndarray

    @staticmethod
    def from_points(points, chord_bound: float = 0.5) -> "ClosedCurve":
        return ClosedCurve._on_sphere(np.array(points, float), chord_bound)

    @staticmethod
    def _on_sphere(pts: np.ndarray, chord_bound: float) -> "ClosedCurve":
        """from_points on a float array that it normalizes in place; the
        norms and gaps are taken CURVE_CHUNK rows at a time.  Each row is
        first divided by the power of two nearest above its largest
        coordinate, so that its norm neither overflows nor underflows;
        the division is exact, and so is the norm's change, so the
        normalized row has the bits it would have without it."""
        if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 4:
            raise ValidationError("a closed curve needs at least 4 points in R^4")
        for rows in _row_chunks(len(pts)):
            top = np.max(np.abs(pts[rows]), axis=1)
            # subnormal coordinates keep too few digits to give a direction
            tiny = np.flatnonzero((top > 0) & (top < _SMALLEST_NORMAL))
            if tiny.size:
                raise ValidationError(
                    f"curve point {rows.start + tiny[0]} has largest "
                    f"coordinate {top[tiny[0]]:.3g}, below the smallest "
                    f"normal double {_SMALLEST_NORMAL:.3g}; "
                    f"scale the curve up")
            _, exp = np.frexp(top)
            scaled = np.ldexp(pts[rows], -exp[:, None])
            norms = np.linalg.norm(scaled, axis=1)
            if np.any(norms <= 0):
                raise ValidationError("curve points must be away from the origin")
            np.divide(scaled, norms[:, None], out=pts[rows])
        if np.linalg.norm(pts[0] - pts[-1]) > 1e-9:
            raise ValidationError("curve is not closed (first point != last)")
        pts[-1] = pts[0]
        gap = np.max([np.linalg.norm(np.diff(pts[r.start:r.stop + 1], axis=0),
                                     axis=1).max(initial=0.0)
                      for r in _row_chunks(len(pts) - 1)], initial=0.0)
        if gap > chord_bound:
            raise ValidationError(
                f"consecutive samples {gap:.3g} apart exceed the chord "
                f"bound {chord_bound:g}; sample the curve more densely")
        return ClosedCurve(pts)

    def subdivided(self) -> "ClosedCurve":
        """Insert spherical midpoints between consecutive samples."""
        pts = self.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        mids /= np.linalg.norm(mids, axis=1)[:, None]
        out = np.empty((2 * len(pts) - 1, 4))
        out[0::2] = pts
        out[1::2] = mids
        return ClosedCurve(out)


def toric_orbit_curve(profile: ToricProfile, orbit, n: int = 1024,
                      phase2: float = 0.0) -> ClosedCurve:
    """Embed a closed orbit as a curve on the unit 3-sphere.

    A torus orbit at parameter t winds (p, q) times around the two circle
    angles; the embedding uses the square roots of the boundary point as
    circle radii and is then projected radially to the sphere (a
    homeomorphism of the boundary onto the sphere, so linking numbers are
    unchanged).  Axis orbits embed as the two coordinate circles.
    """
    u = np.linspace(0.0, 1.0, n + 1)
    pts = np.zeros((n + 1, 4))
    if isinstance(orbit, AxisOrbit):
        ang = TWO_PI * u
        k = 0 if orbit.axis == "x" else 2
        pts[:, k] = np.cos(ang)
        pts[:, k + 1] = np.sin(ang)
    elif isinstance(orbit, RationalTorus):
        x, y, _, _ = profile.boundary_arrays(orbit.t)
        r1, r2 = math.sqrt(float(x)), math.sqrt(float(y))
        th = TWO_PI * orbit.p * u
        pts[:, 0] = r1 * np.cos(th)
        pts[:, 1] = r1 * np.sin(th)
        th = phase2 + TWO_PI * orbit.q * u
        pts[:, 2] = r2 * np.cos(th)
        pts[:, 3] = r2 * np.sin(th)
    else:
        raise ValidationError(f"cannot embed orbit of type {type(orbit).__name__}")
    pts[-1] = pts[0]
    return ClosedCurve._on_sphere(pts, chord_bound=1.0)


# Curves closer than LINK_MIN_SEPARATION have no linking number; a Gauss
# sum farther than LINK_RESIDUAL_TOL from an integer is retried with other
# poles and subdivided curves.
LINK_MIN_SEPARATION = 1e-6
LINK_RESIDUAL_TOL = 0.1
# A Gauss sum tile is GAUSS_BLOCK segments of the shorter curve by
# GAUSS_TILE segments of the longer one.  Its temporaries hold at most
# (GAUSS_BLOCK + 1) x (GAUSS_TILE + 1) doubles, 67 KB, below glibc's
# 128 KiB mmap threshold, so each is served from the heap rather than
# mapped and unmapped per tile.  The distance scans (_least_cell) hold
# blocks of MIN_DIST_BALL rows in bounding balls and scan tiles of
# MIN_DIST_BLOCK x MIN_DIST_TILE cells, 1 MB of buffers, whatever their
# shape.
GAUSS_BLOCK = 64
GAUSS_TILE = 128
MIN_DIST_BLOCK = 64
MIN_DIST_TILE = 1024
MIN_DIST_BALL = 16

# Candidate projection poles avoid the coordinate circles (where the axis
# orbits live); the asymmetric ones also miss every torus curve with equal
# circle radii, which passes through all symmetric sign patterns.
_POLES = np.array([
    [1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, -1, -1], [-1, 1, -1, 1],
    [2, 1, -1, 1], [-1, 2, 1, 1], [1, -1, 2, -1], [-1, 1, 1, 2],
], dtype=float)
_POLES /= np.linalg.norm(_POLES, axis=1)[:, None]


def _stereographic(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Project S^3 minus the pole to R^3, pole moved to (0, 0, 0, 1).

    The pole is moved by a rotation (a Householder reflection composed
    with a coordinate flip), keeping the map orientation-preserving so
    linking signs survive the projection.  The points are projected
    CURVE_CHUNK rows at a time.
    """
    w = pole - np.array([0.0, 0.0, 0.0, 1.0])
    nw = np.dot(w, w)
    out = np.empty((len(points), 3))
    for rows in _row_chunks(len(points)):
        rotated = points[rows]
        if nw >= 1e-15:
            rotated = rotated - 2.0 * np.outer(rotated @ w, w) / nw
            rotated[:, 0] = -rotated[:, 0]
        denom = 1.0 - rotated[:, 3]
        if np.any(np.abs(denom) < 1e-9):
            raise NumericalError("curve passes through the projection pole")
        np.divide(rotated[:, :3], denom[:, None], out=out[rows])
    return out


def _gauss_linking_sum(P: np.ndarray, Q: np.ndarray) -> float:
    """Exact linking number of two closed polylines in R^3.

    Sums, over all segment pairs, the signed solid angle subtended by one
    segment from the other via the two-triangle arctangent formula; the
    total divided by 4*pi is the linking number up to rounding error.

    The longer curve goes on the P axis (the curves swap when Q has more
    vertices; the linking integral is symmetric), and the sum runs over
    tiles of GAUSS_BLOCK segments of Q by GAUSS_TILE segments of P, Q
    block by Q block and, within a block, P tile by P tile, so the memory
    is set by the tile, not by the curves.  Each tile's terms go to one
    np.sum and the tile sums are added in that fixed order.
    """
    if len(Q) > len(P):
        P, Q = Q, P
    total = 0.0
    for i in range(0, len(Q) - 1, GAUSS_BLOCK):
        q = Q[i:i + GAUSS_BLOCK + 1]
        for j in range(0, len(P) - 1, GAUSS_TILE):
            total += _gauss_tile(P[j:j + GAUSS_TILE + 1], q)
    return total / TWO_PI


def _gauss_tile(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of the Gauss terms of the segments of p against those of q.

    D[i, j] = p[j] - q[i] is held as three component arrays, and cell
    (i, j) has the corners a = D[i, j], b = D[i+1, j], c = D[i+1, j+1]
    and d = D[i, j+1].  Norms are taken once per vertex and dots once per
    pair of neighbours (vert gives ab and dc, horiz ad and bc).  Each term
    is the per-cell np.cross/np.einsum formula operation for operation: a
    3-term dot sums as (x + z) + y, the order np.einsum("ijk,ijk->ij")
    takes on a length-3 axis with numpy 2.4 (x + y + z differs in the last
    bit).  tests/test_topology.py checks the bits.
    """
    D = [pk[None, :] - qk[:, None] for pk, qk in zip(p.T, q.T)]
    norm = np.sqrt(D[0] * D[0] + D[1] * D[1] + D[2] * D[2])

    def at(rows, cols):
        return [Dk[rows, cols] for Dk in D]

    def dot(u, v):
        return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]

    head, tail, every = slice(None, -1), slice(1, None), slice(None)
    vert = dot(at(head, every), at(tail, every))
    horiz = dot(at(every, head), at(every, tail))
    a, b, c = at(head, head), at(tail, head), at(tail, tail)
    # b x c in np.cross's operand order
    bxc = [b[(k + 1) % 3] * c[(k + 2) % 3] - b[(k + 2) % 3] * c[(k + 1) % 3]
           for k in range(3)]
    # einsum accumulates into a zeroed output and never returns -0.0;
    # the sign of a zero triple decides arctan2(triple, d) = +-pi when d < 0
    triple = dot(a, bxc) + 0.0
    ca = dot(c, a)
    an, bn, cn, dn = norm[:-1, :-1], norm[1:, :-1], norm[1:, 1:], norm[:-1, 1:]
    ab, dc = vert[:, :-1], vert[:, 1:]
    ad, bc = horiz[:-1], horiz[1:]
    d1 = an * bn * cn + ab * cn + bc * an + ca * bn
    d2 = an * dn * cn + ad * cn + dc * an + ca * dn
    return float(np.sum(np.arctan2(triple, d1) + np.arctan2(triple, d2)))


# A bound between two blocks of rows is lowered by _BOUND_SLACK times the
# size of the terms it is made of, far more than their rounding error, so
# a block pair it skips holds no cell below the least one scanned.
_BOUND_SLACK = 1e-12


def _vertices(points: np.ndarray):
    """The rows of points as a scan side: their count, and a function
    returning (rows, reach) for a slice (a view) or an index array."""
    def rows(k):
        return (points[k] if isinstance(k, slice)
                else points.take(k, axis=0)), None
    return len(points), rows


def _segments(X: np.ndarray):
    """The segments of the polyline X as a scan side (_vertices): each
    row is a segment's midpoint, with half its length as its reach."""
    def rows(k):
        if isinstance(k, slice):
            a, b = X[k], X[k.start + 1:k.stop + 1]
        else:
            a, b = X.take(k, axis=0), X.take(k + 1, axis=0)
        d = b - a
        return 0.5 * (a + b), 0.5 * np.sqrt((d * d).sum(axis=1))
    return len(X) - 1, rows


def _ball_rows(n: int) -> int:
    """Rows per block ball on a scan side of n rows: MIN_DIST_BALL,
    doubled until there are at most CURVE_CHUNK balls."""
    size = MIN_DIST_BALL
    while size * CURVE_CHUNK < n:
        size *= 2
    return size


def _block_balls(side, size: int):
    """Centres and radii of balls around each block of size consecutive
    rows of a scan side, the last block possibly fewer; a row's reach
    widens its block's ball to hold every point within the reach of the
    row.  The rows are read a quarter of CURVE_CHUNK at a time, or a
    block at a time where blocks are longer."""
    n, rows = side
    chunk = max(CURVE_CHUNK // 4, size)
    centres, radii = [], []
    for lo in range(0, n, chunk):
        pts, reach = rows(slice(lo, min(lo + chunk, n)))
        k = -(-len(pts) // size)
        pad = k * size - len(pts)
        if pad:
            pts = np.concatenate([pts, np.repeat(pts[-1:], pad, axis=0)])
        blocks = pts.reshape(k, size, -1)
        c = 0.5 * (blocks.max(axis=1) + blocks.min(axis=1))
        diff = blocks - c[:, None]
        r = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
        if reach is not None:
            r += np.concatenate([reach, np.repeat(reach[-1:], pad)]
                                ).reshape(k, size)
        centres.append(c)
        radii.append(r.max(axis=1))
    return np.concatenate(centres), np.concatenate(radii)


def _least_cell(side1, side2, squared: bool, floor: float = -math.inf,
                ceiling: float = math.inf):
    """Least cell value of the rows of side1 against those of side2.

    A cell is the squared distance of two rows (squared), or their
    distance less the sum of their reaches.  The squares are summed in
    coordinate order, as a sum over the last axis does.

    The scan skips what cannot hold the least cell.  Rows come in blocks
    of MIN_DIST_BALL (more on sides too long for CURVE_CHUNK blocks),
    each held by a ball (_block_balls), and the balls bound every cell of
    a block pair from below.  Row blocks of the side with fewer rows go in
    order of their least bound, and the first one bounded above the least
    cell found so far ends the scan; within a row block the blocks of the
    other side go in order of their bound, a tile of them at a time in
    one pair of buffers, and those bounded above the least cell are
    skipped.  A side of a single block is scanned whole, without balls.
    Tiles hold MIN_DIST_BLOCK x MIN_DIST_TILE cells, so a side of fewer
    rows, such as a pole, gets tiles as many times wider.  Each scanned
    cell is computed as in a full scan and no skipped one is below the
    least, so the result is the full scan's, bit for bit.

    Two limits cut the scan short.  It returns early, with a cell below
    floor, once it finds one.  Block pairs bounded above ceiling (a
    distance) are skipped too, so when no cell is within the ceiling the
    result is some value beyond it, possibly inf.
    """
    if side1[0] > side2[0]:
        side1, side2 = side2, side1
    (n1, rows1), (n2, rows2) = side1, side2
    size1, size2 = _ball_rows(n1), _ball_rows(n2)
    height = min(size1, n1)
    width = max(size2, MIN_DIST_BLOCK * MIN_DIST_TILE // height)
    work = []        # one pair of buffers, made when a tile is scanned

    def least_of(a, reach_a, b, reach_b):
        if not work:
            work.append(np.empty((2, height * min(width, n2))))
        cell, diff = (w[:len(a) * len(b)].reshape(len(a), len(b))
                      for w in work[0])
        for k in range(a.shape[1]):
            np.subtract(a[:, None, k], b[None, :, k], out=diff)
            if k:
                np.add(cell, np.multiply(diff, diff, out=diff), out=cell)
            else:
                np.multiply(diff, diff, out=cell)
        if not squared:
            np.sqrt(cell, out=cell)
            np.subtract(cell, np.add(reach_a[:, None], reach_b[None, :],
                                     out=diff), out=cell)
        return float(cell.min())

    least = math.inf
    if n1 <= size1:
        # a single row block: scanning a column costs about what building
        # its ball would
        a = rows1(slice(0, n1))
        for lo in range(0, n2, width):
            least = min(least, least_of(*a, *rows2(slice(
                lo, min(lo + width, n2)))))
            if least < floor:
                break
        return least

    c1, r1 = _block_balls(side1, size1)
    c2, r2 = _block_balls(side2, size2)
    extent1 = np.sqrt((c1 * c1).sum(axis=1)) + r1
    extent2 = np.sqrt((c2 * c2).sum(axis=1)) + r2

    def bounds(i):
        """Rows i (a slice) of the bound matrix: no cell of row block i
        against block j of side2 is below bounds(i)[., j]."""
        diff = c1[i, None] - c2[None]
        gap = np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=2))
        return (gap - (r1[i, None] + r2)
                - _BOUND_SLACK * (extent1[i, None] + extent2))

    def reach():
        # the distance no cell of a block pair worth scanning exceeds
        return min(math.sqrt(least) if squared else least, ceiling)

    step = max(1, CURVE_CHUNK // (4 * len(c2)))
    nearest = np.concatenate([bounds(slice(i, i + step)).min(axis=1)
                              for i in range(0, len(c1), step)])
    in_block = np.arange(size2)
    for i in np.argsort(nearest, kind="stable"):
        if nearest[i] > reach():
            break
        a = rows1(slice(i * size1, min((i + 1) * size1, n1)))
        bound = bounds(slice(i, i + 1))[0]
        order = np.argsort(bound, kind="stable")
        for g in range(0, len(order), width // size2):
            group = order[g:g + width // size2]
            group = group[bound[group] <= reach()]
            if not len(group):
                break
            cols = (group[:, None] * size2 + in_block).ravel()
            least = min(least, least_of(*a, *rows2(cols[cols < n2])))
            if least < floor:
                return least
    return least


def _min_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Least distance between the rows of p1 and the rows of p2: the
    square root of the least squared distance of a pruned scan
    (_least_cell), which has the bits of the full scan.  sqrt is monotone
    and correctly rounded, so it is the least of the distances."""
    return math.sqrt(_least_cell(_vertices(p1), _vertices(p2), True))


def _segment_separation(P: np.ndarray, Q: np.ndarray,
                        floor: float = -math.inf) -> float:
    """A lower bound on the distance between the polylines P and Q: the
    least, over segment pairs, of the distance of their midpoints less
    their half lengths (no point of a segment is farther than that from
    its midpoint).  Returns early, with a value below floor, once the
    bound is known to be below it."""
    return _least_cell(_segments(P), _segments(Q), False, floor)


def _deviation(X: np.ndarray, s: int) -> float:
    """Largest distance from a vertex of the polyline X to its coarse copy
    (_coarsened) at the same index parameter: vertex k against the point
    at weight (k - k0) / (k1 - k0) of the chord from vertex k0 = k - k % s
    to vertex k1 = min(k0 + s, n).  Both polylines are linear in the
    index between vertices, so no point of X is farther from its
    counterpart; inf where the copy would have fewer than 3 segments."""
    n = len(X) - 1
    if -(-n // s) < 3:
        return math.inf
    worst = 0.0
    # a quarter of CURVE_CHUNK vertices at a time: each takes its two
    # chord ends and a handful of temporaries
    rows = CURVE_CHUNK // 4
    for lo in range(0, n, rows):
        k = np.arange(lo, min(lo + rows, n))
        k0 = k - k % s
        k1 = np.minimum(k0 + s, n)
        start = X.take(k0, axis=0)
        d = X[lo:lo + len(k)] - (start + ((k - k0) / (k1 - k0))[:, None]
                                 * (X.take(k1, axis=0) - start))
        worst = max(worst, float(np.max((d * d).sum(axis=1))))
    return math.sqrt(worst)


def _coarsest_step(X: np.ndarray, budget: float):
    """(s, deviation at s) for a power of two s whose deviation is within
    budget, found by bisection on the exponent: the deviation at s is
    within budget and at 2s it is not (or leaves fewer than 3 segments).
    The deviation grows with s on a smooth curve, so this is about the
    largest such s."""
    lo, hi = 0, (len(X) - 2).bit_length() - 1    # 2**hi leaves < 3 segments
    dev = 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        d = _deviation(X, 2 ** mid)
        if d <= budget:
            lo, dev = mid, d
        else:
            hi = mid
    return 2 ** lo, dev


def _coarsened(X: np.ndarray, s: int) -> np.ndarray:
    """Every s-th vertex of the polyline X and its last one."""
    return X if s == 1 else X[np.r_[0:len(X) - 1:s, len(X) - 1]]


def _certified_coarsening(P: np.ndarray, Q: np.ndarray):
    """Coarse copies of the polylines P and Q with their linking number,
    or None when neither curve can be coarsened.

    The straight-line homotopy from a polyline to its coarse copy moves no
    point by more than the copy's deviation.  The two deviations add up to
    at most half the separation bound of P and Q, so the curves stay
    disjoint throughout, and the linking number is unchanged.  Each curve
    first takes the coarsest step within a quarter of the bound; what the
    two leave of the half then pays for one more halving of the longer
    copy, or else of the other.
    """
    floor = 4.0 * min(_deviation(P, 2), _deviation(Q, 2))
    if floor == math.inf:
        return None
    sep = _segment_separation(P, Q, floor)
    if not sep >= floor:
        return None
    curves = (P, Q)
    (s1, d1), (s2, d2) = (_coarsest_step(X, 0.25 * sep) for X in curves)
    steps, devs = [s1, s2], [d1, d2]
    for k in sorted((0, 1), key=lambda k: -(len(curves[k]) - 1) // steps[k]):
        if _deviation(curves[k], 2 * steps[k]) + devs[1 - k] <= 0.5 * sep:
            steps[k] *= 2
            break
    return _coarsened(P, steps[0]), _coarsened(Q, steps[1])


@dataclass(frozen=True)
class LinkResult:
    link: int
    residual: float
    raw: float
    pole_index: int
    subdivisions: int


def linking_number(curve1: ClosedCurve, curve2: ClosedCurve) -> LinkResult:
    """Linking number of two disjoint closed curves on the 3-sphere.

    The pole for stereographic projection is chosen among the eight
    coordinate poles to maximize the distance to both curves; the Gauss
    sum in R^3 is rounded to the nearest integer and |raw - integer| is
    reported as the residual.  The sum runs on certified coarse copies of
    the projected curves where there are any (_certified_coarsening), and
    on the projected curves themselves when there are none or the coarse
    residual is above the tolerance.  On a residual above the tolerance
    other poles and spherically subdivided copies of the curves are
    tried.
    """
    p1, p2 = curve1.points, curve2.points
    # only a distance below the bound is needed, and found bit for bit
    min_dist = math.sqrt(_least_cell(_vertices(p1), _vertices(p2), True,
                                     ceiling=LINK_MIN_SEPARATION))
    if min_dist < LINK_MIN_SEPARATION:
        raise ValidationError(
            f"curves come within {min_dist:.3g} of each other "
            f"(bound {LINK_MIN_SEPARATION:g}); linking is undefined")

    scores = []
    for i, pole in enumerate(_POLES):
        d = min(_min_distance(p1, pole[None]), _min_distance(p2, pole[None]))
        scores.append((d, i))
    order = [i for _, i in sorted(scores, reverse=True)]

    c1, c2 = curve1, curve2
    best_residual = math.inf
    for level in range(3):
        if level:
            c1, c2 = c1.subdivided(), c2.subdivided()
        for i in order:
            try:
                P = _stereographic(c1.points, _POLES[i])
                Q = _stereographic(c2.points, _POLES[i])
            except NumericalError:
                continue
            coarse = _certified_coarsening(P, Q)
            for A, B in ([coarse] if coarse else []) + [(P, Q)]:
                raw = _gauss_linking_sum(A, B)
                residual = abs(raw - round(raw))
                best_residual = min(best_residual, residual)
                if residual < LINK_RESIDUAL_TOL:
                    return LinkResult(int(round(raw)), float(residual),
                                      float(raw), i, level)
    raise NumericalError(
        f"Gauss sum residual {best_residual:.3g} still above "
        f"{LINK_RESIDUAL_TOL:g} after pole changes and curve refinement")


def check_resolved(report: ActionLinkingReport):
    """Raise ResolutionError when every sample fell back to the
    horizon-closed loop: the mean is then the fallback estimate alone, and
    its error is set by the horizon, not by the sample count."""
    if report.n_fallback == report.n_samples:
        raise ResolutionError(
            f"all {report.n_samples} samples fell back: none has a "
            f"near-return within horizon {report.horizon:g}; raise --horizon")
    return report


def check_statistical(report: ActionLinkingReport, z_threshold: float = 4.0):
    """Raise StatisticalError when a verification z score exceeds the bound."""
    if not (report.z <= z_threshold):
        raise StatisticalError(
            f"action-linking z score {report.z:.3g} exceeds {z_threshold:g} "
            f"(lhs {report.lhs:.12g}, rhs {report.rhs:.12g}, "
            f"stderr {report.stderr:.3g})")
    return report
