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

Linking numbers of closed curves on the 3-sphere are half the signed
count of the crossings of their stereographic projections seen along a
coordinate axis (Rolfsen, Knots and Links, 5.D): each crossing counts +1
or -1 by its orientation and by which curve is on top, and the total is
even.  The segment pairs to test come from a top-down walk over box
pyramids (_box_walk): boxes of runs of BOX_ROWS consecutive segments, of
pairs of those, and so on up to one box per curve, dropping the box pairs
that cannot hold a crossing.  Each test is the sign of a short sum of
products, sure outside a rounding band (_BAND); an unsure test or an odd
total moves to the next axis, pole or subdivision level.  The same walk
over boxes of vertices finds the pairs of the two curves within
LINK_MIN_SEPARATION.  Curves are built, normalized and projected
CURVE_CHUNK rows at a time, and a projected curve is read by rows, never
held whole.

On the benchmark's lp p=3 cases of 4096 x 512, 1024 x 256 and 2048 x
1024 segments linking_number takes 2.0-3.5, 1.4-2.5 and 2.1-3.2 ms
in-process, on a 2-core host with numpy 2.4.
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
# closed curves on the 3-sphere and their linking


# Rows per pass when a whole curve is normalized, measured or projected.
CURVE_CHUNK = 1 << 14
_SMALLEST_NORMAL = np.finfo(float).smallest_normal


def _row_chunks(n: int) -> list:
    """Slices of CURVE_CHUNK rows covering range(n), in order."""
    return [slice(a, min(a + CURVE_CHUNK, n))
            for a in range(0, n, CURVE_CHUNK)]


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


# Curves closer than LINK_MIN_SEPARATION have no linking number.
LINK_MIN_SEPARATION = 1e-6
# The Gauss sum, the tests' reference for linking_number, runs on tiles of
# GAUSS_BLOCK x GAUSS_TILE segments, whose 67 KB temporaries glibc serves
# from the heap (below its 128 KiB mmap threshold).
GAUSS_BLOCK = 64
GAUSS_TILE = 128
# The bottom level of a box pyramid (_pyramid) boxes runs of BOX_ROWS
# consecutive rows; below it the walk reads single rows from the curve.
BOX_ROWS = 16
# A sign test is sure when its value is beyond _BAND times the sum of the
# magnitudes of its terms.  Each tested value sums products of differences
# of input coordinates, with at most 9 roundings of relative size 2^-53 on
# any term's path, so its error is below 1e-15 times that sum (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3); 2^-40 = 9.1e-13
# leaves a margin of 900, and a sure sign is the exact polygons' sign.
_BAND = 2.0 ** -40

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
    CURVE_CHUNK rows at a time, each by elementwise operations only, so a
    row read alone has the bits that its pyramid box holds (_pyramid).
    """
    w = pole - np.array([0.0, 0.0, 0.0, 1.0])
    nw = np.dot(w, w)
    out = np.empty((len(points), 3))
    for rows in _row_chunks(len(points)):
        rotated = points[rows]
        if nw >= 1e-15:
            dot = sum(rotated[:, k] * w[k] for k in range(4))
            rotated = rotated - 2.0 * np.outer(dot, w) / nw
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


def _pyramid(rows_of, n: int, step: int):
    """The box pyramid of a curve of n vertices, as (rows_of, rows, step,
    levels); rows_of(k) returns the vertices k, a slice or index array.

    The rows are the vertices (step 0) or the segments (step 1, vertex k
    to k + 1, whose box holds both).  Level 0 boxes runs of BOX_ROWS rows,
    read CURVE_CHUNK rows at a time, and level k + 1 boxes the pairs 2i,
    2i + 1 of level k (an odd last box alone), up to one box.  A level is
    (lo, hi, size), size the mean longest side of its boxes.
    """
    rows = n - step
    lo, hi = [], []
    for start in range(0, rows, CURVE_CHUNK):
        X = rows_of(slice(start, min(start + CURVE_CHUNK + step, n)))
        starts = np.arange(0, len(X) - step, BOX_ROWS)
        for boxes, extreme in ((lo, np.minimum), (hi, np.maximum)):
            box = extreme.reduceat(X, starts)
            if step:    # a run's end vertex (the last run's range has it)
                extreme(box[:-1], X[starts[1:]], out=box[:-1])
            boxes.append(box)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    levels = [(lo, hi, float((hi - lo).max(axis=1).mean()))]
    while len(lo) > 1:
        even = len(lo) // 2 * 2
        lo = np.concatenate([np.minimum(lo[:even:2], lo[1:even:2]), lo[even:]])
        hi = np.concatenate([np.maximum(hi[:even:2], hi[1:even:2]), hi[even:]])
        levels.append((lo, hi, float((hi - lo).max(axis=1).mean())))
    return rows_of, rows, step, levels


def _box_walk(side1, side2, keep):
    """Batches (ends1, ends2) of the row pairs of two pyramids (_pyramid)
    that keep passes on every pair of boxes holding them: for each side,
    the rows' first and last vertices (a vertex twice).

    From the two top boxes, each step splits the boxes of the side whose
    boxes are larger into their children, down to single rows read by
    rows_of, and keeps the pairs that keep(lo1, hi1, ends1, lo2, hi2,
    ends2) passes; ends is None for a side above single rows.  A batch
    holds at most CURVE_CHUNK pairs; the rest wait on a stack.
    """
    sides = (side1, side2)
    top = np.zeros(1, np.intp)
    stack = [[(len(side1[3]) - 1, top), (len(side2[3]) - 1, top)]]
    batch = CURVE_CHUNK // BOX_ROWS
    while stack:
        at = stack.pop()
        (k1, _), (k2, _) = at
        s = 0 if k2 < 0 or (k1 >= 0 and side1[3][k1][2]
                             >= side2[3][k2][2]) else 1
        (k, idx), (k_other, other) = at[s], at[1 - s]
        f, n = ((2, len(sides[s][3][k - 1][0])) if k
                else (BOX_ROWS, sides[s][1]))
        child = (idx[:, None] * f + np.arange(f)).ravel()
        inside = child < n
        at[s], at[1 - s] = ((k - 1, child[inside]),
                            (k_other, np.repeat(other, f)[inside]))
        (k1, i), (k2, j) = at
        (lo1, hi1, ends1), (lo2, hi2, ends2) = (
            _boxes(side, *state) for side, state in zip(sides, at))
        kept = np.flatnonzero(keep(lo1, hi1, ends1, lo2, hi2, ends2))
        for start in range(0, len(kept), batch):
            pick = kept[start:start + batch]
            if k1 < 0 and k2 < 0:
                yield ([x.take(pick, axis=0) for x in ends1],
                       [x.take(pick, axis=0) for x in ends2])
            else:
                stack.append([(k1, i[pick]), (k2, j[pick])])


def _boxes(side, k, idx):
    """(lo, hi, ends) of boxes idx of a pyramid's level k (_box_walk)."""
    if k >= 0:
        lo, hi, _ = side[3][k]
        return lo.take(idx, axis=0), hi.take(idx, axis=0), None
    rows_of, _, step, _ = side
    if not step:
        a = rows_of(idx)
        return a, a, (a, a)
    a, b = np.split(rows_of(np.concatenate([idx, idx + 1])), 2)
    return np.minimum(a, b), np.maximum(a, b), (a, b)


def _cross(p, q, x, y):
    """The (x, y) cross products of the rows of p and q, and the sums of
    their two terms' magnitudes (_BAND)."""
    s, t = p[:, x] * q[:, y], p[:, y] * q[:, x]
    return s - t, np.abs(s) + np.abs(t)


def _meets_line(ends, lo, hi, x, y):
    """False where the (x, y) box lo..hi lies surely on one side of the
    line through the segment ends.  The cross product at a corner
    (cx, cy) is dx (cy - ay) - dy (cx - ax), a term in cy less a term in
    cx, so its extremes over the corners come from those of the terms."""
    a, b = ends
    dx, dy = b[:, x] - a[:, x], b[:, y] - a[:, y]
    ty = [dx * (lo[:, y] - a[:, y]), dx * (hi[:, y] - a[:, y])]
    tx = [dy * (lo[:, x] - a[:, x]), dy * (hi[:, x] - a[:, x])]
    band = _BAND * (np.maximum(*map(np.abs, ty))
                    + np.maximum(*map(np.abs, tx)))
    return ((np.minimum(*ty) - np.maximum(*tx) <= band)
            & (np.maximum(*ty) - np.minimum(*tx) >= -band))


def _crossing_total(side1, side2, axes):
    """Signed count of the crossings of two pyramids' polylines (_pyramid)
    seen along axis z, (x, y, z) = axes a cyclic order; None if unsure.

    Segments a0 -> a1 and b0 -> b1 cross when b0 and b1 lie strictly on
    opposite sides of a's line in the (x, y) plane, and a0 and a1 of b's:
    both crossing parameters are in (0, 1).  A crossing counts the sign of
    h D, h the height of a over b there and D = r x v, r = a1 - a0 and
    v = b1 - b0.  With w = b0 - a0, o1 = r x w and o3 = w x v, that is
    o3 r_z + o1 v_z - w_z D, with no division.  A pair is unsure where a
    test is and no sure test rules it out.
    """
    x, y, z = axes

    def keep(lo1, hi1, ends1, lo2, hi2, ends2):
        kept = ((lo1[:, x] <= hi2[:, x]) & (lo2[:, x] <= hi1[:, x])
                & (lo1[:, y] <= hi2[:, y]) & (lo2[:, y] <= hi1[:, y]))
        # a single segment against a box: the box must meet its line (two
        # single segments go to the crossing test)
        if ends2 is None and ends1 is not None:
            kept &= _meets_line(ends1, lo2, hi2, x, y)
        if ends1 is None and ends2 is not None:
            kept &= _meets_line(ends2, lo1, hi1, x, y)
        return kept

    total = 0
    for (a0, a1), (b0, b1) in _box_walk(side1, side2, keep):
        r, v, w = a1 - a0, b1 - b0, b0 - a0
        o1, m1 = _cross(r, w, x, y)           # b0 against a's line
        o2, m2 = _cross(r, b1 - a0, x, y)     # b1 against a's line
        o3, m3 = _cross(w, v, x, y)           # a0 against b's line
        o4, m4 = _cross(b0 - a1, v, x, y)     # a1 against b's line
        s1, s2, s3, s4 = (np.abs(o) > _BAND * m for o, m in
                          ((o1, m1), (o2, m2), (o3, m3), (o4, m4)))
        apart = ((s1 & s2 & ((o1 > 0) == (o2 > 0)))
                 | (s3 & s4 & ((o3 > 0) == (o4 > 0))))
        h = o3 * r[:, z] + o1 * v[:, z] - w[:, z] * (o2 - o1)
        size = (m3 * np.abs(r[:, z]) + m1 * np.abs(v[:, z])
                + np.abs(w[:, z]) * (m1 + m2))
        if not np.all(apart | (s1 & s2 & s3 & s4
                               & (np.abs(h) > _BAND * size))):
            return None
        total += int(np.sign(h[~apart]).sum())
    return total


def _close_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Least distance between a row of p1 and one of p2 if some pair is
    within LINK_MIN_SEPARATION, else inf.  The box walk keeps the box pairs
    whose gap (rounded by a few ulps, far inside _BAND) is within the
    bound; their distances are taken as a full scan takes them, squares
    summed over the last axis, so the least one has its bits."""
    bound = LINK_MIN_SEPARATION ** 2 * (1.0 + _BAND)

    def keep(lo1, hi1, ends1, lo2, hi2, ends2):
        gap = np.maximum(np.maximum(lo2 - hi1, lo1 - hi2), 0.0)
        return (gap * gap).sum(axis=1) <= bound

    least = math.inf
    sides = (_pyramid(p.__getitem__, len(p), 0) for p in (p1, p2))
    for (a, _), (b, _) in _box_walk(*sides, keep):
        least = min(least, float(np.sqrt(((a - b) ** 2).sum(axis=1)).min()))
    return least


def _pole_distances(points: np.ndarray) -> np.ndarray:
    """Least distance from the rows of points to each pole, CURVE_CHUNK
    rows at a time, the squares summed in coordinate order."""
    least = np.full(len(_POLES), math.inf)
    for rows in _row_chunks(len(points)):
        for i, pole in enumerate(_POLES):
            sq = sum((points[rows, k] - c) ** 2 for k, c in enumerate(pole))
            least[i] = min(least[i], sq.min())
    return np.sqrt(least)


def _projected(points: np.ndarray, pole: np.ndarray):
    """rows_of (_pyramid) of the stereographic projection of points; the
    distinct rows of an index array are projected once each."""
    def rows_of(k):
        if isinstance(k, slice):
            return _stereographic(points[k], pole)
        rows, back = np.unique(k, return_inverse=True)
        return _stereographic(points.take(rows, axis=0), pole)[back]
    return rows_of


@dataclass(frozen=True)
class LinkResult:
    link: int
    residual: float
    raw: float
    pole_index: int
    subdivisions: int


def linking_number(curve1: ClosedCurve, curve2: ClosedCurve) -> LinkResult:
    """Linking number of two disjoint closed curves on the 3-sphere.

    The projection pole is the one of the eight coordinate poles farthest
    from both curves, and the link is half the signed crossing count of
    the projected curves seen along x3 (_crossing_total).  An unsure test
    or an odd count moves to x1, then x2, then the next pole by distance,
    then spherically subdivided copies of the curves.  raw is the count
    over 2, exactly the link, so the residual |raw - link| is 0.
    """
    p1, p2 = curve1.points, curve2.points
    min_dist = _close_distance(p1, p2)
    if min_dist < LINK_MIN_SEPARATION:
        raise ValidationError(
            f"curves come within {min_dist:.3g} of each other "
            f"(bound {LINK_MIN_SEPARATION:g}); linking is undefined")

    scores = np.minimum(_pole_distances(p1), _pole_distances(p2))
    order = [i for _, i in sorted(zip(scores.tolist(), range(len(_POLES))),
                                  reverse=True)]

    c1, c2 = curve1, curve2
    for level in range(3):
        if level:
            c1, c2 = c1.subdivided(), c2.subdivided()
        for i in order:
            try:
                sides = [_pyramid(_projected(c.points, _POLES[i]),
                                  len(c.points), 1) for c in (c1, c2)]
            except NumericalError:
                continue
            for axes in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                total = _crossing_total(*sides, axes)
                if total is not None and total % 2 == 0:
                    return LinkResult(total // 2, 0.0, total / 2, i, level)
    raise NumericalError(
        "crossing count unsure or odd along every axis, at every pole and "
        "subdivision level")


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
