"""Surfaces, signed crossings, asymptotic intersection rates and linking.

The surfaces handled here are the disks bounded by the two axis orbits,
{theta1 = const} bounded by the y-axis orbit and {theta2 = const} bounded
by the x-axis orbit, together with the page {time = const} of a suspension
(handled by the disk-map module through the same sweep counter).  Their
contact area equals the period of the boundary orbit, by Stokes.

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
computes the rates in blocks of RATE_BLOCK samples dealt to the worker
threads; each worker draws its block's area parameters t from the
seeded sample stream itself (a rate depends on t alone), finds the
near-return times with a branch-free continued-fraction kernel that runs
every lane of the block at full width, and sums its block's rates
exactly (numerics.exact_partial, an integer superaccumulator).  The
working memory beyond the rates is bounded by the block size, not the
sample count.  The mean and the variance are the correctly rounded
totals of the exact block sums, equal to math.fsum over all the rates,
and each rate depends on its own sample only, so the report is the same
for any thread count.

Linking numbers of closed curves on the 3-sphere are computed by
stereographic projection followed by the exact solid-angle (Gauss) sum
over polyline segment pairs.  The sum runs over fixed tiles of
GAUSS_BLOCK segments of one curve by GAUSS_TILE segments of the other,
with the longer curve on the GAUSS_TILE axis, and every tile reuses one
workspace allocated per call, so the memory is set by the tile and not
by the curves.  Within a tile the sum works on the grid of vertex
differences P_j - Q_i, with one component array per coordinate: the four
corners of a segment pair are neighbouring grid points, so each vertex
norm and each dot of neighbouring vertices is computed once and shared
by the pairs that meet there.  Every term is formed by the same
floating-point operations, in the same order, as the per-pair formula
written with np.cross and np.einsum; in particular a 3-term dot is summed
as (x + z) + y, the order einsum takes on a length-3 axis.  Each tile's
terms go to one np.sum and the tile sums are added in a fixed tile
order, so the sum does not depend on how the tiles are scheduled.  The
curves themselves are built, normalized and projected CURVE_CHUNK rows at
a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (NumericalError, ResolutionError, StatisticalError,
                     ValidationError)
from .numerics import exact_partial, exact_total, wrap_to_pi
from .profiles import ToricProfile
from .systolic import AxisOrbit, RationalTorus, axis_orbit, contact_volume
from .flows import RNG_NAME, liouville_sample

TWO_PI = 2.0 * math.pi
# Samples per _batch_rates call in action_linking_verify: the unit dealt
# to worker threads, each of which draws its block's samples itself.
RATE_BLOCK = 1 << 15


@dataclass(frozen=True)
class SeifertSurfaceSpec:
    """An oriented surface adapted to the flow with its contact area.

    kind 'axis-disk-y' is {theta1 = angle}, bounded by the y-axis orbit;
    kind 'axis-disk-x' is {theta2 = angle}, bounded by the x-axis orbit;
    kind 'page' is a {time = angle} slice of a suspension.  Orientation
    -1 negates the contact area and every signed crossing, so pairings
    with the surface are orientation independent.
    """

    kind: str
    angle: float
    orientation: int
    contact_area: float

    @property
    def phase_index(self) -> int:
        if self.kind == "axis-disk-y":
            return 0            # crossings sweep theta1
        if self.kind == "axis-disk-x":
            return 1            # crossings sweep theta2
        raise ValidationError(f"surface kind {self.kind!r} has no torus phase")


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


def page_surface(angle: float = 0.0, orientation: int = 1,
                 contact_area: float = math.pi) -> SeifertSurfaceSpec:
    """A page {time = angle} of a suspension over the unit disk."""
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    return SeifertSurfaceSpec("page", float(angle), orientation,
                              orientation * contact_area)


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

    Every lane runs every step, in buffers written by ufuncs with out=.  A
    lane whose remainder falls to 1e-15 or below has ended its expansion:
    the remainder becomes nan, and so does everything computed from it.
    A convergent is kept where q <= q_cap; q never decreases from one step
    to the next, so the last one kept is the largest admissible, and the
    loop ends at the first step that keeps none.
    """
    alpha = np.asarray(alpha, float)
    q_cap = np.asarray(q_cap, float)
    n = alpha.shape[0]
    a0 = np.floor(alpha)
    p_prev, q_prev = np.ones(n), np.zeros(n)
    p_cur, q_cur = a0.copy(), np.ones(n)
    p_next, q_next, a = np.empty(n), np.empty(n), np.empty(n)
    x = alpha - a0
    feasible = q_cap >= 1.0
    best_p = np.where(feasible, p_cur, 0.0)
    best_q = np.where(feasible, 1.0, 0.0)
    keep = np.empty(n, bool)
    np.copyto(x, np.nan, where=~(x > 1e-15))
    # the lanes past q_cap keep running, and their p and q may overflow
    with np.errstate(over="ignore"):
        for _ in range(80):
            np.divide(1.0, x, out=x)
            np.floor(x, out=a)
            np.subtract(x, a, out=x)
            np.copyto(x, np.nan, where=np.less_equal(x, 1e-15, out=keep))
            np.add(np.multiply(a, p_cur, out=p_next), p_prev, out=p_next)
            np.add(np.multiply(a, q_cur, out=q_next), q_prev, out=q_next)
            if not np.less_equal(q_next, q_cap, out=keep).any():
                break
            np.copyto(best_p, p_next, where=keep)
            np.copyto(best_q, q_next, where=keep)
            p_prev, p_cur, p_next = p_cur, p_next, p_prev
            q_prev, q_cur, q_next = q_cur, q_next, q_prev
    err = np.abs(best_q * alpha - best_p)
    return best_p, best_q, err


def _batch_rates(profile, samples, surface, horizon, return_tol,
                 allow_fallback):
    """Per-sample signed crossing rates at near-return times.

    samples is an (n, 3) array of (t, theta1, theta2).  Returns
    (rates, return_times, fallback_mask).  Samples without an admissible
    near-return either raise (allow_fallback False) or fall back to the
    homologically closed loop at the full horizon, whose rate error is
    bounded by 2/horizon.
    """
    t = samples[:, 0]
    d1, d2 = profile.gradient_theta(profile.theta_of_t(t))
    w1 = 2.0 * np.asarray(d1, float)
    w2 = 2.0 * np.asarray(d2, float)

    usable = w1 > 1e-12
    alpha = np.where(usable, w2 / np.where(usable, w1, 1.0), 0.0)
    q_cap = np.where(usable, w1 * horizon / TWO_PI, 0.0)
    _, q_c, err = _best_convergents(alpha, q_cap)

    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.where(q_c >= 1, np.floor(q_cap / np.where(q_c >= 1, q_c, 1.0)), 0.0)
    mult = np.maximum(mult, 1.0)
    angle_err = TWO_PI * mult * err
    over_tol = angle_err > return_tol
    mult = np.where(over_tol, 1.0, mult)
    angle_err = np.where(over_tol, TWO_PI * err, angle_err)
    good = usable & (q_c >= 1.0) & (angle_err <= return_tol)

    if not allow_fallback and not good.all():
        bad = int(np.argmin(good))
        raise ResolutionError(
            f"no near-return within horizon {horizon:g} at tolerance "
            f"{return_tol:g} for the torus at t = {t[bad]:.6g}; "
            "increase the horizon")

    t_ret = np.where(good, TWO_PI * mult * np.maximum(q_c, 1.0)
                     / np.where(usable, w1, 1.0), horizon)

    idx = surface.phase_index
    omega = (w1, w2)[idx]
    # the loop closed by the short chord winds an exact integer number of
    # times, and a closed loop crosses the disk its winding number of times
    # whatever the disk angle and start phase; rounding makes this exact
    sweep = omega * t_ret
    chord = wrap_to_pi(-sweep)
    counts = np.round((sweep + chord) / TWO_PI)
    rates = surface.orientation * counts / t_ret
    return rates, t_ret, ~good


@dataclass(frozen=True)
class ActionLinkingReport:
    """Monte Carlo check that vol * E[crossing rate] equals T(surface)."""

    lhs: float
    rhs: float
    stderr: float
    z: float
    n_samples: int
    horizon: float
    seed: int
    rng: str
    n_fallback: int
    surface_kind: str
    orientation: int


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

    def work(lo):
        hi = min(lo + RATE_BLOCK, n_samples)
        block, _, fallback = _batch_rates(
            profile, liouville_sample(profile, n_samples, seed, lo, hi,
                                      columns=1),
            surface, horizon, return_tol, allow_fallback=True)
        rates[lo:hi] = block
        return exact_partial(block), int(fallback.sum())

    starts = range(0, n_samples, RATE_BLOCK)
    workers = min(max(1, int(threads)), len(starts))
    if workers == 1:
        blocks = list(map(work, starts))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(work, starts))
    n_fallback = sum(fallbacks for _, fallbacks in blocks)

    # the block sums are exact, so their correctly rounded total is the
    # math.fsum of all the rates whatever the blocks and threads
    mean = exact_total(partial for partial, _ in blocks) / n_samples
    lhs = vol * mean
    rhs = surface.contact_area
    if n_samples > 1:
        var = exact_total(
            exact_partial((rates[lo:lo + RATE_BLOCK] - mean) ** 2)
            for lo in starts) / (n_samples - 1)
    else:
        var = 0.0
    stderr = vol * math.sqrt(var / n_samples)
    diff = abs(lhs - rhs)
    if stderr == 0.0:
        z = 0.0 if diff <= 1e-9 * abs(rhs) else math.inf
    else:
        z = diff / stderr
    return ActionLinkingReport(float(lhs), float(rhs), float(stderr), float(z),
                               int(n_samples), float(horizon), int(seed),
                               RNG_NAME, n_fallback, surface.kind,
                               surface.orientation)


# ---------------------------------------------------------------------------
# closed curves on the 3-sphere and Gauss linking


# Rows per pass when a whole curve is normalized, measured or projected.
CURVE_CHUNK = 1 << 14


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
        norms and gaps are taken CURVE_CHUNK rows at a time."""
        if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 4:
            raise ValidationError("a closed curve needs at least 4 points in R^4")
        for rows in _row_chunks(len(pts)):
            norms = np.linalg.norm(pts[rows], axis=1)
            if np.any(norms <= 0):
                raise ValidationError("curve points must be away from the origin")
            pts[rows] /= norms[:, None]
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
# GAUSS_TILE segments of the longer one: 12 arrays of at most
# (GAUSS_BLOCK + 1) x (GAUSS_TILE + 1) doubles, 3.2 MB, allocated once
# per sum.  The min-distance scan uses MIN_DIST_BLOCK x MIN_DIST_TILE.
GAUSS_BLOCK = 64
GAUSS_TILE = 512
MIN_DIST_BLOCK = 64
MIN_DIST_TILE = 1024

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
    block by Q block and, within a block, P tile by P tile.  Every tile is
    computed by _gauss_tile in one workspace allocated here, so the memory
    is set by the tile, not by the curves.  Each tile's terms go to one
    np.sum and the tile sums are added in that fixed order, so the result
    is the same for any order the tiles are computed in.
    """
    if len(Q) > len(P):
        P, Q = Q, P
    rows = min(GAUSS_BLOCK, len(Q) - 1)
    cols = min(GAUSS_TILE, len(P) - 1)
    work = np.empty((12, (rows + 1) * (cols + 1)))
    total = 0.0
    for i in range(0, len(Q) - 1, GAUSS_BLOCK):
        q = Q[i:i + GAUSS_BLOCK + 1]
        for j in range(0, len(P) - 1, GAUSS_TILE):
            total += _gauss_tile(P[j:j + GAUSS_TILE + 1], q, work)
    return total / TWO_PI


def _gauss_tile(p: np.ndarray, q: np.ndarray, work: np.ndarray) -> float:
    """Sum of the Gauss terms of the segments of p against those of q.

    The tile holds the vertex grid D[i, j] = p[j] - q[i] as three
    component arrays; the corners of cell (i, j) are a = D[i, j],
    b = D[i+1, j], c = D[i+1, j+1] and d = D[i, j+1].  Each vertex norm is
    taken once, and each dot of neighbouring vertices once and shared by
    the two cells on either side of it: the vertical dots give ab and dc,
    the horizontal ones ad and bc, and the diagonal ca is per cell.  The
    arithmetic is that of the per-cell formula with np.cross, np.einsum
    and np.linalg.norm, operation for operation: norms sum in coordinate
    order, and a 3-term dot sums as (x + z) + y, the order in which
    np.einsum("ijk,ijk->ij") sums a length-3 axis with numpy 2.4 (x + y + z
    in sequence differs in the last bit and changes linking sums).  Every
    array is a contiguous prefix of a row of work, filled by ufuncs with
    out=, so the terms are one contiguous (rows, cols) array whose np.sum
    adds them as it adds the per-cell formula's.  tests/test_topology.py
    checks this against the einsum formula bit for bit.
    """
    h, w = len(q) - 1, len(p) - 1
    mul, add, sub = np.multiply, np.add, np.subtract

    def buf(k, r, c):
        return work[k, :r * c].reshape(r, c)

    D = [buf(k, h + 1, w + 1) for k in range(3)]
    norm, grid_tmp = buf(3, h + 1, w + 1), buf(4, h + 1, w + 1)
    vert, horiz = buf(5, h, w + 1), buf(6, h + 1, w)
    ca, triple, t2, d1, d2 = (buf(k, h, w) for k in range(7, 12))
    for Dk, pk, qk in zip(D, p.T, q.T):
        sub(pk[None, :], qk[:, None], out=Dk)
    mul(D[0], D[0], out=norm)
    for Dk in D[1:]:
        add(norm, mul(Dk, Dk, out=grid_tmp), out=norm)
    np.sqrt(norm, out=norm)

    def dot3(out, tmp, u, v):
        mul(u[0], v[0], out=out)
        add(out, mul(u[2], v[2], out=tmp), out=out)
        add(out, mul(u[1], v[1], out=tmp), out=out)

    dot3(vert, grid_tmp[:-1], [Dk[:-1] for Dk in D], [Dk[1:] for Dk in D])
    dot3(horiz, grid_tmp[:, :-1], [Dk[:, :-1] for Dk in D],
         [Dk[:, 1:] for Dk in D])
    t1 = buf(4, h, w)           # grid_tmp is free from here on
    a = [Dk[:-1, :-1] for Dk in D]
    b = [Dk[1:, :-1] for Dk in D]
    c = [Dk[1:, 1:] for Dk in D]
    dot3(ca, t1, c, a)

    def cross_bc(k, out):
        # component k of b x c in np.cross's operand order
        i, j = (k + 1) % 3, (k + 2) % 3
        sub(mul(b[i], c[j], out=out), mul(b[j], c[i], out=t2), out=out)
        return out

    # p = a . (b x c), summed as (x + z) + y
    mul(a[0], cross_bc(0, t1), out=triple)
    add(triple, mul(a[2], cross_bc(2, t1), out=t1), out=triple)
    add(triple, mul(a[1], cross_bc(1, t1), out=t1), out=triple)
    # einsum accumulates into a zeroed output and never returns -0.0;
    # the sign of a zero p decides arctan2(p, d) = +-pi when d < 0
    add(triple, 0.0, out=triple)
    an, bn = norm[:-1, :-1], norm[1:, :-1]
    cn, dn = norm[1:, 1:], norm[:-1, 1:]
    ab, dc = vert[:, :-1], vert[:, 1:]
    ad, bc = horiz[:-1], horiz[1:]
    # d1 = an * bn * cn + ab * cn + bc * an + ca * bn and
    # d2 = an * dn * cn + ad * cn + dc * an + ca * dn, left to right
    for d, m, x, y in ((d1, bn, ab, bc), (d2, dn, ad, dc)):
        mul(an, m, out=d)
        mul(d, cn, out=d)
        add(d, mul(x, cn, out=t1), out=d)
        add(d, mul(y, an, out=t1), out=d)
        add(d, mul(ca, m, out=t1), out=d)
        np.arctan2(triple, d, out=d)
    return float(np.sum(add(d1, d2, out=d1)))


def _min_distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Least distance between the rows of p1 and the rows of p2.

    Runs over tiles of MIN_DIST_BLOCK rows of the shorter array by
    MIN_DIST_TILE rows of the longer one, in one pair of buffers.  A
    shorter array of fewer rows, such as a pole, gets tiles as many times
    wider, so that every pass still covers MIN_DIST_BLOCK x MIN_DIST_TILE
    cells.  The squared distances are summed in coordinate order, as a
    sum over the last axis does; sqrt is monotone and correctly rounded,
    so one sqrt of the least square is the least of the distances,
    whatever the tiles.
    """
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    rows = min(MIN_DIST_BLOCK, len(p1))
    tile = MIN_DIST_TILE * (MIN_DIST_BLOCK // rows)
    cols = min(tile, len(p2))
    work = np.empty((2, rows * cols))
    min_sq = math.inf
    for i in range(0, len(p1), MIN_DIST_BLOCK):
        a = p1[i:i + MIN_DIST_BLOCK]
        for j in range(0, len(p2), tile):
            b = p2[j:j + tile]
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
    reported as the residual.  On a residual above the tolerance other
    poles and spherically subdivided copies of the curves are tried.
    """
    p1, p2 = curve1.points, curve2.points
    min_dist = _min_distance(p1, p2)
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
            raw = _gauss_linking_sum(P, Q)
            residual = abs(raw - round(raw))
            best_residual = min(best_residual, residual)
            if residual < LINK_RESIDUAL_TOL:
                return LinkResult(int(round(raw)), float(residual), float(raw),
                                  i, level)
    raise NumericalError(
        f"Gauss sum residual {best_residual:.3g} still above "
        f"{LINK_RESIDUAL_TOL:g} after pole changes and curve refinement")


def check_statistical(report: ActionLinkingReport, z_threshold: float = 4.0):
    """Raise StatisticalError when a verification z score exceeds the bound."""
    if not (report.z <= z_threshold):
        raise StatisticalError(
            f"action-linking z score {report.z:.3g} exceeds {z_threshold:g} "
            f"(lhs {report.lhs:.12g}, rhs {report.rhs:.12g}, "
            f"stderr {report.stderr:.3g})")
    return report
