"""Systolic invariants of toric boundary spheres.

On the boundary sphere of a toric domain, the induced flow preserves every
torus over an interior point of the boundary curve, plus the two circle
orbits over the intercepts (a, 0) and (0, b).  The tori carrying closed
orbits are the rational ones where the gradient of F points along a
coprime integer direction (p, q); orbits there have primitive period
pi*p/D1F = pi*q/D2F, and the pairing

    rho(orbit, orbit') = link * volume / (T * T')

reduces to the closed form 2A * D1F(C(t_low)) * D2F(C(t_high)) where
t_low <= t_high are the area parameters of the two tori (ordering along
the curve, with the x-intercept orbit at t = 0 and the y-intercept orbit
at t = 2A).  The systolic interval is the closure of pairing values over
distinct orbit pairs; on toric boundaries it is the range of the separable
function g(t, t^) = 2A * D1F(C(t)) * D2F(C(t^)) over the parameter square,
and adding the diagonal values (the limit of pairings of nearby orbits,
the "enlarged" interval) does not change it: with nonnegative partials,
D1F(t) * D2F(t) lies between min D1F * min D2F and max D1F * max D2F, and
since rounding is monotone its rounded product lies between the rounded
products of those extremes too, so the diagonal need not be scanned for
either end, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .numerics import (adaptive_gauss, bracketed_roots, combine_extremes,
                       grid_chunks, refine_extremum, scan_roots,
                       simplest_fraction)
from .profiles import HALF_PI, ToricProfile, grid_theta, positive_partials

TWO_PI_SQ = 2.0 * math.pi * math.pi
# tolerance of average_identity_residual's quadratures, relative to the
# value each should reach
AREA_QUAD_TOL = 1e-10
# the theta grid on which enumerate_tori locates tori
TORUS_GRID_N = 4096


@dataclass(frozen=True)
class RationalTorus:
    """Invariant torus whose gradient direction is the coprime pair (p, q).

    t is the area parameter of the torus on the boundary curve and period
    is the primitive period of the closed orbits foliating it.  continuum
    marks representatives of a one-parameter family (constant-gradient
    profiles, where every torus is a (p, q)-torus).
    """

    p: int
    q: int
    t: float
    period: float
    continuum: bool = False


@dataclass(frozen=True)
class AxisOrbit:
    """One of the two circle orbits over the intercepts.

    axis 'x' is the orbit over (a, 0) (t = 0, period pi*a), axis 'y' is the
    orbit over (0, b) (t = 2A, period pi*b).  For linking bookkeeping they
    behave like degenerate (1, 0)- and (0, 1)-tori.
    """

    axis: str
    t: float
    period: float

    @property
    def p(self) -> int:
        return 1 if self.axis == "x" else 0

    @property
    def q(self) -> int:
        return 0 if self.axis == "x" else 1


def axis_orbit(profile: ToricProfile, axis: str) -> AxisOrbit:
    ic = profile.intercepts()
    if axis == "x":
        return AxisOrbit("x", 0.0, math.pi * ic.a)
    if axis == "y":
        return AxisOrbit("y", profile.two_area, math.pi * ic.b)
    raise ValidationError(f"axis must be 'x' or 'y', got {axis!r}")


@dataclass(frozen=True)
class Witness:
    """An extremal parameter value with the class and period of the
    nearest enumerated torus (None when there is no torus)."""

    extremum: str          # 'lo' or 'hi'
    slot: str              # 'd1' or 'd2'
    t: float
    value: float           # the extremal partial-derivative value
    p: int | None
    q: int | None
    period: float | None


@dataclass(frozen=True)
class SystolicReport:
    volume: float
    interval: tuple
    enlarged_interval: tuple
    norm: float
    contains_one: bool
    witnesses: tuple
    tori: tuple
    grid_n: int
    pairing_values: dict | None   # None when no two tori are distinct


def require_positive_partials(profile: ToricProfile, grid):
    """Systolic formulas assume D1F, D2F >= 0 along the boundary; refuse
    profiles violating that (profiles.positive_partials on grid =
    profile.grid_partials(n)) and report where."""
    m1, M1, m2, M2 = profile.partials_range(grid)
    if not positive_partials(m1, M1, m2, M2):
        raise ValidationError(
            "profile has negative partial derivatives along the boundary "
            f"(min D1F = {m1:.3g}, min D2F = {m2:.3g}); systolic invariants "
            "are only computed for profiles with nonnegative partials")


def contact_volume(profile: ToricProfile) -> float:
    """Contact volume of the boundary sphere, 2 * pi^2 * A."""
    return TWO_PI_SQ * profile.quadrant_area()


def pairing_orbit_orbit(profile: ToricProfile, orbit1, orbit2) -> float:
    """Pairing of two geometrically distinct orbits from the closed form.

    Orbits are RationalTorus or AxisOrbit values.  The orbit with the
    smaller area parameter takes the D1F slot, the other the D2F slot;
    this is the ordering of the two solid tori the dividing torus cuts.
    Orbits whose t differ by at most 1e-12 * 2A, at any scale, are not
    distinct.
    """
    t1, t2 = float(orbit1.t), float(orbit2.t)
    if abs(t1 - t2) <= 1e-12 * profile.two_area:
        raise ValidationError("pairing requires geometrically distinct orbits "
                              f"(both at area parameter {t1:.12g})")
    t_lo, t_hi = min(t1, t2), max(t1, t2)
    _, _, d1, _ = profile.boundary_arrays(t_lo)
    _, _, _, d2 = profile.boundary_arrays(t_hi)
    return float(2.0 * profile.quadrant_area() * d1 * d2)


def _coprime_classes(max_pq: int):
    """Coprime pairs 1 <= p, q <= max_pq, p-major."""
    p, q = np.divmod(np.arange(max_pq * max_pq), max_pq)
    p, q = p + 1, q + 1
    keep = np.gcd(p, q) == 1
    return p[keep], q[keep]


def flat_class(d1g, d2g, max_pq: int):
    """The class (p, q), 1 <= p, q <= max_pq, along which the gradient
    points at every node of a theta grid, where h = q*D1F - p*D2F
    vanishes identically (the constant-gradient test), or None.

    A class passes at a node when |h| <= 1e-12 (p + q) scale, for scale =
    max |D1F| + max |D2F|.  Two classes passing at one node even at twice
    that tolerance, c = 2e-12 scale, have |q p' - p q'| >= 1, which bounds
    |D1F| + |D2F| there by 8 c max_pq^2; at the node where it is largest,
    at least scale / 2, so while max_pq < 1.7e5 at most one class passes
    there: the simplest fraction q/p (numerics.simplest_fraction) of the
    exact range [(D2F - c)/(D1F + c), (D2F + c)/(D1F - c)] that passing
    at 2c allows, which the whole grid then confirms.  A partial at most c
    there leaves |h| near scale / 2 for every class, as x D1F + y D2F = 1
    keeps the partials from both being negative.
    """
    if max_pq < 1:
        raise ValidationError("max_pq must be at least 1")
    scale = float(np.max(np.abs(d1g)) + np.max(np.abs(d2g)))
    k = int(np.argmax(np.abs(d1g) + np.abs(d2g)))
    # D1F, D2F and c there, exactly, as numerators over one power of two
    ratios = [x.as_integer_ratio()
              for x in (float(d1g[k]), float(d2g[k]), 2e-12 * scale)]
    den = max(m for _, m in ratios)
    d1, d2, c = (n * (den // m) for n, m in ratios)
    if not (d1 > c and d2 > c):
        return None
    q, p = simplest_fraction((d2 - c, d1 + c), (d2 + c, d1 - c))
    tol = 1e-12 * (p + q) * scale
    if max(p, q) <= max_pq and np.max(np.abs(q * d1g - p * d2g)) <= tol:
        return p, q
    return None


def _crossings(d1g, d2g, cell, p, q):
    """The lanes i where h = q*D1F - p*D2F changes sign strictly across
    grid cell[i], and h at both ends of those cells."""
    h_lo = q * d1g[cell] - p * d2g[cell]
    h_hi = q * d1g[cell + 1] - p * d2g[cell + 1]
    i = np.flatnonzero(h_lo * h_hi < 0)
    return i, h_lo[i], h_hi[i]


def torus_roots(profile: ToricProfile, theta, d1g, d2g, cell, p, q):
    """The (p[i], q[i])-tori in grid cells [theta[cell[i]],
    theta[cell[i] + 1]], as (i, t, period) of the lanes i where
    h = q*D1F - p*D2F changes sign strictly across the cell.

    d1g, d2g are the gradient on the grid theta.  All roots are refined
    together by bracketed_roots, whose lanes do not depend on each
    other, so a root has the same bits in any batch.
    """
    i, h_lo, h_hi = _crossings(d1g, d2g, cell, p, q)
    p, q, cell = p[i], q[i], cell[i]

    def h(th, pk, qk):
        d1, d2 = profile.gradient_theta(th)
        return qk * d1 - pk * d2

    roots = bracketed_roots(h, theta[cell], theta[cell + 1], h_lo, h_hi,
                            args=(p, q))
    d1r, _ = profile.gradient_theta(roots)
    return i, profile.t_of_theta(roots), math.pi * p / d1r


def enumerate_tori(profile: ToricProfile, max_pq: int,
                   continuum_samples: int = 65):
    """All rational tori with coprime 1 <= p, q and max(p, q) <= max_pq.

    A (p, q)-torus sits where h = q*D1F - p*D2F vanishes on the boundary.
    All classes are found in one pass over a theta grid of TORUS_GRID_N
    nodes (tori_on_grid).

    When h vanishes identically for a class (flat_class: constant-
    gradient profiles with a commensurable direction), the family is a
    continuum and continuum_samples equally spaced representatives are
    returned with continuum=True.  Tori are sorted by (max(p, q), p, t).
    """
    return tori_on_grid(profile, max_pq,
                        profile.grid_partials(TORUS_GRID_N), continuum_samples)


def tori_on_grid(profile: ToricProfile, max_pq: int, grid,
                 continuum_samples: int = 65):
    """enumerate_tori on grid = (theta, D1F, D2F), a theta grid with the
    gradient evaluated on it.

    A cell can hold a root of class (p, q) only if the class direction
    atan2(q, p) lies between the gradient angles atan2(D2F, D1F) at its
    ends.  The Euler identity x*D1F + y*D2F = 1 keeps that angle in
    (-pi/2, pi), where the order of angles is the sign of h, so one
    searchsorted of the grid angles in the sorted class directions
    (widened by one class on each side against rounding) shortlists the
    candidates.  The shortlist and its strict sign test are built
    GRID_CHUNK cells at a time, so only the (cell, class) pairs where h
    changes sign strictly outlive a chunk; all their roots are then
    refined at once (torus_roots), in the order of the cells.  Several
    roots per class may exist for non-convex profiles.
    """
    theta, d1g, d2g = grid
    p, q = _coprime_classes(max_pq)
    pq = flat_class(d1g, d2g, max_pq)
    flat = np.flatnonzero((p == pq[0]) & (q == pq[1])) if pq else []

    directions = np.arctan2(q, p)
    order = np.argsort(directions)
    cells, classes = [], []
    for s in grid_chunks(len(theta) - 1):
        angle = np.arctan2(d2g[s.start:s.stop + 1], d1g[s.start:s.stop + 1])
        lo = np.minimum(angle[:-1], angle[1:])
        hi = np.maximum(angle[:-1], angle[1:])
        first = np.maximum(np.searchsorted(directions[order], lo) - 1, 0)
        stop = np.minimum(
            np.searchsorted(directions[order], hi, side="right") + 1,
            len(order))
        counts = stop - first
        local = np.repeat(np.arange(len(counts)), counts)
        offset = (np.arange(len(local))
                  - np.repeat(np.cumsum(counts) - counts, counts))
        cls = order[first[local] + offset]
        cell = local + s.start
        shaped = ~np.isin(cls, flat)
        cls, cell = cls[shaped], cell[shaped]
        i, _, _ = _crossings(d1g, d2g, cell, p[cls], q[cls])
        cells.append(cell[i])
        classes.append(cls[i])
    cls = np.concatenate(classes)
    _, t, period = torus_roots(profile, theta, d1g, d2g,
                               np.concatenate(cells), p[cls], q[cls])
    rp, rq = p[cls], q[cls]

    n_rep = continuum_samples
    ts = np.linspace(0.0, profile.two_area, n_rep + 2)[1:-1]
    p_all = np.concatenate([rp, np.repeat(p[flat], n_rep)])
    q_all = np.concatenate([rq, np.repeat(q[flat], n_rep)])
    t_all = np.concatenate([t, np.tile(ts, len(flat))])
    period_all = np.concatenate(
        [period, np.repeat(math.pi * p[flat] / float(d1g[0]), n_rep)])
    continuum = np.arange(len(t_all)) >= len(t)
    idx = np.lexsort((q_all, t_all, p_all, np.maximum(p_all, q_all)))
    return [RationalTorus(*row) for row in zip(
        p_all[idx].tolist(), q_all[idx].tolist(), t_all[idx].tolist(),
        period_all[idx].tolist(), continuum[idx].tolist())]


# nodes of the dense grid behind the enlarged interval, and the stride of
# the first pass over it
DENSE_N = 1 << 19
DENSE_STRIDE = 64


def _dense_extremes(profile: ToricProfile, n: int):
    """(min, max) of D1F and of D2F over the nodes of np.linspace(0, pi/2,
    n), from a strided pass and windows instead of all n nodes.

    The first pass takes every DENSE_STRIDE-th node and the last.  Every
    node within one stride of a strided local minimum or maximum of D1F
    or D2F, or of a kink angle, is then evaluated, GRID_CHUNK nodes at a
    time.  A node is computed from its index (grid_theta), so the n-node
    grid is never built.  Strided nodes equal to both neighbours (a
    plateau, such as a constant gradient) open no window.  The result
    equals the scan of all n nodes when each extreme lies in a basin
    wider than two strides, or within a kink window: the strided minimum
    of such a basin is one of the two strided nodes around the dense one.
    The diagonal D1F*D2F needs no windows: rounded, it lies between the
    rounded products of these extremes (module docstring).
    """
    last = n - 1
    strided = np.r_[np.arange(0, last, DENSE_STRIDE), last]
    d1s, d2s = profile.gradient_theta(grid_theta(strided, n))
    centres = [np.rint(profile.kink_angles() * (last / HALF_PI)).astype(int)]
    for f in (d1s, d2s):
        for g in (f, -f):
            left = np.r_[np.inf, g[:-1]]
            right = np.r_[g[1:], np.inf]
            low = (g <= left) & (g <= right) & ~((g == left) & (g == right))
            centres.append(strided[low])
    # windows of equal width around sorted centres: a node that is not
    # above every node before it lies in the previous window
    offsets = np.arange(-DENSE_STRIDE, DENSE_STRIDE + 1)
    nodes = np.clip(np.sort(np.concatenate(centres))[:, None] + offsets,
                    0, last).ravel()
    window = nodes[nodes > np.maximum.accumulate(np.r_[-1, nodes[:-1]])]
    return combine_extremes(chain([(d1s, d2s)], (
        profile.gradient_theta(grid_theta(window[s], n))
        for s in grid_chunks(len(window)))))


def systolic_interval(profile: ToricProfile, grid_n: int = 4096,
                      max_pq_witness: int = 12) -> SystolicReport:
    """Systolic interval, norm and enlarged interval of the boundary sphere.

    g(t, t^) = 2A * D1F(C(t)) * D2F(C(t^)) is separable with nonnegative
    factors, so its extrema over the parameter square are products of 1D
    extrema; those are located by a grid scan refined by golden-section
    search, and compared with the values at the profile's kink angles
    (spline knots).  The enlarged interval, with the diagonal values
    g(t, t), is recomputed independently from the extremes of D1F and D2F
    over the nodes of a dense grid of max(grid_n, DENSE_N) angles, and
    reported separately: d1 * d2 at a node lies between m1 * m2 and
    M1 * M2, and rounding is monotone, so the rounded diagonal cannot
    widen either rounded end.  Below DENSE_N the extremes come from every
    DENSE_STRIDE-th node plus the nodes within one stride of each strided
    local extremum and of each kink angle; they equal a scan of every
    node when each extreme lies in a basin wider than two strides or
    within a kink window.

    The partials on the grid_n-node grid are evaluated once
    (ToricProfile.grid_partials, GRID_CHUNK nodes at a time) and serve
    the positivity check, the extrema, the torus search (tori_on_grid)
    and, from DENSE_N nodes on, the enlarged interval, so only the grid
    and its two partials grow with grid_n.

    pairing_values summarizes the pairings of the first 40 non-continuum
    tori with max(p, q) <= max_pq_witness (continuum representatives when
    there are none) over their geometrically distinct pairs, those whose
    t differ by more than 1e-9 * 2A: D1F and D2F are evaluated once at
    every torus, and each pair takes the closed form of
    pairing_orbit_orbit from those arrays.
    """
    if grid_n < 8:
        raise ValidationError("grid_n must be at least 8")
    grid = profile.grid_partials(grid_n)
    require_positive_partials(profile, grid)
    theta, d1g, d2g = grid
    two_a = profile.two_area

    # the partials have kinks where r'' jumps; an extremum on a kink can
    # fall between scan nodes, so the kink values compete with the
    # refined grid extrema
    kinks = profile.kink_angles()
    d1k, d2k = profile.gradient_theta(kinks)

    def extremum(slot, fs, fk, mode):
        th, val = refine_extremum(
            lambda x: float(profile.gradient_theta(x)[slot]), theta, fs, mode)
        sign = 1.0 if mode == "min" else -1.0
        if len(kinks):
            i = int(np.argmin(sign * fk))
            if sign * fk[i] < sign * val:
                return float(kinks[i]), float(fk[i])
        return th, val

    th_m1, m1 = extremum(0, d1g, d1k, "min")
    th_M1, M1 = extremum(0, d1g, d1k, "max")
    th_m2, m2 = extremum(1, d2g, d2k, "min")
    th_M2, M2 = extremum(1, d2g, d2k, "max")
    lo = two_a * m1 * m2
    hi = two_a * M1 * M2

    # independent route: the factor extremes over a dense grid of
    # max(grid_n, DENSE_N) nodes, whose products bound the diagonal's.
    # Kinks of spline-backed partials make grid extrema first-order
    # accurate, hence the much finer grid here.  From DENSE_N nodes on it
    # is the grid above; below, _dense_extremes finds the extremes of all
    # its nodes from a strided pass and windows (its docstring says when).
    m1d, M1d, m2d, M2d = (combine_extremes([(d1g, d2g)]) if grid_n >= DENSE_N
                          else _dense_extremes(profile, DENSE_N))
    enlarged_lo = two_a * (m1d * m2d)
    enlarged_hi = two_a * (M1d * M2d)

    tol = 1e-9
    contains_one = (lo - tol <= 1.0 <= hi + tol)
    tori = tuple(tori_on_grid(profile, max_pq_witness, grid))
    witnesses = []
    for ext, slot, th_star, val in (("lo", "d1", th_m1, m1),
                                    ("lo", "d2", th_m2, m2),
                                    ("hi", "d1", th_M1, M1),
                                    ("hi", "d2", th_M2, M2)):
        t_star = float(profile.t_of_theta(th_star))
        near = min(tori, key=lambda T: abs(T.t - t_star), default=None)
        witnesses.append(Witness(ext, slot, t_star, val, *(
            (near.p, near.q, near.period) if near else (None, None, None))))

    # the torus with the smaller t takes the D1F slot (pairing_orbit_orbit)
    pairing_values = None
    reps = ([T for T in tori if not T.continuum] or list(tori))[:40]
    ts = np.array([T.t for T in reps])
    i, j = np.triu_indices(len(reps), 1)
    distinct = np.abs(ts[i] - ts[j]) > 1e-9 * two_a
    i, j = i[distinct], j[distinct]
    if len(i):
        _, _, d1, d2 = profile.boundary_arrays(ts)
        low = np.where(ts[i] < ts[j], i, j)
        high = np.where(ts[i] < ts[j], j, i)
        vals = 2.0 * profile.quadrant_area() * d1[low] * d2[high]
        pairing_values = {"count": len(vals), "min": float(vals.min()),
                          "max": float(vals.max())}

    return SystolicReport(
        volume=contact_volume(profile),
        interval=(float(lo), float(hi)),
        enlarged_interval=(float(enlarged_lo), float(enlarged_hi)),
        norm=float(hi - lo),
        contains_one=bool(contains_one),
        witnesses=tuple(witnesses),
        tori=tori,
        grid_n=grid_n,
        pairing_values=pairing_values,
    )


def average_identity_residual(profile: ToricProfile) -> float:
    """Relative residual of the boundary-average identity.

    The double integral of D1F(C(t1)) * D2F(C(t2)) over the parameter
    square factorizes, and each factor is a total derivative along the
    curve: the integrals equal b and a.  Returns |I1 * I2 - a * b| / (a b)
    with the factors evaluated by adaptive quadrature in the polar angle,
    each to AREA_QUAD_TOL relative to the value it should reach (b for
    I1, a for I2), so that the residual does not depend on the size of
    the profile.
    """
    rate = profile._sector_rate
    ic = profile.intercepts()
    i1, _ = adaptive_gauss(lambda th: profile.gradient_theta(th)[0] * rate(th),
                           0.0, HALF_PI, tol=AREA_QUAD_TOL * ic.b)
    i2, _ = adaptive_gauss(lambda th: profile.gradient_theta(th)[1] * rate(th),
                           0.0, HALF_PI, tol=AREA_QUAD_TOL * ic.a)
    return float(abs(i1 * i2 - ic.a * ic.b) / (ic.a * ic.b))


@dataclass(frozen=True)
class WitnessMeasure:
    """Liouville fractions of tori paired above/below 1 with an axis disk."""

    fraction_ge: float   # measure of {rho(torus, disk) >= 1 - epsilon}
    fraction_le: float   # measure of {rho(torus, disk) <= 1 + epsilon}
    epsilon: float
    axis: str


def _superlevel_fraction(profile: ToricProfile, values_of_theta, level: float,
                         grid_n: int = 8192) -> float:
    """Fraction of the area-parameter length where values >= level.

    The Liouville measure is uniform in the area parameter, so set sizes
    are differences of t at the level-crossing angles.
    """
    theta = np.linspace(0.0, HALF_PI, grid_n)
    f = np.asarray(values_of_theta(theta), float) - level
    nodes, cells = scan_roots(f)
    crossings = bracketed_roots(lambda th: values_of_theta(th) - level,
                                theta[cells], theta[cells + 1],
                                f[cells], f[cells + 1])
    roots = np.concatenate([theta[nodes], crossings]).tolist()
    edges = [0.0] + sorted(roots) + [HALF_PI]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        midval = float(values_of_theta(0.5 * (a + b))) - level
        if midval >= 0:
            total += float(profile.t_of_theta(b) - profile.t_of_theta(a))
    return total / profile.two_area


def witness_measure(profile: ToricProfile, axis: str, epsilon: float) -> WitnessMeasure:
    """Normalized Liouville measure of the tori paired near 1 with a disk.

    The disk is the one bounded by the axis orbit; for the y-axis disk the
    pairing of the torus at parameter t is 2A * D1F(C(t)) * D2F(0, b), for
    the x-axis disk the roles of the partials swap.  Both the superlevel
    set {rho >= 1 - epsilon} and the sublevel set {rho <= 1 + epsilon} are
    measured as fractions of the parameter length.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError("epsilon must lie in (0, 1)")
    require_positive_partials(profile, profile.grid_partials(4096))
    two_a = profile.two_area
    ic = profile.intercepts()
    if axis == "y":
        const = ic.d2_at_b

        def rho_of_theta(th):
            return two_a * profile.gradient_theta(th)[0] * const
    elif axis == "x":
        const = ic.d1_at_a

        def rho_of_theta(th):
            return two_a * profile.gradient_theta(th)[1] * const
    else:
        raise ValidationError(f"axis must be 'x' or 'y', got {axis!r}")

    frac_ge = _superlevel_fraction(profile, rho_of_theta, 1.0 - epsilon)
    frac_le = _superlevel_fraction(profile, lambda th: -np.asarray(rho_of_theta(th)),
                                   -(1.0 + epsilon))
    return WitnessMeasure(float(frac_ge), float(frac_le), float(epsilon), axis)
