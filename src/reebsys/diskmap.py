"""Hamiltonian disk maps, actions, the Calabi invariant and suspensions.

A time-periodic Hamiltonian H(t, z) on the closed unit disk, with its
vector field tangent to the boundary circle, generates an isotopy whose
time-one map h is an area-preserving disk map.  With the primitive
eta = (x dy - y dx)/2 of the area form, each point carries the action

    sigma(z) = integral of eta along the time-[0,1] arc
             + integral of H along the arc,

whose disk average against area/pi is the Calabi invariant.  A k-periodic
point of h accumulates the action sigma_k(z) over its orbit and carries
the mean action sigma_k(z)/k, independent of the period used.

Suspending by a constant c with H + c > 0 and h - s h' + c > 0 turns
R/Z x D into a flow whose closed orbits through k-periodic points have
period sigma_k(z) + k c, cross the page {t = const} exactly k times, and
whose total volume is pi*(CAL + c).  The pairing of such an orbit with the page,
k * volume / (period * pi), compares the mean action against the Calabi
invariant; this module evaluates both sides of that comparison.

Every function here takes a radial Hamiltonian H(z) = h(|z|^2).  Its flow
rotates each circle |z|^2 = s rigidly, so trajectories are exact
rotations, the action has the closed form h(s) - s h'(s), and periodic
points are the circles whose rotation angle is a rational multiple of
2 pi.  No differential equation is integrated, and no quadrature runs
along an orbit: the action integrand eta(X_H) + H is constant on each
circle, so actions and suspension periods are values at a point.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import _leggauss, bracketed_roots, scan_roots
from .reports import validate_input
from .topology import signed_sweep_count

TWO_PI = 2.0 * math.pi
RESONANCE_SCAN_N = 256    # nodes of the rotation-rate scan for resonant circles


# ---------------------------------------------------------------------------
# Hamiltonians


class RadialHamiltonian:
    """H(z) = h(|z|^2) for a smooth profile h on [0, 1].

    The flow rotates each circle |z|^2 = s rigidly at angular rate
    -2 h'(s), so trajectories, actions and periodic points are explicit.
    """

    def __init__(self, coeffs):
        coeffs = [float(c) for c in np.atleast_1d(coeffs)]
        self._poly = np.polynomial.Polynomial(coeffs)
        self._dpoly = self._poly.deriv()
        self.coeffs = tuple(coeffs)
        # rotation rates, actions, the Calabi invariant and the suspension
        # volume pi (CAL + c) are all bounded by 2 pi (|h| + 2 |h'|)
        s = np.linspace(0.0, 1.0, 4097)
        with np.errstate(all="ignore"):
            bound = TWO_PI * (np.abs(self.h(s)) + 2.0 * np.abs(self.h_prime(s)))
        if not np.all(np.isfinite(bound)):
            raise ValidationError(
                f"radial Hamiltonian coefficients {coeffs!r} make h or "
                "h' overflow on [0, 1]")

    def h(self, s):
        return self._poly(np.asarray(s, float))

    def h_prime(self, s):
        return self._dpoly(np.asarray(s, float))

    def rotation_rate(self, s):
        """Angular speed of the circle |z|^2 = s."""
        return -2.0 * self.h_prime(s)

    def boundary_rotation_number(self) -> float:
        """Rotation angle of the time-one map on the boundary circle; + 0.0
        makes it +0.0, not -0.0, where h'(1) = 0."""
        return float(self.rotation_rate(1.0)) + 0.0

    def boundary_flags(self):
        s = np.linspace(0.9, 1.0, 64)
        zero = abs(float(self.h(1.0))) < 1e-9
        rigid = float(np.max(np.abs(self.h_prime(s) - self.h_prime(1.0)))) < 1e-9
        return {"boundary_zero": zero, "rigid_near_boundary": rigid}

    def min_value(self) -> float:
        s = np.linspace(0.0, 1.0, 4097)
        return float(self.h(s).min())

    def min_action(self) -> float:
        """Minimum over [0, 1] of the action h(s) - s h'(s) of a circle."""
        s = np.linspace(0.0, 1.0, 4097)
        return float((self.h(s) - s * self.h_prime(s)).min())

    def to_json(self):
        return {"kind": "radial", "h": {"type": "poly", "coeffs": list(self.coeffs)}}


def hamiltonian_from_json(obj) -> RadialHamiltonian:
    """Build a radial Hamiltonian from {"kind": "radial", "h": {"type":
    "poly", "coeffs": [...]}}, the coefficients of h in increasing degree,
    checked against the hamiltonian record of records.v1.json."""
    return RadialHamiltonian(validate_input("hamiltonian", obj)["h"]["coeffs"])


# ---------------------------------------------------------------------------
# flow


def _disk_points(z):
    """(points as an (n, 2) array, whether z was a single point); points
    outside the closed unit disk are rejected."""
    z = np.asarray(z, float)
    zz = np.atleast_2d(z)
    if np.any(np.hypot(zz[..., 0], zz[..., 1]) > 1.0 + 1e-9):
        raise ValidationError("points must lie in the closed unit disk")
    return zz, z.ndim == 1


def flow_map(H, z, t0: float, t1: float):
    """Advance points of the disk from time t0 to t1 along the isotopy.

    z is a point (x, y) or an (..., 2) array.  The circle |z|^2 = s turns
    by the exact angle -2 h'(s) (t1 - t0).
    """
    zz, scalar = _disk_points(z)
    s = zz[..., 0] ** 2 + zz[..., 1] ** 2
    ang = H.rotation_rate(s) * (t1 - t0)
    c, sn = np.cos(ang), np.sin(ang)
    out = np.stack([c * zz[..., 0] - sn * zz[..., 1],
                    sn * zz[..., 0] + c * zz[..., 1]], axis=-1)
    return out[0] if scalar else out


def action(H, z):
    """Action of a point: line integral of eta along its time-one arc plus
    the time integral of H along the arc.

    The integrand eta(X_H) + H, with X_H = (dH/dy, -dH/dx), depends on
    |z|^2 only, so it is constant along the rotation and the integral over
    unit time is its value at z.  It equals h(s) - s h'(s), which
    radial_action_exact evaluates by the other route.
    """
    zz, scalar = _disk_points(z)
    x, y = zz[..., 0], zz[..., 1]
    s = x ** 2 + y ** 2
    hp = H.h_prime(s)
    xdot, ydot = 2.0 * y * hp, -2.0 * x * hp
    total = 0.5 * (x * ydot - y * xdot) + H.h(s)
    return float(total[0]) if scalar else total


def radial_action_exact(H: RadialHamiltonian, s):
    """Closed form h(s) - s h'(s) of the action on the circle |z|^2 = s."""
    s = np.asarray(s, float)
    return H.h(s) - s * H.h_prime(s)


# coefficient of the exact form d(x y) added to eta to test that
# orbit actions and the Calabi invariant do not depend on the primitive
SHIFT_SCALE = 0.37


def calabi(H, quad_n: int = 64) -> float:
    """Calabi invariant: the action averaged over the disk area over pi,
    i.e. the closed-form action integrated over s = radius^2 in [0, 1] by
    Gauss-Legendre quadrature."""
    x, w = _leggauss(quad_n)
    return float(np.dot(0.5 * w, radial_action_exact(H, 0.5 * (x + 1.0))))


def calabi_eta_residual(H, quad_n: int = 32) -> float:
    """|Calabi recomputed with a shifted primitive - Calabi|.

    The shift adds SHIFT_SCALE (x'y' - xy) to the action of each point z,
    z' its image, and nothing else, so the residual is the disk average of
    that boundary term: Gauss-Legendre in s = radius^2 times the mean over
    quad_n equally spaced angles.  It vanishes because the map is area
    preserving.
    """
    x, w = _leggauss(quad_n)
    r = np.sqrt(0.5 * (x + 1.0))[:, None]
    ang = np.linspace(0.0, TWO_PI, quad_n, endpoint=False)
    pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    ends = flow_map(H, pts, 0.0, 1.0)
    shift = ends[..., 0] * ends[..., 1] - pts[..., 0] * pts[..., 1]
    return abs(SHIFT_SCALE * float(np.dot(0.5 * w, shift.mean(axis=1))))


# ---------------------------------------------------------------------------
# periodic points


@dataclass(frozen=True)
class PeriodicPoint:
    z: tuple
    k: int
    action_k: float       # accumulated action over the orbit
    mean_action: float    # action_k / k, independent of the period used
    s: float              # radius^2 of the invariant circle
    resonance: int | None   # net turns over k map iterations; None at the center


def _rotation_scan(H):
    """The resonance scan grid, the rotation rate on it and its range."""
    s_grid = np.linspace(0.0, 1.0, RESONANCE_SCAN_N)
    omega = H.rotation_rate(s_grid)
    return s_grid, omega, float(omega.min()), float(omega.max())


def resonance_count(H, k_max: int) -> float:
    """Number of resonances omega(s) = 2 pi m / k that _resonant_circles
    scans up to period k_max, before any scan runs.

    For each k it scans m from floor(k lo / 2 pi) - 1 to ceil(k hi / 2 pi)
    + 1, where [lo, hi] is the range of omega on the scan grid, skipping
    the m not prime to k; the count includes those, so it bounds the scans
    from above.  A range wider than floats count exactly (2^53) gives
    infinity.
    """
    _, _, lo, hi = _rotation_scan(H)
    count = 0
    for k in range(1, k_max + 1):
        top, bottom = k * hi / TWO_PI, k * lo / TWO_PI
        if not top - bottom < 2.0 ** 53:
            return math.inf
        count += math.ceil(top) - math.floor(bottom) + 3
    return count


def _resonant_circles(H, k_max: int):
    """Yield (s, k, m) for every root s > 0 of the rotation-resonance
    equation omega(s) = 2 pi m / k, k <= k_max with m / k in lowest terms,
    in scan order.  A root on a scan node can be yielded twice."""
    s_grid, omega, lo, hi = _rotation_scan(H)
    # scan every resonance omega(s) = 2 pi m / k, then refine all the
    # bracketed roots in one batch
    resonances, cells, targets = [], [], []
    for k in range(1, k_max + 1):
        m_lo = math.floor(k * lo / TWO_PI) - 1
        m_hi = math.ceil(k * hi / TWO_PI) + 1
        for m in range(m_lo, m_hi + 1):
            if k > 1 and math.gcd(abs(m), k) != 1:
                continue                     # primitive period divides k
            target = TWO_PI * m / k
            f = omega - target
            roots = []
            if abs(f[0]) < 1e-12:
                roots.append(0.0)
            if abs(f[-1]) < 1e-12:
                roots.append(1.0)
            nodes, inside = scan_roots(f)
            roots += s_grid[nodes].tolist()
            resonances.append((k, m, roots, len(inside)))
            cells.append(inside)
            targets.append(np.full(len(inside), target))
    cells, targets = np.concatenate(cells), np.concatenate(targets)
    f_lo = omega[cells] - targets
    f_hi = omega[cells + 1] - targets
    crossings = bracketed_roots(
        lambda s, target: H.rotation_rate(s) - target, s_grid[cells],
        s_grid[cells + 1], f_lo, f_hi, xtol=1e-14,
        rtol=4 * np.finfo(float).eps, args=(targets,)).tolist()
    start = 0
    for k, m, roots, n_inside in resonances:
        for s_star in roots + crossings[start:start + n_inside]:
            if s_star > 1e-14:               # the center is listed separately
                yield s_star, k, m
        start += n_inside


def periodic_points(H, k_max: int):
    """Periodic points of the time-one map up to period k_max.

    Solves the rotation-resonance equation omega(s) = 2 pi m / k per
    invariant circle and returns one representative per circle plus the
    center, with accumulated and mean actions.
    """
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    found, seen = [], {}                     # seen: k -> sorted s of found
    for s_star, k, m in _resonant_circles(H, k_max):
        near = seen.setdefault(k, [])
        # some kept s lies within 1e-10 of s_star iff a sorted neighbour does
        i = bisect.bisect_left(near, s_star)
        if not any(abs(s_star - near[j]) < 1e-10
                   for j in (i - 1, i) if 0 <= j < len(near)):
            near.insert(i, s_star)
            found.append((s_star, k, m))
    sig = radial_action_exact(H, [0.0] + [f[0] for f in found]).tolist()
    pts = [PeriodicPoint((0.0, 0.0), 1, sig[0], sig[0], s=0.0, resonance=None)]
    pts += [PeriodicPoint((math.sqrt(s_star), 0.0), k, k * sg, sg, s=s_star,
                          resonance=m)
            for (s_star, k, m), sg in zip(found, sig[1:])]
    pts.sort(key=lambda P: (P.k, P.s))
    return pts


# ---------------------------------------------------------------------------
# suspension dictionary


@dataclass(frozen=True)
class DictionaryRow:
    z: tuple
    k: int
    action_k: float
    mean_action: float
    period: float             # k (action(z) + c), from the action integrand
    period_residual: float    # |period - (action_k + k c)|
    page_crossings: int
    pairing: float            # crossings * volume / (period * page area)
    pairing_ge: bool          # pairing >= 1 - epsilon
    mean_action_le: bool      # mean action <= CAL/(1-eps) + eps c/(1-eps)
    equivalence_ok: bool


@dataclass(frozen=True)
class SuspensionReport:
    c: float
    calabi: float
    volume: float             # pi * (CAL + c)
    volume_quadrature: float  # independent volume integral
    volume_residual: float
    page_area: float
    epsilon: float
    rows: tuple
    boundary_flags: dict = field(default_factory=dict)


def default_suspension_constant(H) -> float:
    """Smallest convenient c with H + c > 0 and h - s h' + c > 0:
    max(0, -min H, -min(h - s h')) + 1."""
    return max(0.0, -H.min_value(), -H.min_action()) + 1.0


def suspension_period_integral(H, z, k, c: float):
    """Period of the closed suspension orbit through (time 0, z): the line
    integral of (H + c) dt + eta along k passes of the isotopy arc.

    The integrand is constant along the orbit, so each pass contributes
    action(z) + c.  z may be an (n, 2) array with k an array of n periods.
    """
    return k * (action(H, z) + c)


def suspension_volume_quadrature(H, c: float, quad_n: int = 64) -> float:
    """Total volume of the suspension by direct quadrature.

    The density against dt and the area form is (H + c) - (x Hx + y Hy)/2,
    which is h(s) + c - s h'(s) on the circle |z|^2 = s; it is integrated
    over s by Gauss-Legendre quadrature.
    """
    x, w = _leggauss(quad_n)
    s_nodes = 0.5 * (x + 1.0)
    integ = H.h(s_nodes) + c - s_nodes * H.h_prime(s_nodes)
    return math.pi * float(np.dot(0.5 * w, integ))


def suspension_dictionary(H, c: float | None = None, k_max: int = 3,
                          epsilon: float = 0.1,
                          quad_n: int = 64) -> SuspensionReport:
    """Per-periodic-point dictionary between the disk map and its suspension.

    For every periodic point: the orbit period from the action integrand
    at z against action_k + k c from the closed form, the page crossing
    count against k, and the pairing with the page against the
    mean-action comparison it is equivalent to,

        pairing >= 1 - eps   iff   mean action <= CAL/(1-eps) + eps c/(1-eps).
    """
    if c is None:
        c = default_suspension_constant(H)
    min_h = H.min_value()
    if min_h + c <= 0:
        raise ValidationError(
            f"suspension needs H + c > 0 everywhere; min H = {min_h:g}, c = {c:g}")
    # the orbit periods k (h - s h' + c) and the volume density
    # h + c - s h' must be positive too
    min_sigma = H.min_action()
    if min_sigma + c <= 0:
        raise ValidationError(
            "suspension needs h - s h' + c > 0 on [0, 1]; "
            f"min(h - s h') = {min_sigma:g}, c = {c:g}")
    cal = calabi(H, quad_n)
    vol = math.pi * (cal + c)
    vol_quad = suspension_volume_quadrature(H, c, quad_n)
    points = periodic_points(H, k_max)
    periods = suspension_period_integral(
        H, np.array([P.z for P in points]), np.array([P.k for P in points]), c)
    rows = []
    for P, period in zip(points, periods.tolist()):
        resid = abs(period - (P.action_k + P.k * c))
        # crossings of the page {time = 1/2} in k periods of time
        crossings = int(signed_sweep_count(0.0, float(P.k), 0.5, period=1.0))
        pairing = crossings * vol / (period * math.pi)
        ge = pairing >= 1.0 - epsilon
        bound = cal / (1.0 - epsilon) + epsilon * c / (1.0 - epsilon)
        le = P.mean_action <= bound
        rows.append(DictionaryRow(P.z, P.k, P.action_k, P.mean_action,
                                  float(period), float(resid), crossings,
                                  float(pairing), bool(ge), bool(le),
                                  bool(ge == le)))
    return SuspensionReport(float(c), float(cal), float(vol), float(vol_quad),
                            abs(vol - vol_quad), math.pi, float(epsilon),
                            tuple(rows), H.boundary_flags())


@dataclass(frozen=True)
class MeanActionCheck:
    calabi: float
    epsilon: float
    found_low: bool
    found_high: bool
    witness_low: PeriodicPoint | None
    witness_high: PeriodicPoint | None
    boundary_rotation: float
    hypothesis_cal_lt_half_rotation: bool
    boundary_flags: dict


def mean_action_theorem_check(H, epsilon: float, k_max: int = 8,
                              quad_n: int = 64) -> MeanActionCheck:
    """Search periodic points for mean actions on both sides of Calabi.

    Reports a witness with mean action <= CAL + epsilon and one with
    mean action >= CAL - epsilon, when they exist among the points found
    (the center is always among them).  This is an empirical check of the
    equidistribution conclusion, not a proof; whether the stronger
    rotation-number hypothesis holds is reported alongside but not
    required.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    cal = calabi(H, quad_n)
    pts = periodic_points(H, k_max)
    low = min(pts, key=lambda P: P.mean_action)
    high = max(pts, key=lambda P: P.mean_action)
    found_low = low.mean_action <= cal + epsilon
    found_high = high.mean_action >= cal - epsilon
    rot = H.boundary_rotation_number()
    return MeanActionCheck(float(cal), float(epsilon), bool(found_low),
                           bool(found_high),
                           low if found_low else None,
                           high if found_high else None,
                           rot, bool(cal < rot / 2.0), H.boundary_flags())
