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

Suspending by a constant c with H + c > 0 turns R/Z x D into a flow whose
closed orbits through k-periodic points have period sigma_k(z) + k c,
cross the page {t = const} exactly k times, and whose total volume is
pi*(CAL + c).  The pairing of such an orbit with the page,
k * volume / (period * pi), compares the mean action against the Calabi
invariant; this module evaluates both sides of that comparison.

Radial Hamiltonians h(|z|^2) are integrable and every quantity above has
a closed form, so they anchor the tests; general Hamiltonians exercise
the Runge-Kutta integration path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import _leggauss, bracketed_roots, scan_roots
from .topology import page_surface, signed_sweep_count

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Hamiltonian kinds


class RadialHamiltonian:
    """H(z) = h(|z|^2) for a smooth profile h on [0, 1].

    The flow rotates each circle |z|^2 = s rigidly at angular rate
    -2 h'(s), so trajectories, actions and periodic points are explicit.
    """

    kind = "radial"

    def __init__(self, coeffs):
        coeffs = [float(c) for c in np.atleast_1d(coeffs)]
        if not coeffs:
            raise ValidationError("radial profile needs polynomial coefficients")
        self._poly = np.polynomial.Polynomial(coeffs)
        self._dpoly = self._poly.deriv()
        self._ddpoly = self._dpoly.deriv()
        self.coeffs = tuple(coeffs)

    def h(self, s):
        return self._poly(np.asarray(s, float))

    def h_prime(self, s):
        return self._dpoly(np.asarray(s, float))

    def rotation_rate(self, s):
        """Angular speed of the circle |z|^2 = s."""
        return -2.0 * self.h_prime(s)

    def value(self, t, x, y):
        return self.h(np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2)

    def boundary_rotation_number(self) -> float:
        """Rotation angle of the time-one map on the boundary circle."""
        return float(self.rotation_rate(1.0))

    def boundary_flags(self):
        s = np.linspace(0.9, 1.0, 64)
        zero = abs(float(self.h(1.0))) < 1e-9
        rigid = float(np.max(np.abs(self.h_prime(s) - self.h_prime(1.0)))) < 1e-9
        return {"boundary_zero": zero, "rigid_near_boundary": rigid}

    def min_value(self) -> float:
        s = np.linspace(0.0, 1.0, 4097)
        return float(self.h(s).min())

    def to_json(self):
        return {"kind": "radial", "h": {"type": "poly", "coeffs": list(self.coeffs)}}


class GeneralHamiltonian:
    """H given by a callable of (t, x, y), 1-periodic in t.

    The Hamiltonian vector field (dH/dy, -dH/dx) is formed from supplied
    partials or central differences and integrated with a classical
    fixed-step fourth-order Runge-Kutta scheme.
    """

    kind = "general"

    def __init__(self, func, grad=None, fd_step: float = 1e-6):
        self._func = func
        self._grad = grad
        self._fd = float(fd_step)

    def value(self, t, x, y):
        return np.asarray(self._func(t, np.asarray(x, float),
                                     np.asarray(y, float)), float)

    def gradient(self, t, x, y):
        if self._grad is not None:
            gx, gy = self._grad(t, x, y)
            return np.asarray(gx, float), np.asarray(gy, float)
        e = self._fd
        gx = (self.value(t, x + e, y) - self.value(t, x - e, y)) / (2 * e)
        gy = (self.value(t, x, y + e) - self.value(t, x, y - e)) / (2 * e)
        return gx, gy

    def boundary_flags(self):
        ang = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        ts = np.linspace(0.0, 1.0, 17)
        worst = max(float(np.max(np.abs(self.value(t, np.cos(ang), np.sin(ang)))))
                    for t in ts)
        return {"boundary_zero": worst < 1e-9, "rigid_near_boundary": False}

    def min_value(self) -> float:
        ts = np.linspace(0.0, 1.0, 17)
        rr = np.linspace(0.0, 1.0, 65)
        ang = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        R, A = np.meshgrid(rr, ang)
        x, y = R * np.cos(A), R * np.sin(A)
        return min(float(self.value(t, x, y).min()) for t in ts)

    def to_json(self):
        raise ValidationError("general Hamiltonians given as callables "
                              "have no JSON form")


DiskHamiltonian = (RadialHamiltonian, GeneralHamiltonian)


def hamiltonian_from_json(obj):
    """Build a Hamiltonian from {"kind": "radial", "h": {"type": "poly",
    "coeffs": [...]}}.  Only the radial kind has a file form."""
    if not isinstance(obj, dict):
        raise ValidationError("Hamiltonian specification must be a JSON object")
    kind = obj.get("kind")
    if kind == "radial":
        unknown = set(obj) - {"kind", "h"}
        if unknown:
            raise ValidationError(f"unknown Hamiltonian keys: {sorted(unknown)}")
        h = obj.get("h")
        if not (isinstance(h, dict) and h.get("type") == "poly"
                and isinstance(h.get("coeffs"), list)):
            raise ValidationError(
                "radial Hamiltonian needs h = {'type': 'poly', 'coeffs': [...]}")
        try:
            finite = all(type(c) in (int, float) and math.isfinite(c)
                         for c in h["coeffs"])
        except OverflowError:       # an integer beyond the float range
            finite = False
        if not finite:
            raise ValidationError("radial Hamiltonian coefficients must be "
                                  f"finite numbers, got {h['coeffs']!r}")
        return RadialHamiltonian(h["coeffs"])
    raise ValidationError(f"unsupported Hamiltonian kind: {kind!r}")


# ---------------------------------------------------------------------------
# flow


def _rk4(H: GeneralHamiltonian, z0: np.ndarray, t0: float, t1: float,
         n_steps: int) -> np.ndarray:
    """Fixed-step RK4 for dz/dt = (dH/dy, -dH/dx); z0 is (..., 2)."""
    z = np.array(z0, float)
    hstep = (t1 - t0) / n_steps

    def rhs(t, zz):
        gx, gy = H.gradient(t, zz[..., 0], zz[..., 1])
        return np.stack([gy, -gx], axis=-1)

    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, z)
        k2 = rhs(t + hstep / 2, z + hstep / 2 * k1)
        k3 = rhs(t + hstep / 2, z + hstep / 2 * k2)
        k4 = rhs(t + hstep, z + hstep * k3)
        z = z + hstep / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hstep
    return z


def flow_map(H, z, t0: float, t1: float, n_steps: int | None = None,
             tol: float = 1e-10):
    """Advance points of the disk from time t0 to t1 along the isotopy.

    z is a point (x, y) or an (..., 2) array.  Radial Hamiltonians rotate
    exactly; general ones use RK4 with the step count doubled until two
    refinements agree within tol (or the supplied fixed n_steps).  Points
    escaping the closed disk beyond 1e-9 indicate a vector field that is
    not tangent to the boundary and raise a validation error.
    """
    z = np.asarray(z, float)
    scalar = z.ndim == 1
    zz = np.atleast_2d(z)
    if np.any(np.hypot(zz[..., 0], zz[..., 1]) > 1.0 + 1e-9):
        raise ValidationError("points must lie in the closed unit disk")
    if isinstance(H, RadialHamiltonian):
        s = zz[..., 0] ** 2 + zz[..., 1] ** 2
        ang = H.rotation_rate(s) * (t1 - t0)
        c, sn = np.cos(ang), np.sin(ang)
        out = np.stack([c * zz[..., 0] - sn * zz[..., 1],
                        sn * zz[..., 0] + c * zz[..., 1]], axis=-1)
    else:
        if n_steps is not None:
            out = _rk4(H, zz, t0, t1, n_steps)
        else:
            n = max(64, int(32 * abs(t1 - t0)) or 64)
            out = _rk4(H, zz, t0, t1, n)
            while n < 1 << 16:
                n *= 2
                nxt = _rk4(H, zz, t0, t1, n)
                if float(np.max(np.abs(nxt - out))) <= tol:
                    out = nxt
                    break
                out = nxt
            else:
                raise NumericalError("integrator failed to stabilize the flow map")
        radius = np.hypot(out[..., 0], out[..., 1])
        if np.any(radius > 1.0 + 1e-6):
            raise ValidationError(
                "trajectory escaped the disk; the Hamiltonian vector field "
                "is not tangent to the boundary")
        scale = np.where(radius > 1.0, radius, 1.0)
        out = out / scale[..., None]
    return out[0] if scalar else out


def _action_integrand(H, t, zz):
    gx, gy = (H.gradient(t, zz[..., 0], zz[..., 1])
              if isinstance(H, GeneralHamiltonian)
              else _radial_grad(H, zz))
    xdot, ydot = gy, -gx
    eta = 0.5 * (zz[..., 0] * ydot - zz[..., 1] * xdot)
    return eta + H.value(t, zz[..., 0], zz[..., 1])


def _radial_grad(H: RadialHamiltonian, zz):
    s = zz[..., 0] ** 2 + zz[..., 1] ** 2
    hp = H.h_prime(s)
    return 2.0 * zz[..., 0] * hp, 2.0 * zz[..., 1] * hp


def action(H, z, order: int = 48, n_steps: int = 1024):
    """Action of a point: line integral of eta along its time-one arc plus
    the time integral of H along the arc.

    The integrand is evaluated along the flow at Gauss-Legendre times (the
    trajectory at those times comes from the exact rotation for radial
    kinds, from RK4 otherwise).  For a radial profile the value equals
    h(s) - s h'(s).
    """
    z = np.asarray(z, float)
    scalar = z.ndim == 1
    zz = np.atleast_2d(z)
    x, w = _leggauss(order)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    total = np.zeros(zz.shape[0])
    if isinstance(H, RadialHamiltonian):
        for tn, wn in zip(nodes, weights):
            zt = flow_map(H, zz, 0.0, tn)
            total += wn * _action_integrand(H, tn, zt)
    else:
        # march once through [0, 1], sampling the Gauss nodes in order
        order_idx = np.argsort(nodes)
        zt = zz
        t_prev = 0.0
        per_node = max(8, n_steps // order)
        for i in order_idx:
            zt = _rk4(H, zt, t_prev, nodes[i], per_node)
            t_prev = nodes[i]
            total += weights[i] * _action_integrand(H, t_prev, zt)
    return float(total[0]) if scalar else total


def radial_action_exact(H: RadialHamiltonian, s):
    """Closed form h(s) - s h'(s) of the action on the circle |z|^2 = s."""
    s = np.asarray(s, float)
    return H.h(s) - s * H.h_prime(s)


def action_with_shifted_primitive(H, z, shift_scale: float = 0.37, **kw):
    """Action of a single point with the primitive eta + d(shift_scale*x*y).

    Differs from the standard action by the boundary terms of the exact
    form; used to check that periodic-orbit actions do not depend on the
    choice of primitive.
    """
    z = np.asarray(z, float)
    base = float(action(H, z, **kw))
    z1 = np.asarray(flow_map(H, z, 0.0, 1.0), float)
    g = lambda p: shift_scale * float(p[0]) * float(p[1])
    return base + g(z1) - g(z)


def calabi(H, quad_n: int = 64) -> float:
    """Calabi invariant: the action averaged over the disk area over pi.

    Tensor-product quadrature, Gauss-Legendre in s = radius^2 and the
    trapezoid rule in the angle (radial kinds skip the angle sum).
    """
    x, w = _leggauss(quad_n)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * w
    if isinstance(H, RadialHamiltonian):
        vals = radial_action_exact(H, s_nodes)
        return float(np.dot(s_weights, vals))
    total = 0.0
    ang = np.linspace(0.0, TWO_PI, quad_n, endpoint=False)
    for sn, sw in zip(s_nodes, s_weights):
        r = math.sqrt(sn)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        total += sw * float(np.mean(action(H, pts)))
    return total


def calabi_eta_residual(H, quad_n: int = 32, shift_scale: float = 0.37,
                        n_steps: int = 512) -> float:
    """|Calabi recomputed with a shifted primitive - Calabi|.

    The shift changes per-point actions but not their disk average, since
    the map is area preserving.
    """
    x, w = _leggauss(quad_n)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * w
    ang = np.linspace(0.0, TWO_PI, quad_n, endpoint=False)
    base = 0.0
    shifted = 0.0
    for sn, sw in zip(s_nodes, s_weights):
        r = math.sqrt(sn)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        sig = action(H, pts)
        ends = flow_map(H, pts, 0.0, 1.0, n_steps=n_steps)
        g0 = shift_scale * pts[:, 0] * pts[:, 1]
        g1 = shift_scale * ends[:, 0] * ends[:, 1]
        base += sw * float(np.mean(sig))
        shifted += sw * float(np.mean(sig + g1 - g0))
    return abs(shifted - base)


# ---------------------------------------------------------------------------
# periodic points


@dataclass(frozen=True)
class PeriodicPoint:
    z: tuple
    k: int
    action_k: float       # accumulated action over the orbit
    mean_action: float    # action_k / k, independent of the period used
    s: float | None = None          # radius^2 of the invariant circle (radial)
    resonance: int | None = None    # net turns over k map iterations (radial)
    residual: float = 0.0           # |h^k(z) - z| for Newton-found points


def _radial_periodic_points(H: RadialHamiltonian, k_max: int,
                            grid_n: int) -> list:
    pts = [PeriodicPoint((0.0, 0.0), 1, float(radial_action_exact(H, 0.0)),
                         float(radial_action_exact(H, 0.0)), s=0.0,
                         resonance=None)]
    s_grid = np.linspace(0.0, 1.0, max(grid_n, 64))
    omega = H.rotation_rate(s_grid)
    lo, hi = float(omega.min()), float(omega.max())
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

    found = []
    start = 0
    for k, m, roots, n_inside in resonances:
        for s_star in roots + crossings[start:start + n_inside]:
            if s_star <= 1e-14:
                continue                     # the center is listed separately
            if any(abs(s_star - s0) < 1e-10 and k == k0 for s0, k0 in found):
                continue
            found.append((s_star, k))
            sig = float(radial_action_exact(H, s_star))
            pts.append(PeriodicPoint((math.sqrt(s_star), 0.0), k,
                                     k * sig, sig, s=float(s_star),
                                     resonance=m))
        start += n_inside
    pts.sort(key=lambda P: (P.k, P.s if P.s is not None else -1.0))
    return pts


def _newton_periodic_points(H: GeneralHamiltonian, k_max: int, grid_n: int,
                            n_steps: int = 256, tol: float = 1e-10):
    """Newton search for fixed points of the k-th iterate from a grid of
    starting points, run as one batch per iteration, deduplicating points
    on a common orbit."""

    def iterate(Z, k):
        out = np.atleast_2d(np.asarray(Z, float))
        for _ in range(k):
            out = _rk4(H, out, 0.0, 1.0, n_steps)
        return out

    eps = 1e-7
    shifts = np.array([[0.0, 0.0], [eps, 0.0], [-eps, 0.0],
                       [0.0, eps], [0.0, -eps]])
    points = []
    skipped = 0
    xs = np.linspace(-0.9, 0.9, grid_n)
    starts = np.array([(x, y) for x in xs for y in xs
                       if math.hypot(x, y) < 0.95])
    for k in range(1, k_max + 1):
        Z = starts.copy()
        active = np.ones(len(Z), bool)
        done = np.zeros(len(Z), bool)
        for _ in range(30):
            idx = np.nonzero(active)[0]
            if len(idx) == 0:
                break
            Za = Z[idx]
            n = len(Za)
            batch = (Za[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
            out = iterate(batch, k).reshape(5, n, 2)
            F = out[0] - Za
            ok = np.linalg.norm(F, axis=1) < tol
            done[idx[ok]] = True
            active[idx[ok]] = False
            jx = (out[1] - out[2]) / (2 * eps)
            jy = (out[3] - out[4]) / (2 * eps)
            a = jx[:, 0] - 1.0
            b = jy[:, 0]
            c = jx[:, 1]
            d = jy[:, 1] - 1.0
            det = a * d - b * c
            solvable = np.abs(det) > 1e-14
            step_x = np.where(solvable, (d * F[:, 0] - b * F[:, 1]) / det, 0.0)
            step_y = np.where(solvable, (-c * F[:, 0] + a * F[:, 1]) / det, 0.0)
            Znew = Za - np.column_stack([step_x, step_y])
            lost = ~solvable | (np.hypot(Znew[:, 0], Znew[:, 1]) > 1.05)
            active[idx[lost]] = False
            keep = ~ok & ~lost
            Z[idx[keep]] = Znew[keep]
        skipped += int(active.sum())
        for z in Z[done]:
            if math.hypot(*z) > 1.0 + 1e-9:
                continue
            orbit = [z] + [iterate(z, i)[0] for i in range(1, k)]
            if any(np.linalg.norm(orbit[i] - z) < 1e-8 for i in range(1, k)):
                continue                     # primitive period smaller than k
            duplicate = False
            for P in points:
                if P.k != k:
                    continue
                if min(np.linalg.norm(np.asarray(P.z) - o) for o in orbit) < 1e-6:
                    duplicate = True
                    break
            if duplicate:
                continue
            sig_k = float(math.fsum(float(action(H, o)) for o in orbit))
            res = float(np.linalg.norm(iterate(z, k)[0] - z))
            points.append(PeriodicPoint((float(z[0]), float(z[1])), k, sig_k,
                                        sig_k / k, residual=res))
    return points, skipped


def periodic_points(H, k_max: int, grid_n: int = 256):
    """Periodic points of the time-one map up to period k_max.

    Radial kinds solve the rotation-resonance equation per invariant
    circle and return one representative per circle plus the center;
    general kinds run the Newton search.  Results carry accumulated and
    mean actions.
    """
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    if isinstance(H, RadialHamiltonian):
        return _radial_periodic_points(H, k_max, grid_n)
    pts, _skipped = _newton_periodic_points(H, k_max, min(grid_n, 32))
    return pts


# ---------------------------------------------------------------------------
# suspension dictionary


@dataclass(frozen=True)
class DictionaryRow:
    z: tuple
    k: int
    action_k: float
    mean_action: float
    period: float             # directly integrated period of the closed orbit
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
    """Smallest convenient c with H + c > 0: max(0, -min H) + 1."""
    return max(0.0, -H.min_value()) + 1.0


def suspension_period_integral(H, z, k: int, c: float, order: int = 64) -> float:
    """Period of the closed suspension orbit through (time 0, z): the line
    integral of (H + c) dt + eta along k passes of the isotopy arc."""
    z = np.asarray(z, float)
    x, w = _leggauss(order)
    total = 0.0
    for wrap in range(k):
        pts = np.atleast_2d(flow_map(H, z, 0.0, float(wrap)))
        for tn, wn in zip(0.5 * (x + 1.0), 0.5 * w):
            zt = np.atleast_2d(flow_map(H, pts[0], 0.0, tn))
            total += wn * float(_action_integrand(H, tn, zt)[0] + c)
    return total


def suspension_volume_quadrature(H, c: float, quad_n: int = 64) -> float:
    """Total volume of the suspension by direct quadrature.

    The density against dt and the area form is (H + c) - (x Hx + y Hy)/2,
    integrated over one time period and the disk.
    """
    x, w = _leggauss(quad_n)
    s_nodes = 0.5 * (x + 1.0)
    s_weights = 0.5 * w
    if isinstance(H, RadialHamiltonian):
        integ = H.h(s_nodes) + c - s_nodes * H.h_prime(s_nodes)
        return math.pi * float(np.dot(s_weights, integ))
    ts = np.linspace(0.0, 1.0, quad_n, endpoint=False)
    ang = np.linspace(0.0, TWO_PI, quad_n, endpoint=False)
    total = 0.0
    for sn, sw in zip(s_nodes, s_weights):
        r = math.sqrt(sn)
        xs, ys = r * np.cos(ang), r * np.sin(ang)
        for t in ts:
            gx, gy = (H.gradient(t, xs, ys)
                      if isinstance(H, GeneralHamiltonian)
                      else _radial_grad(H, np.column_stack([xs, ys])))
            vals = H.value(t, xs, ys) + c - 0.5 * (xs * gx + ys * gy)
            total += sw * float(np.mean(vals)) / len(ts)
    return math.pi * total


def suspension_dictionary(H, c: float | None = None, k_max: int = 3,
                          epsilon: float = 0.1, grid_n: int = 256,
                          quad_n: int = 64) -> SuspensionReport:
    """Per-periodic-point dictionary between the disk map and its suspension.

    For every periodic point: the directly integrated orbit period against
    action_k + k c, the page crossing count against k, and the pairing with
    the page against the mean-action comparison it is equivalent to,

        pairing >= 1 - eps   iff   mean action <= CAL/(1-eps) + eps c/(1-eps).
    """
    if c is None:
        c = default_suspension_constant(H)
    min_h = H.min_value()
    if min_h + c <= 0:
        raise ValidationError(
            f"suspension needs H + c > 0 everywhere; min H = {min_h:g}, c = {c:g}")
    cal = calabi(H, quad_n)
    vol = math.pi * (cal + c)
    vol_quad = suspension_volume_quadrature(H, c, quad_n)
    page = page_surface(angle=0.5)
    rows = []
    for P in periodic_points(H, k_max, grid_n):
        period = suspension_period_integral(H, P.z, P.k, c)
        resid = abs(period - (P.action_k + P.k * c))
        crossings = int(signed_sweep_count(0.0, float(P.k), page.angle,
                                           period=1.0))
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
    boundary_rotation: float | None
    hypothesis_cal_lt_half_rotation: bool | None
    boundary_flags: dict


def mean_action_theorem_check(H, epsilon: float, k_max: int = 8,
                              grid_n: int = 256,
                              quad_n: int = 64) -> MeanActionCheck:
    """Search periodic points for mean actions on both sides of Calabi.

    Reports a witness with mean action <= CAL + epsilon and one with
    mean action >= CAL - epsilon, when they exist among the points found.
    This is an empirical check of the equidistribution conclusion, not a
    proof; whether the stronger rotation-number hypothesis holds is
    reported alongside but not required.
    """
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    cal = calabi(H, quad_n)
    pts = periodic_points(H, k_max, grid_n)
    low = min(pts, key=lambda P: P.mean_action) if pts else None
    high = max(pts, key=lambda P: P.mean_action) if pts else None
    found_low = low is not None and low.mean_action <= cal + epsilon
    found_high = high is not None and high.mean_action >= cal - epsilon
    rot = (H.boundary_rotation_number()
           if isinstance(H, RadialHamiltonian) else None)
    hyp = (cal < rot / 2.0) if rot is not None else None
    return MeanActionCheck(float(cal), float(epsilon), bool(found_low),
                           bool(found_high),
                           low if found_low else None,
                           high if found_high else None,
                           rot, hyp, H.boundary_flags())
