"""The boundary flow in angle-action coordinates and Liouville sampling.

On the boundary sphere a point is (t, theta1, theta2): the area parameter
of its invariant torus and the two circle angles.  The flow is linear on
each torus with angular rates (2*D1F, 2*D2F) evaluated at C(t), so it is
evaluated exactly, with no ODE integration.  In these coordinates the
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
from .numerics import wrap_angle
from .profiles import ToricProfile
from .systolic import RationalTorus, enumerate_tori

RNG_NAME = "philox4x64"
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FlowPoint:
    t: float
    theta1: float
    theta2: float


@dataclass(frozen=True)
class Trajectory:
    """A flow segment: linear angle motion at the rates of its torus."""

    start: FlowPoint
    duration: float
    omega1: float
    omega2: float

    def end_phases(self):
        return (self.start.theta1 + self.omega1 * self.duration,
                self.start.theta2 + self.omega2 * self.duration)


def reeb_rates(profile: ToricProfile, t):
    """Angular rates (omega1, omega2) = (2*D1F, 2*D2F) at C(t)."""
    _, _, d1, d2 = profile.boundary_arrays(t)
    return 2.0 * d1, 2.0 * d2


def make_trajectory(profile: ToricProfile, point: FlowPoint,
                    duration: float) -> Trajectory:
    w1, w2 = reeb_rates(profile, point.t)
    return Trajectory(point, float(duration), float(w1), float(w2))


def flow(profile: ToricProfile, point: FlowPoint, s: float) -> FlowPoint:
    """Advance a point by time s; exact for the toric flow."""
    w1, w2 = reeb_rates(profile, point.t)
    return FlowPoint(point.t,
                     float(wrap_angle(point.theta1 + w1 * s)),
                     float(wrap_angle(point.theta2 + w2 * s)))


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


def liouville_total_mass(profile: ToricProfile) -> float:
    """Mass of the unnormalized invariant measure in flow coordinates."""
    return 0.25 * profile.two_area * TWO_PI ** 2


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


def approximate_liouville_by_orbits(profile: ToricProfile, n_tori: int,
                                    max_pq: int) -> OrbitSet:
    """Equidistributed orbit set with a weak* discrepancy score.

    [0, 2A] is split into n_tori equal subintervals; in each, the
    enumerated torus with the smallest max(p, q) is selected, ties broken
    toward the subinterval center.  The orbits are weighted equally.  The
    discrepancy is the maximum over the fixed test-function family of
    |weighted orbit average - invariant average|.  A profile with no
    torus at all up to max_pq (for instance a constant gradient in an
    irrational direction) is a ValidationError.
    """
    if n_tori < 1:
        raise ValidationError("n_tori must be at least 1")
    tori = enumerate_tori(profile, max_pq,
                          continuum_samples=max(129, 4 * n_tori + 1))
    if not tori:
        raise ValidationError(
            f"no torus with max(p, q) <= max_pq={max_pq}: the gradient has "
            "no commensurable direction there, so no closed orbits")
    edges = np.linspace(0.0, profile.two_area, n_tori + 1)
    chosen = []
    for k in range(n_tori):
        lo, hi = edges[k], edges[k + 1]
        center = 0.5 * (lo + hi)
        inside = [T for T in tori if lo <= T.t < hi]
        if not inside:
            raise CoverageError(
                f"no torus with max(p, q) <= {max_pq} in subinterval "
                f"{k} = [{lo:.6g}, {hi:.6g}]; raise max_pq or lower n_tori")
        pick = min(inside, key=lambda T: (max(T.p, T.q), abs(T.t - center)))
        if pick.continuum:
            # every parameter carries the class, so center the representative
            pick = RationalTorus(pick.p, pick.q, float(center), pick.period, True)
        chosen.append(pick)
    weights = tuple(1.0 / n_tori for _ in range(n_tori))

    per_function = []
    disc = 0.0
    for fn in invariance_test_suite():
        avgs = [orbit_average(profile, T, fn) for T in chosen]
        weighted = math.fsum(w * a for w, a in zip(weights, avgs))
        per_function.append((fn.name, weighted, fn.liouville_mean))
        disc = max(disc, abs(weighted - fn.liouville_mean))
    return OrbitSet(tuple(chosen), weights, float(disc), tuple(per_function))
