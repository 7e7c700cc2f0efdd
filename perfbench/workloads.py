"""Seeded inputs and the op list of each benchmark workload.

The program only ever sees the JSON files written here.  A workload seed
picks one member of fixed input families; seed 0 is the roadmap matrix
itself.  The families are chosen so that the amount of work per op does
not depend on the seed:

* profiles are the roadmap profiles dilated by a factor ``scale`` in
  [1, 1.2).  Dilation maps tori to tori with the same (p, q), so torus
  counts, grid work and coverage are unchanged, and every report value
  moves by a known power of ``scale`` (area parameters by 2, periods by 1,
  partial derivatives by -1, pairings and intervals by 0).  The Monte
  Carlo horizon is dilated with the periods so that near-return searches
  do the same work;
* the disk Hamiltonian is the quadratic well lam*pi*(1-s)^2 + c0 with
  lam in [0.92, 1] and c0 in [0, 0.5).  Over that range the rotation
  numbers that resonate up to period 5 are the same, so the periodic
  point set has the same size, and every value has a closed form.
"""
from __future__ import annotations

import json
import math
import os
import random

PI = math.pi
SAMPLES = 10 ** 6           # Monte Carlo samples per verify-action-linking op
HORIZON = 1000.0            # near-return horizon at scale 1
SYSTOLE_GRID = 4096
SYSTOLE_MAX_PQ = 12
SPLINE_ARGS = (1.15, 0.85, (0.018, -0.011, 0.007))   # tests/conftest.py
SPLINE_POINTS = 256

# (n_tori, max_pq) for equidistribute, only where tori cover every
# subinterval; on lp p=3 it exits 3 with a coverage error at every N.
EQUIDISTRIBUTE = {"round": (64, 64), "ellipsoid": (64, 128), "spline": (16, 64)}
# (profile, surface) for verify-action-linking; each runs at 1 and 2
# threads.  lp p=3 goes first: it is the cold op (run.py), and at 1 thread
# it varies less with other load on the host than round.
MONTECARLO = (("lp3", "x"), ("round", "y"), ("spline", "y"))
CALABI_GRIDS = (64, 256)
DICTIONARY_K_MAX = (3, 4, 5)
# linking cases on the lp p=3 profile, (name, curve specs); checks.py
# expects the README conventions: a (p, q) orbit links the y-axis orbit p
# times and the x-axis orbit q times; two torus orbits link p_far*q_near.
LINKING = (
    ("orbit23-axis-x", ({"orbit": {"p": 2, "q": 3, "samples": 4096}},
                        {"axis_orbit": {"axis": "x", "samples": 512}})),
    ("orbit23-axis-y", ({"orbit": {"p": 2, "q": 3, "samples": 1024}},
                        {"axis_orbit": {"axis": "y", "samples": 256}})),
    ("orbit12-orbit32", ({"orbit": {"p": 1, "q": 2, "samples": 2048}},
                         {"orbit": {"p": 3, "q": 2, "samples": 1024}})),
)

WORKLOADS = ("survey", "montecarlo", "dictionary")


def family(seed: int) -> dict:
    """The input family parameters drawn from a workload seed."""
    if seed == 0:
        return {"scale": 1.0, "lam": 1.0, "c0": 0.0}
    rng = random.Random(seed)
    return {"scale": 1.0 + 0.2 * rng.random(),
            "lam": 0.92 + 0.08 * rng.random(),
            "c0": 0.5 * rng.random()}


def spline_points(a: float, b: float, coeffs, n: int = SPLINE_POINTS):
    """Samples of an ellipsoid boundary whose polar radius is modulated by
    1 + sum_k c_k sin(2 k theta), the profile family of the test suite."""
    pts = []
    for i in range(n):
        th = (PI / 2) * i / (n - 1)
        r = 1.0 / (math.cos(th) / a + math.sin(th) / b)
        r *= 1.0 + sum(c * math.sin(2 * k * th)
                       for k, c in enumerate(coeffs, start=1))
        pts.append([r * math.cos(th), r * math.sin(th)])
    return pts


# axis intercepts (a, b) of the profiles at scale 1
INTERCEPTS = {"round": (1.0, 1.0), "ellipsoid": (0.7, 1.9), "lp3": (1.2, 0.9),
              "spline": SPLINE_ARGS[:2]}


def profiles(scale: float) -> dict:
    ab = {name: scale_ab(name, scale) for name in INTERCEPTS}
    return {
        "round": {"kind": "lp", "p": 2.0, "a": ab["round"][0],
                  "b": ab["round"][1]},
        "ellipsoid": {"kind": "ellipsoid", "a": ab["ellipsoid"][0],
                      "b": ab["ellipsoid"][1]},
        "lp3": {"kind": "lp", "p": 3.0, "a": ab["lp3"][0], "b": ab["lp3"][1]},
        "spline": {"kind": "sampled",
                   "points": spline_points(*ab["spline"], SPLINE_ARGS[2])},
    }


def scale_ab(name: str, scale: float):
    a, b = INTERCEPTS[name]
    return a * scale, b * scale


def well_coeffs(lam: float, c0: float):
    """Coefficients of lam*pi*(1 - s)^2 + c0 in powers of s."""
    return [lam * PI + c0, -2.0 * lam * PI, lam * PI]


def _op(label, command, input_name, *flags, **check):
    argv = [command, "--input", input_name] + [str(f) for f in flags]
    return {"label": label, "command": command, "input": input_name,
            "argv": argv, "check": check}


def build(workload: str, seed: int, indir: str) -> list:
    """Write the seeded inputs of a workload into indir and return the ops
    of one cycle, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    fam = family(seed)
    s = fam["scale"]
    os.makedirs(indir, exist_ok=True)
    docs = {}
    ops = []
    profs = profiles(s)

    def inp(name, doc):
        docs[name] = doc
        return os.path.join(indir, name)

    if workload == "survey":
        # The first op of a cycle is also its cold op (run.py).  Of the
        # survey ops, systole on lp p=3 varies least with other load on
        # the host, so it goes first.
        for name in ("lp3", "round", "ellipsoid", "spline"):
            path = inp(f"{name}.json", profs[name])
            ops.append(_op(f"systole/{name}", "systole", path,
                           "--grid", SYSTOLE_GRID, "--max-pq", SYSTOLE_MAX_PQ,
                           "--seed", seed, profile=name, scale=s))
            ops.append(_op(f"toric-analyze/{name}", "toric-analyze", path,
                           "--seed", seed, profile=name, scale=s))
            if name in EQUIDISTRIBUTE:
                n, m = EQUIDISTRIBUTE[name]
                ops.append(_op(f"equidistribute/{name}", "equidistribute",
                               path, "--n-tori", n, "--max-pq", m,
                               "--seed", seed, profile=name, scale=s))
    elif workload == "montecarlo":
        for case, (name, surface) in enumerate(MONTECARLO):
            path = inp(f"{name}.json", profs[name])
            mc_seed = 16 * seed + case
            for threads in (1, 2):
                ops.append(_op(
                    f"verify-action-linking/{name}/{threads}t",
                    "verify-action-linking", path,
                    "--samples", SAMPLES, "--horizon", repr(HORIZON * s),
                    "--surface", surface, "--threads", threads,
                    "--seed", mc_seed,
                    profile=name, scale=s, surface=surface, threads=threads,
                    intercept=scale_ab(name, s)[1 if surface == "y" else 0]))
    else:
        # The first op of a cycle is also its cold op (run.py).  The
        # numpy-bound Gauss sum of the largest linking case is the least
        # disturbed by other load on the host, so it goes first.
        lp3 = profs["lp3"]
        for name, specs in LINKING:
            curves = [{kind: {"profile": lp3, **body}}
                      for spec in specs for kind, body in spec.items()]
            path = inp(f"link-{name}.json", {"curves": curves})
            ops.append(_op(f"linking/{name}", "linking", path, "--seed", seed,
                           curves=[dict(body, kind=kind) for spec in specs
                                   for kind, body in spec.items()]))
        coeffs = well_coeffs(fam["lam"], fam["c0"])
        path = inp("well.json", {"kind": "radial",
                                 "h": {"type": "poly", "coeffs": coeffs}})
        for grid in CALABI_GRIDS:
            ops.append(_op(f"diskmap-calabi/grid{grid}", "diskmap-calabi",
                           path, "--grid", grid, "--seed", seed,
                           coeffs=coeffs))
        for k in DICTIONARY_K_MAX:
            ops.append(_op(f"diskmap-dictionary/k{k}", "diskmap-dictionary",
                           path, "--k-max", k, "--seed", seed,
                           coeffs=coeffs, k_max=k))
    for name, doc in docs.items():
        with open(os.path.join(indir, name), "w") as fh:
            json.dump(doc, fh)
    return ops


def sizes() -> dict:
    """The fixed per-op sizes, recorded with every result."""
    return {"samples": SAMPLES, "horizon_at_scale_1": HORIZON,
            "systole_grid": SYSTOLE_GRID, "systole_max_pq": SYSTOLE_MAX_PQ,
            "equidistribute_n_tori_max_pq": EQUIDISTRIBUTE,
            "calabi_grids": list(CALABI_GRIDS),
            "dictionary_k_max": list(DICTIONARY_K_MAX),
            "linking_samples": {name: [next(iter(s.values()))["samples"]
                                       for s in specs]
                                for name, specs in LINKING},
            "spline_points": SPLINE_POINTS}
