"""Correctness checks of one op's outputs.

An op passes when it exits 0, writes a strict-JSON report and CSVs of
the expected sizes, and its values match:

* closed forms where the paper gives them: profile intercepts, the
  area a*b*G(1+1/p)^2/G(1+2/p) of lp and ellipsoid profiles (and the
  volume 2*pi^2*area), the ellipsoid's systolic interval [1, 1], the
  radial Calabi invariant int_0^1 (h - s h') ds, the resonant circles
  of the radial disk map with their mean actions h(s) - s h'(s), the
  verify-action-linking rhs pi * intercept, and link counts by the
  README conventions;
* the orbit averages of equidistribute, in closed form from its orbits;
* everything else against reference.json, recorded at seed 0 from the
  seed commit, moved by the input's dilation factor (see workloads.py)
  and compared with relative tolerance REL_TOL (LOOSE_TOL for extremum
  locations, which golden-section search fixes only to ~1e-12 in angle)
  plus absolute tolerance ABS_TOL for values near zero.

Monte Carlo reports are checked by their identity (z within the
threshold), not by their bytes, so a versioned change of the sample
stream is not a failure.
"""
from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-9
LOOSE_TOL = 1e-6
ABS_TOL = 1e-12
# power of the dilation factor by which each report key moves
SCALE_POWER = {"t": 2, "period": 1, "volume": 2, "area": 2, "a": 1, "b": 1,
               "value": -1}
LOOSE_SECTIONS = {"witnesses"}
# keys that echo inputs or describe the report format, not results
NOT_COMPARED = {"profile", "hamiltonian", "checks", "seed", "rng",
                "report_version", "command"}
PLOT_GRID = 128
Z_THRESHOLD = 4.0


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise CheckError(f"report contains non-JSON number {name}")


def load_report(outdir, command):
    path = os.path.join(outdir, f"{command}.json")
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise CheckError(f"missing report {command}.json") from None
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None


def scientific(report: dict) -> dict:
    """The part of a report compared against the reference."""
    return {k: v for k, v in report.items() if k not in NOT_COMPARED}


def _close(actual, expected, rel, label):
    if not isinstance(actual, (int, float)) or isinstance(actual, bool):
        raise CheckError(f"{label}: expected a number, got {actual!r}")
    if abs(actual - expected) > rel * abs(expected) + ABS_TOL:
        raise CheckError(f"{label}: {actual!r} differs from {expected!r}")


def compare(actual, expected, scale, label="", key="", rel=REL_TOL):
    """Walk the reference; numbers move by scale**SCALE_POWER[key]."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            raise CheckError(f"{label}: expected an object")
        for k, v in expected.items():
            if k not in actual:
                raise CheckError(f"{label}.{k}: missing")
            compare(actual[k], v, scale, f"{label}.{k}", k,
                    LOOSE_TOL if k in LOOSE_SECTIONS else rel)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise CheckError(f"{label}: expected {len(expected)} entries, got "
                             f"{len(actual) if isinstance(actual, list) else actual!r}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, scale, f"{label}[{i}]", key, rel)
    elif isinstance(expected, float):
        _close(actual, expected * scale ** SCALE_POWER.get(key, 0), rel, label)
    elif actual != expected:
        raise CheckError(f"{label}: {actual!r} != {expected!r}")


def csv_rows(outdir, name):
    try:
        with open(os.path.join(outdir, name), "rb") as fh:
            return fh.read().count(b"\n") - 1
    except FileNotFoundError:
        raise CheckError(f"missing {name}") from None


def expect_rows(outdir, name, n):
    rows = csv_rows(outdir, name)
    if rows != n:
        raise CheckError(f"{name}: {rows} rows, expected {n}")


def profile_area(doc):
    """First-quadrant area of {F <= 1} for lp and ellipsoid profiles."""
    p = 1.0 if doc["kind"] == "ellipsoid" else doc["p"]
    return (doc["a"] * doc["b"] * math.gamma(1 + 1 / p) ** 2
            / math.gamma(1 + 2 / p))


def _poly(coeffs, s):
    return sum(c * s ** i for i, c in enumerate(coeffs))


def _dpoly(coeffs, s):
    return sum(i * c * s ** (i - 1) for i, c in enumerate(coeffs) if i)


def radial_calabi(coeffs):
    """int_0^1 (h - s h') ds for h = sum c_i s^i."""
    return sum(c * (1 - i) / (i + 1) for i, c in enumerate(coeffs))


def _check_profile_closed_forms(rep, doc):
    if doc["kind"] == "sampled" or "volume" not in rep:
        return
    area = profile_area(doc)
    _close(rep["volume"], 2 * math.pi ** 2 * area, REL_TOL, "volume")
    if "a" in rep:
        _close(rep["a"], doc["a"], REL_TOL, "a")
        _close(rep["b"], doc["b"], REL_TOL, "b")
        _close(rep["area"], area, REL_TOL, "area")


# the weak* test functions of flows.invariance_test_suite: (j, m1, m2, kind)
TEST_FUNCTIONS = (
    [(0, 0, 0, "cos")] + [(j, 0, 0, "cos") for j in range(1, 7)]
    + [(0, 1, 0, "cos"), (0, 1, 0, "sin"), (0, 0, 1, "cos"), (0, 0, 1, "sin"),
       (0, 1, 1, "cos"), (0, 1, -1, "cos"), (0, 1, -1, "sin"),
       (0, 2, 1, "cos"), (0, 1, 2, "cos")]
    + [(1, 1, 0, "cos"), (1, 0, 1, "cos"), (2, 1, 1, "cos"),
       (1, 1, -1, "cos")])


def check_equidistribute(op, rep, ref, two_area):
    """Orbits against the reference; the orbit averages of the test
    functions and the discrepancy in closed form from those orbits.

    A torus on the edge between two subintervals (the (1, 1) torus of
    the round profile sits at the middle one) may fall on either side by
    rounding, which changes the pick in both subintervals; such picks are
    accepted.  On a (p, q) orbit started at angles (0, 0) a harmonic of
    m1*theta1 + m2*theta2 averages to 1 (cos) when m1*p + m2*q = 0 and to
    0 otherwise, so each orbit average is cos(j pi t / 2A) or 0."""
    scale = op["check"]["scale"]
    n = rep["n_tori"]
    compare({k: rep[k] for k in ("n_tori", "max_pq")},
            {k: ref[k] for k in ("n_tori", "max_pq")}, scale, op["label"])
    orbits = rep["orbits"]
    if len(orbits) != len(ref["orbits"]) or len(orbits) != n:
        raise CheckError(f"{len(orbits)} orbits, expected {n}")
    for k, (got, want) in enumerate(zip(orbits, ref["orbits"])):
        try:
            compare(got, want, scale, f"{op['label']}.orbits[{k}]")
        except CheckError:
            edges = (two_area * k / n, two_area * (k + 1) / n)
            ts = (got["t"], want["t"] * scale ** 2)
            if min(abs(t - e) for t in ts for e in edges) > 1e-9 * two_area:
                raise
    disc = 0.0
    if len(rep["per_function"]) != len(TEST_FUNCTIONS):
        raise CheckError("per_function has the wrong length")
    for entry, (j, m1, m2, kind) in zip(rep["per_function"], TEST_FUNCTIONS):
        target = 1.0 if (j, m1, m2, kind) == (0, 0, 0, "cos") else 0.0
        avg = math.fsum(
            o["weight"] * math.cos(j * math.pi * o["t"] / two_area)
            for o in orbits if kind == "cos" and m1 * o["p"] + m2 * o["q"] == 0)
        label = f"per_function {entry['name']}"
        if entry["target"] != target or abs(entry["weighted_average"] - avg) > 1e-9:
            raise CheckError(f"{label}: {entry['weighted_average']!r} != {avg!r}")
        disc = max(disc, abs(avg - target))
    if abs(rep["discrepancy"] - disc) > 1e-9:
        raise CheckError(f"discrepancy {rep['discrepancy']!r} != {disc!r}")


def check_survey(op, rep, outdir, ref, doc):
    chk = op["check"]
    if op["command"] == "equidistribute":
        area = (profile_area(doc) if doc["kind"] != "sampled" else
                ref[f"toric-analyze/{chk['profile']}"]["area"] * chk["scale"] ** 2)
        check_equidistribute(op, rep, ref[op["label"]], 2 * area)
        return
    compare(scientific(rep), ref[op["label"]], chk["scale"], op["label"])
    _check_profile_closed_forms(rep, doc)
    if op["command"] == "toric-analyze":
        expect_rows(outdir, "boundary.csv", PLOT_GRID)
    elif op["command"] == "systole":
        if doc["kind"] == "ellipsoid":
            for v in rep["interval"]:
                _close(v, 1.0, REL_TOL, "ellipsoid interval")
        expect_rows(outdir, "systolic_grid.csv", PLOT_GRID * PLOT_GRID)
        expect_rows(outdir, "pairing_profile.csv", PLOT_GRID)


def check_verify(op, rep):
    chk = op["check"]
    _close(rep["rhs"], math.pi * chk["intercept"], 1e-12, "rhs = pi*intercept")
    if rep["n_samples"] != int(op["argv"][op["argv"].index("--samples") + 1]):
        raise CheckError("n_samples differs from --samples")
    if not 0 <= rep["n_fallback"] <= rep["n_samples"]:
        raise CheckError("n_fallback out of range")
    if not rep["stderr"] > 0:
        raise CheckError(f"stderr {rep['stderr']!r} is not positive")
    z = abs(rep["lhs"] - rep["rhs"]) / rep["stderr"]
    if not z <= Z_THRESHOLD:
        raise CheckError(f"z = {z:.3g} exceeds {Z_THRESHOLD}")
    _close(rep["z"], z, 1e-9, "z")


def check_calabi(op, rep, outdir):
    coeffs = op["check"]["coeffs"]
    _close(rep["calabi"], radial_calabi(coeffs), 1e-12, "calabi")
    if not rep["eta_shift_residual"] <= 1e-9:
        raise CheckError(f"eta_shift_residual {rep['eta_shift_residual']!r}")
    if csv_rows(outdir, "action_spectrum.csv") < PLOT_GRID:
        raise CheckError("action_spectrum.csv is short")


def periodic_circles(coeffs, k_max):
    """(k, s) of the center and of every circle |z|^2 = s whose rotation
    -2 h'(s) is 2 pi m / k with m coprime to k, for quadratic h: the
    periodic points of primitive period k up to k_max, sorted by (k, s)."""
    c1, c2 = coeffs[1], coeffs[2]
    out = [(1, 0.0)]
    rates = (-2 * c1, -2 * (c1 + 2 * c2))      # rotation at s = 0 and s = 1
    for k in range(1, k_max + 1):
        lo = math.floor(k * min(rates) / (2 * math.pi))
        hi = math.ceil(k * max(rates) / (2 * math.pi))
        for m in range(lo, hi + 1):
            if k > 1 and math.gcd(abs(m), k) != 1:
                continue
            s = (-math.pi * m / k - c1) / (2 * c2)
            if 0 < s <= 1:
                out.append((k, s))
    return sorted(out)


def check_dictionary(op, rep, outdir):
    coeffs = op["check"]["coeffs"]
    cal = radial_calabi(coeffs)
    c = rep["c"]
    _close(rep["calabi"], cal, 1e-12, "calabi")
    if not c + min(_poly(coeffs, i / 4096) for i in range(4097)) > 0:
        raise CheckError("suspension constant violates H + c > 0")
    _close(rep["volume"], math.pi * (cal + c), 1e-12, "volume = pi(CAL + c)")
    _close(rep["volume_quadrature"], rep["volume"], 1e-9, "volume quadrature")
    found = [(row["k"], row["z"][0] ** 2 + row["z"][1] ** 2)
             for row in rep["rows"]]
    expected = periodic_circles(coeffs, op["check"]["k_max"])

    def absent(pts, among):
        return [(k, round(s, 9)) for k, s in pts
                if not any(k == k2 and abs(s - s2) <= 1e-9 for k2, s2 in among)]
    missing, extra = absent(expected, found), absent(found, expected)
    if missing or extra or len(found) != len(expected):
        raise CheckError(f"periodic circles (k, |z|^2): missing {missing}, "
                         f"unexpected {extra}")
    for i, row in enumerate(rep["rows"]):
        k = row["k"]
        s = row["z"][0] ** 2 + row["z"][1] ** 2
        mean = _poly(coeffs, s) - s * _dpoly(coeffs, s)
        _close(row["mean_action"], mean, 1e-9, f"rows[{i}].mean_action")
        _close(row["action_k"], k * mean, 1e-9, f"rows[{i}].action_k")
        _close(row["period"], row["action_k"] + k * c, 1e-9, f"rows[{i}].period")
        _close(row["pairing"], k * rep["volume"] / (row["period"] * math.pi),
               1e-9, f"rows[{i}].pairing")
        if row["page_crossings"] != k or not row["equivalence_ok"]:
            raise CheckError(f"rows[{i}]: crossings or equivalence wrong")
    mac = rep["mean_action_check"]
    if not (mac["found_low"] and mac["found_high"]):
        raise CheckError("mean-action witnesses missing")
    if csv_rows(outdir, "action_spectrum.csv") < PLOT_GRID:
        raise CheckError("action_spectrum.csv is short")


def check_linking(op, rep):
    specs = op["check"]["curves"]
    desc = rep["curves"]
    for spec, d in zip(specs, desc):
        if spec["kind"] == "orbit" and (d["p"], d["q"]) != (spec["p"], spec["q"]):
            raise CheckError("curve (p, q) differs from the input")
    first, second = specs
    if second["kind"] == "axis_orbit":
        expected = first["p"] if second["axis"] == "y" else first["q"]
    else:
        near, far = ((first, second) if desc[0]["t"] > desc[1]["t"]
                     else (second, first))
        expected = far["p"] * near["q"]
    if rep["link"] != expected:
        raise CheckError(f"link {rep['link']} != {expected}")
    if not rep["residual"] < 0.1:
        raise CheckError(f"Gauss sum residual {rep['residual']!r}")


def check_op(op, record, reference, inputs):
    """Problems with one op run, as a list of strings (empty if correct)."""
    if record["code"] != 0:
        tail = record["stderr"].strip().splitlines()[-1:] or [""]
        return [f"exit code {record['code']}: {tail[0]}"]
    outdir = record["out"]
    try:
        rep = load_report(outdir, op["command"])
        if rep.get("command") != op["command"]:
            raise CheckError("report names another command")
        cmd = op["command"]
        if cmd in ("toric-analyze", "systole", "equidistribute"):
            check_survey(op, rep, outdir, reference["survey"],
                         inputs[op["input"]])
        elif cmd == "verify-action-linking":
            check_verify(op, rep)
        elif cmd == "diskmap-calabi":
            check_calabi(op, rep, outdir)
        elif cmd == "diskmap-dictionary":
            check_dictionary(op, rep, outdir)
        else:
            check_linking(op, rep)
    except CheckError as exc:
        return [str(exc)]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]
    return []
