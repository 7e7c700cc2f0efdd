"""Command-line front end.

Subcommands mirror the library: toric-analyze, systole,
verify-action-linking, equidistribute, diskmap-calabi, diskmap-dictionary,
linking.  Each reads a JSON input file, writes a schema-validated JSON
report (plus CSV dumps) into the output directory, and prints a one-line
summary.  ``COMMANDS`` names the handler of each subcommand and the flags
it reads; a flag a subcommand does not read is rejected.  Exit codes: 0
success, 2 validation error (bad flags included), 3 numerical error, 4
statistical inconsistency.  Diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import diskmap as dm
from . import flows as fl
from . import reports as rp
from . import systolic as sy
from . import topology as tp
from .errors import (NumericalError, ReebsysError, StatisticalError,
                     ValidationError)
from .profiles import profile_from_json

# Segment pairs a linking input may ask for: the full Gauss sum's time
# grows with their count (it is the fallback where no coarse copy of the
# curves is certified), and an orbit's samples are allocated before the
# sum runs, so the count is checked before any curve is built.  A
# 2^20 x 16 input at the cap takes about 1.1 s and peaks at about 90 MB,
# of which linking_number is 0.7-0.8 s (1.9 s with full sums).
LINK_MAX_PAIRS = 1 << 24
# Largest values of the flags that size an array, checked before a command
# builds one; the largest benchmark value is in each comment.  --grid is
# the theta grid of systole but the Gauss-Legendre order of the disk maps,
# whose nodes and calabi_eta_residual's points grow as its square.
MAX_SAMPLES = 10 ** 7        # Monte Carlo samples; benchmark 10^6
MAX_PQ = 512                 # max_pq^2 coprime classes; benchmark 128
# plot_grid^2 systolic_grid.csv rows; benchmark 128.  They are written in
# blocks of about numerics.GRID_CHUNK cells: at the cap a fresh systole
# process takes about 0.8 s, writes 60 MB and peaks at about 33 MB.
MAX_PLOT_GRID = 1024
# systole --grid; benchmark 4096.  Its scans take numerics.GRID_CHUNK
# nodes at a time, so only the grid and its two partials grow with it: at
# the cap a fresh process takes 0.19-0.36 s and peaks at about 72 MB.
MAX_THETA_GRID = 1 << 20
MAX_QUAD_N = 1024            # diskmap --grid; benchmark 256 (diskmap-calabi)
# equidistribute --n-tori; benchmark 64.  At the cap with --max-pq 512,
# in-process: round exits 3 after 0.05 s, the benchmark ellipsoid exits 0
# after 0.03 s (round at --n-tori 256 exits 0 after 0.015 s)
MAX_N_TORI = 1024
# diskmap --k-max; benchmark 5.  At the cap on the benchmark well
# pi*(1-s)^2: diskmap-calabi 0.4 s, diskmap-dictionary 0.8 s
MAX_K_MAX = 64
# (k, m) resonances a disk map scans for periodic points, counted by
# diskmap.resonance_count from the Hamiltonian before any scan: --k-max
# periods for diskmap-calabi, max(--k-max, 4) for diskmap-dictionary;
# benchmark 45 (the well at --k-max 5).  The steep well [0,0,1e4] makes
# 63676 and its dictionary takes 4.3 s; [0,0,1e6] makes 6.4 million.
MAX_RESONANCES = 1 << 16


# ---------------------------------------------------------------------------
# flags: each argparse spec and its validator are declared once


def _checked(convert, ok, bound: str):
    """An argparse type that converts a flag value and checks its range."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


SEED = _checked(int, lambda v: 0 <= v < 2 ** 64, "in [0, 2^64)")
COUNT = _checked(int, lambda v: v >= 1, ">= 1")
POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0,
                    "finite and > 0")
NONNEGATIVE = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                       "finite and >= 0")
OPEN_UNIT = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
FINITE = _checked(float, math.isfinite, "finite")

FLAGS = {
    "input": dict(required=True, help="input JSON path"),
    "output": dict(required=True, help="output directory"),
    "seed": dict(type=SEED, help="64-bit RNG seed"),
    "quiet": dict(action="store_true", help="no summary line"),
    "grid": dict(type=COUNT, help="grid/quadrature resolution"),
    "max-pq": dict(type=COUNT, help="largest p, q of the rational tori"),
    "plot-grid": dict(type=COUNT, help="points per axis of the plot CSVs"),
    "samples": dict(type=COUNT, help="Monte Carlo samples"),
    "horizon": dict(type=POSITIVE, help="flow time of each sample"),
    "surface": dict(choices=("y", "x"), help="axis disk: bounded by the "
                    "orbit over the y or x intercept"),
    "orientation": dict(type=int, choices=(1, -1)),
    "z-threshold": dict(type=NONNEGATIVE, help="largest |z| (else exit 4)"),
    "return-tol": dict(type=POSITIVE, help="near-return tolerance"),
    "threads": dict(type=COUNT, help="worker threads"),
    "dump-samples": dict(action="store_true", help="write samples.csv"),
    "n-tori": dict(type=COUNT, help="tori in the orbit set"),
    "k-max": dict(type=COUNT, help="largest period of the periodic points"),
    "epsilon": dict(type=OPEN_UNIT, help="pairing slack"),
    "suspension-c": dict(type=FINITE, help="default from the map"),
    "export-curves": dict(action="store_true", help="write curve_*.csv"),
}

# flags every command reads, with their defaults
COMMON = {"input": None, "output": None, "seed": 0, "quiet": False}


# a JSON string, or a NaN or infinity literal outside strings
_CONSTANT = re.compile(r'"(?:\\.|[^"\\])*"|(NaN|-?Infinity)')


def load_input(path: str) -> dict:
    """The strict JSON document in a file: NaN and Infinity are no JSON
    numbers (RFC 8259, section 6)."""
    text = rp.read_text(path)

    def constant(name):
        # the parser read all text before the first literal outside a
        # string, so the literal is that one
        pos = next(m.start(1) for m in _CONSTANT.finditer(text) if m[1])
        raise json.JSONDecodeError(f"{name} is not a JSON number", text, pos)

    try:
        return json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def meta(args) -> dict:
    return {"report_version": rp.REPORT_VERSION, "command": args.command,
            "seed": int(args.seed), "rng": fl.RNG_NAME}


def finish(args, report: dict, summary: str):
    """Convert the report to JSON values once, validate it, write it to the
    output directory and print the summary line."""
    doc = rp.validate_report(args.command, rp.jsonable(report))
    path = os.path.join(args.output, f"{args.command}.json")
    rp.write_report(path, doc)
    if not args.quiet:
        print(f"{args.command}: {summary} -> {path}")


# ---------------------------------------------------------------------------
# command handlers


def run_toric_analyze(args):
    profile = profile_from_json(load_input(args.input))
    ic = profile.intercepts()
    rng = fl.rng_for_seed(args.seed)
    ts = rng.uniform(0.0, profile.two_area, 500)
    x, y, d1, d2 = profile.boundary_arrays(ts)
    euler = float(np.max(np.abs(x * d1 + y * d2 - 1.0)))

    h = 1e-5 * profile.two_area    # t spans [0, 2A] at every scale
    t_in = rng.uniform(0.05 * profile.two_area, 0.95 * profile.two_area, 100)
    xp, yp, _, _ = profile.boundary_arrays(t_in + h)
    xm, ym, _, _ = profile.boundary_arrays(t_in - h)
    x0, y0, d10, d20 = profile.boundary_arrays(t_in)
    xdot = (xp - xm) / (2 * h)
    ydot = (yp - ym) / (2 * h)
    hamilton = float(np.max(np.abs(xdot + d20) + np.abs(ydot - d10)))
    area_rate = float(np.max(np.abs(x0 * ydot - y0 * xdot - 1.0)))
    consistency = abs(ic.a * ic.d1_at_a - 1.0) + abs(ic.b * ic.d2_at_b - 1.0)

    report = {**meta(args), "profile": profile.to_json(),
              "a": ic.a, "b": ic.b,
              "area": profile.quadrant_area(),
              "volume": sy.contact_volume(profile),
              "checks": {"euler_max_residual": euler,
                         "hamilton_max_residual": hamilton,
                         "area_rate_max_residual": area_rate,
                         "intercept_consistency": float(consistency)},
              "tori": sy.enumerate_tori(profile, args.max_pq)}
    finish(args, report,
           f"a={ic.a:.6g} b={ic.b:.6g} area={report['area']:.6g}")
    ts_plot = np.linspace(0.0, profile.two_area, args.plot_grid)
    bx, by, bd1, bd2 = profile.boundary_arrays(ts_plot)
    rp.write_csv(os.path.join(args.output, "boundary.csv"),
                 ("t", "x", "y", "d1", "d2"), (ts_plot, bx, by, bd1, bd2))


def run_systole(args):
    profile = profile_from_json(load_input(args.input))
    rep = sy.systolic_interval(profile, grid_n=args.grid,
                               max_pq_witness=args.max_pq)
    report = {**meta(args), "profile": profile.to_json(), **vars(rep)}
    finish(args, report,
           f"interval=[{rep.interval[0]:.9g}, {rep.interval[1]:.9g}] "
           f"norm={rep.norm:.3g} contains_one={rep.contains_one}")
    rp.emit_plot_data(args.output, profile, args.plot_grid)


def run_verify_action_linking(args):
    profile = profile_from_json(load_input(args.input))
    surface = tp.axis_disk(profile, args.surface, orientation=args.orientation)
    rep = tp.action_linking_verify(profile, surface, args.samples,
                                   args.horizon, args.seed,
                                   return_tol=args.return_tol,
                                   threads=args.threads)
    report = {**meta(args), "profile": profile.to_json(),
              "surface": {"kind": surface.kind, "axis": args.surface,
                          "angle": surface.angle,
                          "orientation": surface.orientation},
              "lhs": rep.lhs, "rhs": rep.rhs, "stderr": rep.stderr,
              "z": rep.z if math.isfinite(rep.z) else None,
              "n_samples": rep.n_samples, "horizon": rep.horizon,
              "n_fallback": rep.n_fallback, "return_tol": args.return_tol,
              "z_threshold": args.z_threshold}
    finish(args, report,
           f"lhs={rep.lhs:.9g} rhs={rep.rhs:.9g} z={rep.z:.3g} "
           f"fallback={rep.n_fallback}")
    if args.dump_samples:
        n = args.samples
        rp.write_samples_csv(os.path.join(args.output, "samples.csv"), (
            fl.liouville_sample(profile, n, args.seed, lo,
                                min(lo + tp.RATE_BLOCK, n))
            for lo in range(0, n, tp.RATE_BLOCK)))
    # the report and samples stay written for inspection when these raise
    tp.check_resolved(rep)
    tp.check_statistical(rep, args.z_threshold)


def run_equidistribute(args):
    profile = profile_from_json(load_input(args.input))
    oset = fl.approximate_liouville_by_orbits(profile, args.n_tori,
                                              args.max_pq)
    orbits = [{**vars(t), "weight": w}
              for t, w in zip(oset.orbits, oset.weights)]
    report = {**meta(args), "profile": profile.to_json(),
              "n_tori": args.n_tori, "max_pq": args.max_pq,
              "discrepancy": oset.discrepancy, "orbits": orbits,
              "per_function": [{"name": n, "weighted_average": v, "target": m}
                               for n, v, m in oset.per_function]}
    finish(args, report,
           f"n_tori={args.n_tori} discrepancy={oset.discrepancy:.6g}")


def _check_resonances(H, k_max: int):
    count = dm.resonance_count(H, k_max)
    if count > MAX_RESONANCES:
        raise ValidationError(
            f"periods up to {k_max} make {count} (k, m) resonances to scan, "
            f"above the limit {MAX_RESONANCES}; lower --k-max or the "
            "rotation rate")


def run_diskmap_calabi(args):
    H = dm.hamiltonian_from_json(load_input(args.input))
    _check_resonances(H, args.k_max)
    cal = dm.calabi(H, args.grid)
    residual = dm.calabi_eta_residual(H, max(16, args.grid // 2))
    report = {**meta(args), "hamiltonian": H.to_json(), "calabi": cal,
              "eta_shift_residual": residual, "quad_n": args.grid,
              "boundary_flags": H.boundary_flags()}
    finish(args, report, f"calabi={cal:.12g}")
    rp.write_action_spectrum(args.output, H, dm.periodic_points(H, args.k_max),
                             args.plot_grid)


def run_diskmap_dictionary(args):
    H = dm.hamiltonian_from_json(load_input(args.input))
    _check_resonances(H, max(args.k_max, 4))
    rep = dm.suspension_dictionary(H, c=args.suspension_c,
                                   k_max=args.k_max,
                                   epsilon=args.epsilon,
                                   quad_n=args.grid)
    chk = dm.mean_action_theorem_check(H, args.epsilon,
                                       k_max=max(args.k_max, 4),
                                       quad_n=args.grid)
    # the dictionary's fields are report keys; its rows stay records
    report = {**meta(args), "hamiltonian": H.to_json(), **vars(rep),
              "mean_action_check": {
                  "found_low": chk.found_low, "found_high": chk.found_high,
                  "witness_low": chk.witness_low,
                  "witness_high": chk.witness_high,
                  "boundary_rotation": chk.boundary_rotation,
                  "hypothesis_cal_lt_half_rotation":
                      chk.hypothesis_cal_lt_half_rotation}}
    finish(args, report,
           f"c={rep.c:.6g} calabi={rep.calabi:.9g} "
           f"points={len(rep.rows)} vol_resid={rep.volume_residual:.2e}")
    # the rows are the periodic points up to k_max, with their z, k and
    # mean action, in the order periodic_points returns them
    rp.write_action_spectrum(args.output, H, rep.rows, args.plot_grid)


def _curve_plan(spec: dict, label: str):
    """(segments, build) of a curve spec checked against the linking
    record: its segment count, read before any curve exists, and a
    function returning (curve, report entry)."""
    if "csv" in spec:
        pts = rp.read_curve_csv(spec["csv"])
        return len(pts) - 1, lambda: (
            tp.ClosedCurve.from_points(pts),
            {"csv": spec["csv"], "points": int(len(pts))})
    [(kind, o)] = spec.items()
    profile = profile_from_json(o["profile"])
    n = int(o.get("samples", 1024 if kind == "orbit" else 256))
    if n < 1:
        raise ValidationError(f"{label}: 'samples' must be >= 1, got {n}")
    if kind == "axis_orbit":
        orbit = sy.axis_orbit(profile, o.get("axis", "y"))
        return n, lambda: (
            tp.toric_orbit_curve(profile, orbit, n),
            {"axis": orbit.axis, "period": orbit.period, "samples": n})
    p, q = int(o["p"]), int(o["q"])
    phase2 = float(o.get("phase2", 0.0))
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValidationError(f"{label}: (p, q) must be coprime positives")
    # enumerate_tori builds max(p, q)^2 classes
    if max(p, q) > MAX_PQ:
        raise ValidationError(
            f"{label}: orbit ({p}, {q}) has max(p, q) above the limit "
            f"{MAX_PQ}; ask for less")
    matches = [t for t in sy.enumerate_tori(profile, max(p, q))
               if (t.p, t.q) == (p, q)]
    if not matches:
        raise ValidationError(f"{label}: profile has no ({p}, {q}) torus")
    index = int(o.get("index", 0))
    if not 0 <= index < len(matches):
        raise ValidationError(f"{label}: torus index {index} out of range "
                              f"({len(matches)} roots)")
    torus = matches[index]
    return n, lambda: (
        tp.toric_orbit_curve(profile, torus, n, phase2=phase2),
        {"p": p, "q": q, "t": torus.t, "period": torus.period, "samples": n})


def run_linking(args):
    specs = rp.validate_input("linking", load_input(args.input))["curves"]
    (n1, build1), (n2, build2) = (_curve_plan(s, f"curves[{i}]")
                                  for i, s in enumerate(specs))
    if n1 * n2 > LINK_MAX_PAIRS:
        raise ValidationError(
            f"{n1} x {n2} segments make {n1 * n2} segment pairs, above the "
            f"limit {LINK_MAX_PAIRS}; sample the curves more coarsely")
    (c1, desc1), (c2, desc2) = build1(), build2()
    res = tp.linking_number(c1, c2)
    report = {**meta(args), **vars(res), "curves": [desc1, desc2]}
    finish(args, report, f"link={res.link} residual={res.residual:.3g}")
    if args.export_curves:
        for i, curve in enumerate((c1, c2), start=1):
            rp.write_curve_csv(os.path.join(args.output, f"curve_{i}.csv"),
                               curve.points)


# ---------------------------------------------------------------------------
# dispatch

# command -> (handler, {flag: default} of the flags it reads besides COMMON)
COMMANDS = {
    "toric-analyze": (run_toric_analyze, {"max-pq": 12, "plot-grid": 128}),
    "systole": (run_systole,
                {"grid": 4096, "max-pq": 12, "plot-grid": 128}),
    "verify-action-linking": (run_verify_action_linking, {
        "samples": 100000, "horizon": 1000.0, "surface": "y",
        "orientation": 1, "z-threshold": 4.0, "return-tol": 0.1,
        "threads": 1, "dump-samples": False}),
    "equidistribute": (run_equidistribute, {"n-tori": 64, "max-pq": 12}),
    "diskmap-calabi": (run_diskmap_calabi,
                       {"grid": 64, "k-max": 3, "plot-grid": 128}),
    "diskmap-dictionary": (run_diskmap_dictionary, {
        "grid": 64, "k-max": 3, "epsilon": 0.1, "suspension-c": None,
        "plot-grid": 128}),
    "linking": (run_linking, {"export-curves": False}),
}


class Parser(argparse.ArgumentParser):
    """argparse with one stderr line per rejection, and negative numbers
    in exponent form (-1e0) read as values: argparse's own negative-number
    pattern has no exponent, so it reads them as options.  Subparsers are
    made of the same class, so a flag that a subcommand does not read is
    rejected by that subcommand's parser, which names it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command table.  Given the name of a command, it
    holds only that subparser, which parses that command's argv as the
    full table would; any other argv (--help, a typo, none) needs the
    full table, whose usage and errors list every command."""
    parser = Parser(
        prog="reebsys",
        description="systolic invariants and flow statistics of toric "
                    "domain boundaries and disk-map suspensions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        if command in COMMANDS and name != command:
            continue
        p = sub.add_parser(name)
        for flag, default in {**COMMON, **flags}.items():
            p.add_argument(f"--{flag}", default=default, **FLAGS[flag])
    return parser


def run(args) -> int:
    grid_limit = MAX_THETA_GRID if args.command == "systole" else MAX_QUAD_N
    limits = {"samples": MAX_SAMPLES, "max_pq": MAX_PQ,
              "plot_grid": MAX_PLOT_GRID, "grid": grid_limit,
              "n_tori": MAX_N_TORI, "k_max": MAX_K_MAX}
    for dest, limit in limits.items():
        value = getattr(args, dest, None)
        if value is not None and value > limit:
            raise ValidationError(
                f"--{dest.replace('_', '-')} {value} is above the limit "
                f"{limit} of {args.command}; ask for less")
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory "
                              f"{args.output}: {exc.strerror}") from exc
    COMMANDS[args.command][0](args)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except StatisticalError as exc:
        print(f"statistical inconsistency: {exc}", file=sys.stderr)
        return 4
    except ReebsysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
