import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import reebsys
from conftest import REGISTRY, SPLINE_ARGS
from reebsys.cli import COMMANDS, build_parser, main
from reebsys.diskmap import RadialHamiltonian, suspension_dictionary
from reebsys.errors import ValidationError
from reebsys.reports import (RECORDS, load_schema, read_curve_csv,
                             validate_input, validate_report)

PI = math.pi

ROUND = {"kind": "lp", "p": 2.0, "a": 1.0, "b": 1.0}
E12 = {"kind": "ellipsoid", "a": 1.0, "b": 2.0}
WELL = {"kind": "radial", "h": {"type": "poly",
                                "coeffs": [PI, -2 * PI, PI]}}


def steep_well(c2):
    return {"kind": "radial", "h": {"type": "poly", "coeffs": [0, 0, c2]}}


def write_json(path, obj):
    # an inf float is written as 1e400, the JSON number that parses to
    # it, not as json.dumps' Infinity, which is no JSON
    path.write_text(json.dumps(obj).replace("Infinity", "1e400"))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def load_strict(path):
    """A report parsed with every non-finite JSON constant rejected."""
    def reject(name):
        raise ValueError(f"non-finite constant {name} in a report")

    return json.loads(path.read_text(), parse_constant=reject)


def load_report(outdir, command):
    with open(os.path.join(outdir, f"{command}.json")) as fh:
        return json.load(fh)


class TestCommands:
    def test_toric_analyze(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        assert run(["toric-analyze", "--input", inp, "--output", out,
                    "--max-pq", 3]) == 0
        rep = load_report(out, "toric-analyze")
        validate_report("toric-analyze", rep)
        assert rep["a"] == pytest.approx(1.0)
        assert rep["volume"] == pytest.approx(PI ** 3 / 2)
        assert rep["checks"]["euler_max_residual"] < 1e-8
        assert (out / "boundary.csv").exists()

    def test_toric_analyze_small_ellipsoid(self, tmp_path):
        # the finite-difference step is relative to 2A = 1e-4 here: an
        # absolute step of 1e-5 left [0, 2A] at the top of the t range
        inp = write_json(tmp_path / "p.json",
                         {"kind": "ellipsoid", "a": 0.01, "b": 0.01})
        assert run(["toric-analyze", "--input", inp,
                    "--output", tmp_path / "o", "--max-pq", 3]) == 0
        rep = load_report(tmp_path / "o", "toric-analyze")
        assert rep["checks"]["hamilton_max_residual"] < 1e-6

    def test_systole_on_ellipsoid(self, tmp_path):
        inp = write_json(tmp_path / "p.json", E12)
        out = tmp_path / "out"
        assert run(["systole", "--input", inp, "--output", out,
                    "--grid", 512]) == 0
        rep = load_report(out, "systole")
        validate_report("systole", rep)
        assert rep["interval"][0] == pytest.approx(1.0, abs=1e-9)
        assert rep["interval"][1] == pytest.approx(1.0, abs=1e-9)
        assert rep["contains_one"] is True
        grid = np.genfromtxt(out / "systolic_grid.csv", delimiter=",",
                             names=True)
        assert np.allclose(grid["g"], 1.0, atol=1e-9)

    def test_systole_round_grid_extrema(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        assert run(["systole", "--input", inp, "--output", out,
                    "--grid", 1024, "--plot-grid", 64]) == 0
        grid = np.genfromtxt(out / "systolic_grid.csv", delimiter=",",
                             names=True)
        assert grid["g"].min() == pytest.approx(0.0, abs=1e-8)
        assert grid["g"].max() == pytest.approx(PI / 2, abs=0.01)

    def test_verify_action_linking(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        code = run(["verify-action-linking", "--input", inp, "--output", out,
                    "--samples", 20000, "--seed", 11, "--dump-samples"])
        assert code == 0
        rep = load_report(out, "verify-action-linking")
        validate_report("verify-action-linking", rep)
        assert rep["rhs"] == pytest.approx(PI, abs=1e-12)
        assert rep["z"] <= 4.0
        assert rep["seed"] == 11
        with open(out / "samples.csv") as fh:
            assert fh.readline().strip() == "t,theta1,theta2"

    def test_equidistribute(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        assert run(["equidistribute", "--input", inp, "--output", out,
                    "--n-tori", 32, "--max-pq", 48]) == 0
        rep = load_report(out, "equidistribute")
        validate_report("equidistribute", rep)
        assert rep["discrepancy"] < 0.05
        assert len(rep["orbits"]) == 32
        assert math.fsum(o["weight"] for o in rep["orbits"]) == pytest.approx(1.0)

    def test_diskmap_calabi(self, tmp_path):
        inp = write_json(tmp_path / "h.json", WELL)
        out = tmp_path / "out"
        assert run(["diskmap-calabi", "--input", inp, "--output", out]) == 0
        rep = load_report(out, "diskmap-calabi")
        validate_report("diskmap-calabi", rep)
        assert rep["calabi"] == pytest.approx(2 * PI / 3, abs=1e-10)
        assert (out / "action_spectrum.csv").exists()

    def test_diskmap_dictionary(self, tmp_path):
        inp = write_json(tmp_path / "h.json", WELL)
        out = tmp_path / "out"
        assert run(["diskmap-dictionary", "--input", inp, "--output", out,
                    "--suspension-c", 1.0, "--k-max", 2,
                    "--epsilon", 0.1]) == 0
        rep = load_report(out, "diskmap-dictionary")
        validate_report("diskmap-dictionary", rep)
        assert rep["volume_residual"] < 1e-8
        assert all(r["equivalence_ok"] for r in rep["rows"])
        assert rep["mean_action_check"]["found_low"]
        assert rep["mean_action_check"]["found_high"]

    def test_linking_roundtrip_through_csv(self, tmp_path):
        spec = {"curves": [
            {"orbit": {"profile": ROUND, "p": 2, "q": 3, "samples": 512}},
            {"axis_orbit": {"profile": ROUND, "axis": "y", "samples": 128}}]}
        inp = write_json(tmp_path / "l.json", spec)
        out = tmp_path / "out"
        assert run(["linking", "--input", inp, "--output", out,
                    "--export-curves"]) == 0
        rep = load_report(out, "linking")
        validate_report("linking", rep)
        assert rep["link"] == 2
        spec2 = {"curves": [{"csv": str(out / "curve_1.csv")},
                            {"csv": str(out / "curve_2.csv")}]}
        inp2 = write_json(tmp_path / "l2.json", spec2)
        out2 = tmp_path / "out2"
        assert run(["linking", "--input", inp2, "--output", out2]) == 0
        assert load_report(out2, "linking")["link"] == 2
        pts = read_curve_csv(str(out / "curve_1.csv"))
        assert pts.shape[1] == 4


class TestExitCodes:
    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ellipsoid", "a": 1.0')
        out = tmp_path / "out"
        assert run(["systole", "--input", bad, "--output", out]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_profile_key(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json",
                         {"kind": "ellipsoid", "a": 1.0, "b": 1.0, "zz": 1})
        assert run(["systole", "--input", inp, "--output", tmp_path / "o"]) == 2
        assert "at $: keys ['zz'] are not allowed" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        assert run(["systole", "--input", tmp_path / "nope.json",
                    "--output", tmp_path / "o"]) == 2

    def test_coverage_failure_is_numerical(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json", ROUND)
        assert run(["equidistribute", "--input", inp,
                    "--output", tmp_path / "o", "--n-tori", 32,
                    "--max-pq", 2]) == 3
        assert "subinterval" in capsys.readouterr().err

    def test_statistical_failure(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        code = run(["verify-action-linking", "--input", inp, "--output", out,
                    "--samples", 2000, "--z-threshold", 0.0, "--quiet"])
        assert code == 4
        # the report is still written for inspection
        assert (out / "verify-action-linking.json").exists()

    def test_negative_partial_profile_rejected(self, tmp_path):
        from reebsys.profiles import perturbed_ellipsoid_points
        pts = perturbed_ellipsoid_points(0.7, 2.3, (0.35,), n=128)
        inp = write_json(tmp_path / "p.json",
                         {"kind": "sampled", "points": pts.tolist()})
        assert run(["systole", "--input", inp, "--output", tmp_path / "o"]) == 2

    def test_negative_partial_between_close_knots_rejected(self, tmp_path,
                                                           capsys):
        # a unit circle whose r rises by 1e-7 at the middle of five knots
        # 2e-5 rad apart near theta = 2e-3: D2F dips to -0.006 between
        # the knots, inside one cell of the 4096-node check grid
        step = (PI / 2) / ((1 << 19) - 1)
        bump = (672 + 6 * np.arange(-2.0, 3.0)) * step
        theta = np.union1d(np.linspace(0.0, PI / 2, 64), bump)
        r = np.where(theta == bump[2], 1.0 + 1e-7, 1.0)
        inp = write_json(tmp_path / "p.json", {
            "kind": "sampled",
            "points": np.c_[r * np.cos(theta), r * np.sin(theta)].tolist()})
        assert run(["systole", "--input", inp, "--output", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "min D2F = -0.00" in err


    def test_skewed_ellipsoid_verifies(self, tmp_path):
        inp = write_json(tmp_path / "p.json",
                         {"kind": "ellipsoid", "a": 1e-4, "b": 1e4})
        out = tmp_path / "out"
        assert run(["verify-action-linking", "--input", inp, "--output", out,
                    "--samples", 1000, "--quiet"]) == 0
        rep = load_report(out, "verify-action-linking")
        assert rep["z"] == 0 and rep["rhs"] == PI * 1e4

    def test_zero_spread_mismatch_writes_null_z(self, tmp_path):
        # one sample has no spread, so lhs != rhs makes z infinite: the
        # report stays strict JSON and the run exits 4
        inp = write_json(tmp_path / "p.json", ROUND)
        out = tmp_path / "out"
        assert run(["verify-action-linking", "--input", inp, "--output", out,
                    "--samples", 1, "--seed", 1, "--quiet"]) == 4
        rep = load_strict(out / "verify-action-linking.json")
        assert rep["z"] is None and rep["stderr"] == 0
        assert rep["n_fallback"] == 0 and rep["lhs"] != rep["rhs"]

    @pytest.mark.parametrize("doc, argv", [
        (ROUND, ["--samples", 1000, "--horizon", 1]),
        (ROUND, ["--samples", 1000, "--horizon", 2]),
        (ROUND, ["--samples", 1000, "--horizon", 3]),
        ({"kind": "ellipsoid", "a": 3, "b": 1e-5},
         ["--samples", 64, "--horizon", 1, "--seed", 1]),
    ], ids=["round-h1", "round-h2", "round-h3", "flat-ellipsoid"])
    def test_all_fallback_is_a_resolution_error(self, tmp_path, capsys, doc,
                                                argv):
        # no sample has a near-return within the horizon, so the mean is
        # the fallback estimate alone, whatever z says
        inp = write_json(tmp_path / "p.json", doc)
        out = tmp_path / "out"
        assert run(["verify-action-linking", "--input", inp, "--output", out,
                    "--quiet"] + argv) == 3
        horizon = argv[argv.index("--horizon") + 1]
        n = argv[argv.index("--samples") + 1]
        assert capsys.readouterr().err == (
            f"numerical error: all {n} samples fell back: none has a "
            f"near-return within horizon {horizon}; raise --horizon\n")
        # the report is still written for inspection
        rep = load_strict(out / "verify-action-linking.json")
        assert rep["n_fallback"] == rep["n_samples"] == n

    @pytest.mark.parametrize("command", ["diskmap-calabi",
                                         "diskmap-dictionary"])
    @pytest.mark.parametrize("coeffs, message", [
        (["a"], "at $.h.coeffs[0]: 'a' is not of type number"),
        ([1.0, None], "at $.h.coeffs[1]: None is not of type number"),
        ([1e400], "at $.h.coeffs[0]: inf is not a finite double"),
        ([1e308, 1e308], "coefficients [1e+308, 1e+308] make h or h' overflow"),
    ], ids=["string", "null", "inf", "overflow"])
    def test_bad_radial_coefficients(self, tmp_path, capsys, command, coeffs,
                                     message):
        inp = write_json(tmp_path / "h.json",
                         {"kind": "radial",
                          "h": {"type": "poly", "coeffs": coeffs}})
        assert run([command, "--input", inp, "--output", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_profile_number(self, tmp_path, capsys):
        inp = write_json(tmp_path / "p.json",
                         {"kind": "ellipsoid", "a": "inf", "b": 1.0})
        assert run(["toric-analyze", "--input", inp,
                    "--output", tmp_path / "o"]) == 2
        assert "at $.a: 'inf' is not of type number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["toric-analyze", "systole",
                                         "verify-action-linking"])
    @pytest.mark.parametrize("doc", [
        {"kind": "ellipsoid", "a": 1e300, "b": 1e300},
        {"kind": "lp", "p": 2, "a": 1e300, "b": 1e300}],
        ids=["ellipsoid", "lp2"])
    def test_profile_area_overflow(self, tmp_path, capsys, command, doc):
        inp = write_json(tmp_path / "p.json", doc)
        assert run([command, "--input", inp, "--output", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "finite" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o" / f"{command}.json").exists()

    @pytest.mark.parametrize("command", ["toric-analyze", "systole",
                                         "equidistribute"])
    @pytest.mark.parametrize("kind", ["lp3", "sampled"])
    def test_profile_radius_overflow(self, tmp_path, capsys, command, kind):
        # lp p=3 with a = b = 1e300: the level function underflows to 0 and
        # r = inf before the area quadrature runs
        if kind == "lp3":
            doc = {"kind": "lp", "p": 3, "a": 1e300, "b": 1e300}
        else:
            from reebsys.profiles import perturbed_ellipsoid_points
            pts = perturbed_ellipsoid_points(1.15, 0.85, (0.018,)) * 1e300
            doc = {"kind": "sampled", "points": pts.tolist()}
        inp = write_json(tmp_path / "p.json", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--input", inp, "--output", tmp_path / "o"])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (tmp_path / "o" / f"{command}.json").exists()

    def test_suspension_needs_positive_periods(self, tmp_path, capsys):
        # h = 3 s^2: H + 1 > 0, but the periods k (h - s h' + 1) are not
        inp = write_json(tmp_path / "h.json", {
            "kind": "radial", "h": {"type": "poly", "coeffs": [0, 0, 3]}})
        out = tmp_path / "out"
        assert run(["diskmap-dictionary", "--input", inp, "--output", out,
                    "--quiet"]) == 0
        rep = load_report(out, "diskmap-dictionary")
        assert rep["c"] == 4.0 and rep["volume"] > 0
        assert rep["rows"] and all(r["period"] > 0 for r in rep["rows"])
        assert run(["diskmap-dictionary", "--input", inp, "--output",
                    tmp_path / "o1", "--suspension-c", 1]) == 2
        err = capsys.readouterr().err
        assert "h - s h' + c > 0" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("orbit, axis_orbit, message", [
        ({"p": 2, "samples": 64}, {},
         "at $.curves[0].orbit: required key 'q' is missing"),
        ({"q": 3}, {}, "at $.curves[0].orbit: required key 'p' is missing"),
        ({"p": 2, "q": "three"}, {},
         "at $.curves[0].orbit.q: 'three' is not of type integer"),
        ({"p": 2, "q": 3, "samples": 2.5}, {},
         "at $.curves[0].orbit.samples: 2.5 is not of type integer"),
        ({"p": 2, "q": 3, "index": "0"}, {},
         "at $.curves[0].orbit.index: '0' is not of type integer"),
        ({"p": 2, "q": 3, "samples": -5}, {}, "'samples' must be >= 1"),
        ({"p": 2, "q": 3}, {"samples": True},
         "at $.curves[1].axis_orbit.samples: True is not of type integer"),
    ], ids=["no-q", "no-p", "q-string", "samples-float", "index-string",
            "samples-negative", "axis-samples-bool"])
    def test_bad_linking_orbit(self, tmp_path, capsys, orbit, axis_orbit,
                               message):
        spec = {"curves": [
            {"orbit": {"profile": ROUND, **orbit}},
            {"axis_orbit": {"profile": ROUND, "axis": "y", **axis_orbit}}]}
        inp = write_json(tmp_path / "l.json", spec)
        assert run(["linking", "--input", inp, "--output", tmp_path / "o"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("phase2, reason", [
        ("x", "'x' is not of type number"),
        (None, "None is not of type number"),
        (True, "True is not of type number"),
        (1e400, "inf is not a finite double"),
        (10 ** 400, "is not a finite double")],
        ids=["string", "null", "bool", "inf", "huge-int"])
    def test_bad_linking_phase(self, tmp_path, capsys, phase2, reason):
        spec = {"curves": [
            {"orbit": {"profile": ROUND, "p": 2, "q": 3, "phase2": phase2}},
            {"axis_orbit": {"profile": ROUND, "axis": "y"}}]}
        inp = write_json(tmp_path / "l.json", spec)
        assert run(["linking", "--input", inp, "--output", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "at $.curves[0].orbit.phase2: " in err and reason in err

    @pytest.mark.parametrize("orbit, other", [
        ({"p": 2, "q": 3, "samples": 10 ** 13}, {"axis_orbit": {"axis": "y"}}),
        ({"p": 2, "q": 3, "samples": 5000},
         {"orbit": {"p": 1, "q": 2, "samples": 5000}}),
    ], ids=["huge-samples", "two-5000"])
    def test_linking_pair_cap(self, tmp_path, capsys, orbit, other):
        # the segment-pair count is checked before any curve is sampled
        [(kind, body)] = other.items()
        spec = {"curves": [{"orbit": {"profile": ROUND, **orbit}},
                           {kind: {"profile": ROUND, **body}}]}
        inp = write_json(tmp_path / "l.json", spec)
        assert run(["linking", "--input", inp, "--output", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "segment pairs, above the limit 16777216" in err
        assert len(err.splitlines()) == 1

    @staticmethod
    def _link(tmp_path, path):
        return ["linking", "--input",
                write_json(tmp_path / "l.json", {"curves": [{"csv": path}] * 2}),
                "--output", tmp_path / "o"]

    @pytest.mark.parametrize("argv", [
        # unreadable inputs and outputs
        lambda d: ["systole", "--input", d, "--output", d / "o"],
        lambda d: ["systole", "--input", d / "bom.json", "--output", d / "o"],
        lambda d: ["systole", "--input", write_json(d / "p.json", ROUND),
                   "--output", d / "bom.json"],
        lambda d: TestExitCodes._link(d, 5),
        lambda d: TestExitCodes._link(d, str(d / "missing.csv")),
        lambda d: TestExitCodes._link(d, str(d / "ragged.csv")),
        # flags that would size an array past memory
        lambda d: ["verify-action-linking", "--input", write_json(
            d / "p.json", ROUND), "--output", d / "o", "--samples", 10 ** 10],
        lambda d: ["systole", "--input", write_json(d / "p.json", ROUND),
                   "--output", d / "o", "--plot-grid", 10 ** 6],
        lambda d: ["toric-analyze", "--input", write_json(d / "p.json", ROUND),
                   "--output", d / "o", "--max-pq", 10 ** 5],
        lambda d: ["diskmap-calabi", "--input", write_json(d / "h.json", WELL),
                   "--output", d / "o", "--grid", 10 ** 5],
        lambda d: ["equidistribute", "--input", write_json(d / "p.json", ROUND),
                   "--output", d / "o", "--n-tori", 10 ** 9],
        lambda d: ["diskmap-calabi", "--input", write_json(d / "h.json", WELL),
                   "--output", d / "o", "--k-max", 10 ** 8],
        lambda d: ["diskmap-dictionary", "--input", write_json(
            d / "h.json", WELL), "--output", d / "o", "--k-max", 10 ** 8],
        lambda d: ["linking", "--input", write_json(d / "l.json", {"curves": [
            {"orbit": {"profile": ROUND, "p": 10 ** 5, "q": 1}},
            {"axis_orbit": {"profile": ROUND, "axis": "y"}}]}),
                   "--output", d / "o"],
        # Hamiltonians whose rotation rate makes millions of resonances
        lambda d: ["diskmap-dictionary", "--input", write_json(
            d / "h.json", steep_well(1e6)), "--output", d / "o"],
        lambda d: ["diskmap-calabi", "--input", write_json(
            d / "h.json", steep_well(1e3)), "--output", d / "o",
                   "--k-max", 64],
    ], ids=["input-directory", "input-utf16-bom", "output-is-a-file",
            "csv-integer", "csv-missing", "csv-ragged", "samples", "plot-grid",
            "max-pq", "diskmap-grid", "n-tori", "calabi-k-max",
            "dictionary-k-max", "linking-orbit-pq", "dictionary-resonances",
            "calabi-resonances"])
    def test_unreadable_or_oversized_input(self, tmp_path, capsys, argv):
        (tmp_path / "bom.json").write_bytes(b"\xff\xfe{}")
        (tmp_path / "ragged.csv").write_text(
            "x1,y1,x2,y2\n" + "1,0,0,0\n0,1,0\n" * 3)
        start = time.perf_counter()
        assert run(argv(tmp_path)) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and len(err.splitlines()) == 1

    def test_steep_well_below_the_resonance_cap(self, tmp_path):
        # 6380 resonances at max(--k-max, 4) = 4 periods
        inp = write_json(tmp_path / "h.json", steep_well(1e3))
        assert run(["diskmap-dictionary", "--input", inp,
                    "--output", tmp_path / "o"]) == 0

    def test_no_torus_up_to_max_pq_is_validation(self, tmp_path, capsys):
        from reebsys.profiles import perturbed_ellipsoid_points
        pts = perturbed_ellipsoid_points(1.0, 2.0, (0.01,), n=128)
        inp = write_json(tmp_path / "p.json",
                         {"kind": "sampled", "points": pts.tolist()})
        assert run(["equidistribute", "--input", inp,
                    "--output", tmp_path / "o", "--n-tori", 4,
                    "--max-pq", 1]) == 2
        assert "commensurable" in capsys.readouterr().err

    @pytest.mark.parametrize("numerics", [{"quad_tol": "x"},
                                          {"table_panels": 0}, {}])
    def test_bad_numerics_rejected(self, tmp_path, capsys, numerics):
        # the tolerances are constants; any numerics block is an unknown key
        inp = write_json(tmp_path / "p.json", {**ROUND, "numerics": numerics})
        assert run(["toric-analyze", "--input", inp,
                    "--output", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "validation error: invalid profile input: at $: keys "
            "['numerics'] are not allowed\n")

    def test_curvature_bound_is_scale_free(self, tmp_path, capsys):
        from reebsys.profiles import perturbed_ellipsoid_points
        # |r''|/r is 4.57 at every size of the conftest spline
        pts = perturbed_ellipsoid_points(*SPLINE_ARGS) * 3000.0
        inp = write_json(tmp_path / "big.json",
                         {"kind": "sampled", "points": pts.tolist()})
        assert run(["systole", "--input", inp, "--output", tmp_path / "o",
                    "--grid", 256, "--plot-grid", 6, "--quiet"]) == 0
        # a corner sampled densely: 5.1e4 at the knots beside the kink
        theta = np.linspace(0.0, PI / 2, 20000)
        r = 1.0 / np.maximum(np.cos(theta), np.sin(theta))
        inp = write_json(tmp_path / "corner.json", {
            "kind": "sampled",
            "points": np.column_stack([r * np.cos(theta),
                                       r * np.sin(theta)]).tolist()})
        assert run(["toric-analyze", "--input", inp,
                    "--output", tmp_path / "c"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "|r''|/r = 5.09e+04" in err[0]

    @pytest.mark.parametrize("index, point, radii", [
        (5, [1e300, 0.9], "from 0.696 to 1e+300"),
        (0, [1e-320, 0], "from 1e-320 to 1.08")], ids=["huge", "subnormal"])
    def test_extreme_sample_point_names_the_scale(self, tmp_path, capsys,
                                                  index, point, radii):
        # the table and curvature divisions over- or underflow; under the
        # suite's warnings-as-errors a numpy warning would exit 1
        from reebsys.profiles import perturbed_ellipsoid_points
        pts = perturbed_ellipsoid_points(*SPLINE_ARGS, n=32).tolist()
        pts[index] = point
        inp = write_json(tmp_path / "p.json", {"kind": "sampled",
                                               "points": pts})
        assert run(["toric-analyze", "--input", inp,
                    "--output", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "validation error: boundary curvature |r''|/r is not finite "
            f"with sample radii {radii}; the samples span too many scales "
            "or crowd too close\n")

    @pytest.mark.parametrize("radius", [1.0, 1e200, 1e-200, 1e-310, 5e-324])
    def test_linking_csv_circle_at_any_radius(self, tmp_path, capsys, radius):
        # a circle in (x1, y1) links the unit circle in (x2, y2) once; the
        # norms of its points must not overflow or underflow.  Below the
        # smallest normal double its coordinates keep too few digits to
        # give directions (at 5e-324 they take three values), and the run
        # exits 2 naming that scale
        u = np.linspace(0.0, 2 * PI, 65)
        zero = np.zeros_like(u)
        paths = []
        for name, pts in (
                ("a", [radius * np.cos(u), radius * np.sin(u), zero, zero]),
                ("b", [zero, zero, np.cos(u), np.sin(u)])):
            rows = np.column_stack(pts)
            rows[-1] = rows[0]
            path = tmp_path / f"{name}.csv"
            path.write_text("x1,y1,x2,y2\n" + "".join(
                ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
            paths.append(str(path))
        inp = write_json(tmp_path / "l.json",
                         {"curves": [{"csv": p} for p in paths]})
        if radius < sys.float_info.min:
            assert run(["linking", "--input", inp,
                        "--output", tmp_path / "o"]) == 2
            assert capsys.readouterr().err == (
                f"validation error: curve point 0 has largest coordinate "
                f"{radius:.3g}, below the smallest normal double 2.23e-308; "
                f"scale the curve up\n")
            return
        assert run(["linking", "--input", inp, "--output", tmp_path / "o",
                    "--quiet"]) == 0
        assert load_report(tmp_path / "o", "linking")["link"] == 1
        text = (tmp_path / "a.csv").read_text().splitlines()
        text[3] = "0.0,0.0,0.0,0.0"
        (tmp_path / "a.csv").write_text("\n".join(text) + "\n")
        assert run(["linking", "--input", inp, "--output", tmp_path / "z"]) == 2
        assert capsys.readouterr().err == (
            "validation error: curve points must be away from the origin\n")


# ---------------------------------------------------------------------------
# malformed input documents: each breaks its record in records.v1.json at
# one place, and exits 2 with one stderr line naming that place

LINKING = {"curves": [
    {"orbit": {"profile": ROUND, "p": 2, "q": 3, "samples": 64}},
    {"axis_orbit": {"profile": ROUND, "axis": "y", "samples": 64}}]}
# record -> (command, valid document, the place of a number, of an object
# and of a required key in it, and the document nested wrongly with the
# place and reason of its violation)
INPUTS = {
    "profile": ("toric-analyze", {"kind": "lp", "p": 3.0, "a": 1.2, "b": 0.9},
                ("p",), (), ("p",),
                ({"kind": "lp", "p": [3.0]}, "$.p",
                 "[3.0] is not of type number")),
    "hamiltonian": ("diskmap-calabi", WELL, ("h", "coeffs", 1), ("h",),
                    ("h", "coeffs"),
                    ({"kind": "radial", "h": {"type": "poly"},
                      "coeffs": [1.0]}, "$", "keys ['coeffs'] are not allowed")),
    "linking": ("linking", LINKING, ("curves", 0, "orbit", "phase2"),
                ("curves", 0, "orbit"), ("curves", 0, "orbit", "q"),
                ({"curves": [LINKING["curves"][0]["orbit"],
                             LINKING["curves"][1]]}, "$.curves[0]",
                 "needs one of the keys ['csv', 'orbit', 'axis_orbit']")),
}
DROP = object()
NOT_FINITE = "is not a finite double"


def replaced(doc, loc, value):
    """A copy of doc with the value at loc set to value, or deleted when
    value is DROP."""
    if not loc:
        return value
    copy = doc.copy()
    if len(loc) > 1:
        copy[loc[0]] = replaced(doc[loc[0]], loc[1:], value)
    elif value is DROP:
        del copy[loc[0]]
    else:
        copy[loc[0]] = value
    return copy


def json_path(loc):
    return "$" + "".join(f"[{s}]" if type(s) is int else f".{s}" for s in loc)


def malformed_inputs():
    """pytest params (record, document, where, reason): the stderr line
    holds where and reason."""
    for record, (_, doc, num, obj, key, nested) in INPUTS.items():
        at = f"at {json_path(num)}: "
        for name, value, where, reason in (
                ("string", "3", at, "'3' is not of type"),
                ("bool", True, at, "True is not of type"),
                ("huge-int", 10 ** 400, at, NOT_FINITE),
                ("1e400", math.inf, at, "inf " + NOT_FINITE),
                # the parser stops at the literal, before any JSON path
                ("nan-literal", math.nan, "invalid JSON at line 1, column ",
                 "NaN is not a JSON number")):
            yield pytest.param(record, replaced(doc, num, value), where,
                               reason, id=f"{record}-{name}")
        yield pytest.param(record, replaced(doc, obj + ("zz",), 1),
                           f"at {json_path(obj)}: ",
                           "keys ['zz'] are not allowed",
                           id=f"{record}-unknown-key")
        yield pytest.param(record, replaced(doc, key, DROP),
                           f"at {json_path(key[:-1])}: ",
                           f"required key {key[-1]!r} is missing",
                           id=f"{record}-missing-key")
        nested_doc, path, reason = nested
        yield pytest.param(record, nested_doc, f"at {path}: ", reason,
                           id=f"{record}-wrong-nesting")
    # profiles that once exited 0 or 1
    for name, doc, path, reason in (
            ("lp-p-string", {"kind": "lp", "p": "3", "a": 1, "b": 1}, "$.p",
             "'3' is not of type number"),
            ("lp-b-bool", {"kind": "lp", "p": 3, "b": True}, "$.b",
             "True is not of type number"),
            ("sampled-point-string", {"kind": "sampled", "points": [
                [1, 0], [0.7, "0.7"], [0.5, 0.9], [0, 1]]}, "$.points[1][1]",
             "'0.7' is not of type number"),
            ("sampled-point-bool", {"kind": "sampled", "points": [
                [1, 0], [True, 0.7], [0.5, 0.9], [0, 1]]}, "$.points[1][0]",
             "True is not of type number"),
            ("ellipsoid-a-huge-int", {"kind": "ellipsoid", "a": 10 ** 400,
                                      "b": 1}, "$.a", NOT_FINITE)):
        yield pytest.param("profile", doc, f"at {path}: ", reason, id=name)


@pytest.mark.parametrize("record, doc, where, reason", malformed_inputs())
def test_malformed_input_exits_2_naming_the_place(tmp_path, capsys, record,
                                                  doc, where, reason):
    inp = write_json(tmp_path / "in.json", doc)
    assert run([INPUTS[record][0], "--input", inp,
                "--output", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("validation error: ")
    assert where in err and reason in err
    assert not (tmp_path / "o" / f"{INPUTS[record][0]}.json").exists()


def oracle(record):
    return Draft202012Validator(
        {"$ref": f"{load_schema(RECORDS)['$id']}#/$defs/{record}"},
        registry=REGISTRY)


@pytest.mark.parametrize("record", INPUTS)
def test_valid_inputs_pass_the_walker_and_jsonschema(record):
    doc = INPUTS[record][1]
    assert validate_input(record, doc) is doc and oracle(record).is_valid(doc)


@pytest.mark.parametrize("record, doc, where, reason", malformed_inputs())
def test_walker_agrees_with_jsonschema_on_malformed_inputs(record, doc, where,
                                                           reason):
    # the walker rejects every case; jsonschema too, except the non-finite
    # numbers, which JSON Schema accepts and the walker does not
    with pytest.raises(ValidationError, match="invalid .* input: at \\$"):
        validate_input(record, doc)
    non_finite = NOT_FINITE in reason or "NaN" in reason
    assert oracle(record).is_valid(doc) == non_finite


class TestFlagValidation:
    @pytest.mark.parametrize("command, doc, flags", [
        ("systole", E12, ["--seed", -1]),
        ("systole", E12, ["--seed", 2 ** 64]),
        ("diskmap-calabi", WELL, ["--grid", 0]),
        ("verify-action-linking", ROUND, ["--threads", 0]),
        ("verify-action-linking", ROUND, ["--horizon", -1]),
        ("verify-action-linking", ROUND, ["--z-threshold", "nan"]),
        ("diskmap-dictionary", WELL, ["--epsilon", 1.5]),
        ("diskmap-dictionary", WELL, ["--suspension-c", "inf"]),
        ("diskmap-dictionary", WELL, ["--suspension-c", "nan"]),
        # a flag the command does not read
        ("linking", ROUND, ["--samples", 5]),
    ], ids=["seed-negative", "seed-2^64", "calabi-grid-0", "threads-0",
            "horizon-negative", "z-threshold-nan", "epsilon-1.5",
            "suspension-c-inf", "suspension-c-nan", "linking-samples"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, command, doc,
                                  flags):
        inp = write_json(tmp_path / "in.json", doc)
        with pytest.raises(SystemExit) as exc:
            run([command, "--input", inp, "--output", tmp_path / "o"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert err.startswith(f"reebsys {command}: error: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["systole", "--grid",
                                                      "abc"]],
                             ids=["no-command", "unknown-command", "grid-abc"])
    def test_usage_errors_print_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and " error: " in err

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["systole", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: reebsys systole ")

    def test_one_subparser_parses_as_the_full_table(self, capsys):
        # main builds only the subparser that argv[0] names
        full = build_parser()
        for argv in [["--help"]] + [[name, "--help"] for name in COMMANDS]:
            outs = []
            for parse in (full.parse_args, main):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] and outs[0].startswith("usage: reebsys")
        for name in COMMANDS:
            argv = [name, "--input", "i.json", "--output", "o"]
            assert vars(build_parser(name).parse_args(argv)) == \
                vars(full.parse_args(argv))

    @pytest.mark.parametrize("value", ["-1e0", "-1E+0", "-10e-1", "-.1e1"])
    def test_exponent_form_negative_value(self, tmp_path, value):
        # h = 5 + s^2 has positive periods k (h - s h' + c) at c = -1
        inp = write_json(tmp_path / "h.json", {
            "kind": "radial", "h": {"type": "poly", "coeffs": [5, 0, 1]}})
        outs = []
        for name, c in (("plain", "-1.0"), ("exp", value)):
            out = tmp_path / name
            assert run(["diskmap-dictionary", "--input", inp, "--output", out,
                        "--suspension-c", c, "--quiet"]) == 0
            outs.append((out / "diskmap-dictionary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_largest_seed_accepted(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        assert run(["toric-analyze", "--input", inp, "--output",
                    tmp_path / "o", "--max-pq", 2, "--plot-grid", 4,
                    "--seed", 2 ** 64 - 1, "--quiet"]) == 0
        assert load_report(tmp_path / "o", "toric-analyze")["seed"] == \
            2 ** 64 - 1


class TestReproducibility:
    def test_identical_seeds_byte_identical(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["verify-action-linking", "--input", inp,
                        "--output", out, "--samples", 5000, "--seed", 77,
                        "--quiet", "--dump-samples"]) == 0
            outs.append(out)
        rep_a = (outs[0] / "verify-action-linking.json").read_bytes()
        rep_b = (outs[1] / "verify-action-linking.json").read_bytes()
        assert rep_a == rep_b
        assert (outs[0] / "samples.csv").read_bytes() == \
            (outs[1] / "samples.csv").read_bytes()

    def test_thread_env_does_not_change_bytes(self, tmp_path):
        inp = write_json(tmp_path / "p.json", ROUND)
        reports = []
        for name, threads in (("a", 1), ("b", 3)):
            out = tmp_path / name
            assert run(["verify-action-linking", "--input", inp,
                        "--output", out, "--samples", 4000, "--seed", 5,
                        "--threads", threads, "--quiet"]) == 0
            reports.append((out / "verify-action-linking.json").read_bytes())
        assert reports[0] == reports[1]


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(reebsys.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def loaded_modules(code, roots):
    """The modules under the given top-level names that a fresh interpreter
    has loaded after running code."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {roots!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env(),
                         check=True, capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


WELL_COEFFS = [3.141592653589793, -6.283185307179586, 3.141592653589793]
# script -> (pattern of a table row, rows at the arguments below)
TABLE_ROWS = {
    # one row per exponent p
    "systolic_survey.py": (r"\d\.\d{3} ", 2),
    # one row per profile and disk: four profiles, two disks
    "action_linking_matrix.py": (r"\S+ +[xy] ", 8),
    # one row per periodic point of the dictionary
    "suspension_demo.py": (r"\d+ +\d\.\d{4} ", len(suspension_dictionary(
        RadialHamiltonian(WELL_COEFFS), k_max=2, epsilon=0.1).rows)),
}


@pytest.mark.parametrize("script, args", [
    ("systolic_survey.py", ["--p-min", "1", "--p-max", "3", "--steps", "2",
                            "--grid", "256"]),
    ("action_linking_matrix.py", ["--samples", "2000"]),
    ("suspension_demo.py", ["--coeffs", *map(repr, WELL_COEFFS),
                            "--k-max", "2"]),
])
def test_experiment_scripts_run(script, args):
    """The README's experiment scripts run to exit 0 at small sizes and
    print one table row per case."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", script)
    proc = subprocess.run([sys.executable, "-W", "error", path, *args],
                          env=package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    row, rows = TABLE_ROWS[script]
    table = [line for line in proc.stdout.splitlines()
             if re.match(r" *" + row, line)]
    assert len(table) == rows, proc.stdout


def test_cli_import_loads_no_scipy():
    """The package runs on numpy alone; scipy is only a test oracle."""
    assert loaded_modules("import reebsys.cli", ("scipy",)) == "[]"


def test_command_loads_no_jsonschema(tmp_path):
    """Reports are validated in-house; jsonschema and its dependencies are
    only a test oracle."""
    inp = write_json(tmp_path / "p.json", ROUND)
    code = ("from reebsys.cli import main\n"
            f"assert main(['toric-analyze', '--input', {inp!r}, '--output', "
            f"{str(tmp_path / 'o')!r}, '--quiet']) == 0")
    roots = ("jsonschema", "referencing", "rpds", "attrs",
             "jsonschema_specifications")
    assert loaded_modules(code, roots) == "[]"
