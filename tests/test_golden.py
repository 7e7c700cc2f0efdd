"""Golden report corpus: every subcommand on the profile matrix at small sizes.

Each case runs ``reebsys.cli.main`` on an input written from the case list
below and compares every file the run writes, byte for byte, with
``tests/golden/<case>/``.  The stdout summary line is kept there as
``stdout.txt``, with the output directory written as ``<out>``.

    PYTHONPATH=src python tests/test_golden.py

rewrites the corpus from the same case list.
"""
import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import pytest

from conftest import SPLINE_ARGS
from reebsys.cli import main
from reebsys.profiles import perturbed_ellipsoid_points

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
STDOUT = "stdout.txt"
PI = math.pi

PROFILES = {
    "round": {"kind": "lp", "p": 2.0, "a": 1.0, "b": 1.0},
    "ellipsoid": {"kind": "ellipsoid", "a": 0.7, "b": 1.9},
    "lp3": {"kind": "lp", "p": 3.0, "a": 1.2, "b": 0.9},
    "spline": {"kind": "sampled",
               "points": perturbed_ellipsoid_points(*SPLINE_ARGS).tolist()},
}
WELL = {"kind": "radial", "h": {"type": "poly", "coeffs": [PI, -2 * PI, PI]}}
LINK = {"curves": [
    {"orbit": {"profile": PROFILES["round"], "p": 2, "q": 3, "samples": 96}},
    {"axis_orbit": {"profile": PROFILES["round"], "axis": "y",
                    "samples": 48}}]}
# two (1, 1) orbits 3e-3 apart in phase: no coarse copy is certified, so
# the Gauss sum runs on the full curves
CLOSE = {"curves": [
    {"orbit": {"profile": PROFILES["round"], "p": 1, "q": 1, "samples": 300}},
    {"orbit": {"profile": PROFILES["round"], "p": 1, "q": 1, "samples": 150,
               "phase2": 3e-3}}]}

DUMPED = ("round", "spline")   # samples.csv is large; two profiles suffice

# (case name, input document, argv after --input/--output, exit code)
CASES = []
for _name, _doc in PROFILES.items():
    CASES += [
        (f"toric-analyze-{_name}", _doc,
         ["toric-analyze", "--max-pq", "4", "--plot-grid", "12",
          "--seed", "3"], 0),
        (f"systole-{_name}", _doc,
         ["systole", "--grid", "256", "--max-pq", "4", "--plot-grid", "6"], 0),
        (f"verify-action-linking-{_name}", _doc,
         ["verify-action-linking", "--samples", "300", "--horizon", "200",
          "--seed", "7"] + (["--dump-samples"] if _name in DUMPED else []),
         0),
        (f"equidistribute-{_name}", _doc,
         ["equidistribute", "--n-tori", "4", "--max-pq", "20"], 0),
    ]
CASES += [
    ("verify-action-linking-ellipsoid-x", PROFILES["ellipsoid"],
     ["verify-action-linking", "--samples", "300", "--horizon", "150",
      "--surface", "x", "--orientation", "-1", "--return-tol", "0.2",
      "--z-threshold", "5", "--threads", "2", "--seed", "9"], 0),
    ("verify-action-linking-round-z0", PROFILES["round"],
     ["verify-action-linking", "--samples", "200", "--horizon", "100",
      "--z-threshold", "0.0"], 4),
    ("diskmap-calabi-well", WELL,
     ["diskmap-calabi", "--grid", "32", "--k-max", "2", "--plot-grid", "12"],
     0),
    ("diskmap-dictionary-well", WELL,
     ["diskmap-dictionary", "--grid", "32", "--k-max", "2",
      "--suspension-c", "1.0", "--epsilon", "0.1", "--plot-grid", "12"], 0),
    ("linking-orbit23-yaxis", LINK, ["linking", "--export-curves"], 0),
    ("linking-close-orbit11", CLOSE, ["linking"], 0),
]


def run_case(case, workdir):
    """Run one case in workdir; returns {file name: bytes} of its output,
    stdout.txt included."""
    name, doc, argv, code = case
    inp = os.path.join(workdir, "input.json")
    out = os.path.join(workdir, "out")
    with open(inp, "w") as fh:
        json.dump(doc, fh)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        got = main([argv[0], "--input", inp, "--output", out] + argv[1:])
    assert got == code, f"{name}: exit {got}, expected {code}"
    files = {}
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            files[fname] = fh.read()
    files[STDOUT] = stdout.getvalue().replace(out, "<out>").encode()
    return files


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden(case, tmp_path):
    files = run_case(case, str(tmp_path))
    expected_dir = os.path.join(GOLDEN, case[0])
    assert sorted(files) == sorted(os.listdir(expected_dir))
    for fname, data in files.items():
        with open(os.path.join(expected_dir, fname), "rb") as fh:
            assert data == fh.read(), f"{case[0]}/{fname} differs"


def record():
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as work:
            files = run_case(case, work)
        target = os.path.join(GOLDEN, case[0])
        os.makedirs(target)
        for fname, data in files.items():
            with open(os.path.join(target, fname), "wb") as fh:
                fh.write(data)
        print(f"{case[0]}: {len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    record()
