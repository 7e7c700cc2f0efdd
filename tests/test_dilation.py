"""Dilation covariance of the systolic interval and of the boundary-average
identity's relative residual.

Dilating a boundary by s scales area parameters by s^2 and partial
derivatives by 1/s, so pairings and the systolic interval do not change.
A power-of-two s commutes with every rational operation, so there the
interval must be the same to the bit.  Warnings are errors here: an
overflow or underflow on the way must not pass unseen.
"""
import json

import numpy as np
import pytest

from conftest import load_perfbench
from reebsys.cli import main
from reebsys.profiles import SplineProfile
from reebsys.systolic import average_identity_residual


def systole_interval(tmp_path, doc):
    tmp_path.mkdir()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["systole", "--input", str(path), "--output", str(out),
                 "--grid", "256", "--quiet"]) == 0
    return json.loads((out / "systole.json").read_text())["interval"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, rel", [(2.0 ** -64, 0.0), (2.0 ** 64, 0.0),
                                        (1e80, 1e-13)],
                         ids=["2^-64", "2^64", "1e80"])
def test_benchmark_spline_interval_is_dilation_invariant(tmp_path, capsys,
                                                         scale, rel):
    doc = load_perfbench("workloads").profiles(1.0)["spline"]
    base = systole_interval(tmp_path / "base", doc)
    points = (np.array(doc["points"]) * scale).tolist()
    got = systole_interval(tmp_path / "dilated",
                           {"kind": "sampled", "points": points})
    assert got == pytest.approx(base, rel=rel, abs=0.0)
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [2.0 ** -64, 2.0 ** 64, 1e-80, 1e80],
                         ids=["2^-64", "2^64", "1e-80", "1e80"])
def test_benchmark_spline_average_identity_is_dilation_invariant(scale):
    points = np.array(load_perfbench("workloads").profiles(1.0)["spline"]
                      ["points"])
    base = average_identity_residual(SplineProfile(points))
    got = average_identity_residual(SplineProfile(points * scale))
    if np.log2(scale).is_integer():
        assert got == base
    else:
        assert got == pytest.approx(base, rel=1e-3)
