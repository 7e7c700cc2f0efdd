"""Dilation covariance of the systolic interval, of the boundary-average
identity's relative residual, of the lp area map, of the verifier and of
toric-analyze's tori.

Dilating a boundary by s scales area parameters by s^2 and partial
derivatives by 1/s, so pairings and the systolic interval do not change.
A power-of-two s commutes with every rational operation, so there the
interval must be the same to the bit.  The verifier's rates scale by
1/s; with the horizon dilated by s too, its fallbacks and z do not
change.  Warnings are errors here: an overflow or underflow on the way
must not pass unseen.
"""
import json

import numpy as np
import pytest

from conftest import load_perfbench
from reebsys.cli import main
from reebsys.errors import ValidationError
from reebsys.profiles import (HALF_PI, LpProfile, SplineProfile,
                              perturbed_ellipsoid_points)
from reebsys.systolic import (average_identity_residual, axis_orbit,
                              pairing_orbit_orbit)
from reebsys.topology import _batch_rates, axis_disk


def systole_interval(tmp_path, doc):
    """The interval and the pairing values of a systole report."""
    tmp_path.mkdir()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["systole", "--input", str(path), "--output", str(out),
                 "--grid", "256", "--quiet"]) == 0
    report = json.loads((out / "systole.json").read_text())
    return report["interval"], report["pairing_values"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-300, -64, 0, 40, 64, 300])
def test_negative_partials_are_refused_at_every_scale(tmp_path, capsys, k):
    # min D2F is -0.565 at scale 1; the positivity bound scales with the
    # partials, so the dilated profile is refused at every scale too
    points = perturbed_ellipsoid_points(0.7, 2.3, (0.35,), 256) * 2.0 ** k
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "sampled",
                                "points": points.tolist()}))
    assert main(["systole", "--input", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "negative partial" in err


def assert_same_pairings(got, base):
    """The same number of distinct pairs, min and max within 1e-12."""
    assert base is not None and got is not None
    assert got["count"] == base["count"]
    for key in ("min", "max"):
        assert got[key] == pytest.approx(base[key], rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, rel", [(2.0 ** -64, 0.0), (2.0 ** 64, 0.0),
                                        (1e80, 1e-13)],
                         ids=["2^-64", "2^64", "1e80"])
def test_benchmark_spline_interval_is_dilation_invariant(tmp_path, capsys,
                                                         scale, rel):
    doc = load_perfbench("workloads").profiles(1.0)["spline"]
    base, base_pairs = systole_interval(tmp_path / "base", doc)
    points = (np.array(doc["points"]) * scale).tolist()
    got, pairs = systole_interval(tmp_path / "dilated",
                                  {"kind": "sampled", "points": points})
    assert got == pytest.approx(base, rel=rel, abs=0.0)
    assert_same_pairings(pairs, base_pairs)
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


LP_SCALES = [2.0 ** -64, 2.0 ** 64, 1e-80, 1e80]
LP_SCALE_IDS = ["2^-64", "2^64", "1e-80", "1e80"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [3.0, 1.1])
@pytest.mark.parametrize("scale", LP_SCALES, ids=LP_SCALE_IDS)
def test_lp_round_trip_is_dilation_invariant(p, scale):
    lp = LpProfile(p, 1.2, 0.9).scaled(scale)
    t = np.linspace(0.0, lp.two_area, 4001)
    back = lp.t_of_theta(lp.theta_of_t(t))
    assert np.max(np.abs(back - t)) <= 1e-14 * lp.two_area


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [3.0, 1.1])
@pytest.mark.parametrize("scale", LP_SCALES, ids=LP_SCALE_IDS)
def test_lp_interval_is_dilation_invariant(tmp_path, capsys, p, scale):
    # D1F and D2F come from pow in gradient_theta, whose rounding moves
    # with the scale: 4.1e-14 at 1e+-80, 1.0e-14 at 2^+-64
    base, base_pairs = systole_interval(
        tmp_path / "base", {"kind": "lp", "p": p, "a": 1.2, "b": 0.9})
    got, pairs = systole_interval(tmp_path / "dilated",
                                  {"kind": "lp", "p": p, "a": 1.2 * scale,
                                   "b": 0.9 * scale})
    assert got == pytest.approx(base, rel=1e-13, abs=0.0)
    # tori closer than 1e-9 * 2A count as one at every scale
    assert_same_pairings(pairs, base_pairs)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale", [2.0 ** -64, 1.0], ids=["2^-64", "1"])
def test_area_range_check_is_relative(scale):
    lp = LpProfile(3.0, 1.2, 0.9).scaled(scale)
    with pytest.raises(ValidationError, match="out of range"):
        lp.theta_of_t(2.0 * lp.two_area)
    assert lp.theta_of_t(lp.two_area * (1.0 + 1e-10)) == HALF_PI


VERIFY_EXPONENTS = [-300, -200, -64, 64, 200, 300]


def dilated_profile(name, scale):
    """The verifier's test profiles, dilated by scale."""
    if name == "ellipsoid":
        return {"kind": "ellipsoid", "a": 0.7 * scale, "b": 1.9 * scale}
    if name == "lp3":
        return {"kind": "lp", "p": 3.0, "a": 1.2 * scale, "b": 0.9 * scale}
    points = load_perfbench("workloads").profiles(1.0)["spline"]["points"]
    return {"kind": "sampled", "points": (np.array(points) * scale).tolist()}


def verify_report(tmp_path, doc, horizon):
    tmp_path.mkdir()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["verify-action-linking", "--input", str(path),
                 "--output", str(out), "--samples", "2000",
                 "--horizon", repr(horizon), "--quiet"]) == 0
    return json.loads((out / "verify-action-linking.json").read_text())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ellipsoid", "lp3", "spline"])
@pytest.mark.parametrize("k", VERIFY_EXPONENTS,
                         ids=[f"2^{k}" for k in VERIFY_EXPONENTS])
def test_verifier_is_dilation_invariant(tmp_path, capsys, name, k):
    # a sample falls back where q_cap = w1 * horizon / 2 pi is below 1,
    # and q_cap does not change when the profile and horizon are dilated
    base = verify_report(tmp_path / "base", dilated_profile(name, 1.0), 100.0)
    got = verify_report(tmp_path / "dilated", dilated_profile(name, 2.0 ** k),
                        100.0 * 2.0 ** k)
    assert got["n_fallback"] == base["n_fallback"] < 2000
    assert got["z"] == pytest.approx(base["z"], rel=1e-12, abs=0.0)
    assert capsys.readouterr().err == ""


def analyze_tori(tmp_path, doc):
    tmp_path.mkdir()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["toric-analyze", "--input", str(path), "--output", str(out),
                 "--max-pq", "4", "--plot-grid", "8", "--quiet"]) == 0
    return json.loads((out / "toric-analyze.json").read_text())["tori"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ellipsoid", "lp3", "spline"])
@pytest.mark.parametrize("k", VERIFY_EXPONENTS,
                         ids=[f"2^{k}" for k in VERIFY_EXPONENTS])
def test_toric_analyze_is_dilation_covariant(tmp_path, capsys, name, k):
    # area parameters scale by s^2; the finite-difference step of the
    # checks is relative to 2A, so it stays inside [0, 2A] at every scale
    base = analyze_tori(tmp_path / "base", dilated_profile(name, 1.0))
    got = analyze_tori(tmp_path / "dilated", dilated_profile(name, 2.0 ** k))
    assert [(t["p"], t["q"]) for t in got] == [(t["p"], t["q"]) for t in base]
    assert [t["t"] for t in got] == pytest.approx(
        [t["t"] * 2.0 ** (2 * k) for t in base], rel=1e-12, abs=0.0)
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_underflowing_d1_lane_falls_back():
    # at t = 2A of lp p = 40, D1F = (x/a)^39 / a underflows to exactly 0
    lp = LpProfile(40.0, 1.0, 1.0)
    assert lp.gradient_theta(lp.theta_of_t(lp.two_area))[0] == 0.0
    rows = np.array([[lp.two_area, 0.0, 0.0], [0.5 * lp.two_area, 0.0, 0.0]])
    rates, t_ret, fallback = _batch_rates(lp, rows, axis_disk(lp, "y"),
                                          100.0, 0.1)
    assert fallback.tolist() == [True, False]
    assert (rates[0], t_ret[0]) == (0.0, 100.0)


@pytest.mark.parametrize("scale", [2.0 ** -64, 1.0, 2.0 ** 64],
                         ids=["2^-64", "1", "2^64"])
def test_axis_pairing_is_dilation_invariant(scale):
    # the axis orbits are 2A apart in t: distinct at every scale
    lp = LpProfile(3.0, 1.2, 0.9)
    base = pairing_orbit_orbit(lp, axis_orbit(lp, "x"), axis_orbit(lp, "y"))
    dilated = lp.scaled(scale)
    x, y = axis_orbit(dilated, "x"), axis_orbit(dilated, "y")
    assert pairing_orbit_orbit(dilated, x, y) == pytest.approx(
        base, rel=1e-12, abs=0.0)
    with pytest.raises(ValidationError, match="distinct"):
        pairing_orbit_orbit(dilated, y, y)
