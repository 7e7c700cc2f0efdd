"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line after its assertions; run with `pytest -s
tests/test_acceptance.py` to see the checklist.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import SPLINE_ARGS, random_star_profile, star_profiles
from reebsys.cli import main
from reebsys.flows import approximate_liouville_by_orbits
from reebsys.profiles import (EllipsoidProfile, LpProfile,
                              perturbed_ellipsoid_profile, round_profile)
from reebsys.systolic import (axis_orbit, average_identity_residual,
                              enumerate_tori, pairing_orbit_orbit,
                              systolic_interval, witness_measure)
from reebsys.topology import (action_linking_verify, axis_disk, linking_number,
                              toric_orbit_curve)
from reebsys.diskmap import (RadialHamiltonian, mean_action_theorem_check,
                             suspension_dictionary)

PI = math.pi

ELLIPSOIDS = [(0.5, 0.5), (1.0, 1.0), (1.0, 2.0), (2.5, 0.6), (3.0, 3.0),
              (0.7, 1.9), (1.3, 0.8), (2.0, 1.0), (1.5, 2.5), (0.9, 2.8)]
LP_PROFILES = [(1.5, 1.0, 1.0), (3.0, 1.0, 1.0), (4.0, 1.0, 1.0),
               (1.5, 0.8, 1.4), (3.0, 1.2, 0.9), (4.0, 2.0, 1.0),
               (1.5, 2.0, 2.0), (3.0, 0.6, 1.1), (4.0, 1.3, 1.3),
               (3.0, 2.2, 0.7)]

SEED = 20260810


def spline_profile():
    return perturbed_ellipsoid_profile(*SPLINE_ARGS)


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_01_ellipsoid_rigidity():
    for a, b in ELLIPSOIDS:
        rep = systolic_interval(EllipsoidProfile(a, b), grid_n=1024)
        assert abs(rep.interval[0] - 1.0) <= 1e-9
        assert abs(rep.interval[1] - 1.0) <= 1e-9
        assert rep.norm < 1e-9
    for p, a, b in LP_PROFILES:
        rep = systolic_interval(LpProfile(p, a, b), grid_n=1024)
        assert rep.norm > 1e-3
    report(1, "10 ellipsoids give interval [1, 1] (norm < 1e-9); "
              "10 non-linear lp profiles have norm > 1e-3")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(star_profiles())
def test_02_interval_membership_property(profile):
    rep = systolic_interval(profile, grid_n=1024)
    assert rep.contains_one


def test_02_interval_membership_seeded_sweep():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        profile = random_star_profile(rng)
        rep = systolic_interval(profile, grid_n=1024)
        assert rep.contains_one
    report(2, "contains_one holds on 50 random smooth star-shaped profiles "
              "(plus the hypothesis sweep above)")


def test_03_round_profile_closed_forms():
    r = round_profile()
    rho_axes = pairing_orbit_orbit(r, axis_orbit(r, "y"), axis_orbit(r, "x"))
    assert rho_axes == pytest.approx(PI / 2, abs=1e-8)
    rep = systolic_interval(r, grid_n=4096)
    assert abs(rep.interval[0] - 0.0) < 1e-4
    assert abs(rep.interval[1] - PI / 2) < 1e-4
    t11 = [t for t in enumerate_tori(r, 1) if (t.p, t.q) == (1, 1)][0]
    rho_diag = pairing_orbit_orbit(r, t11, axis_orbit(r, "y"))
    assert rho_diag == pytest.approx(PI / (2 * math.sqrt(2)), abs=1e-8)
    report(3, "round profile: rho(axis pair) = pi/2, interval [0, pi/2] at "
              "grid 4096, rho(diagonal torus, y-axis orbit) = pi/(2 sqrt 2)")


def test_04_average_identity():
    for profile in (EllipsoidProfile(1.0, 2.0), round_profile(), spline_profile()):
        assert average_identity_residual(profile) < 1e-9
    report(4, "averaged product of the partials matches a*b within 1e-9 "
              "relative on ellipsoid(1,2), round and spline profiles")


def test_05_enlarged_interval_coincides():
    matrix = [EllipsoidProfile(a, b) for a, b in ELLIPSOIDS]
    matrix += [LpProfile(p, a, b) for p, a, b in LP_PROFILES]
    matrix += [round_profile(), spline_profile()]
    for profile in matrix:
        rep = systolic_interval(profile, grid_n=4096)
        assert abs(rep.enlarged_interval[0] - rep.interval[0]) < 1e-6
        assert abs(rep.enlarged_interval[1] - rep.interval[1]) < 1e-6
    report(5, "independently computed enlarged interval matches the systolic "
              "interval within 1e-6 across the 22-profile matrix")


def test_06_action_linking_matrix():
    cells = [("ellipsoid(1,1)", EllipsoidProfile(1.0, 1.0), True),
             ("ellipsoid(1,2)", EllipsoidProfile(1.0, 2.0), True),
             ("round", round_profile(), False),
             ("spline", spline_profile(), False)]
    for name, profile, exact in cells:
        for axis in ("y", "x"):
            rep = action_linking_verify(profile, axis_disk(profile, axis),
                                        n_samples=10 ** 5, horizon=1000.0,
                                        seed=SEED)
            assert rep.z <= 4.0, (name, axis, rep.z)
            if exact:
                assert abs(rep.lhs - rep.rhs) <= 1e-10, (name, axis)
    report(6, "volume-weighted mean crossing rate matches the surface "
              "contact area (z <= 4) on all 8 cells; ellipsoid cells exact "
              "to 1e-10")


def test_07_linking_oracle():
    r = round_profile()
    tori = enumerate_tori(r, 5)
    assert len(tori) == 19
    cy = toric_orbit_curve(r, axis_orbit(r, "y"), 256)
    for torus in tori:
        res = linking_number(toric_orbit_curve(r, torus, 2048), cy)
        assert res.link == torus.p, (torus.p, torus.q, res.link)
        assert res.residual < 0.05
    by_class = {(t.p, t.q): t for t in tori}
    pairs = [((1, 2), (2, 1)), ((2, 3), (3, 2)), ((1, 1), (2, 3)),
             ((3, 4), (4, 3)), ((1, 5), (5, 1))]
    for c1, c2 in pairs:
        t_a, t_b = by_class[c1], by_class[c2]
        near, far = (t_a, t_b) if t_a.t > t_b.t else (t_b, t_a)
        res = linking_number(toric_orbit_curve(r, t_a, 2048),
                             toric_orbit_curve(r, t_b, 2048))
        assert res.link == far.p * near.q, (c1, c2, res.link)
        assert res.residual < 0.05
    report(7, "Gauss estimator returns link = p against the y-axis orbit for "
              "all coprime classes up to 5, and p_far * q_near for torus "
              "pairs, residual < 0.05")


def test_08_witness_sets_and_equidistribution():
    r = round_profile()
    for eps in (0.1, 0.3):
        wm = witness_measure(r, "y", eps)
        assert wm.fraction_ge > 0 and wm.fraction_le > 0
        ge_oracle = math.acos(2 * (1 - eps) / PI) / (PI / 2)
        le_oracle = 1.0 - math.acos(min(1.0, 2 * (1 + eps) / PI)) / (PI / 2)
        assert abs(wm.fraction_ge - ge_oracle) < 1e-6
        assert abs(wm.fraction_le - le_oracle) < 1e-6
    oset = approximate_liouville_by_orbits(r, 64, 64)
    assert oset.discrepancy < 0.05
    report(8, "witness fractions positive and within 1e-6 of the quadrature "
              "oracles at eps in {0.1, 0.3}; orbit-set discrepancy "
              f"{oset.discrepancy:.4f} < 0.05 at 64 tori")


def test_09_suspension_dictionary():
    H = RadialHamiltonian([PI, -2 * PI, PI])  # h(s) = pi (1 - s)^2
    rep = suspension_dictionary(H, c=1.0, k_max=3, epsilon=0.1)
    assert abs(rep.calabi - 2 * PI / 3) < 1e-8
    assert rep.volume_residual < 1e-8
    assert rep.rows
    for row in rep.rows:
        assert row.period_residual < 1e-8
        assert row.page_crossings == row.k
    chk = mean_action_theorem_check(H, 0.1, k_max=8)
    assert chk.found_low and chk.found_high
    report(9, "suspension dictionary holds at every periodic point "
              "(period, crossings, volume all within 1e-8) and mean-action "
              "witnesses exist on both sides of Calabi at eps = 0.1")


def test_10_cli_reproducibility(tmp_path):
    profile_path = tmp_path / "round.json"
    profile_path.write_text(json.dumps({"kind": "lp", "p": 2.0,
                                        "a": 1.0, "b": 1.0}))
    ham_path = tmp_path / "well.json"
    ham_path.write_text(json.dumps({"kind": "radial",
                                    "h": {"type": "poly",
                                          "coeffs": [PI, -2 * PI, PI]}}))
    link_path = tmp_path / "link.json"
    link_path.write_text(json.dumps({"curves": [
        {"orbit": {"profile": {"kind": "lp", "p": 2.0, "a": 1.0, "b": 1.0},
                   "p": 1, "q": 2, "samples": 512}},
        {"axis_orbit": {"profile": {"kind": "lp", "p": 2.0, "a": 1.0,
                                    "b": 1.0}, "axis": "y",
                        "samples": 128}}]}))
    commands = [
        ["toric-analyze", "--input", profile_path, "--max-pq", "3"],
        ["systole", "--input", profile_path, "--grid", "512",
         "--plot-grid", "32"],
        ["verify-action-linking", "--input", profile_path, "--samples",
         "5000", "--dump-samples"],
        ["equidistribute", "--input", profile_path, "--n-tori", "16",
         "--max-pq", "32"],
        ["diskmap-calabi", "--input", ham_path, "--grid", "48"],
        ["diskmap-dictionary", "--input", ham_path, "--suspension-c", "1.0",
         "--k-max", "2"],
        ["linking", "--input", link_path],
    ]
    for argv in commands:
        outputs = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / run_dir / argv[0]
            code = main([str(a) for a in argv] +
                        ["--output", str(out), "--seed", "424242", "--quiet"])
            assert code == 0, argv[0]
            blobs = {f.name: f.read_bytes()
                     for f in sorted(out.iterdir()) if f.is_file()}
            outputs.append(blobs)
        assert outputs[0].keys() == outputs[1].keys(), argv[0]
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (argv[0], name)
    report(10, "all seven CLI commands produce byte-identical reports and "
               "CSV dumps across repeated runs with the same seed")
