"""Functions of reebsys that no golden case reaches, each with its reason.

The golden corpus (test_golden.py) runs every subcommand.  This test
runs the corpus again in a fresh interpreter under sys.setprofile and
threading.setprofile (the verifier's worker threads), with reebsys
imported under them too, so that caches filled by other tests hide no
call.  The functions and methods defined in src/reebsys that nothing
calls must be the pinned table UNREACHED.  A function that stops being
reached fails the test until it is deleted or listed with the reason it
stays; a listed function that a case starts to reach fails it too, so
the table stays exact.  Nested functions are not listed: they are
reached through the function that defines them.

    PYTHONPATH=src python tests/test_reach.py <workdir>

prints the unreached functions as a JSON list.
"""
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import threading

TRACE = "trace target of perfbench/spans.py"
ABSTRACT = "abstract stub; every profile kind overrides it"

UNREACHED = {
    "cli.Parser.error": "error path: a rejected flag",
    "diskmap.default_suspension_constant":
        "default of --suspension-c, which the golden dictionary case sets",
    "flows.orbit_average": TRACE,
    "numerics.adaptive_gauss": TRACE,
    "numerics.fixed_gauss": "the panel rule of adaptive_gauss",
    "numerics.panel_gauss_many": TRACE,
    "profiles.EllipsoidProfile.scaled": "test oracle: dilation covariance",
    "profiles.LpProfile.scaled": "test oracle: dilation covariance",
    "profiles.SplineProfile.boundary_radius_deriv":
        "test oracle: r' against scipy's PCHIP",
    "profiles.SplineProfile.scaled": "test oracle: dilation covariance",
    "profiles.ToricProfile._area_table": ABSTRACT,
    "profiles.ToricProfile._panel_area": ABSTRACT,
    "profiles.ToricProfile._panel_rate": ABSTRACT,
    "profiles.ToricProfile._sector_rate":
        "acceptance quantity: the integrand of average_identity_residual",
    "profiles.ToricProfile._t_of_theta": ABSTRACT,
    "profiles.ToricProfile.boundary_radius": ABSTRACT,
    "profiles.ToricProfile.gradient":
        "acceptance quantity: the gradient of F in the plane",
    "profiles.ToricProfile.gradient_theta": ABSTRACT,
    "profiles.ToricProfile.has_positive_partials":
        "acceptance quantity: the positive-partials hypothesis",
    "profiles.ToricProfile.quadrant_area": ABSTRACT,
    "profiles.ToricProfile.scaled": ABSTRACT,
    "profiles.ToricProfile.to_json": ABSTRACT,
    "profiles.ToricProfile.value": "acceptance quantity: F in the plane",
    "profiles._as_quadrant_points": "the argument check of value and gradient",
    "profiles.perturbed_ellipsoid_profile":
        "test oracle: the spline fixture of the test suites and scripts",
    "profiles.round_profile": "test oracle: the round fixture",
    "reports._branch_violation": "error path: an input that fits no oneOf "
                                 "branch",
    "reports.read_curve_csv": "a csv curve of linking, which no golden "
                              "case reads",
    "systolic.AxisOrbit.p": "test oracle: the winding pair that "
                            "test_systolic's pairing_from_definition reads",
    "systolic.AxisOrbit.q": "test oracle: the winding pair that "
                            "test_systolic's pairing_from_definition reads",
    "systolic._superlevel_fraction": "the measure of witness_measure",
    "systolic.average_identity_residual":
        "acceptance quantity: the boundary-average identity",
    "systolic.pairing_orbit_orbit": TRACE,
    "systolic.witness_measure": "acceptance quantity: the witness measure",
    "topology.ClosedCurve.from_points": "a csv curve of linking, which no "
                                        "golden case reads",
    "topology.ClosedCurve.subdivided":
        "fallback path: no sure, even crossing count at level 0",
    "topology._gauss_linking_sum":
        "test oracle of linking_number, and a " + TRACE,
    "topology._gauss_tile": "test oracle: the tile sum of _gauss_linking_sum",
}


def unreached_functions(workdir: str) -> list:
    """Names ("module.qualname") of the functions and methods defined in
    the reebsys modules that neither importing them nor any golden case
    calls, sorted.  Functions that dataclasses generate or that a module
    imports from elsewhere are not counted."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        reebsys = importlib.import_module("reebsys")
        modules = [importlib.import_module(f"reebsys.{info.name}")
                   for info in pkgutil.iter_modules(reebsys.__path__)]
        from test_golden import CASES, run_case
        for case in CASES:
            os.makedirs(os.path.join(workdir, case[0]))
            run_case(case, os.path.join(workdir, case[0]))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    names = set()
    for mod in modules:
        for obj in vars(mod).values():
            for fn in vars(obj).values() if isinstance(obj, type) else [obj]:
                # a property's getter, a static method's function, and the
                # function an lru_cache wraps
                fn = inspect.unwrap(getattr(fn, "fget", None)
                                    or getattr(fn, "__func__", fn))
                code = getattr(fn, "__code__", None)
                if (code is not None and code.co_filename == mod.__file__
                        and code not in called):
                    names.add(f"{mod.__name__.removeprefix('reebsys.')}."
                              f"{fn.__qualname__}")
    return sorted(names)


def test_unreached_functions_are_pinned(tmp_path):
    import reebsys
    src = os.path.dirname(os.path.dirname(reebsys.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    unreached = set(json.loads(run.stdout.splitlines()[-1]))
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []


if __name__ == "__main__":
    print(json.dumps(unreached_functions(sys.argv[1])))
