import functools
import importlib
import os
import sys

import hypothesis
import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from referencing import Registry, Resource

from reebsys.profiles import (EllipsoidProfile, LpProfile, SplineProfile,
                              perturbed_ellipsoid_profile, round_profile)
from reebsys.reports import RECORDS, load_schema
from reebsys.systolic import _coprime_classes

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")

# fixed spline-perturbed ellipsoid used across the suites
SPLINE_ARGS = (1.15, 0.85, (0.018, -0.011, 0.007))


@pytest.fixture(scope="session")
def round_p():
    return round_profile()


@pytest.fixture(scope="session")
def e11():
    return EllipsoidProfile(1.0, 1.0)


@pytest.fixture(scope="session")
def e12():
    return EllipsoidProfile(1.0, 2.0)


@pytest.fixture(scope="session")
def spline_p():
    return perturbed_ellipsoid_profile(*SPLINE_ARGS)


@pytest.fixture(scope="session")
def profile_matrix(round_p, e11, e12, spline_p):
    return [e11, e12, EllipsoidProfile(0.7, 1.9), round_p,
            LpProfile(3.0, 1.2, 0.9), spline_p]


@st.composite
def star_profiles(draw):
    """Random smooth star-shaped boundaries with positive partials."""
    a = draw(st.floats(0.6, 2.5))
    b = draw(st.floats(0.6, 2.5))
    c1 = draw(st.floats(-0.03, 0.03))
    c2 = draw(st.floats(-0.02, 0.02))
    c3 = draw(st.floats(-0.012, 0.012))
    profile = perturbed_ellipsoid_profile(a, b, (c1, c2, c3), n=192)
    assume(profile.has_positive_partials(grid_n=1024))
    return profile


def random_star_profile(rng: np.random.Generator) -> SplineProfile:
    """Seeded variant of the hypothesis strategy for fixed-count sweeps."""
    while True:
        a = rng.uniform(0.6, 2.5)
        b = rng.uniform(0.6, 2.5)
        coeffs = (rng.uniform(-0.03, 0.03), rng.uniform(-0.02, 0.02),
                  rng.uniform(-0.012, 0.012))
        profile = perturbed_ellipsoid_profile(a, b, coeffs, n=192)
        if profile.has_positive_partials(grid_n=1024):
            return profile


def load_perfbench(name: str):
    """A module of the benchmark harness, imported without writing
    bytecode into its tree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True        # leave the benchmark tree as it is
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)


def wrap_to_pi(theta):
    """Angles reduced to [-pi, pi): the chord oracle of the verifier tests.
    The loop of a sweep is closed by the chord wrap_to_pi(-sweep), the
    shorter way round the circle to a whole number of turns."""
    two_pi = 2.0 * np.pi
    return np.mod(np.asarray(theta, float) + np.pi, two_pi) - np.pi


coprime_classes = functools.cache(_coprime_classes)


def table_flat_class(d1g, d2g, max_pq):
    """The former constant-gradient test, kept as the oracle: every coprime
    class up to max_pq is shortlisted on the first grid node and tested on
    the whole grid; the flat class with the smallest (max(p, q), p)."""
    scale = float(np.max(np.abs(d1g)) + np.max(np.abs(d2g)))
    p, q = coprime_classes(max_pq)
    tol = 1e-12 * (p + q) * scale
    flat = np.flatnonzero(np.abs(q * d1g[0] - p * d2g[0]) <= tol)
    h_flat = q[flat, None] * d1g - p[flat, None] * d2g
    flat = flat[np.max(np.abs(h_flat), axis=1) <= tol[flat]].tolist()
    if not flat:
        return None
    k = min(flat, key=lambda i: (max(p[i], q[i]), p[i]))
    return int(p[k]), int(q[k])


# the ellipsoids whose constant-gradient picks were compared bit for bit
# when the class table was first shared with equidistribute
PICKED_ELLIPSOIDS = [(1.0, 1.0), (1.0, 2.0), (0.7, 1.9), (0.791, 2.147),
                     (1.0, 3.0), (2.0, 1.0), (3.0, 2.0)]

# the jsonschema oracle resolves $ref through a registry that holds the
# records file
REGISTRY = Resource.from_contents(load_schema(RECORDS)) @ Registry()
