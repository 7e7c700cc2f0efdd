import importlib
import os
import sys

import hypothesis
import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from reebsys.profiles import (EllipsoidProfile, LpProfile, SplineProfile,
                              perturbed_ellipsoid_profile, round_profile)

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
