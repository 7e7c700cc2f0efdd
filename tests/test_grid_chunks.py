"""The systole path's theta-grid scans, and the CSV writers, in chunks of
numerics.GRID_CHUNK nodes or cells: the same bits at any chunk size, and
working memory set by the chunk instead of the grid.

Chunked minima and maxima combine exactly, argmins keep np.argmin's first
index and a gradient lane does not depend on its batch, so a chunk of 7
nodes, which splits every grid off its cell boundaries, and one larger
than any grid, which takes it whole, must both give the default's bits.
"""
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_star_profile
from reebsys import numerics
from reebsys.cli import main
from reebsys.diskmap import hamiltonian_from_json, periodic_points
from reebsys.profiles import HALF_PI, LpProfile, grid_theta
from reebsys.reports import (emit_plot_data, write_action_spectrum,
                             write_curve_csv)
from reebsys.systolic import (DENSE_N, RationalTorus, _dense_extremes,
                              enumerate_tori, systolic_interval)
from reebsys.topology import toric_orbit_curve

WELL = {"kind": "radial", "h": {"type": "poly",
                                "coeffs": [math.pi, -2 * math.pi, math.pi]}}


@pytest.fixture(scope="module")
def chunk_profiles(profile_matrix):
    return profile_matrix + [random_star_profile(np.random.default_rng(3))]


def scans(profile, tmp_path):
    """What the systole path computes from its grids, with the bytes of
    both plot CSVs at two plot grids (3 rows splits into blocks of 2 and 1
    at a 7-node chunk)."""
    plots = []
    for n in (3, 24):
        out = tmp_path / f"plot{n}"
        out.mkdir(exist_ok=True)
        plots += [Path(path).read_bytes()
                  for path in emit_plot_data(str(out), profile, n)]
    return (systolic_interval(profile, grid_n=256, max_pq_witness=6),
            enumerate_tori(profile, 12),
            profile.partials_range(profile.grid_partials(4096)),
            _dense_extremes(profile, DENSE_N), plots,
            csv_files(profile, tmp_path))


def csv_files(profile, tmp_path):
    """The bytes of write_csv's files: toric-analyze's boundary.csv, an
    orbit curve (write_curve_csv) and action_spectrum.csv.  At a 7-cell
    chunk their 5, 4 and 3 columns take 1, 1 and 2 rows per block."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(profile.to_json()))
    out = tmp_path / "analyze"
    assert main(["toric-analyze", "--input", str(path), "--output",
                 str(out), "--max-pq", "2", "--plot-grid", "24",
                 "--quiet"]) == 0
    torus = RationalTorus(2, 3, 0.4 * profile.two_area, 1.0)
    curve = str(tmp_path / "curve.csv")
    write_curve_csv(curve, toric_orbit_curve(profile, torus, n=33).points)
    H = hamiltonian_from_json(WELL)
    spectrum = write_action_spectrum(str(tmp_path), H,
                                     periodic_points(H, 4), 20)
    return [Path(p).read_bytes()
            for p in (out / "boundary.csv", curve, spectrum)]


@pytest.mark.parametrize("chunk", [7, 1 << 22])
def test_chunk_size_does_not_change_bits(chunk_profiles, tmp_path,
                                         monkeypatch, chunk):
    for profile in chunk_profiles:
        default = scans(profile, tmp_path)
        monkeypatch.setattr(numerics, "GRID_CHUNK", chunk)
        assert scans(profile, tmp_path) == default
        monkeypatch.undo()


@pytest.mark.parametrize("chunk", [4099, 1 << 22])
def test_chunk_size_does_not_change_the_dense_grid_route(chunk_profiles,
                                                         monkeypatch, chunk):
    # from DENSE_N nodes on, the --grid grid is scanned for the enlarged
    # interval too; an odd chunk of 4099 nodes keeps this grid to 128
    # chunks
    profile = chunk_profiles[-1]
    default = systolic_interval(profile, grid_n=DENSE_N + 7, max_pq_witness=6)
    monkeypatch.setattr(numerics, "GRID_CHUNK", chunk)
    assert systolic_interval(profile, grid_n=DENSE_N + 7,
                             max_pq_witness=6) == default


@pytest.mark.parametrize("n", [8, 4096, 4097, DENSE_N, DENSE_N + 7])
def test_grid_theta_is_linspace_bit_for_bit(n):
    got = grid_theta(np.arange(n), n)
    want = np.linspace(0.0, HALF_PI, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_systole_memory_is_set_by_the_chunk(profile_matrix):
    # the grid, its two partials and one signed copy of a partial
    # (refine_extremum) are grid-sized; everything else is at most 64
    # chunk-sized arrays, or 1 MiB of small ones.  Building the whole
    # grid's temporaries at once traced 53-61 MB here.
    grid_n = 1 << 18
    bound = 4 * 8 * grid_n + 64 * 8 * numerics.GRID_CHUNK + (1 << 20)
    for profile in (LpProfile(3.0, 1.2, 0.9), profile_matrix[-1]):
        assert traced_peak(systolic_interval, profile, grid_n) < bound


def test_plot_grid_memory_is_set_by_the_chunk(monkeypatch, tmp_path):
    # a block of the 256 x 256 table is 4 rows of 1024 cells, about 250 B
    # each as row text and Python objects, beside n-long axis arrays
    n = 256
    monkeypatch.setattr(numerics, "GRID_CHUNK", 1024)
    bound = 512 * numerics.GRID_CHUNK + 256 * n
    peak = traced_peak(emit_plot_data, str(tmp_path),
                       LpProfile(3.0, 1.2, 0.9), n)
    assert peak < bound
