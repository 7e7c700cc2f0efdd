import csv
import glob
import io
import json
import math
import os
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from conftest import REGISTRY
from reebsys import diskmap as dm
from reebsys import reports
from reebsys.cli import COMMANDS, main
from reebsys.errors import ValidationError
from reebsys.flows import liouville_sample
from reebsys.profiles import profile_from_json
from reebsys.reports import (CSV_CHUNK_ROWS, RECORD_REF, RECORDS,
                             emit_plot_data, jsonable, load_schema,
                             read_curve_csv, render_report, validate_report,
                             write_action_spectrum, write_csv, write_curve_csv,
                             write_report, write_samples_csv)
from reebsys.systolic import enumerate_tori
from reebsys.topology import toric_orbit_curve

WELL = {"kind": "radial", "h": {"type": "poly",
                                "coeffs": [math.pi, -2 * math.pi, math.pi]}}


def test_jsonable_converts_numpy_types():
    obj = {"a": np.float64(0.5), "b": np.int64(3),
           "c": np.array([1.0, 2.0]), "d": (1, 2)}
    out = jsonable(obj)
    assert out == {"a": 0.5, "b": 3, "c": [1.0, 2.0], "d": [1, 2]}
    assert isinstance(out["a"], float) and isinstance(out["b"], int)


def test_jsonable_rejects_nan():
    with pytest.raises(ValidationError, match="NaN"):
        jsonable({"x": float("nan")})
    with pytest.raises(ValidationError, match="NaN"):
        jsonable({"x": np.float64("nan")})


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64("inf")])
def test_jsonable_rejects_infinity(value):
    with pytest.raises(ValidationError, match="infinities"):
        jsonable({"x": [1.0, value]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_report_exits_2_without_a_file(tmp_path, monkeypatch,
                                                   value):
    monkeypatch.setattr(dm, "calabi", lambda H, n: value)
    inp = tmp_path / "h.json"
    inp.write_text(json.dumps(WELL))
    out = tmp_path / "o"
    assert main(["diskmap-calabi", "--input", str(inp), "--output", str(out),
                 "--quiet"]) == 2
    assert not (out / "diskmap-calabi.json").exists()


def test_render_is_key_order_independent():
    a = render_report({"x": 1.0, "y": [2.0, 3.0]})
    b = render_report({"y": [2.0, 3.0], "x": 1.0})
    assert a == b
    assert json.loads(a) == {"x": 1.0, "y": [2.0, 3.0]}


def test_write_report_replaces_atomically(tmp_path):
    path = str(tmp_path / "r.json")
    write_report(path, {"v": 1})
    write_report(path, {"v": 2})
    assert json.loads((tmp_path / "r.json").read_text()) == {"v": 2}
    assert not (tmp_path / "r.json.tmp").exists()


def test_curve_csv_roundtrip_and_validation(tmp_path):
    ang = np.linspace(0, 2 * math.pi, 16)
    pts = np.column_stack([np.cos(ang), np.sin(ang),
                           np.zeros(16), np.zeros(16)])
    path = str(tmp_path / "c.csv")
    write_curve_csv(path, pts)
    back = read_curve_csv(path)
    assert np.allclose(back, pts)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ValidationError, match="header"):
        read_curve_csv(str(bad_header))

    bad_value = tmp_path / "badv.csv"
    bad_value.write_text("x1,y1,x2,y2\n1,2,three,4\n" * 5)
    with pytest.raises(ValidationError, match="non-numeric"):
        read_curve_csv(str(bad_value))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_curve_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "c.csv"
    path.write_text("x1,y1,x2,y2\n" + "0.5,0.5,0.5,0.5\n" * 4
                    + f"0.5,{value},0.5,0.5\n")
    message = re.escape(f"{path}: ") + ".*finite"
    with pytest.raises(ValidationError, match=message):
        read_curve_csv(str(path))


def test_write_csv_floats_round_trip(tmp_path):
    path = str(tmp_path / "v.csv")
    value = 1.0 / 3.0
    write_csv(path, ("x",), (np.array([value]),))
    text = (tmp_path / "v.csv").read_text().splitlines()
    assert float(text[1]) == value


# ---------------------------------------------------------------------------
# the column-wise writer against the row-wise csv.writer it replaced


def rows_csv(header, rows) -> bytes:
    """The bytes of the former row-wise writer, kept as the oracle."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue().encode()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_write_csv_edge_floats_match_row_writer(tmp_path):
    values = [-0.0, 5e-324, 1e16, 1e22, 1.0 / 3.0, 0.0, -1e-300, 2.5e15]
    path = str(tmp_path / "e.csv")
    write_csv(path, ("x", "neg", "k", "label"),
              (np.array(values), -np.array(values), list(range(len(values))),
               ["a"] * len(values)))
    rows = [(v, -np.float64(v), k, "a") for k, v in enumerate(values)]
    assert read_bytes(path) == rows_csv(("x", "neg", "k", "label"), rows)


@pytest.mark.parametrize("n", [4, 5, 6, 11])
def test_write_csv_blocks_match_row_writer(tmp_path, monkeypatch, n):
    # blocks of 5 rows: one short block, one full, one full and one row,
    # and three blocks; every kind of cell crosses the block edges
    monkeypatch.setattr(reports, "CSV_CHUNK_ROWS", 5)
    x = np.linspace(-1.0, 2.0, n) / 3.0
    header = ("x", "k", "empty", "label", "i")
    labels = [f"{k}%s%%d%" for k in range(n)]
    path = str(tmp_path / "b.csv")
    write_csv(path, header, (x, list(range(n)), [""] * n, labels,
                             np.arange(n) - 2))
    rows = zip(x.tolist(), range(n), [""] * n, labels,
               (np.arange(n) - 2).tolist())
    assert read_bytes(path) == rows_csv(header, rows)


def test_write_csv_without_rows_writes_the_header(tmp_path):
    path = str(tmp_path / "h.csv")
    write_csv(path, ("a", "b"), (np.empty(0), []))
    assert read_bytes(path) == b"a,b\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(str(tmp_path / "r.csv"), ("a", "b"),
                  (np.zeros(3), np.zeros(2)))


def test_systolic_grid_and_pairing_profile_match_row_writer(tmp_path,
                                                            profile_matrix):
    n = 128
    for profile in profile_matrix:
        grid, pairing = emit_plot_data(str(tmp_path), profile, n)

        ts = np.linspace(0.0, profile.two_area, n)
        _, _, d1, d2 = profile.boundary_arrays(ts)
        g = 2.0 * profile.quadrant_area() * np.outer(d1, d2)
        rows = ((float(ts[i]), float(ts[j]), float(g[i, j]))
                for i in range(n) for j in range(n))
        assert read_bytes(grid) == rows_csv(("t", "t_hat", "g"), rows)

        ts = np.linspace(0.0, profile.two_area, n + 2)[1:-1]
        _, _, d1, d2 = profile.boundary_arrays(ts)
        area2 = 2.0 * profile.quadrant_area()
        ic = profile.intercepts()
        rows = zip(map(float, ts), map(float, area2 * d1 * ic.d2_at_b),
                   map(float, area2 * d2 * ic.d1_at_a))
        assert read_bytes(pairing) == rows_csv(
            ("t", "rho_y_disk", "rho_x_disk"), rows)


def test_boundary_csv_matches_row_writer(tmp_path, profile_matrix):
    n = 128
    for i, profile in enumerate(profile_matrix):
        inp = tmp_path / f"p{i}.json"
        inp.write_text(json.dumps(profile.to_json()))
        out = tmp_path / f"out{i}"
        assert main(["toric-analyze", "--input", str(inp), "--output",
                     str(out), "--max-pq", "2", "--plot-grid", str(n)]) == 0
        profile = profile_from_json(json.loads(inp.read_text()))
        ts = np.linspace(0.0, profile.two_area, n)
        rows = zip(ts, *profile.boundary_arrays(ts))
        assert read_bytes(out / "boundary.csv") == rows_csv(
            ("t", "x", "y", "d1", "d2"), rows)


def test_action_spectrum_matches_row_writer(tmp_path):
    H = dm.hamiltonian_from_json(WELL)
    points = dm.periodic_points(H, 4)
    assert points
    n = 50
    path = write_action_spectrum(str(tmp_path), H, points, n)
    ss = np.linspace(0.0, 1.0, n)
    rows = [(float(s), float(v), "")
            for s, v in zip(ss, dm.radial_action_exact(H, ss))]
    rows += [(float((P.z[0] ** 2 + P.z[1] ** 2)), float(P.mean_action), P.k)
             for P in points]
    expected = rows_csv(("s", "mean_action", "k"), rows)
    assert read_bytes(path) == expected
    assert expected.count(b",\n") == n           # the empty k cells
    # diskmap-dictionary writes the spectrum from its rows, which carry
    # the same z, k and mean action for the same k_max
    rows = dm.suspension_dictionary(H, c=1.0, k_max=4).rows
    path = write_action_spectrum(str(tmp_path), H, rows, n)
    assert read_bytes(path) == expected


def test_samples_and_curve_csv_match_row_writer(tmp_path, spline_p, round_p):
    # one full chunk and a partial one, drawn block by block
    n = CSV_CHUNK_ROWS + 3
    samples = liouville_sample(spline_p, n, 11)
    path = str(tmp_path / "samples.csv")
    write_samples_csv(path, (liouville_sample(spline_p, n, 11, lo,
                                              min(lo + CSV_CHUNK_ROWS, n))
                             for lo in range(0, n, CSV_CHUNK_ROWS)))
    assert read_bytes(path) == rows_csv(
        ("t", "theta1", "theta2"),
        ((float(r[0]), float(r[1]), float(r[2])) for r in samples))

    curve = toric_orbit_curve(round_p, enumerate_tori(round_p, 3)[-1], n=257)
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, curve.points)
    assert read_bytes(path) == rows_csv(
        ("x1", "y1", "x2", "y2"),
        (tuple(float(v) for v in row) for row in curve.points))


def test_schema_registry():
    schema = load_schema("systole")
    assert schema["properties"]["command"]["const"] == "systole"
    with pytest.raises(ValidationError, match="schema"):
        load_schema("unknown-command")
    with pytest.raises(ValidationError, match="violates"):
        validate_report("linking", {"report_version": 1})


# ---------------------------------------------------------------------------
# the in-house schema walker against jsonschema, kept as the oracle

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_REPORTS = sorted(glob.glob(os.path.join(GOLDEN, "*", "*.json")))
VERIFY = os.path.join(GOLDEN, "verify-action-linking-round",
                      "verify-action-linking.json")


def load_golden(path):
    with open(path) as fh:
        doc = json.load(fh)
    return doc["command"], doc




def verdicts(command, doc):
    """(walker verdict, jsonschema verdict): True when the doc is valid."""
    try:
        validate_report(command, doc)
        ours = True
    except ValidationError as exc:
        assert "violates its schema: at $" in str(exc)
        ours = False
    theirs = Draft202012Validator(load_schema(command),
                                  registry=REGISTRY).is_valid(doc)
    return ours, theirs


def refs(schema):
    """Every $ref in a schema."""
    if isinstance(schema, dict):
        if "$ref" in schema:
            yield schema["$ref"]
        for sub in schema.values():
            yield from refs(sub)
    elif isinstance(schema, list):
        for sub in schema:
            yield from refs(sub)


# the records that input documents follow (reports.validate_input)
INPUT_RECORDS = ("profile", "hamiltonian", "linking")


def test_every_ref_resolves_and_every_record_is_used():
    # a record is used by a report schema, by another record, or as the
    # record of an input document
    records = load_schema(RECORDS)
    used = set(INPUT_RECORDS)
    for command in [*COMMANDS, RECORDS]:
        schema = load_schema(command)
        resolver = REGISTRY.resolver(base_uri=schema["$id"])
        for ref in refs(schema):
            name = ref[len(RECORD_REF):]
            assert resolver.lookup(ref).contents is records["$defs"][name]
            used.add(name)
    assert used == set(records["$defs"])


def locations(doc, loc=()):
    """The path (a tuple of keys and indices) of every value in doc."""
    yield loc
    if isinstance(doc, (dict, list)):
        for step in (doc if isinstance(doc, dict) else range(len(doc))):
            yield from locations(doc[step], loc + (step,))


DROP, SKIP = object(), object()
# each mutation maps (value, loc) to the value put in its place, DROP to
# delete the key, or SKIP where it does not apply
MUTATIONS = {
    "drop-key": lambda v, loc: DROP if loc and isinstance(loc[-1], str)
    else SKIP,
    "extra-key": lambda v, loc: {**v, "unexpected": 1}
    if isinstance(v, dict) else SKIP,
    "bool": lambda v, loc: True,
    "string": lambda v, loc: "x",
    "null": lambda v, loc: None,
    "list": lambda v, loc: [],
    "dict": lambda v, loc: {},
    "int-to-float": lambda v, loc: float(v) if type(v) is int else SKIP,
    "int-to-half": lambda v, loc: v + 0.5 if type(v) is int else SKIP,
    "float-to-int": lambda v, loc: int(v) if type(v) is float else SKIP,
    "grow": lambda v, loc: v + (v[-1:] or [0])
    if isinstance(v, list) else SKIP,
    "shrink": lambda v, loc: v[:-1] if isinstance(v, list) and v else SKIP,
}


def mutated(doc, loc, new):
    """A copy of doc with the value at loc replaced by new (or deleted when
    new is DROP); only the containers along loc are copied."""
    if not loc:
        return new
    step, copy = loc[0], doc.copy()
    value = mutated(doc[step], loc[1:], new)
    if value is DROP:
        del copy[step]
    else:
        copy[step] = value
    return copy


@pytest.mark.parametrize("path", GOLDEN_REPORTS,
                         ids=lambda p: os.path.basename(os.path.dirname(p)))
def test_walker_agrees_with_jsonschema_on_golden_reports(path):
    command, doc = load_golden(path)
    assert verdicts(command, doc) == (True, True)
    assert verdicts(command, {**doc, "unexpected": 1}) == (False, False)


@settings(max_examples=400)
@given(data=st.data())
def test_walker_agrees_with_jsonschema_on_mutated_reports(data):
    command, doc = load_golden(data.draw(st.sampled_from(GOLDEN_REPORTS)))
    loc = data.draw(st.sampled_from(list(locations(doc))))
    value = doc
    for step in loc:
        value = value[step]
    new = MUTATIONS[data.draw(st.sampled_from(sorted(MUTATIONS)))](value, loc)
    assume(new is not SKIP)
    ours, theirs = verdicts(command, mutated(doc, loc, new))
    assert ours == theirs, (command, loc, new)


# the report keys whose schemas are, or hold, records of records.v1.json
SHARED = ("profile", "tori", "hamiltonian", "boundary_flags",
          "mean_action_check")


@pytest.mark.parametrize("path", GOLDEN_REPORTS,
                         ids=lambda p: os.path.basename(os.path.dirname(p)))
def test_walker_agrees_with_jsonschema_inside_shared_records(path):
    # every mutation at every place in a shared record, through the first
    # item of each array
    command, doc = load_golden(path)
    for loc in locations(doc):
        if not loc or loc[0] not in SHARED or any(
                type(step) is int and step > 0 for step in loc):
            continue
        value = doc
        for step in loc:
            value = value[step]
        for name, mutation in MUTATIONS.items():
            new = mutation(value, loc)
            if new is not SKIP:
                ours, theirs = verdicts(command, mutated(doc, loc, new))
                assert ours == theirs, (command, loc, name)


def test_walker_number_rules():
    # integer accepts 1.0; a bool is neither an integer nor a number and
    # does not equal 1 under const or enum
    command, doc = load_golden(VERIFY)
    assert verdicts(command, {**doc, "seed": 7.0}) == (True, True)
    for key in ("seed", "report_version"):
        assert verdicts(command, {**doc, key: True}) == (False, False)
    surface = {**doc["surface"], "orientation": True}
    assert verdicts(command, {**doc, "surface": surface}) == (False, False)


def test_violation_message_names_the_json_path():
    command, doc = load_golden(VERIFY)
    surface = {**doc["surface"], "axis": "z"}
    with pytest.raises(ValidationError, match=re.escape(
            f"report for {command!r} violates its schema: at $.surface.axis:")):
        validate_report(command, {**doc, "surface": surface})


@pytest.mark.parametrize("command", sorted(COMMANDS) + [RECORDS])
def test_shipped_schemas_are_draft_2020_12_within_the_walker(command):
    # load_schema raises on any keyword outside SCHEMA_KEYWORDS
    Draft202012Validator.check_schema(load_schema(command))


@pytest.mark.parametrize("plant, word", [
    ({"volume": {"minimum": 0}}, "minimum"),
    ({"volume": {"additionalProperties": True}}, "additionalProperties"),
    # a $ref must be alone and name a record of the records file
    ({"profile": {"type": "object"}}, "lone"),
    ({"profile": {"$ref": "systole.v1.json#/$defs/profile"}}, "lone"),
    ({"profile": {"$ref": RECORD_REF + "nothing"}}, "lone")])
def test_loader_rejects_what_the_walker_does_not_check(tmp_path, monkeypatch,
                                                        plant, word):
    schema = json.loads(json.dumps(load_schema("systole")))
    for key, update in plant.items():
        schema["properties"][key].update(update)
    (tmp_path / "systole.v1.json").write_text(json.dumps(schema))
    (tmp_path / f"{RECORDS}.v1.json").write_text(
        json.dumps(load_schema(RECORDS)))
    monkeypatch.setattr(reports, "resources",
                        types.SimpleNamespace(files=lambda pkg: tmp_path))
    load_schema.cache_clear()
    try:
        with pytest.raises(ValidationError, match=word):
            load_schema("systole")
    finally:
        load_schema.cache_clear()
