"""Report serialization: JSON reports, CSV dumps, schema validation.

Reports are plain dicts rendered with sorted keys and shortest
round-trip float representation, so identical inputs and seeds produce
byte-identical files.  Every report names its command, schema version,
seed and generator.  Files are written atomically (write then rename).
Reports are strict JSON, with no NaN or infinity, and each is checked
against its shipped JSON Schema by a walker of twelve keywords.  The
records several documents share (profile, torus, periodic point,
Hamiltonian, boundary flags) are defined once, in records.v1.json, and a
schema names one with a lone $ref into that file's $defs.  The same
walker checks every input document against its record there (profile,
Hamiltonian, linking).
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import os
import reprlib
import sys
from importlib import resources

import numpy as np

from .errors import ValidationError
from .numerics import grid_chunks

REPORT_VERSION = 1


def jsonable(obj):
    """Recursively convert report payloads to JSON-ready values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError("NaN and infinities are not representable in reports")
    elif dataclasses.is_dataclass(obj):
        # a library record whose fields, its instance dict, are its report keys
        return jsonable(vars(obj))
    return obj


def render_report(doc: dict) -> bytes:
    """The bytes of a report already converted by jsonable."""
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def atomic_write(path: str, chunks):
    """Write an iterable of byte strings to path.tmp, then rename it to
    path."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def write_report(path: str, doc: dict):
    atomic_write(path, (render_report(doc),))


def _csv_bytes(header, blocks):
    """The header line, then the rows of each block of equal-length
    columns.  A numpy column is converted with tolist(); a list column
    is taken as it is.  A block is one % format: its cells interleaved
    row by row into one flat tuple, against the row template "%s,...,%s\n"
    repeated once per row.  So a float cell is its shortest round-trip
    repr, an int its str and a string itself (callers pass already
    formatted text that way)."""
    yield (",".join(header) + "\n").encode()
    for cells in blocks:
        k, rows = len(cells), len(cells[0])
        flat = [None] * (k * rows)
        for i, col in enumerate(cells):
            flat[i::k] = col.tolist() if isinstance(col, np.ndarray) else col
        line = ",".join(["%s"] * k) + "\n"
        yield (line * rows % tuple(flat)).encode()


def write_csv(path: str, header, columns):
    """Write equal-length columns under a header line, atomically, about
    numerics.GRID_CHUNK cells at a time (grid_chunks).

    Cells are not quoted: no value may hold a comma, a quote or a
    newline.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("CSV columns must have equal lengths")
    atomic_write(path, _csv_bytes(header, (
        [col[rows] for col in columns]
        for rows in grid_chunks(n, len(columns)))))


def write_samples_csv(path: str, blocks):
    """Write sample rows (t, theta1, theta2), atomically, from an
    iterable of (k, 3) arrays taken one at a time, so the whole sample
    never needs to be held."""
    atomic_write(path, _csv_bytes(("t", "theta1", "theta2"),
                                  (np.asarray(b, float).T for b in blocks)))


def write_curve_csv(path: str, points: np.ndarray):
    write_csv(path, ("x1", "y1", "x2", "y2"), np.asarray(points, float).T)


def read_text(path: str) -> str:
    """The text of an input file; a file that cannot be read is a
    ValidationError naming the path."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc


def read_curve_csv(path: str) -> np.ndarray:
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["x1", "y1", "x2", "y2"]:
        raise ValidationError(f"{path}: expected header x1,y1,x2,y2")
    try:
        rows = [[float(v) for v in row] for row in reader if row]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric curve data: {exc}") from exc
    if any(len(row) != 4 for row in rows):
        raise ValidationError(f"{path}: every curve row must hold 4 values")
    if len(rows) < 4:
        raise ValidationError(f"{path}: too few curve points")
    pts = np.asarray(rows, float)
    if not np.all(np.isfinite(pts)):
        raise ValidationError(f"{path}: curve data must be finite")
    return pts


SCHEMA_KEYWORDS = frozenset((
    "$id", "$schema", "$defs", "$ref", "type", "properties", "required",
    "additionalProperties", "items", "minItems", "maxItems", "const", "enum",
    "oneOf"))
# the one schema file a $ref may point into, and the prefix of its targets
RECORDS = "records"
RECORD_REF = f"{RECORDS}.v{REPORT_VERSION}.json#/$defs/"

# the largest finite double; ints compare with it exactly, nan never
_DOUBLE_MAX = sys.float_info.max
# JSON types of the classes in a converted report: a bool is not a number
_TYPE_NAMES = {dict: ("object",), list: ("array",), str: ("string",),
               bool: ("boolean",), type(None): ("null",),
               int: ("integer", "number"), float: ("number",)}


def _check_keywords(schema: dict, name: str, refs: list):
    """The schema, if it and its subschemas use only SCHEMA_KEYWORDS, with
    additionalProperties false and each $ref alone and one of refs: a
    schema edit cannot weaken the check."""
    if "$ref" in schema:
        if len(schema) > 1 or schema["$ref"] not in refs:
            raise ValidationError(f"schema {name}: the report walker follows "
                                  f"only a lone $ref to a record, not {schema}")
        return schema
    unknown = sorted(set(schema) - SCHEMA_KEYWORDS)
    if unknown or schema.get("additionalProperties", False) is not False:
        raise ValidationError(f"schema {name}: the report walker does not "
                              f"check {unknown or 'additionalProperties'}")
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", ()),
            schema.get("items", {}), *schema.get("$defs", {}).values()]
    for sub in filter(None, subs):    # an empty schema has nothing to check
        _check_keywords(sub, name, refs)
    return schema


@functools.cache
def load_schema(command: str) -> dict:
    """A command's report schema, keyword-checked once; shared, so read
    only.  load_schema(RECORDS) is the file of shared records."""
    name = f"{command}.v{REPORT_VERSION}.json"
    try:
        text = (resources.files("reebsys.schemas") / name).read_text()
    except FileNotFoundError as exc:
        raise ValidationError(f"no schema shipped for command {command!r}") from exc
    schema = json.loads(text)
    records = schema if command == RECORDS else load_schema(RECORDS)
    return _check_keywords(schema, name, [RECORD_REF + key for key
                                          in records.get("$defs", {})])


def _resolve(schema: dict) -> dict:
    """The record a lone $ref names, or the schema itself."""
    if "$ref" in schema:
        return load_schema(RECORDS)["$defs"][schema["$ref"][len(RECORD_REF):]]
    return schema


def _violation(schema: dict, value):
    """(reason, JSON path steps innermost first) of the first place where
    value breaks schema, or None.  A valid value builds no path strings.
    A JSON number must be a finite double, whatever the schema: no inf
    float (json reads 1e400 as one) and no int beyond the double range."""
    if "$ref" in schema:
        schema = _resolve(schema)
    cls = type(value)
    if (cls is float or cls is int) and not -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
        return f"{reprlib.repr(value)} is not a finite double", []
    types = schema.get("type")
    if types is not None:
        names = _TYPE_NAMES.get(cls, ())
        if names == ("number",) and value.is_integer():
            names = ("integer", "number")
        if not (types in names if isinstance(types, str)
                else any(t in names for t in types)):
            return f"{reprlib.repr(value)} is not of type {types}", []
    # const and enum hold scalars: a bool equals only a bool, 1 equals 1.0
    allowed = [schema["const"]] if "const" in schema else schema.get("enum")
    if allowed is not None and not any(isinstance(a, bool) == isinstance(value, bool)
                                       and a == value for a in allowed):
        return f"{reprlib.repr(value)} is not one of {allowed}", []
    if isinstance(value, dict):
        # a wrong value is named before a missing key: a wrong kind first
        props = schema.get("properties", {})
        if "additionalProperties" in schema and not props.keys() >= value.keys():
            return f"keys {sorted(value.keys() - props.keys())} are not allowed", []
        for key, item in value.items():
            found = key in props and _violation(props[key], item)
            if found:
                found[1].append(f".{key}")
                return found
        for key in schema.get("required", ()):
            if key not in value:
                return f"required key {key!r} is missing", []
    elif isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            return f"{len(value)} items are too few or too many", []
        for i, item in enumerate(value if "items" in schema else ()):
            found = _violation(schema["items"], item)
            if found:
                found[1].append(f"[{i}]")
                return found
    if "oneOf" in schema:
        found = [_violation(sub, value) for sub in schema["oneOf"]]
        if found.count(None) != 1:
            return _branch_violation(schema["oneOf"], found, value)
    return None


def _branch_violation(branches: list, found: list, value):
    """The violation to report for a value that matches no oneOf branch,
    or several: that of the branch the value selects by its first required
    key, present and equal to the branch's const there if it has one (a
    profile's kind, a curve spec's one key), so the path goes on into the
    value."""
    if None in found:
        return f"{reprlib.repr(value)} matches several oneOf branches", []
    if not isinstance(value, dict):
        return f"{reprlib.repr(value)} matches no oneOf branch", []
    branches = [_resolve(sub) for sub in branches]
    keys = [sub.get("required", [None])[0] for sub in branches]
    for sub, key, violation in zip(branches, keys, found):
        const = sub.get("properties", {}).get(key, {}).get("const", value.get(key))
        if key in value and value[key] == const:
            return violation
    return f"needs one of the keys {keys}", []


def _validate(schema: dict, doc, what: str):
    found = _violation(schema, doc)
    if found is not None:
        raise ValidationError(
            f"{what}: at ${''.join(reversed(found[1]))}: {found[0]}")
    return doc


def validate_report(command: str, report: dict):
    """Check a report converted by jsonable; raise at its first violation."""
    return _validate(load_schema(command), report,
                     f"report for {command!r} violates its schema")


def validate_input(record: str, doc):
    """Check an input document against its record in records.v1.json;
    raise a ValidationError naming the JSON path of its first violation."""
    return _validate({"$ref": RECORD_REF + record}, doc,
                     f"invalid {record} input")


# ---------------------------------------------------------------------------
# plot-ready CSV emitters


def emit_plot_data(outdir: str, profile, n: int):
    """Write the two systole plot CSVs and return their paths:
    systolic_grid.csv, the (t, t_hat, g) table on an n x n grid, and
    pairing_profile.csv, the pairings against the two axis disks at n
    interior points of the curve.

    The grid table is written one block of rows at a time (about
    numerics.GRID_CHUNK cells, grid_chunks), g = 2A * outer(d1[rows], d2)
    per block, so no n x n array is built."""
    ts = np.linspace(0.0, profile.two_area, n)
    _, _, d1, d2 = profile.boundary_arrays(ts)
    area2 = 2.0 * profile.quadrant_area()
    # row i*n + j is (ts[i], ts[j], g[i, j]): the axis values are
    # formatted once and repeated as text
    labels = np.array([repr(t) for t in ts.tolist()], dtype=object)
    grid = os.path.join(outdir, "systolic_grid.csv")
    atomic_write(grid, _csv_bytes(("t", "t_hat", "g"), (
        (np.repeat(labels[rows], n), np.tile(labels, rows.stop - rows.start),
         (area2 * np.outer(d1[rows], d2)).ravel())
        for rows in grid_chunks(n, n))))

    ts = np.linspace(0.0, profile.two_area, n + 2)[1:-1]
    _, _, d1, d2 = profile.boundary_arrays(ts)
    ic = profile.intercepts()
    pairing = os.path.join(outdir, "pairing_profile.csv")
    write_csv(pairing, ("t", "rho_y_disk", "rho_x_disk"),
              (ts, area2 * d1 * ic.d2_at_b, area2 * d2 * ic.d1_at_a))
    return [grid, pairing]


def write_action_spectrum(outdir: str, hamiltonian, points, n: int):
    """Write action_spectrum.csv and return its path: the radial mean
    action curve at n values of s, then the points (periodic points or
    dictionary rows, anything with z, k and mean_action)."""
    from .diskmap import radial_action_exact
    ss = np.linspace(0.0, 1.0, n)
    s_col = np.concatenate([ss, [P.z[0] ** 2 + P.z[1] ** 2 for P in points]])
    action_col = np.concatenate([radial_action_exact(hamiltonian, ss),
                                 [P.mean_action for P in points]])
    # the curve rows leave k empty
    k_col = [""] * n + [P.k for P in points]
    path = os.path.join(outdir, "action_spectrum.csv")
    write_csv(path, ("s", "mean_action", "k"), (s_col, action_col, k_col))
    return path
