import json
import math
import re

import numpy as np
import pytest

from reebsys.errors import ValidationError
from reebsys.reports import (jsonable, load_schema, read_curve_csv,
                             render_report, validate_report, write_csv,
                             write_curve_csv, write_report)


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


def test_render_is_key_order_independent():
    a = render_report({"x": 1.0, "y": [2.0, 3.0]})
    b = render_report({"y": [2.0, 3.0], "x": 1.0})
    assert a == b
    assert json.loads(a) == {"x": 1.0, "y": [2.0, 3.0]}


def test_write_report_replaces_atomically(tmp_path):
    path = str(tmp_path / "r.json")
    write_report(path, {"v": 1})
    write_report(path, {"v": 2})
    assert json.loads(open(path).read()) == {"v": 2}
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
    write_csv(path, ("x",), [(value,)])
    text = open(path).read().splitlines()
    assert float(text[1]) == value


def test_schema_registry():
    schema = load_schema("systole")
    assert schema["properties"]["command"]["const"] == "systole"
    with pytest.raises(ValidationError, match="schema"):
        load_schema("unknown-command")
    with pytest.raises(ValidationError, match="violates"):
        validate_report("linking", {"report_version": 1})
