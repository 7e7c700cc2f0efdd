"""Every function the benchmark tracer wraps must exist in reebsys.

``perfbench/spans.py`` names its targets as strings, so renaming or
deleting one of them fails only when a traced benchmark run installs the
tracer.  This test reads the same table and resolves each entry the way
``Tracer.install`` does.
"""
import importlib
import inspect

import numpy as np

from conftest import load_perfbench
from reebsys.reports import write_csv
from reebsys.topology import _gauss_linking_sum


def resolve(modname, target):
    """The callables a TARGETS entry wraps: "name", "Class.name" or
    "*.name" (every class of the module that defines name)."""
    mod = importlib.import_module(f"reebsys.{modname}")
    owner, _, attr = target.rpartition(".")
    if not owner:
        return [getattr(mod, attr, None)]
    return [vars(c)[attr] for c in vars(mod).values()
            if isinstance(c, type) and attr in vars(c)
            and (owner == "*" or c.__name__ == owner)]


def test_every_trace_target_resolves():
    targets = load_perfbench("spans").TARGETS
    assert targets
    missing = [f"{modname}.{target}" for modname, target, _ in targets
               if not (found := resolve(modname, target))
               or not all(callable(fn) for fn in found)]
    assert missing == []


def test_write_csv_rows_are_counted_from_its_path_argument(tmp_path):
    # the reports.write_csv.rows metric reads the written file through
    # the first argument, positional or named path
    assert next(iter(inspect.signature(write_csv).parameters)) == "path"
    rows_info = load_perfbench("spans")._rows_info
    path = str(tmp_path / "c.csv")
    write_csv(path, ("a", "b"), (np.arange(5.0), list("vwxyz")))
    assert rows_info((path, ("a", "b"), None), {}, None) == {"rows": 5}
    assert rows_info((), {"path": path}, None) == {"rows": 5}


def test_gauss_pairs_are_counted_from_its_curve_arguments():
    # the topology.linking_number.ns_per_segment_pair metric counts
    # (len(P) - 1) * (len(Q) - 1) pairs from the first two positional
    # arguments
    assert list(inspect.signature(_gauss_linking_sum).parameters)[:2] == \
        ["P", "Q"]
    P, Q = np.zeros((7, 3)), np.zeros((4, 3))
    pairs_info = load_perfbench("spans")._pairs_info
    assert pairs_info((P, Q), {}, None) == {"pairs": 18}
