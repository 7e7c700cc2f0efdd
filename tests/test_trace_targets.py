"""Every function the benchmark tracer wraps must exist in reebsys.

``perfbench/spans.py`` names its targets as strings, so renaming or
deleting one of them fails only when a traced benchmark run installs the
tracer.  This test reads the same table and resolves each entry the way
``Tracer.install`` does.
"""
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_targets():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True        # leave the benchmark tree as it is
    try:
        return importlib.import_module("spans").TARGETS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.pop(0)


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
    targets = load_targets()
    assert targets
    missing = [f"{modname}.{target}" for modname, target, _ in targets
               if not (found := resolve(modname, target))
               or not all(callable(fn) for fn in found)]
    assert missing == []
