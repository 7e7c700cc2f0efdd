"""Record reference.json: the values the correctness checks compare to.

Run from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs the seed-0 survey ops and keeps the result fields of each
report; the other workloads are checked by closed forms only.  Values
are stored at dilation factor 1; checks.py moves them to the factor of
the seed being checked.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from reebsys.cli import main  # noqa: E402


def record() -> dict:
    ref = {"survey": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(workloads.build("survey", 0, tmp)):
            out = os.path.join(tmp, str(i))
            if main(op["argv"] + ["--output", out, "--quiet"]) != 0:
                raise SystemExit(f"{op['label']} failed")
            rep = checks.load_report(out, op["command"])
            ref["survey"][op["label"]] = checks.scientific(rep)
    return ref


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
