"""One fresh benchmark process: import reebsys.cli, then run ops.

Usage: python3 worker.py JOB.json RESULT.json

The job names a mode:

* ``probe``: time the import, optionally run the first op once (cold);
* ``timed``: time the import, run the first op cold, then run whole
  cycles of ops back to back (a closed loop with one client) for about
  ``seconds`` (one segment of a run's timed phase);
* ``trace``: run the first op cold, then whole cycles untraced for about
  half of ``seconds``, then the same number of cycles with spans
  recorded, and derive the per-layer metrics from the spans.

Every op is main(argv) from the call to the report and CSVs being on
disk.  Results go to RESULT.json; the parent checks the outputs.
"""
import sys
import time

# The import is timed first, before this script loads anything else, so
# that it measures what a fresh `reebsys` process pays.
_t0 = time.perf_counter()
from reebsys.cli import main as reebsys_main  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_op(main, op, outdir, tracer=None):
    """Run one op; returns its record.  A crash counts as a failed op."""
    os.makedirs(outdir, exist_ok=True)
    argv = op["argv"] + ["--output", outdir, "--quiet"]
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv) if tracer is None else tracer.op(main, argv)
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # noqa: BLE001 - op boundary
            traceback.print_exc(file=err)
            code = 1
    elapsed = time.perf_counter() - t0
    return {"label": op["label"], "argv": argv, "code": code, "s": elapsed,
            "stderr": err.getvalue()[-2000:], "out": outdir}


def run_cycles(main, ops, outroot, budget_s, max_cycles=None, tracer=None):
    """Whole cycles back to back.  A new cycle starts only if it is
    expected to end within budget_s (at least one cycle runs)."""
    records = []
    t0 = time.perf_counter()
    last = 0.0
    cycle = 0
    while max_cycles is None or cycle < max_cycles:
        elapsed = time.perf_counter() - t0
        if max_cycles is None and cycle > 0 and elapsed + last > budget_s:
            break
        c0 = time.perf_counter()
        for i, op in enumerate(ops):
            records.append(run_op(main, op,
                                  os.path.join(outroot, f"c{cycle}", str(i)),
                                  tracer))
        last = time.perf_counter() - c0
        cycle += 1
    return records, cycle, time.perf_counter() - t0


def versions() -> dict:
    from importlib.metadata import PackageNotFoundError, version
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            out[pkg] = version(pkg)
        except PackageNotFoundError:
            out[pkg] = "missing"
    return out


def main_(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    main = reebsys_main
    result = {"import_s": IMPORT_S}
    ops, work, mode = job["ops"], job["work"], job["mode"]
    if mode != "probe" or job["cold"]:
        result["cold"] = run_op(main, ops[0], os.path.join(work, "cold"))
    if mode == "timed":
        result["ops"], result["cycles"], result["wall_s"] = run_cycles(
            main, ops, os.path.join(work, "warm"), job["seconds"])
    elif mode == "trace":
        from spans import Tracer
        plain, cycles, plain_s = run_cycles(
            main, ops, os.path.join(work, "plain"), job["seconds"] / 2)
        tracer = Tracer()
        with tracer.installed():
            traced, _, traced_s = run_cycles(
                main, ops, os.path.join(work, "traced"), None,
                max_cycles=cycles, tracer=tracer)
        result.update(plain=plain, traced=traced, cycles=cycles,
                      layers=tracer.layer_metrics(cycles),
                      overhead_s=(traced_s - plain_s) / cycles)
        tracer.dump(os.path.join(work, "spans.jsonl"))
    if mode != "probe":
        result["versions"] = versions()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main_(sys.argv[1], sys.argv[2])
