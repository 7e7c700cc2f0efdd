"""The reebsys benchmark: three workloads of CLI subcommands.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each op is ``reebsys.cli.main(argv)`` called in-process in a
fresh worker process, on inputs generated from --seed (workloads.py).
The load is a closed loop: one client runs the next op only after the
previous one returns; Monte Carlo ops use at most 2 threads.

Workloads:

* ``survey``: toric-analyze, systole and equidistribute over the profile
  matrix.  The scalar path: per-call theta_of_t inversions, torus
  enumeration, extremum refinement and the plot CSVs; no Monte Carlo.
* ``montecarlo``: verify-action-linking at 10^6 samples on round, lp p=3
  and spline, each at 1 and 2 threads.  The vectorized path through
  profiles, flows.liouville_sample and topology; it sets peak memory.
* ``dictionary``: diskmap-calabi, diskmap-dictionary and linking.  The
  work is in diskmap, the Gauss linking sum and report validation;
  profiles and systolic are barely touched, so it is the no-change
  control for changes to them.

--trace 0 measures the end-to-end metrics with tracing off:

* ``setup_s``: median time to import reebsys.cli in a fresh process;
* ``ops_per_s``: warm ops completed per second of the timed phase;
* ``peak_rss_mb``: peak resident memory of the processes running ops;
* ``cold_op_s``: median time of a cycle's first op in a fresh process,
  which pays lazy imports, schema loading and first-call caches;
* per-command median latencies, Monte Carlo samples per second at 1 and
  2 threads, the highest latency percentile with ten ops beyond it, and
  the share of failed ops.

--trace 1
runs whole cycles untraced, then the same cycles with spans recorded
around the calls into each module (spans.py), derives the per-layer
metrics, and checks that every output file is byte-identical between
the two.  Every op's outputs are checked (checks.py).  The last line of
standard output is one JSON object with the results; the lines before
it list every metric with its unit, the failed ops, the machine and the
fixed sizes.  Full results, and the spans of the latest traced run, are
kept in .perfbench-work/.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
DEADLINE_S = 170.0
SETUP_RUNS = 5              # fresh processes that time `import reebsys.cli`
# (timed segments, probes run the cold op).  The timed phase is split
# over fresh worker processes, each preceded by a probe process, so that
# set-up and cold ops are sampled across the whole run: other load on
# the host slows ops by up to 2x in bursts of seconds.  Montecarlo runs
# one cycle of ~30 s, and its probes skip the ~5 s first op.
PLAN = {"survey": (3, True), "montecarlo": (1, False), "dictionary": (3, True)}
IMPORT_ROOTS = ("numpy", "scipy", "jsonschema", "reebsys")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics of the result line, bounded in BENCHMARK.json; the
# others (cold_op_s, per-command medians, Monte Carlo rates, op_s_tail,
# fail_ratio) are printed above it.  cold_op_s stays out: its spread over
# runs on a shared host is too wide to bound.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


class Runner:
    """One benchmark run: its work directory, environment and deadline."""

    def __init__(self, workload, seed, trace, seconds):
        self.start = time.monotonic()
        self.seconds = seconds
        tag = f"{workload}-seed{seed}-trace{trace}"
        self.dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
        self.results_path = os.path.join(WORK, f"{tag}.json")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        # Bytecode is cached, as for an installed package, but in the work
        # directory: nothing is written next to the sources.
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # BLAS pools stay single-threaded: the ops use at most 2 threads
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.n = 0

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("benchmark deadline passed")
        return left

    def python(self, args, capture=False):
        try:
            return subprocess.run(
                [sys.executable] + args, env=self.env, cwd=self.dir,
                capture_output=capture, text=True, timeout=self.remaining(),
                check=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[:2]} ran past the deadline") from None
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"{args[:2]} exited {exc.returncode}: "
                             f"{(exc.stderr or '').strip()[-500:]}") from None

    def worker(self, mode, ops, seconds=0.0, cold=True):
        self.n += 1
        work = os.path.join(self.dir, f"w{self.n}")
        os.makedirs(work)
        job = os.path.join(work, "job.json")
        result = os.path.join(work, "result.json")
        with open(job, "w") as fh:
            json.dump({"mode": mode, "ops": ops, "seconds": seconds,
                       "cold": cold, "work": work}, fh)
        self.python([os.path.join(HERE, "worker.py"), job, result])
        with open(result) as fh:
            return json.load(fh)

    def import_times(self):
        """Seconds spent importing each of IMPORT_ROOTS in a fresh process,
        from `python -X importtime`.  A module's own time goes to the
        innermost enclosing import among IMPORT_ROOTS, so numpy loaded by
        scipy counts as numpy and jsonschema's dependencies as jsonschema."""
        proc = self.python(["-X", "importtime", "-c",
                            "import reebsys.cli, jsonschema"], capture=True)
        stack = []                      # (indent, name, self_us, children)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            own = parts[0].split(":", 1)[1].strip()
            if not own.isdigit():
                continue                # the header line
            field = parts[2]
            node = (len(field) - len(field.lstrip()), field.strip(),
                    int(own), [])
            while stack and stack[-1][0] > node[0]:
                node[3].insert(0, stack.pop())
            stack.append(node)
        totals = dict.fromkeys(IMPORT_ROOTS, 0.0)

        def walk(node, owner):
            root = node[1].split(".")[0]
            owner = root if root in totals else owner
            if owner:
                totals[owner] += node[2] / 1e6
            for child in node[3]:
                walk(child, owner)

        for node in stack:
            walk(node, None)
        return {f"setup.import_s.{k}": v for k, v in totals.items()}

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def machine():
    info = {"nproc": len(os.sched_getaffinity(0))}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for key in ("L2", "L3"):
        line = next((ln for ln in out.splitlines()
                     if ln.startswith(f"{key} cache:")), None)
        info[f"{key.lower()}_cache"] = (line.split(":", 1)[1].strip()
                                        if line else "unknown")
    return info


def percentile_tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    n = len(values)
    if n < 20:
        return None
    pct = 100.0 * (n - 10) / n
    ordered = sorted(values)
    return pct, ordered[n - 11]


def failure(rec, problems):
    return {"op": rec["label"], "argv": rec["argv"], "out": rec["out"],
            "input": rec["argv"][rec["argv"].index("--input") + 1],
            "exit_code": rec["code"], "problems": problems}


def merge_failures(*lists):
    """One entry per failed op run, with all of its problems."""
    merged = {}
    for f in (f for fl in lists for f in fl):
        if f["out"] in merged:
            merged[f["out"]]["problems"] += f["problems"]
        else:
            merged[f["out"]] = f
    return list(merged.values())


def check_records(ops, records, reference):
    """Failed ops as dicts with command, input, exit code and problems."""
    by_label = {op["label"]: op for op in ops}
    inputs = {}
    for op in ops:
        if op["input"] not in inputs:
            with open(op["input"]) as fh:
                inputs[op["input"]] = json.load(fh)
    failed = []
    for rec in records:
        op = by_label[rec["label"]]
        problems = checks.check_op(op, rec, reference, inputs)
        if problems:
            failed.append(failure(rec, problems))
    return failed


def thread_pairs(records):
    """Monte Carlo reports must not depend on the thread count: compare
    the 1-thread and 2-thread report of each case in each cycle."""
    failed = []
    one = {}
    for rec in records:
        label = rec["label"]
        if not label.startswith("verify-action-linking/") or rec["code"] != 0:
            continue
        case, threads = label.rsplit("/", 1)
        cycle = os.path.dirname(rec["out"])
        if threads == "1t":
            one[(case, cycle)] = rec
        elif (case, cycle) in one:
            a = os.path.join(one[(case, cycle)]["out"], "verify-action-linking.json")
            b = os.path.join(rec["out"], "verify-action-linking.json")
            if not filecmp.cmp(a, b, shallow=False):
                failed.append(failure(
                    rec, ["report differs from the 1-thread run"]))
    return failed


def identical_outputs(plain, traced):
    """Names of output files that differ between untraced and traced runs."""
    diffs = []
    for a, b in zip(plain, traced):
        names = sorted(set(os.listdir(a["out"])) | set(os.listdir(b["out"])))
        for name in names:
            pa, pb = os.path.join(a["out"], name), os.path.join(b["out"], name)
            if not (os.path.isfile(pa) and os.path.isfile(pb)
                    and filecmp.cmp(pa, pb, shallow=False)):
                diffs.append(f"{a['label']}: {name}")
    return diffs


def command_medians(records):
    """Median warm latency of each command, as (name, value, unit) rows."""
    by_cmd = {}
    for rec in records:
        by_cmd.setdefault(rec["label"].split("/")[0], []).append(rec["s"])
    return [(f"{cmd.replace('-', '_')}_s", statistics.median(v), "s")
            for cmd, v in sorted(by_cmd.items())]


def mc_rates(records):
    """Monte Carlo samples verified per second at 1 and at 2 threads."""
    rows = []
    for threads, name in (("1t", "mc_samples_per_s"),
                          ("2t", "mc_samples_per_s_2t")):
        recs = [r for r in records if r["label"].endswith(f"/{threads}")]
        if recs:
            rows.append((name, workloads.SAMPLES * len(recs)
                         / sum(r["s"] for r in recs), "1/s"))
    return rows


def timed_run(runner, workload, ops):
    segments, cold_probes = PLAN[workload]
    probes, segs = [], []
    for i in range(max(segments, SETUP_RUNS - segments)):
        probes.append(runner.worker("probe", ops, cold=cold_probes))
        if i < segments:
            segs.append(runner.worker("timed", ops,
                                      seconds=runner.seconds / segments))
    colds = [p["cold"] for p in probes + segs if "cold" in p]
    warm = [r for s in segs for r in s["ops"]]
    lat = [r["s"] for r in warm]
    metrics = {
        "setup_s": statistics.median(p["import_s"] for p in probes + segs),
        "ops_per_s": len(warm) / sum(s["wall_s"] for s in segs),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in segs),
    }
    extra = [("cold_op_s", statistics.median(r["s"] for r in colds),
              f"s (median of {len(colds)} fresh processes)"),
             ("cycles", sum(s["cycles"] for s in segs), "count"),
             ("warm_ops", len(warm), "count")]
    extra += command_medians(warm) + mc_rates(warm)
    tail = percentile_tail(lat)
    if tail:
        extra.append(("op_s_tail", tail[1], f"s (p{tail[0]:.1f} of "
                      f"{len(lat)} warm ops)"))
    return metrics, extra, colds + warm, segs[0]["versions"], []


def trace_run(runner, workload, ops):
    imports = runner.import_times()
    res = runner.worker("trace", ops, seconds=runner.seconds)
    # only the latest traced run of each workload keeps its spans
    shutil.move(os.path.join(runner.dir, f"w{runner.n}", "spans.jsonl"),
                os.path.join(WORK, f"{workload}.spans.jsonl"))
    metrics = dict(res["layers"], **imports)
    metrics["trace.overhead_s"] = res["overhead_s"]
    extra = [("cycles", res["cycles"], "count")]
    diffs = identical_outputs(res["plain"], res["traced"])
    return (metrics, extra, [res["cold"]] + res["plain"] + res["traced"],
            res["versions"], diffs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 58:
        parser.error("--seed must lie in [0, 2^58): it sets 64-bit program seeds")
    if not os.path.isfile(os.path.join(SRC, "reebsys", "cli.py")):
        print(f"no reebsys sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    # A terminated run raises SystemExit, so subprocess.run kills the
    # worker it waits for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args.workload, args.seed, args.trace, args.seconds)
    try:
        ops = workloads.build(args.workload, args.seed,
                              os.path.join(runner.dir, "inputs"))
        run = trace_run if args.trace else timed_run
        metrics, extra, records, versions, diffs = run(runner, args.workload, ops)
        failed = merge_failures(check_records(ops, records, reference),
                                thread_pairs(records))
        failed_inputs = {}
        for f in failed:
            with open(f["input"]) as fh:
                failed_inputs[f["input"]] = json.load(fh)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.cleanup()

    table = (spans.LAYER_METRICS if args.trace
             else [(n, u, None) for n, u in END_TO_END])
    units = {name: unit for name, unit, _ in table}
    attempted = len(records)
    extra.append(("fail_ratio", len(failed) / attempted, "ratio"))
    info = {"workload": args.workload, "seed": args.seed,
            "family": workloads.family(args.seed), "trace": args.trace,
            "seconds": args.seconds, "machine": {**machine(), **versions},
            "sizes": workloads.sizes(), "ops_per_cycle": len(ops)}
    print(f"# {json.dumps(info)}")
    for name, value, unit in [(n, metrics[n], u) for n, u in units.items()] + extra:
        print(f"{name:52s} {value:.6g} {unit}")
    for f in failed:
        print(f"FAILED {f['op']} exit={f['exit_code']} "
              f"input={os.path.basename(f['input'])}: "
              f"{'; '.join(f['problems'])}"[:400])
    for d in diffs:
        print(f"TRACE CHANGED OUTPUT {d}")
    with open(runner.results_path, "w") as fh:
        json.dump({**info, "metrics": metrics, "extra": extra,
                   "failed": failed, "failed_inputs": failed_inputs,
                   "trace_diffs": diffs,
                   "ops": [{k: r[k] for k in ("label", "code", "s")}
                           for r in records]}, fh, indent=1)
    result = {"correct": not failed and not diffs, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
