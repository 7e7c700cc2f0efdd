"""Trace spans recorded around calls into the reebsys modules.

The tracer wraps public functions of each module from outside the
program.  Names bound by other modules at import (``from .systolic
import enumerate_tori``) are patched too, so every call path is seen.
A span holds its name, start, end, parent span, op id and counts taken
from the call's arguments and result.  Spans stay in memory until the
run ends; the per-layer metrics are derived from them afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _theta_info(args, kwargs, result):
    t = _arg(args, kwargs, 1, "t")
    return {"n": int(np.size(t)), "scalar": np.ndim(t) == 0,
            "kind": args[0].kind}


def _enumerate_info(args, kwargs, result):
    n = int(_arg(args, kwargs, 1, "max_pq"))
    classes = sum(1 for p in range(1, n + 1) for q in range(1, n + 1)
                  if math.gcd(p, q) == 1)
    return {"classes": classes, "tori": len(result)}


def _panel_info(args, kwargs, result):
    order = _arg(args, kwargs, 3, "order", 20)
    return {"points": int(np.size(_arg(args, kwargs, 1, "a"))) * int(order)}


def _sample_info(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "n"))}


def _verify_info(args, kwargs, result):
    return {"n": result.n_samples, "fallback": result.n_fallback}


def _link_info(args, kwargs, result):
    return {"subdivisions": result.subdivisions}


def _pairs_info(args, kwargs, result):
    return {"pairs": (len(args[0]) - 1) * (len(args[1]) - 1)}


def _points_info(args, kwargs, result):
    z = np.asarray(_arg(args, kwargs, 1, "z"))
    return {"points": 1 if z.ndim == 1 else int(np.prod(z.shape[:-1]))}


def _found_info(args, kwargs, result):
    return {"found": len(result)}


def _bytes_info(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _rows_info(args, kwargs, result):
    with open(_arg(args, kwargs, 0, "path"), "rb") as fh:
        return {"rows": fh.read().count(b"\n") - 1}


# (module, function or Class.method, counts from args and result);
# "*.name" wraps the method in every class of the module that defines it.
TARGETS = (
    ("profiles", "ToricProfile.theta_of_t", _theta_info),
    ("profiles", "*.gradient_theta", None),
    # no metric of its own: quadrature integrands call it, so wrapping it
    # keeps profile evaluation out of numerics' self time
    ("profiles", "*.boundary_radius", None),
    ("profiles", "ToricProfile.t_of_theta", None),
    ("profiles", "profile_from_json", None),
    ("systolic", "enumerate_tori", _enumerate_info),
    ("systolic", "systolic_interval", None),
    ("systolic", "pairing_orbit_orbit", None),
    ("numerics", "adaptive_gauss", None),
    ("numerics", "refine_extremum", None),
    ("numerics", "panel_gauss_many", _panel_info),
    ("flows", "liouville_sample", _sample_info),
    ("flows", "approximate_liouville_by_orbits", None),
    ("flows", "orbit_average", None),
    ("topology", "action_linking_verify", _verify_info),
    ("topology", "linking_number", _link_info),
    ("topology", "_gauss_linking_sum", _pairs_info),
    ("topology", "toric_orbit_curve", None),
    ("diskmap", "action", _points_info),
    ("diskmap", "flow_map", None),
    ("diskmap", "calabi", None),
    ("diskmap", "calabi_eta_residual", None),
    ("diskmap", "periodic_points", _found_info),
    ("diskmap", "suspension_dictionary", None),
    ("reports", "validate_report", None),
    ("reports", "emit_plot_data", None),
    ("reports", "write_report", _bytes_info),
    ("reports", "write_csv", _rows_info),
)

OP_SPAN = "cli.main"

# per-layer metrics: (name, unit, better)
LAYER_METRICS = (
    ("profiles.theta_of_t.calls", "count", "lower"),
    ("profiles.theta_of_t.points", "count", "lower"),
    ("profiles.theta_of_t.scalar_us", "us", "lower"),
    ("profiles.theta_of_t.vector_us_per_point.lp", "us", "lower"),
    ("profiles.theta_of_t.vector_us_per_point.ellipsoid", "us", "lower"),
    ("profiles.theta_of_t.vector_us_per_point.sampled", "us", "lower"),
    ("profiles.gradient_theta.calls", "count", "lower"),
    ("profiles.t_of_theta.calls", "count", "lower"),
    ("profiles.profile_from_json.s", "s", "lower"),
    ("profiles.self_s", "s", "lower"),
    ("systolic.enumerate_tori.s", "s", "lower"),
    ("systolic.enumerate_tori.tori", "count", "higher"),
    ("systolic.enumerate_tori.tori_per_class", "ratio", "higher"),
    ("systolic.systolic_interval.s", "s", "lower"),
    ("systolic.pairing_orbit_orbit.calls", "count", "lower"),
    ("systolic.self_s", "s", "lower"),
    ("numerics.adaptive_gauss.calls", "count", "lower"),
    ("numerics.refine_extremum.calls", "count", "lower"),
    ("numerics.panel_gauss_many.calls", "count", "lower"),
    ("numerics.panel_gauss_many.points", "count", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("flows.liouville_sample.ns_per_sample", "ns", "lower"),
    ("flows.approximate_liouville_by_orbits.s", "s", "lower"),
    ("flows.orbit_average.calls", "count", "lower"),
    ("flows.self_s", "s", "lower"),
    ("topology.action_linking_verify.us_per_sample", "us", "lower"),
    ("topology.fallback_ratio", "ratio", "lower"),
    ("topology.self_s", "s", "lower"),
    ("topology.linking_number.ns_per_segment_pair", "ns", "lower"),
    ("topology.linking_number.subdivisions", "count", "lower"),
    ("topology.linking_number.pole_retries", "count", "lower"),
    ("topology.toric_orbit_curve.s", "s", "lower"),
    ("diskmap.action.calls", "count", "lower"),
    ("diskmap.flow_map.calls", "count", "lower"),
    ("diskmap.action.us_per_point", "us", "lower"),
    ("diskmap.calabi.s", "s", "lower"),
    ("diskmap.calabi_eta_residual.s", "s", "lower"),
    ("diskmap.periodic_points.s", "s", "lower"),
    ("diskmap.suspension_dictionary.s", "s", "lower"),
    ("diskmap.periodic_points.found", "count", "higher"),
    ("diskmap.self_s", "s", "lower"),
    ("reports.validate_report.ms", "ms", "lower"),
    ("reports.emit_plot_data.s", "s", "lower"),
    ("reports.write_report.bytes", "B", "lower"),
    ("reports.write_csv.rows", "count", "lower"),
    ("reports.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("setup.import_s.numpy", "s", "lower"),
    ("setup.import_s.scipy", "s", "lower"),
    ("setup.import_s.jsonschema", "s", "lower"),
    ("setup.import_s.reebsys", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
LAYERS = ("profiles", "systolic", "numerics", "flows", "topology", "diskmap",
          "reports")


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans = []             # [id, parent, op, name, t0, t1, info]
        self._lock = threading.Lock()   # pool threads add spans too
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._op = -1
        self._patches = []          # (owner, attribute, original)

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, info, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span belongs to the span that is open
            # in the main thread, which waits for the pool
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = [len(self.spans), parent, self._op, name, 0.0, 0.0, None]
            self.spans.append(span)
        stack.append(span[0])
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            stack.pop()
        if info is not None:
            span[6] = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, info, fn, args, kwargs)
        return traced

    def op(self, main, argv):
        """Run main(argv) as one op under a root span."""
        self._op += 1
        return self._call(OP_SPAN, None, main, (argv,), {})

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "reebsys" or n.startswith("reebsys.")]
        for modname, target, info in TARGETS:
            mod = importlib.import_module(f"reebsys.{modname}")
            owner, _, attr = target.rpartition(".")
            name = f"{modname}.{attr}"
            if owner:
                classes = [c for c in vars(mod).values()
                           if isinstance(c, type) and attr in vars(c)
                           and (owner == "*" or c.__name__ == owner)]
                for cls in classes:
                    self._set(cls, attr, self._wrap(name, vars(cls)[attr], info))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, info)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, info in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1,
                                     **(info or {})}) + "\n")

    def self_times(self):
        """Span duration minus the union of its children's intervals."""
        kids = defaultdict(list)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                kids[parent].append((t0, t1))
        out = []
        for sid, _, _, _, t0, t1, _ in self.spans:
            covered = 0.0
            lo = hi = None
            for a, b in sorted(kids.get(sid, ())):
                a, b = max(a, t0), min(b, t1)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out.append(t1 - t0 - covered)
        return out

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics per cycle of ops (totals divided by cycles)."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[3]].append(span)
        self_s = self.self_times()

        def calls(name):
            return len(by_name[name]) / cycles

        def total_s(name, keep=lambda span: True):
            return sum(s[5] - s[4] for s in by_name[name] if keep(s))

        def count(name, key):
            return sum(s[6][key] for s in by_name[name] if s[6]) / cycles

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        theta = "profiles.theta_of_t"
        scalar = [s for s in by_name[theta] if s[6] and s[6]["scalar"]]
        m[f"{theta}.calls"] = calls(theta)
        m[f"{theta}.points"] = count(theta, "n")
        m[f"{theta}.scalar_us"] = 1e6 * ratio(
            sum(s[5] - s[4] for s in scalar), len(scalar))
        for kind in ("lp", "ellipsoid", "sampled"):
            vec = [s for s in by_name[theta]
                   if s[6] and not s[6]["scalar"] and s[6]["kind"] == kind]
            m[f"{theta}.vector_us_per_point.{kind}"] = 1e6 * ratio(
                sum(s[5] - s[4] for s in vec), sum(s[6]["n"] for s in vec))
        m["profiles.gradient_theta.calls"] = calls("profiles.gradient_theta")
        m["profiles.t_of_theta.calls"] = calls("profiles.t_of_theta")
        m["profiles.profile_from_json.s"] = (
            total_s("profiles.profile_from_json") / cycles)

        enum = "systolic.enumerate_tori"
        m[f"{enum}.s"] = total_s(enum) / cycles
        m[f"{enum}.tori"] = count(enum, "tori")
        m[f"{enum}.tori_per_class"] = ratio(count(enum, "tori"),
                                            count(enum, "classes"))
        m["systolic.systolic_interval.s"] = (
            total_s("systolic.systolic_interval") / cycles)
        m["systolic.pairing_orbit_orbit.calls"] = calls(
            "systolic.pairing_orbit_orbit")

        for name in ("adaptive_gauss", "refine_extremum", "panel_gauss_many"):
            m[f"numerics.{name}.calls"] = calls(f"numerics.{name}")
        m["numerics.panel_gauss_many.points"] = count(
            "numerics.panel_gauss_many", "points")

        sample = "flows.liouville_sample"
        m[f"{sample}.ns_per_sample"] = 1e9 * ratio(
            total_s(sample), cycles * count(sample, "n"))
        m["flows.approximate_liouville_by_orbits.s"] = (
            total_s("flows.approximate_liouville_by_orbits") / cycles)
        m["flows.orbit_average.calls"] = calls("flows.orbit_average")

        verify = "topology.action_linking_verify"
        m[f"{verify}.us_per_sample"] = 1e6 * ratio(
            total_s(verify), cycles * count(verify, "n"))
        m["topology.fallback_ratio"] = ratio(count(verify, "fallback"),
                                             count(verify, "n"))
        link = "topology.linking_number"
        gauss = "topology._gauss_linking_sum"
        m[f"{link}.ns_per_segment_pair"] = 1e9 * ratio(
            total_s(gauss), cycles * count(gauss, "pairs"))
        m[f"{link}.subdivisions"] = count(link, "subdivisions")
        link_ids = {s[0] for s in by_name[link]}
        m[f"{link}.pole_retries"] = (
            sum(1 for s in by_name[gauss] if s[1] in link_ids)
            - len(link_ids)) / cycles
        m["topology.toric_orbit_curve.s"] = (
            total_s("topology.toric_orbit_curve") / cycles)

        m["diskmap.action.calls"] = calls("diskmap.action")
        m["diskmap.flow_map.calls"] = calls("diskmap.flow_map")
        m["diskmap.action.us_per_point"] = 1e6 * ratio(
            total_s("diskmap.action"), cycles * count("diskmap.action", "points"))
        for name in ("calabi", "calabi_eta_residual", "periodic_points",
                     "suspension_dictionary"):
            m[f"diskmap.{name}.s"] = total_s(f"diskmap.{name}") / cycles
        m["diskmap.periodic_points.found"] = count("diskmap.periodic_points",
                                                   "found")

        validate = by_name["reports.validate_report"]
        m["reports.validate_report.ms"] = 1e3 * ratio(
            sum(s[5] - s[4] for s in validate), len(validate))
        m["reports.emit_plot_data.s"] = total_s("reports.emit_plot_data") / cycles
        m["reports.write_report.bytes"] = count("reports.write_report", "bytes")
        m["reports.write_csv.rows"] = count("reports.write_csv", "rows")

        layer_self = defaultdict(float)
        for span, own in zip(self.spans, self_s):
            layer_self[span[3].split(".")[0]] += own
        for layer in LAYERS + ("cli",):
            m[f"{layer}.self_s"] = layer_self[layer] / cycles
        return m
