"""Spans around calls into abgauge's modules, recorded from outside the program.

The tracer rebinds public functions in every abgauge module that imported
them (modules bind names directly, so patching the defining module alone
would miss callers), wraps methods on their classes, and wraps the
scenario engine's handler table.  Each wrapped call becomes one span held in
compact in-memory arrays: name, start, end, parent span and request id.
Private hooks such as ``PathSpec._point`` are only counted.  A span name
whose targets have all disappeared is listed in ``missing``, and every
metric derived from it is reported as null.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path

perf_counter = time.perf_counter

# Leaf closed-form field expressions (their __call__ evaluates one point).
LEAF_FIELDS = ("SolenoidTransverseField", "SolenoidBField", "TransformedPotentialField",
               "GaugeGradientField", "LandauField", "CallableField")
GAUGES = ("PolynomialGauge", "SingularSolenoidGauge", "BawinBurnelGauge")

# (span name, defining module, attribute, kind).  "function" rebinds a
# module-level name everywhere it was imported, "method" wraps a class
# attribute, "count" only counts calls.
HOOKS = [
    ("geometry.sample", "abgauge.geometry", "PathSpec.sample", "method"),
    ("geometry.point_evals", "abgauge.geometry", "PathSpec._point", "count"),
    ("geometry.winding_number", "abgauge.geometry", "winding_number", "function"),
    ("geometry.azimuth_change", "abgauge.geometry", "azimuth_change", "function"),
    ("geometry.endpoint_azimuths", "abgauge.geometry", "endpoint_azimuths", "function"),
    *[("analytic_fields.field_eval", "abgauge.analytic_fields", f"{cls}.__call__", "method")
      for cls in LEAF_FIELDS],
    *[("analytic_fields.gauge_eval", "abgauge.analytic_fields", f"{cls}.{meth}", "method")
      for cls in GAUGES for meth in ("value", "gradient")],
    ("biot_savart.numeric_potential", "abgauge.biot_savart", "numeric_potential", "function"),
    ("biot_savart.numeric_b_field", "abgauge.biot_savart", "numeric_b_field", "function"),
    ("extrapolation.neville_to_zero", "abgauge.extrapolation", "neville_to_zero", "function"),
    ("calculus.line_integral", "abgauge.calculus", "line_integral", "function"),
    ("calculus.disc_flux", "abgauge.calculus", "disc_flux", "function"),
    ("calculus.numeric_curl", "abgauge.calculus", "numeric_curl", "function"),
    ("calculus.numeric_divergence", "abgauge.calculus", "numeric_divergence", "function"),
    ("calculus.helmholtz_classify", "abgauge.calculus", "helmholtz_classify", "function"),
    ("calculus.stokes_residual", "abgauge.calculus", "stokes_residual", "function"),
    ("calculus.shrinking_loop_circulation", "abgauge.calculus",
     "shrinking_loop_circulation", "function"),
    ("ab_phase.loop_phase", "abgauge.ab_phase", "loop_phase", "function"),
    ("ab_phase.open_path_phase", "abgauge.ab_phase", "open_path_phase", "function"),
    ("ab_phase.interference_shift", "abgauge.ab_phase", "interference_shift", "function"),
    ("ab_phase.gauge_dependence_scan", "abgauge.ab_phase", "gauge_dependence_scan", "function"),
    ("scenario.scenario_from_dict", "abgauge.scenario", "scenario_from_dict", "function"),
    ("scenario.schema_validation", "abgauge.scenario", "jsonschema.validate", "method"),
    ("scenario.run_scenario", "abgauge.scenario", "run_scenario", "function"),
    ("scenario.record_json", "abgauge.scenario", "record_json", "function"),
    ("scenario.write_outputs", "abgauge.scenario", "write_outputs", "function"),
    ("svgmap.emit_field_map", "abgauge.svgmap", "emit_field_map", "function"),
    ("cli.main", "abgauge.cli", "main", "function"),
]

# Handler kinds whose time is reported as scenario.op.<op>.s.
OPS = ("numeric_potential", "numeric_b_field", "line_integral", "loop_phase", "open_phase",
       "phase_shift", "gauge_scan", "interference_shift", "winding_number",
       "shrinking_loop", "landau_compare", "curl_scan", "div_scan", "helmholtz_classify",
       "gauge_link_residual", "field_max_abs", "disc_flux", "stokes_residual")


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _count_sample_points(counters, args, kwargs, result):
    # A reversed path samples its forward twin, which is its own span.
    if not args[0].is_reversed:
        counters["geometry.sample.points"] += len(result)


def _count_nodes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if not path.is_reversed and path.kind != "concat":
        counters["calculus.line_integral.nodes"] += result.n_points


def _count_record_bytes(counters, args, kwargs, result):
    counters["scenario.write_outputs.bytes"] += _file_bytes(result)


def _count_svg_bytes(counters, args, kwargs, result):
    counters["svgmap.emit_field_map.bytes"] += _file_bytes([result])


MEASURES = {
    "geometry.sample": _count_sample_points,
    "calculus.line_integral": _count_nodes,
    "scenario.write_outputs": _count_record_bytes,
    "svgmap.emit_field_map": _count_svg_bytes,
}
COUNTERS = ("geometry.sample.points", "geometry.point_evals", "calculus.line_integral.nodes",
            "scenario.write_outputs.bytes", "svgmap.emit_field_map.bytes")


class Tracer:
    """In-memory span store plus the hooks that fill it."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self._stack = []
        self.request = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = set()
        self._undo = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def add_span(self, name, start, end, parent=-1, request=None) -> int:
        idx = len(self.start)
        self.name.append(self.code(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.req.append(self.request if request is None else request)
        return idx

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        code = self.code(name)
        measure = MEASURES.get(name)
        stack = self._stack
        names, starts, ends, parents, reqs = self.name, self.start, self.end, self.parent, self.req

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                measure(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook that exists.

        A span name none of whose targets exist any more goes to missing.
        """
        absent, present = set(), set()
        for name, module_name, attr, kind in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_name.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                absent.add(name)
                continue
            present.add(name)
            make = self._count_wrapper if kind == "count" else self._span_wrapper
            wrapped = make(original, name)
            if kind == "function":
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "abgauge" or mod_name.startswith("abgauge.")) \
                            and getattr(mod, leaf, None) is original:
                        self._rebind(mod, leaf, wrapped)
            else:
                self._rebind(owner, leaf, wrapped)
        self.missing |= absent - present
        handlers = getattr(sys.modules.get("abgauge.scenario"), "HANDLERS", None)
        if not isinstance(handlers, dict):
            self.missing.add("scenario.op")
            return
        for op, fn in list(handlers.items()):
            handlers[op] = self._span_wrapper(fn, f"scenario.op.{op}")
            self._undo.append(lambda op=op, fn=fn: handlers.__setitem__(op, fn))

    def _rebind(self, owner, attr, value) -> None:
        # Only attributes the owner defines itself are restored by setattr;
        # inherited ones are deleted again.
        own = attr in vars(owner)
        previous = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, previous) if own else delattr(owner, attr))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- export ------------------------------------------------------------

    def spans(self) -> list:
        """Spans as [name, start, end, parent, request] lists."""
        return [[self.names[n], s, e, p, r] for n, s, e, p, r in
                zip(self.name, self.start, self.end, self.parent, self.req)]

    def merge(self, dump: dict, request: int) -> None:
        """Add what a traced child process recorded, re-basing parent ids."""
        base = len(self.start)
        for name, s, e, p, _ in dump["spans"]:
            self.add_span(name, s, e, base + p if p >= 0 else -1, request)
        for name, value in dump["counters"].items():
            self.counters[name] += value
        self.missing.update(dump["missing"])


def self_times(tracer: Tracer) -> dict:
    """{span name: (calls, inclusive seconds, self seconds)}.

    Self time is a span's duration minus the durations of its direct
    children; calls nest, so children of one parent never overlap.
    """
    import numpy as np

    if not tracer.start:
        return {}
    k = len(tracer.names)
    name = np.frombuffer(tracer.name, dtype=np.uint16).astype(np.intp)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nested = parent >= 0
    own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=own, minlength=k)
    return {tracer.names[c]: (int(calls[c]), float(total[c]), float(selfs[c]))
            for c in range(k) if calls[c]}


def unattributed(tracer: Tracer, request_walls: dict) -> float:
    """Request wall time not covered by any top-level span, summed."""
    covered = {}
    for s, e, p, r in zip(tracer.start, tracer.end, tracer.parent, tracer.req):
        if p < 0:
            covered[r] = covered.get(r, 0.0) + (e - s)
    return sum(max(0.0, wall - covered.get(r, 0.0)) for r, wall in request_walls.items())


def save(tracer: Tracer, path) -> None:
    """Write every span; names are stored once and referenced by code."""
    import numpy as np

    np.savez(path, names=np.array(tracer.names), name=np.frombuffer(tracer.name, dtype=np.uint16),
             start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end),
             parent=np.frombuffer(tracer.parent, dtype=np.int64),
             request=np.frombuffer(tracer.req, dtype=np.int64))


def layer_metrics(tracer: Tracer, request_walls: dict, overhead: float, launches: dict) -> dict:
    """Per-layer metric values by name; None where a hook has disappeared.

    launches holds per-launch timings (lists of seconds) for the cli layer:
    ``interpreter``, ``import`` and ``main``.
    """
    st = self_times(tracer)

    def stat(span, field):
        if span in tracer.missing:
            return None
        calls, total, own = st.get(span, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": own, "total_s": total}[field]

    def counter(name, hook):
        return None if hook in tracer.missing else tracer.counters[name]

    def median(values):
        return statistics.median(values) if values else 0.0

    np_calls = stat("biot_savart.numeric_potential", "calls")
    np_total = stat("biot_savart.numeric_potential", "total_s")
    m = {
        "geometry.sample.calls": stat("geometry.sample", "calls"),
        "geometry.sample.points": counter("geometry.sample.points", "geometry.sample"),
        "geometry.sample.self_s": stat("geometry.sample", "self_s"),
        "geometry.point_evals": counter("geometry.point_evals", "geometry.point_evals"),
        "geometry.winding_number.self_s": stat("geometry.winding_number", "self_s"),
        "geometry.azimuth_change.calls": stat("geometry.azimuth_change", "calls"),
        "geometry.azimuth_change.self_s": stat("geometry.azimuth_change", "self_s"),
        "geometry.endpoint_azimuths.self_s": stat("geometry.endpoint_azimuths", "self_s"),
        "analytic_fields.field_evals": stat("analytic_fields.field_eval", "calls"),
        "analytic_fields.field_eval.self_s": stat("analytic_fields.field_eval", "self_s"),
        "analytic_fields.gauge_evals": stat("analytic_fields.gauge_eval", "calls"),
        "analytic_fields.gauge_eval.self_s": stat("analytic_fields.gauge_eval", "self_s"),
        "biot_savart.numeric_potential.calls": np_calls,
        "biot_savart.numeric_potential.self_s": stat("biot_savart.numeric_potential", "self_s"),
        "biot_savart.numeric_potential.ms_per_call":
            None if np_calls is None else (1e3 * np_total / np_calls if np_calls else 0.0),
        "biot_savart.numeric_b_field.calls": stat("biot_savart.numeric_b_field", "calls"),
        "biot_savart.numeric_b_field.self_s": stat("biot_savart.numeric_b_field", "self_s"),
        "extrapolation.neville_to_zero.calls": stat("extrapolation.neville_to_zero", "calls"),
        "extrapolation.neville_to_zero.self_s": stat("extrapolation.neville_to_zero", "self_s"),
        "calculus.line_integral.calls": stat("calculus.line_integral", "calls"),
        "calculus.line_integral.self_s": stat("calculus.line_integral", "self_s"),
        "calculus.line_integral.nodes": counter("calculus.line_integral.nodes",
                                                "calculus.line_integral"),
    }
    for fn in ("disc_flux", "numeric_curl", "numeric_divergence"):
        m[f"calculus.{fn}.calls"] = stat(f"calculus.{fn}", "calls")
        m[f"calculus.{fn}.self_s"] = stat(f"calculus.{fn}", "self_s")
    for fn in ("helmholtz_classify", "stokes_residual", "shrinking_loop_circulation"):
        m[f"calculus.{fn}.self_s"] = stat(f"calculus.{fn}", "self_s")
    for fn in ("loop_phase", "open_path_phase"):
        m[f"ab_phase.{fn}.calls"] = stat(f"ab_phase.{fn}", "calls")
        m[f"ab_phase.{fn}.self_s"] = stat(f"ab_phase.{fn}", "self_s")
    for fn in ("interference_shift", "gauge_dependence_scan"):
        m[f"ab_phase.{fn}.self_s"] = stat(f"ab_phase.{fn}", "self_s")
    for fn in ("scenario_from_dict", "schema_validation", "run_scenario"):
        m[f"scenario.{fn}.self_s"] = stat(f"scenario.{fn}", "self_s")
    for op in OPS:
        m[f"scenario.op.{op}.s"] = None if "scenario.op" in tracer.missing \
            else st.get(f"scenario.op.{op}", (0, 0.0, 0.0))[1]
    m["scenario.record_json.self_s"] = stat("scenario.record_json", "self_s")
    m["scenario.write_outputs.self_s"] = stat("scenario.write_outputs", "self_s")
    m["scenario.write_outputs.bytes"] = counter("scenario.write_outputs.bytes",
                                                "scenario.write_outputs")
    m["cli.interpreter_s"] = median(launches.get("interpreter", []))
    m["cli.import_s"] = median(launches.get("import", []))
    m["cli.main_s"] = None if "cli.main" in tracer.missing else median(launches.get("main", []))
    m["svgmap.emit_field_map.calls"] = stat("svgmap.emit_field_map", "calls")
    m["svgmap.emit_field_map.self_s"] = stat("svgmap.emit_field_map", "self_s")
    m["svgmap.emit_field_map.bytes"] = counter("svgmap.emit_field_map.bytes",
                                               "svgmap.emit_field_map")
    m["trace.overhead"] = overhead
    m["trace.unattributed_s"] = unattributed(tracer, request_walls)
    return m
