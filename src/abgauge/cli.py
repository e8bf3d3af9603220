#!/usr/bin/env python3
"""Command-line surface for the toolkit.

Verbs: run one or more scenario files, evaluate a field at a point, compute
open/loop phases, disc fluxes, the axis-string diagnostics, the Landau gauge
comparison, and static SVG field maps.  Every verb but ``run`` builds a
small scenario from its flags and runs it through the scenario engine, so
input checks, defaults and exit codes (0 ok, 1 expectation failed, 2 bad
input or an output file that cannot be written, 3 numerical or
per-operation error) are the same as for scenario files.  A flag that sets
a scenario key has that key as its ``dest`` and no default of its own:
only the flags given reach the scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ParseError
from .scenario import (exit_code, load_scenario, run_scenario, scenario_from_dict,
                       write_outputs)

EXIT_OK = 0
EXIT_PARSE = 2


def _split(sep, count=None, item=float):
    """argparse type: items separated by sep, exactly count of them if given."""
    def parse(text):
        values = [item(v) for v in text.split(sep)]
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} values separated by {sep!r}, got {text!r}")
        return values
    return parse


_vec = _split(",", 3)


def _given(args, *keys) -> dict:
    """The scenario entries among keys that were given as flags."""
    return {k: getattr(args, k) for k in keys if k in args}


def _settings(args) -> dict:
    """Scenario entries set by the solenoid and Landau flags given.

    A dest ``section.key`` sets ``key`` of the scenario's ``section`` object.
    """
    raw = _given(args, "landau_b")
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot:
            raw.setdefault(section, {})[key] = value
    return raw


def _path_from_args(args) -> tuple:
    """(name, path entry) for the one path flag given."""
    chosen = [k for k in ("circle", "arc", "segment", "polyline") if k in args]
    if len(chosen) != 1:
        raise ParseError("give exactly one of --circle/--arc/--segment/--polyline")
    kind = chosen[0]
    if kind == "circle":
        return kind, {"kind": kind, "radius": args.circle, **_given(args, "center", "turns")}
    if kind == "arc":
        rho, phi0, phi1 = args.arc
        return kind, {"kind": kind, "radius": rho, "phi0": phi0, "phi1": phi1,
                      **_given(args, "center")}
    if kind == "segment":
        a, b = args.segment
        return kind, {"kind": kind, "from": a, "to": b}
    return kind, {"kind": kind, "points": args.polyline}


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    if "out" in args:
        Path(args.out).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _run(args, show, **raw) -> int:
    """Run operations as a one-off scenario and return its exit code.

    Per-operation errors go to stderr.  When every operation succeeds,
    show(scenario, *reports) prints the verb's result; the reports are in
    request order.
    """
    scenario = scenario_from_dict({"name": "cli", **_settings(args), **raw})
    record = run_scenario(scenario)
    for r in record.reports:
        if r.error is not None:
            label = "numerical error" if r.numerical else "operation error"
            print(f"{label}: {r.error}", file=sys.stderr)
    code = exit_code(record)
    if code == EXIT_OK:
        show(scenario, *record.reports)
    return code


# ---------------------------------------------------------------------------
# Subcommands: each verb but run is a one-off scenario
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    scenarios = []
    for path in args.scenario:  # every file is checked before any runs
        try:
            scenarios.append(load_scenario(path))
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) < len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"two scenario files are named {repeated!r}; "
                         "their records would overwrite each other")
    worst = EXIT_OK
    for scenario in scenarios:
        record = run_scenario(scenario)
        written = write_outputs(record, args.out, args.format or scenario.output_format)
        for r in record.reports:
            if r.error is not None:
                status = "ERROR"
            elif r.passed is None:
                status = "DONE "
            else:
                status = "PASS " if r.passed else "FAIL "
            print(f"[{status}] #{r.index} {r.op} target={r.target} value={r.value} "
                  f"{'(' + r.error + ')' if r.error else ''}")
        print(f"wrote: {', '.join(str(p) for p in written)}")
        worst = max(worst, exit_code(record))
    return worst


def _cmd_eval(args) -> int:
    return _run(args, lambda sc, rep: _emit(args, {
        "field": args.field, "at": args.at, "value": rep.value}),
        operations=[{"op": "eval_field", "field": args.field, "at": args.at}])


def _cmd_phase(args) -> int:
    name, path = _path_from_args(args)
    return _run(args, lambda sc, rep: _emit(args, {
        "mode": args.mode, "gauge": rep.target, "phase": rep.value,
        "transverse_part": rep.extra["transverse_part"],
        "gauge_part": rep.extra["gauge_part"],
        "error_estimate": rep.error_estimate,
        "winding": rep.extra.get("winding"),
        "singular_gauge": rep.extra["singular_gauge"]}),
        paths={name: path}, operations=[
            {"op": f"{args.mode}_phase", "path" if args.mode == "open" else "loop": name,
             **_given(args, "gauge", "e", "tol")}])


def _cmd_flux(args) -> int:
    return _run(args, lambda sc, rep: _emit(args, {
        "field": args.field, "radius": args.radius,
        "with_string": rep.extra["with_string"], "flux": rep.value}),
        discs={"disc": {"center": args.center, "radius": args.radius}}, operations=[
            {"op": "disc_flux", "field": args.field, "disc": "disc",
             **_given(args, "with_string", "tol")}])


def _cmd_string(args) -> int:
    eps = _given(args, "eps")
    return _run(args, lambda sc, string, grad, aprime: _emit(args, {
        "string_flux": string.value,
        "singular_gradient_limit": grad.value,
        "transformed_potential_limit": aprime.value,
        "eps": grad.extra["eps"],
        "circulations": grad.extra["circulations"]}),
        operations=[{"op": "string_flux"},
                    {"op": "shrinking_loop", "field": "gauge.sing", **eps},
                    {"op": "shrinking_loop", "field": "solenoid.Aprime", **eps}])


def _cmd_landau(args) -> int:
    x0, y0 = args.corner
    x1, y1 = x0 + args.size, y0 + args.size
    square = {"kind": "polyline", "points": [
        [x0, y0, 0.0], [x1, y0, 0.0], [x1, y1, 0.0], [x0, y1, 0.0], [x0, y0, 0.0]]}
    return _run(args, lambda sc, rep: _emit(args, {
        "b": sc.landau_b, "area": args.size ** 2, **rep.extra["loop_phases"]}),
        paths={"square": square}, operations=[
            {"op": "landau_compare", "loop": "square", **_given(args, "e")}])


def _cmd_plot(args) -> int:
    return _run(args, lambda sc, rep: print(f"wrote {rep.value}"), operations=[
        {"op": "field_map", "field": args.field, "out": args.out,
         **_given(args, "window", "resolution")}])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_solenoid_flags(p) -> None:
    p.add_argument("--R", dest="solenoid.R", type=float, help="solenoid radius")
    p.add_argument("--B", dest="solenoid.B", type=float, help="interior field strength")
    p.add_argument("--landau-b", dest="landau_b", type=float,
                   help="uniform field for the Landau system")


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="also write the result as JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abgauge",
        description="Solenoid gauge-field toolkit: potentials, phases, fluxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, text):
        # A flag with no default of its own is absent from the namespace
        # unless given, so the scenario engine's default applies.
        return sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)

    p = verb("run", "run scenario files")
    p.add_argument("scenario", nargs="+")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.add_argument("--format", choices=["json", "csv", "both"], default=None,
                   help="record format (default: each scenario's output.format)")
    p.set_defaults(fn=_cmd_run)

    p = verb("eval", "evaluate a field at a point")
    p.add_argument("field")
    p.add_argument("--at", type=_vec, required=True)
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = verb("phase", "open-path or closed-loop phase")
    p.add_argument("mode", choices=["open", "loop"])
    p.add_argument("--gauge")
    p.add_argument("--charge", dest="e", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--center", type=_vec)
    p.add_argument("--circle", type=float, help="circle radius")
    p.add_argument("--turns", type=int)
    p.add_argument("--arc", type=_split(":", 3), help="rho:phi0:phi1")
    p.add_argument("--segment", type=_split(":", 2, _vec), help="x1,y1,z1:x2,y2,z2")
    p.add_argument("--polyline", type=_split(";", item=_vec), help="x,y,z;x,y,z;...")
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_phase)

    p = verb("flux", "flux of a field through a z-normal disc")
    p.add_argument("--field", default="solenoid.B")
    p.add_argument("--center", type=_vec, default=[0.0, 0.0, 0.0])
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--with-string", dest="with_string", action="store_true",
                   help="add the axis string field left by the singular gauge")
    p.add_argument("--tol", type=float)
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_flux)

    p = verb("string", "axis-string diagnostics of the singular gauge")
    p.add_argument("--eps", type=_split(","))
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_string)

    p = verb("landau", "Landau-system gauge comparison")
    p.add_argument("action", choices=["compare"])
    p.add_argument("--b", dest="landau_b", type=float)
    p.add_argument("--charge", dest="e", type=float)
    p.add_argument("--corner", type=_split(",", 2),
                   default=(0.0, 0.0), help="square corner x,y")
    p.add_argument("--size", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_landau)

    p = verb("plot", "emit a static SVG field map")
    p.add_argument("kind", choices=["field"])
    p.add_argument("field")
    p.add_argument("--window", type=_split(","))
    p.add_argument("--resolution", type=int)
    p.add_argument("--out", required=True)
    _add_solenoid_flags(p)
    p.set_defaults(fn=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # reading is a ParseError, so this is a record or --out file
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
