#!/usr/bin/env python3
"""Command-line surface for the toolkit.

Verbs: run a scenario file, evaluate a field at a point, compute open/loop
phases, disc fluxes, the axis-string diagnostics, the Landau gauge
comparison, and static SVG field maps.  Every verb but ``run`` builds a
small scenario from its flags and runs it through the scenario engine, so
input checks and exit codes (0 ok, 1 expectation failed, 2 bad input or an
output file that cannot be written, 3 numerical or per-operation error) are
the same as for scenario files.
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


def _field_settings(args) -> dict:
    """Scenario entries set by the solenoid and quadrature flags."""
    raw = {"solenoid": {"R": args.R, "B": args.B}, "landau_b": args.landau_b}
    quadrature = {}
    if getattr(args, "nphi", None) is not None:
        quadrature["n_phi"] = args.nphi
    if getattr(args, "half_lengths", None) is not None:
        quadrature["half_lengths"] = args.half_lengths
    if quadrature:
        raw["quadrature"] = quadrature
    return raw


def _path_from_args(args) -> tuple:
    """(name, path entry) for the one path flag given."""
    chosen = [k for k in ("circle", "arc", "segment", "polyline")
              if getattr(args, k) is not None]
    if len(chosen) != 1:
        raise ParseError("give exactly one of --circle/--arc/--segment/--polyline")
    kind = chosen[0]
    center = args.center or [0.0, 0.0, 0.0]
    if kind == "circle":
        return kind, {"kind": kind, "center": center, "radius": args.circle,
                      "turns": args.turns}
    if kind == "arc":
        rho, phi0, phi1 = args.arc
        return kind, {"kind": kind, "center": center, "radius": rho,
                      "phi0": phi0, "phi1": phi1}
    if kind == "segment":
        a, b = args.segment
        return kind, {"kind": kind, "from": a, "to": b}
    return kind, {"kind": kind, "points": args.polyline}


def _run(**raw) -> tuple:
    """Run operations as a one-off scenario: (exit code, reports).

    Per-operation errors go to stderr; the reports are in request order.
    """
    record = run_scenario(scenario_from_dict({"name": "cli", **raw}))
    for r in record.reports:
        if r.error is not None:
            label = "numerical error" if r.numerical else "operation error"
            print(f"{label}: {r.error}", file=sys.stderr)
    return exit_code(record), record.reports


def _emit(args, payload: dict) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    if getattr(args, "out", None):
        Path(args.out).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands: each verb is a one-operation scenario
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    record = run_scenario(scenario)
    out_dir = args.out or "runs"
    fmt = args.format or scenario.output_format
    written = write_outputs(record, out_dir, fmt)
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
    return exit_code(record)


def _cmd_eval(args) -> int:
    code, (rep,) = _run(**_field_settings(args), operations=[
        {"op": "eval_field", "field": args.field, "at": args.at}])
    if code == EXIT_OK:
        _emit(args, {"field": args.field, "at": args.at, "value": rep.value})
    return code


def _cmd_phase(args) -> int:
    name, path = _path_from_args(args)
    code, (rep,) = _run(**_field_settings(args), paths={name: path}, operations=[
        {"op": f"{args.mode}_phase", "path" if args.mode == "open" else "loop": name,
         "gauge": args.gauge, "e": args.charge, "tol": args.tol}])
    if code == EXIT_OK:
        _emit(args, {"mode": args.mode, "gauge": args.gauge, "phase": rep.value,
                     "transverse_part": rep.extra["transverse_part"],
                     "gauge_part": rep.extra["gauge_part"],
                     "error_estimate": rep.error_estimate,
                     "winding": rep.extra.get("winding"),
                     "singular_gauge": rep.extra["singular_gauge"]})
    return code


def _cmd_flux(args) -> int:
    disc = {"center": args.center, "radius": args.radius}
    code, (rep,) = _run(**_field_settings(args), discs={"disc": disc}, operations=[
        {"op": "disc_flux", "field": args.field, "disc": "disc",
         "with_string": args.with_string, "tol": args.tol}])
    if code == EXIT_OK:
        _emit(args, {"field": args.field, "radius": args.radius,
                     "with_string": args.with_string, "flux": rep.value})
    return code


def _cmd_string(args) -> int:
    code, (string, grad, aprime) = _run(**_field_settings(args), operations=[
        {"op": "string_flux"},
        {"op": "shrinking_loop", "field": "gauge.sing", "eps": args.eps},
        {"op": "shrinking_loop", "field": "solenoid.Aprime", "eps": args.eps}])
    if code == EXIT_OK:
        _emit(args, {"string_flux": string.value,
                     "singular_gradient_limit": grad.value,
                     "transformed_potential_limit": aprime.value,
                     "eps": grad.extra["eps"],
                     "circulations": grad.extra["circulations"]})
    return code


def _cmd_landau(args) -> int:
    x0, y0 = args.corner
    x1, y1 = x0 + args.size, y0 + args.size
    square = {"kind": "polyline", "points": [
        [x0, y0, 0.0], [x1, y0, 0.0], [x1, y1, 0.0], [x0, y1, 0.0], [x0, y0, 0.0]]}
    code, (rep,) = _run(landau_b=args.b, paths={"square": square}, operations=[
        {"op": "landau_compare", "loop": "square", "e": args.charge}])
    if code == EXIT_OK:
        _emit(args, {"b": args.b, "area": args.size ** 2,
                     **rep.extra["loop_phases"]})
    return code


def _cmd_plot(args) -> int:
    code, (rep,) = _run(**_field_settings(args), operations=[
        {"op": "field_map", "field": args.field, "window": args.window,
         "resolution": args.resolution, "out": args.out}])
    if code == EXIT_OK:
        print(f"wrote {rep.value}")
    return code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_solenoid_flags(p) -> None:
    p.add_argument("--R", type=float, default=1.0, help="solenoid radius")
    p.add_argument("--B", type=float, default=1.0, help="interior field strength")
    p.add_argument("--landau-b", dest="landau_b", type=float, default=1.0,
                   help="uniform field for the Landau system")


def _add_quadrature_flags(p) -> None:
    p.add_argument("--nphi", type=int, help="azimuthal order per panel")
    p.add_argument("--half-lengths", dest="half_lengths", type=_split(","),
                   help="truncation half-lengths in units of R, ascending")


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="also write the result as JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abgauge",
        description="Solenoid gauge-field toolkit: potentials, phases, fluxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--out", help="output directory (default: runs)")
    p.add_argument("--format", choices=["json", "csv", "both"])
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a field at a point")
    p.add_argument("field")
    p.add_argument("--at", type=_vec, required=True)
    _add_solenoid_flags(p)
    _add_quadrature_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("phase", help="open-path or closed-loop phase")
    p.add_argument("mode", choices=["open", "loop"])
    p.add_argument("--gauge", default="none")
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--center", type=_vec)
    p.add_argument("--circle", type=float, help="circle radius")
    p.add_argument("--turns", type=int, default=1)
    p.add_argument("--arc", type=_split(":", 3), help="rho:phi0:phi1")
    p.add_argument("--segment", type=_split(":", 2, _vec), help="x1,y1,z1:x2,y2,z2")
    p.add_argument("--polyline", type=_split(";", item=_vec), help="x,y,z;x,y,z;...")
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_phase)

    p = sub.add_parser("flux", help="flux of a field through a z-normal disc")
    p.add_argument("--field", default="solenoid.B")
    p.add_argument("--center", type=_vec, default=[0.0, 0.0, 0.0])
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--with-string", dest="with_string", action="store_true",
                   help="add the axis string field left by the singular gauge")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_flux)

    p = sub.add_parser("string", help="axis-string diagnostics of the singular gauge")
    p.add_argument("--eps", type=_split(","), default=[1e-1, 1e-2, 1e-3])
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_string)

    p = sub.add_parser("landau", help="Landau-system gauge comparison")
    p.add_argument("action", choices=["compare"])
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--corner", type=_split(",", 2),
                   default=(0.0, 0.0), help="square corner x,y")
    p.add_argument("--size", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_landau)

    p = sub.add_parser("plot", help="emit a static SVG field map")
    p.add_argument("kind", choices=["field"])
    p.add_argument("field")
    p.add_argument("--window", type=_split(","), default=[-3.0, 3.0, -3.0, 3.0])
    p.add_argument("--resolution", type=int, default=24)
    p.add_argument("--out", required=True)
    _add_solenoid_flags(p)
    _add_quadrature_flags(p)
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
