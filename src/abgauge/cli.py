#!/usr/bin/env python3
"""Command-line surface for the toolkit.

Verbs: run a scenario file, evaluate a field at a point, compute open/loop
phases, disc fluxes, the axis-string diagnostics, the Landau gauge
comparison, and static SVG field maps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ab_phase import PhaseProbe, loop_phase, open_path_phase
from .analytic_fields import (GaugeGradientField, SingularSolenoidGauge,
                              StringField, string_flux, TransformedPotentialField)
from .calculus import disc_flux, shrinking_loop_circulation
from .errors import ComputationError, ParseError, ToolkitError
from .geometry import DiscSpec, LoopSpec, PathSpec, Point
from .scenario import (exit_code, load_scenario, resolve_field, resolve_gauge,
                       run_scenario, scenario_from_dict, write_outputs)
from .svgmap import emit_field_map

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3


def _parse_vec(text: str) -> tuple:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z")
    return tuple(parts)


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _minimal_scenario(args) -> "object":
    """Context scenario for id resolution outside scenario files."""
    raw = {
        "name": "cli",
        "solenoid": {"R": getattr(args, "R", 1.0), "B": getattr(args, "B", 1.0)},
        "landau_b": getattr(args, "landau_b", 1.0),
        "operations": [{"op": "string_flux"}],
    }
    if getattr(args, "nphi", None) or getattr(args, "half_lengths", None):
        q = {}
        if getattr(args, "nphi", None):
            q["n_phi"] = args.nphi
        if getattr(args, "half_lengths", None):
            q["half_lengths"] = list(args.half_lengths)
        raw["quadrature"] = q
    return scenario_from_dict(raw)


def _path_from_args(args) -> PathSpec:
    chosen = [k for k in ("circle", "arc", "segment", "polyline")
              if getattr(args, k, None)]
    if len(chosen) != 1:
        raise ParseError("give exactly one of --circle/--arc/--segment/--polyline")
    kind = chosen[0]
    center = getattr(args, "center", None) or (0.0, 0.0, 0.0)
    if kind == "circle":
        return PathSpec.circle(center, args.circle, turns=getattr(args, "turns", 1))
    if kind == "arc":
        rho, phi0, phi1 = (float(v) for v in args.arc.split(":"))
        return PathSpec.arc(center, rho, phi0, phi1)
    if kind == "segment":
        a, b = args.segment.split(":")
        return PathSpec.segment(_parse_vec(a), _parse_vec(b))
    points = [_parse_vec(p) for p in args.polyline.split(";")]
    return PathSpec.polyline(points)


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
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    record = run_scenario(scenario, parallel=args.parallel)
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
    scenario = _minimal_scenario(args)
    f = resolve_field(args.field, scenario)
    value = f(args.at)
    _emit(args, {"field": args.field, "at": list(args.at),
                 "value": [float(v) for v in value]})
    return EXIT_OK


def _cmd_phase(args) -> int:
    scenario = _minimal_scenario(args)
    gauge = resolve_gauge(args.gauge, scenario)
    probe = PhaseProbe(solenoid=scenario.solenoid, gauge=gauge, e=args.charge)
    path = _path_from_args(args)
    if args.mode == "loop":
        rep = loop_phase(probe, LoopSpec(path), tol=args.tol)
    else:
        rep = open_path_phase(probe, path, tol=args.tol)
    _emit(args, {"mode": args.mode, "gauge": args.gauge, "phase": rep.phase,
                 "transverse_part": rep.transverse_part,
                 "gauge_part": rep.gauge_part,
                 "error_estimate": rep.error_estimate,
                 "winding": rep.winding,
                 "singular_gauge": rep.singular_gauge})
    return EXIT_OK


def _cmd_flux(args) -> int:
    scenario = _minimal_scenario(args)
    f = resolve_field(args.field, scenario)
    disc = DiscSpec(Point(*args.center), args.radius)
    deltas = [StringField(scenario.solenoid)] if args.with_string else []
    value = disc_flux(f, disc, deltas=deltas, tol=args.tol)
    _emit(args, {"field": args.field, "radius": args.radius,
                 "with_string": args.with_string, "flux": value})
    return EXIT_OK


def _cmd_string(args) -> int:
    s = _minimal_scenario(args).solenoid
    grad = GaugeGradientField(SingularSolenoidGauge(s))
    shrink = shrinking_loop_circulation(grad, (0.0, 0.0, 0.0), eps_list=args.eps)
    aprime = shrinking_loop_circulation(TransformedPotentialField(s),
                                        (0.0, 0.0, 0.0), eps_list=args.eps)
    _emit(args, {"string_flux": string_flux(s),
                 "singular_gradient_limit": shrink.value,
                 "transformed_potential_limit": aprime.value,
                 "eps": list(shrink.eps_values),
                 "circulations": list(shrink.circulations)})
    return EXIT_OK


def _cmd_landau(args) -> int:
    scenario = scenario_from_dict({
        "name": "cli", "landau_b": args.b,
        "operations": [{"op": "string_flux"}],
    })
    x0, y0 = args.corner
    square = PathSpec.polyline([
        (x0, y0, 0.0), (x0 + args.size, y0, 0.0),
        (x0 + args.size, y0 + args.size, 0.0), (x0, y0 + args.size, 0.0),
        (x0, y0, 0.0)])
    loop = LoopSpec(square)
    payload = {"b": args.b, "area": args.size ** 2}
    for fid in ("landau.S", "landau.L1", "landau.L2"):
        probe = PhaseProbe(e=args.charge, base_field=resolve_field(fid, scenario))
        payload[fid] = loop_phase(probe, loop).phase
    _emit(args, payload)
    return EXIT_OK


def _cmd_plot(args) -> int:
    scenario = _minimal_scenario(args)
    f = resolve_field(args.field, scenario)
    window = args.window
    if len(window) != 4:
        raise ParseError("--window needs xmin,xmax,ymin,ymax")
    solenoid = scenario.solenoid if args.field.startswith("solenoid") else None
    out = emit_field_map(f, window, args.resolution, args.out, solenoid=solenoid)
    print(f"wrote {out}")
    return EXIT_OK


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
    p.add_argument("--half-lengths", dest="half_lengths", type=_parse_floats,
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
    p.add_argument("--parallel", action="store_true",
                   help="run independent operations concurrently")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a field at a point")
    p.add_argument("field")
    p.add_argument("--at", type=_parse_vec, required=True)
    _add_solenoid_flags(p)
    _add_quadrature_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("phase", help="open-path or closed-loop phase")
    p.add_argument("mode", choices=["open", "loop"])
    p.add_argument("--gauge", default="none")
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--center", type=_parse_vec)
    p.add_argument("--circle", type=float, help="circle radius")
    p.add_argument("--turns", type=int, default=1)
    p.add_argument("--arc", help="rho:phi0:phi1")
    p.add_argument("--segment", help="x1,y1,z1:x2,y2,z2")
    p.add_argument("--polyline", help="x,y,z;x,y,z;...")
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_phase)

    p = sub.add_parser("flux", help="flux of a field through a z-normal disc")
    p.add_argument("--field", default="solenoid.B")
    p.add_argument("--center", type=_parse_vec, default=(0.0, 0.0, 0.0))
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--with-string", dest="with_string", action="store_true",
                   help="add the axis string field left by the singular gauge")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_flux)

    p = sub.add_parser("string", help="axis-string diagnostics of the singular gauge")
    p.add_argument("--eps", type=_parse_floats, default=(1e-1, 1e-2, 1e-3))
    _add_solenoid_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_string)

    p = sub.add_parser("landau", help="Landau-system gauge comparison")
    p.add_argument("action", choices=["compare"])
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--charge", type=float, default=1.0)
    p.add_argument("--corner", type=lambda t: tuple(float(v) for v in t.split(",")),
                   default=(0.0, 0.0), help="square corner x,y")
    p.add_argument("--size", type=float, default=1.0)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_landau)

    p = sub.add_parser("plot", help="emit a static SVG field map")
    p.add_argument("kind", choices=["field"])
    p.add_argument("field")
    p.add_argument("--window", type=_parse_floats, default=(-3.0, 3.0, -3.0, 3.0))
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
    except ComputationError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPECTATION


if __name__ == "__main__":
    sys.exit(main())
