"""Correctness checks of program outputs against the generator's expectations.

Each check returns an :class:`Outcome`: whether the operation passed and,
for numeric expectations, |value - expected| / tol (the share of the
tolerance used).  Nothing here imports abgauge.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional

from gen import TWO_PI, a_phi, flux


@dataclass(frozen=True)
class Outcome:
    ok: bool
    tol_used: Optional[float] = None
    why: str = ""


def compare(got, want, tol) -> Outcome:
    """Max-abs comparison of a scalar or a vector against its expectation."""
    try:
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                return Outcome(False, None, f"shape mismatch: {got!r}")
            diff = max(abs(float(g) - float(w)) for g, w in zip(got, want))
        else:
            diff = abs(float(got) - float(want))
    except (TypeError, ValueError):
        return Outcome(False, None, f"not a number: {got!r}")
    if not math.isfinite(diff):
        return Outcome(False, None, f"non-finite value {got!r}")
    used = diff / tol
    return Outcome(used <= 1.0, used, "" if used <= 1.0 else
                   f"|{got!r} - {want!r}| = {diff:.3e} > tol {tol:.3e}")


def check_report(spec: dict, report: dict) -> Outcome:
    """One operation of a scenario record against its generated spec."""
    if report.get("op") != spec["op"]:
        return Outcome(False, None, f"report for {report.get('op')!r}, expected {spec['op']!r}")
    if report.get("error") is not None:
        return Outcome(False, None, f"{spec['op']}: {report['error']}")
    if report.get("pass") is not True:
        return Outcome(False, None, f"{spec['op']}: the engine reports pass={report.get('pass')}")
    expect = spec["expect"]
    if "classification" in expect:
        got = report.get("extra", {}).get("classification")
        if got != expect["classification"]:
            return Outcome(False, None,
                           f"classified {got!r}, expected {expect['classification']!r}")
        return Outcome(True)
    out = compare(report.get("value"), expect["value"], expect["tol"])
    if not out.ok:
        return Outcome(False, out.tol_used, f"{spec['op']}: {out.why}")
    return out


def _lookup(report: dict, keys: list):
    for key in keys:
        if not isinstance(report, dict) or key not in report:
            return None
        report = report[key]
    return report


def check_record(scenario: dict, payload: dict, extra_checks=()) -> list:
    """Every operation of a run record; a record of the wrong length fails all.

    extra_checks holds [operation index, key path into the report, expected
    value, tol] entries for values an operation reports besides its main one.
    """
    ops = scenario["operations"]
    reports = payload.get("reports", [])
    if len(reports) != len(ops):
        why = f"{len(reports)} reports for {len(ops)} operations"
        return [Outcome(False, None, why)] * len(ops)
    outcomes = [check_report(spec, rep) for spec, rep in zip(ops, reports)]
    for index, keys, want, tol in extra_checks:
        if outcomes[index].ok:
            out = compare(_lookup(reports[index], keys), want, tol)
            if not out.ok or out.tol_used > outcomes[index].tol_used:
                outcomes[index] = Outcome(out.ok, out.tol_used,
                                          f"{'.'.join(keys)}: {out.why}" if not out.ok else "")
    return outcomes


_ARROW = re.compile(r'data-cx="([-0-9.]+)" data-cy="([-0-9.]+)" data-mag="([-0-9.]+)"')


def _plane_magnitude(field, x, y, R, B, b):
    rho = math.hypot(x, y)
    if field == "solenoid.AS":
        return abs(a_phi(rho, R, B))
    if field == "solenoid.Aprime":
        return abs(a_phi(rho, R, B) - flux(R, B) / (TWO_PI * rho))
    if field == "landau.S":
        return abs(b) * rho / 2.0
    if field == "gauge.sing":
        return abs(flux(R, B)) / (TWO_PI * rho)
    raise ValueError(f"no closed form for {field!r}")


def check_svg(text: str, spec: dict) -> Outcome:
    """Arrow count and every arrow's magnitude against the closed form.

    The map prints magnitudes with six decimals, so the tolerance is two
    units of the last printed digit.
    """
    arrows = _ARROW.findall(text)
    res, half = spec["resolution"], spec["half"]
    if not text.rstrip().endswith("</svg>") or len(arrows) != res * res:
        return Outcome(False, None, f"{len(arrows)} arrows, expected {res * res}")
    cell = 2.0 * half / res
    worst = 0.0
    for cx, cy, mag in arrows:
        # Evaluate at the exact cell centre the printed one rounds.
        x, y = ((round((float(c) + half) / cell - 0.5) + 0.5) * cell - half for c in (cx, cy))
        want = _plane_magnitude(spec["field"], x, y, spec["R"], spec["B"], spec["b"])
        worst = max(worst, abs(float(mag) - want) / (1e-6 * max(1.0, want)))
    return Outcome(worst <= 1.0, worst, "" if worst <= 1.0 else "arrow magnitude off")


def check_cli(request: dict, returncode: int, stdout: str, read_text) -> list:
    """Outcomes of one CLI request; read_text(suffix) reads an output file."""
    checks = request["checks"]
    if returncode != 0:
        n = len(request["scenario"]["operations"]) if request["verb"] == "run" else 1
        return [Outcome(False, None, f"exit code {returncode}")] * n
    if request["verb"] == "run":
        try:
            payload = json.loads(read_text(f"/{request['scenario']['name']}.json"))
        except (OSError, ValueError) as exc:
            n = len(request["scenario"]["operations"])
            return [Outcome(False, None, f"no record: {exc}")] * n
        return check_record(request["scenario"], payload)
    if request["verb"] == "plot":
        try:
            text = read_text(".svg")
        except OSError as exc:
            return [Outcome(False, None, f"no svg: {exc}")]
        return [check_svg(text, checks[0][1])]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [Outcome(False, None, f"stdout is not JSON: {stdout[:200]!r}")]
    worst = Outcome(True, 0.0)
    for key, want, tol in checks:
        out = compare(payload.get(key), want, tol)
        if not out.ok:
            return [Outcome(False, out.tol_used, f"{key}: {out.why}")]
        if out.tol_used > worst.tol_used:
            worst = out
    return [worst]
