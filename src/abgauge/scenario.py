"""Scenario files: ingestion, execution, and result persistence.

A scenario is a JSON document naming a solenoid, fields and gauges by
string id, paths/discs, and a list of operations with optional declared
expectations.  Running one produces a RunRecord whose JSON/CSV serialization
is deterministic for a fixed scenario and seed; wall-clock metadata goes to
a separate sidecar payload so the main outputs stay byte-comparable.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import __version__
from .ab_phase import (PhaseProbe, VelocitySample, energy_cancellation,
                       gauge_dependence_scan, interaction_energy,
                       interference_shift, loop_phase, open_path_phase)
from .analytic_fields import (BawinBurnelGauge, GaugeGradientField, LandauField,
                              PolynomialGauge, SingularSolenoidGauge,
                              SolenoidBField, SolenoidSpec,
                              SolenoidTransverseField, StringField,
                              TransformedPotentialField, gauge_gradient,
                              landau_link1, landau_link2)
from .biot_savart import (NumericBiotSavartField, QuadratureConfig,
                          numeric_b_field, numeric_potential)
from .calculus import (DiffConfig, disc_flux, helmholtz_classify, line_integral,
                       numeric_curl, numeric_divergence, shrinking_loop_circulation,
                       stokes_residual)
from .errors import ComputationError, ParseError
from .geometry import DiscSpec, LoopSpec, PathSpec, Point, winding_number
from .svgmap import emit_field_map

FIELD_IDS = ("solenoid.AS", "solenoid.Aprime", "solenoid.B",
             "solenoid.AS.numeric", "gauge.sing", "gauge.chi1", "gauge.chi2",
             "gauge.chitilde", "landau.S", "landau.L1", "landau.L2",
             "landau.BB")


def load_schema() -> dict:
    text = resources.files("abgauge").joinpath("schema/scenario.schema.json").read_text()
    return json.loads(text)


def _required_by_op(validator, table, instance, schema):
    """Schema keyword: the parameters an operation of each kind must give.

    One table lookup per operation, where draft-07 if/then clauses would
    evaluate a subschema per operation kind for every operation.
    """
    if not validator.is_type(instance, "object") or not isinstance(instance.get("op"), str):
        return
    for key in table.get(instance["op"], ()):
        if key not in instance:
            yield jsonschema.exceptions.ValidationError(f"{key!r} is a required property")


@lru_cache(maxsize=1)
def _schema_validator():
    """The scenario schema's validator, meta-checked once and then reused."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return jsonschema.validators.extend(cls, {"required_by_op": _required_by_op})(schema)


@dataclass(frozen=True)
class Expectation:
    value: object = None
    tol: float = 0.0
    classification: Optional[str] = None


@dataclass(frozen=True)
class OpRequest:
    index: int
    op: str
    params: dict
    expect: Optional[Expectation]


@dataclass(frozen=True)
class Scenario:
    name: str
    paper_claim: str
    seed: int
    solenoid: SolenoidSpec
    landau_b: float
    quadrature: QuadratureConfig
    definitions: dict
    paths: dict
    discs: dict
    operations: tuple
    output_format: str


@dataclass(frozen=True)
class OpReport:
    index: int
    op: str
    target: str
    value: object
    error_estimate: Optional[float]
    expected: object
    tol: Optional[float]
    passed: Optional[bool]
    error: Optional[str]
    extra: dict = field(default_factory=dict)
    numerical: bool = False  # error is a ComputationError; not serialized


@dataclass(frozen=True)
class RunRecord:
    scenario: str
    version: str
    paper_claim: str
    reports: tuple
    passed: bool
    timestamp: float

    def __post_init__(self):
        ops = [r.index for r in self.reports]
        if sorted(ops) != list(range(len(ops))):
            raise ValueError("every requested operation needs exactly one report")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _build_path(spec: dict) -> PathSpec:
    kind = spec["kind"]
    if kind == "circle":
        p = PathSpec.circle(spec.get("center", (0.0, 0.0, 0.0)), spec["radius"],
                            turns=spec.get("turns", 1),
                            start_phase=spec.get("start_phase", 0.0))
    elif kind == "arc":
        p = PathSpec.arc(spec.get("center", (0.0, 0.0, 0.0)), spec["radius"],
                         spec["phi0"], spec["phi1"])
    elif kind == "segment":
        p = PathSpec.segment(spec["from"], spec["to"])
    elif kind == "polyline":
        p = PathSpec.polyline(spec["points"])
    else:
        raise ParseError(f"unknown path kind {kind!r}")
    if spec.get("reverse"):
        p = p.reverse()
    return p


def _build_disc(spec: dict) -> DiscSpec:
    return DiscSpec(center=Point(*spec["center"]), radius=spec["radius"],
                    normal=tuple(spec.get("normal", (0.0, 0.0, 1.0))))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ParseError on any defect."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(raw)


def _non_finite_at(value, where: str = "") -> Optional[str]:
    """Location of the first NaN or infinite number in a raw scenario, or None."""
    if isinstance(value, (int, float)):
        try:
            return None if math.isfinite(value) else where
        except OverflowError:  # an integer beyond the float range
            return where
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _non_finite_at(item, f"{where}.{key}" if where else str(key))
        if found is not None:
            return found
    return None


def scenario_from_dict(raw: dict) -> Scenario:
    where = _non_finite_at(raw)
    if where is not None:
        raise ParseError(f"non-finite number at {where}")
    error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(raw))
    if error is not None:
        at = ".".join(str(k) for k in error.absolute_path)
        raise ParseError(f"scenario does not match schema"
                         f"{' at ' + at if at else ''}: {error.message}") from error

    sol = raw.get("solenoid", {})
    quad = raw.get("quadrature", {})
    try:
        solenoid = SolenoidSpec(R=sol.get("R", 1.0), B=sol.get("B", 1.0))
        quadrature = QuadratureConfig(
            n_phi=quad.get("n_phi", 48),
            half_lengths=tuple(quad.get("half_lengths", (8.0, 16.0, 32.0, 64.0))))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    definitions = {}
    for name, spec in raw.get("definitions", {}).items():
        coeffs = tuple((int(i), int(j), int(k), float(c))
                       for i, j, k, c in spec["coefficients"])
        definitions[name] = PolynomialGauge(coeffs, name=name)

    paths = {name: _parse_geometry(_build_path, spec, f"paths.{name}")
             for name, spec in raw.get("paths", {}).items()}
    discs = {name: _parse_geometry(_build_disc, spec, f"discs.{name}")
             for name, spec in raw.get("discs", {}).items()}

    ops = []
    for idx, spec in enumerate(raw["operations"]):
        params = {k: v for k, v in spec.items() if k not in ("op", "expect")}
        expect = None
        if "expect" in spec:
            e = spec["expect"]
            if "value" in e and "tol" not in e:
                raise ParseError("expectation with a value needs a tolerance")
            expect = Expectation(value=e.get("value"), tol=e.get("tol", 0.0),
                                 classification=e.get("classification"))
        ops.append(OpRequest(index=idx, op=spec["op"], params=params, expect=expect))

    scenario = Scenario(
        name=raw["name"], paper_claim=raw.get("paper_claim", ""),
        seed=raw.get("seed", 0), solenoid=solenoid,
        landau_b=raw.get("landau_b", 1.0), quadrature=quadrature,
        definitions=definitions, paths=paths, discs=discs,
        operations=tuple(ops),
        output_format=raw.get("output", {}).get("format", "json"))
    _validate_references(scenario)
    return scenario


def _parse_geometry(build, spec: dict, where: str):
    """A path or disc built at parse time; any defect is a ParseError naming where."""
    try:
        built = build(spec)
    except (ValueError, ComputationError) as exc:
        raise ParseError(f"bad path or disc at {where}: {exc}") from exc
    if isinstance(built, PathSpec) and not built.check_sampled_continuity():
        raise ParseError(f"path at {where} fails the sampled-continuity check")
    return built


def _validate_references(scenario: Scenario) -> None:
    for op in scenario.operations:
        for key in ("field", "field_a", "field_b", "base"):
            if key in op.params:
                resolve_field(op.params[key], scenario)
        for key in ("gauge", "gauge_a", "gauge_b"):
            if key in op.params and op.params[key] != "none":
                resolve_gauge(op.params[key], scenario)
        if "gauges" in op.params:
            for g in op.params["gauges"]:
                if g != "none":
                    resolve_gauge(g, scenario)
        for key in ("path", "path1", "path2", "loop", "disc"):
            value = op.params.get(key)
            if isinstance(value, str):
                (_resolve_disc if key == "disc" else _resolve_path)(value, scenario)
            elif value is not None:
                _parse_geometry(_build_disc if key == "disc" else _build_path, value,
                                f"operations.{op.index}.{key}")


# ---------------------------------------------------------------------------
# Identifier resolution
# ---------------------------------------------------------------------------

def resolve_gauge(gauge_id, scenario: Scenario):
    """Gauge choice for a string id; 'none' means the bare potential."""
    if gauge_id is None or gauge_id == "none":
        return None
    if gauge_id == "gauge.sing":
        return SingularSolenoidGauge(scenario.solenoid)
    if gauge_id == "gauge.chi1":
        return landau_link1(scenario.landau_b)
    if gauge_id == "gauge.chi2":
        return landau_link2(scenario.landau_b)
    if gauge_id == "gauge.chitilde":
        return BawinBurnelGauge(scenario.landau_b)
    if gauge_id in scenario.definitions:
        return scenario.definitions[gauge_id]
    raise ParseError(f"unknown gauge id {gauge_id!r}")


def resolve_field(field_id, scenario: Scenario):
    """Field expression for a string id.

    Gauge ids resolve to the gradient of the gauge function when used in
    field position.
    """
    s = scenario.solenoid
    if field_id == "solenoid.AS":
        return SolenoidTransverseField(s)
    if field_id == "solenoid.Aprime":
        return TransformedPotentialField(s)
    if field_id == "solenoid.B":
        return SolenoidBField(s)
    if field_id == "solenoid.AS.numeric":
        return NumericBiotSavartField(s, scenario.quadrature)
    if field_id in ("landau.S", "landau.L1", "landau.L2", "landau.BB"):
        return LandauField(field_id.split(".", 1)[1], scenario.landau_b)
    if isinstance(field_id, str) and (field_id.startswith("gauge.")
                                      or field_id in scenario.definitions):
        return GaugeGradientField(resolve_gauge(field_id, scenario))
    raise ParseError(f"unknown field id {field_id!r}; known ids: "
                     f"{', '.join(FIELD_IDS)} or a definitions entry")


def _resolve_path(value, scenario: Scenario) -> PathSpec:
    if isinstance(value, str):
        if value not in scenario.paths:
            raise ParseError(f"unknown path id {value!r}")
        return scenario.paths[value]
    return _build_path(value)


def _resolve_disc(value, scenario: Scenario) -> DiscSpec:
    if isinstance(value, str):
        if value not in scenario.discs:
            raise ParseError(f"unknown disc id {value!r}")
        return scenario.discs[value]
    return _build_disc(value)


# ---------------------------------------------------------------------------
# Point sampling for scan operations
# ---------------------------------------------------------------------------

def _sample_points(rng, n, rho_range, z_range=(-1.0, 1.0), avoid_shell=None,
                   shell_margin=0.01, avoid_cut=False) -> np.ndarray:
    """(n, 3) random points; ValueError when the shell margin rejects nearly all."""
    pts = []
    for _ in range(1000 * (n + 1)):
        if len(pts) >= n:
            break
        rho = rng.uniform(*rho_range)
        if avoid_shell is not None and abs(rho - avoid_shell) < shell_margin:
            continue
        lo, hi = (-math.pi + 0.2, math.pi - 0.2) if avoid_cut else (-math.pi, math.pi)
        phi = rng.uniform(lo, hi)
        z = rng.uniform(*z_range)
        pts.append(np.array([rho * math.cos(phi), rho * math.sin(phi), z]))
    if len(pts) < n:
        raise ValueError("the rho range leaves no room outside the shell margin")
    return np.array(pts).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Operation handlers
# ---------------------------------------------------------------------------

def _vec(value) -> list:
    return [float(v) + 0.0 for v in np.asarray(value)]  # + 0.0 turns -0.0 into 0.0


def _op_rng(scenario: Scenario, params: dict):
    # The standard library's generator: importing numpy.random would add about
    # 6.5 MB of resident memory (numpy 2.4, Linux x86-64) to every run with a scan.
    return random.Random(params.get("seed", scenario.seed))


def _probe(scenario: Scenario, params: dict) -> PhaseProbe:
    gauge = resolve_gauge(params.get("gauge", "none"), scenario)
    base = None
    if "base" in params:
        base = resolve_field(params["base"], scenario)
    return PhaseProbe(solenoid=scenario.solenoid, gauge=gauge,
                      e=params.get("e", 1.0), base_field=base)


def _h_eval_field(scenario, params):
    f = resolve_field(params["field"], scenario)
    return _vec(f(params["at"])), 0.0, params["field"], {}


def _h_line_integral(scenario, params):
    f = resolve_field(params["field"], scenario)
    path = _resolve_path(params["path"], scenario)
    rep = line_integral(f, path, tol=params.get("tol", 1e-9))
    return rep.value, rep.error_estimate, params["field"], {"n_points": rep.n_points}


def _h_winding_number(scenario, params):
    loop = LoopSpec(_resolve_path(params["loop"], scenario))
    return float(winding_number(loop)), 0.0, "winding", {}


def _h_numeric_potential(scenario, params):
    rep = numeric_potential(params["at"], scenario.solenoid, scenario.quadrature)
    extra = {"per_length": [_vec(v) for v in rep.per_length],
             "half_lengths": list(rep.half_lengths)}
    return _vec(rep.value), rep.error_estimate, "solenoid.AS.numeric", extra


def _h_numeric_b_field(scenario, params):
    val = numeric_b_field(params["at"], scenario.solenoid, scenario.quadrature,
                          h=params.get("h", 1e-2))
    return _vec(val), None, "solenoid.B.numeric", {}


def _h_disc_flux(scenario, params):
    f = resolve_field(params["field"], scenario)
    disc = _resolve_disc(params["disc"], scenario)
    deltas = [StringField(scenario.solenoid)] if params.get("with_string") else []
    rep = disc_flux(f, disc, deltas=deltas, tol=params.get("tol", 1e-9))
    return rep.value, rep.error_estimate, params["field"], {"with_string": bool(deltas)}


def _h_string_flux(scenario, params):
    return -scenario.solenoid.flux, 0.0, "string", {}


def _h_shrinking_loop(scenario, params):
    f = resolve_field(params["field"], scenario)
    rep = shrinking_loop_circulation(f, params.get("center", (0.0, 0.0, 0.0)),
                                     eps_list=params.get("eps", (1e-1, 1e-2, 1e-3)))
    extra = {"eps": list(rep.eps_values), "circulations": list(rep.circulations)}
    return rep.value, rep.error_estimate, params["field"], extra


def _h_stokes_residual(scenario, params):
    f = resolve_field(params["field"], scenario)
    disc = _resolve_disc(params["disc"], scenario)
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 2))
    val = stokes_residual(f, disc.boundary(), disc, cfg)
    return val, 0.0, params["field"], {}


def _h_helmholtz_classify(scenario, params):
    f = resolve_field(params["field"], scenario)
    rng = _op_rng(scenario, params)
    pts = _sample_points(rng, params.get("n", 50),
                         params.get("rho", (0.5, 3.0)),
                         avoid_shell=scenario.solenoid.R,
                         shell_margin=0.05,
                         avoid_cut=f.branch_cut)
    cfg = DiffConfig(h=params.get("h", 1e-3), order=params.get("order", 4))
    rep = helmholtz_classify(f, pts, cfg)
    extra = {"classification": rep.classification, "notes": list(rep.notes),
             "max_abs_div": rep.max_abs_div, "max_abs_curl": rep.max_abs_curl}
    return max(rep.max_abs_div, rep.max_abs_curl), 0.0, params["field"], extra


def _h_open_phase(scenario, params):
    probe = _probe(scenario, params)
    rep = open_path_phase(probe, _resolve_path(params["path"], scenario),
                          tol=params.get("tol", 1e-12))
    extra = {"transverse_part": rep.transverse_part, "gauge_part": rep.gauge_part,
             "singular_gauge": rep.singular_gauge}
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), extra


def _h_loop_phase(scenario, params):
    probe = _probe(scenario, params)
    rep = loop_phase(probe, LoopSpec(_resolve_path(params["loop"], scenario)),
                     tol=params.get("tol", 1e-12))
    extra = {"transverse_part": rep.transverse_part, "gauge_part": rep.gauge_part,
             "winding": rep.winding, "singular_gauge": rep.singular_gauge,
             "notes": list(rep.notes)}
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), extra


def _h_interference_shift(scenario, params):
    probe = _probe(scenario, params)
    rep = interference_shift(probe, _resolve_path(params["path1"], scenario),
                             _resolve_path(params["path2"], scenario),
                             tol=params.get("tol", 1e-12))
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), {}


def _h_phase_shift(scenario, params):
    path = _resolve_path(params["path"], scenario)
    pa = open_path_phase(_probe(scenario, {**params, "gauge": params["gauge_a"]}), path)
    pb = open_path_phase(_probe(scenario, {**params, "gauge": params["gauge_b"]}), path)
    extra = {"phase_a": pa.phase, "phase_b": pb.phase,
             "transverse_spread": abs(pa.transverse_part - pb.transverse_part)}
    return pa.phase - pb.phase, pa.error_estimate + pb.error_estimate, \
        f"{params['gauge_a']}-{params['gauge_b']}", extra


def _h_gauge_scan(scenario, params):
    path = _resolve_path(params["path"], scenario)
    gauges = [resolve_gauge(g, scenario) for g in params["gauges"]]
    rows = gauge_dependence_scan(path, gauges,
                                 probe=_probe(scenario, {k: v for k, v in params.items()
                                                         if k != "gauges"}))
    extra = {"rows": [{"gauge": r.gauge_id, "phase": r.phase,
                       "transverse_part": r.transverse_part,
                       "gauge_part": r.gauge_part} for r in rows]}
    spread = max(r.transverse_part for r in rows) - min(r.transverse_part for r in rows)
    return spread, 0.0, ",".join(params["gauges"]), extra


def _h_interaction_energy(scenario, params):
    sample = VelocitySample(tuple(params["v"]), Point(*params["at"]))
    val = interaction_energy(params["model"], sample, scenario.solenoid,
                             e=params.get("e", 1.0))
    return val, 0.0, params["model"], {}


def _h_energy_cancellation(scenario, params):
    sample = VelocitySample(tuple(params["v"]), Point(*params["at"]))
    val = energy_cancellation(sample, scenario.solenoid, e=params.get("e", 1.0))
    return val, 0.0, "boyer+virtual_photon", {}


def _h_landau_compare(scenario, params):
    loop = LoopSpec(_resolve_path(params["loop"], scenario))
    e = params.get("e", 1.0)
    phases = {}
    for fid in ("landau.S", "landau.L1", "landau.L2"):
        probe = PhaseProbe(solenoid=scenario.solenoid, e=e,
                           base_field=resolve_field(fid, scenario))
        phases[fid] = loop_phase(probe, loop).phase
    vals = list(phases.values())
    spread = max(vals) - min(vals)
    return spread, 0.0, "landau.S,landau.L1,landau.L2", {"loop_phases": phases}


def _scan_points(scenario, params, avoid_cut):
    rng = _op_rng(scenario, params)
    return _sample_points(rng, params.get("n", 100),
                          params.get("rho", (0.5, 3.0)),
                          z_range=tuple(params.get("z", (-1.0, 1.0))),
                          avoid_shell=scenario.solenoid.R,
                          shell_margin=params.get("shell_margin", 0.01),
                          avoid_cut=avoid_cut)


def _max_abs(values) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def _h_curl_scan(scenario, params):
    f = resolve_field(params["field"], scenario)
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 4))
    target = np.asarray(params.get("target", (0.0, 0.0, 0.0)), dtype=float)
    curl = numeric_curl(f, _scan_points(scenario, params, f.branch_cut), cfg)
    return _max_abs(curl - target), 0.0, params["field"], {}


def _h_div_scan(scenario, params):
    f = resolve_field(params["field"], scenario)
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 4))
    div = numeric_divergence(f, _scan_points(scenario, params, f.branch_cut), cfg)
    return _max_abs(div), 0.0, params["field"], {}


def _h_field_max_abs(scenario, params):
    f = resolve_field(params["field"], scenario)
    return _max_abs(f(_scan_points(scenario, params, f.branch_cut))), 0.0, params["field"], {}


def _h_gauge_link_residual(scenario, params):
    fa = resolve_field(params["field_a"], scenario)
    fb = resolve_field(params["field_b"], scenario)
    gauge = resolve_gauge(params["gauge"], scenario)
    pts = _scan_points(scenario, params, fa.branch_cut or fb.branch_cut)
    resid = fa(pts) - fb(pts) - gauge_gradient(gauge, pts)
    return _max_abs(resid), 0.0, f"{params['field_a']}={params['field_b']}+grad", {}


def _h_field_map(scenario, params):
    f = resolve_field(params["field"], scenario)
    out = Path(params["out"])
    emit_field_map(f, params.get("window", (-3.0, 3.0, -3.0, 3.0)),
                   params.get("resolution", 24), out,
                   solenoid=scenario.solenoid if params["field"].startswith("solenoid")
                   else None)
    return str(out), 0.0, params["field"], {}


HANDLERS = {
    "eval_field": _h_eval_field,
    "line_integral": _h_line_integral,
    "winding_number": _h_winding_number,
    "numeric_potential": _h_numeric_potential,
    "numeric_b_field": _h_numeric_b_field,
    "disc_flux": _h_disc_flux,
    "string_flux": _h_string_flux,
    "shrinking_loop": _h_shrinking_loop,
    "stokes_residual": _h_stokes_residual,
    "helmholtz_classify": _h_helmholtz_classify,
    "open_phase": _h_open_phase,
    "loop_phase": _h_loop_phase,
    "interference_shift": _h_interference_shift,
    "phase_shift": _h_phase_shift,
    "gauge_scan": _h_gauge_scan,
    "interaction_energy": _h_interaction_energy,
    "energy_cancellation": _h_energy_cancellation,
    "landau_compare": _h_landau_compare,
    "curl_scan": _h_curl_scan,
    "div_scan": _h_div_scan,
    "field_max_abs": _h_field_max_abs,
    "gauge_link_residual": _h_gauge_link_residual,
    "field_map": _h_field_map,
}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _check_expectation(value, extra: dict, expect: Optional[Expectation]):
    if expect is None:
        return None
    ok = True
    if expect.value is not None:
        if isinstance(expect.value, (list, tuple)):
            got = np.asarray(value, dtype=float)
            want = np.asarray(expect.value, dtype=float)
            ok = ok and got.shape == want.shape \
                and float(np.max(np.abs(got - want))) <= expect.tol
        else:
            ok = ok and isinstance(value, (int, float)) \
                and abs(float(value) - float(expect.value)) <= expect.tol
    if expect.classification is not None:
        ok = ok and extra.get("classification") == expect.classification
    return bool(ok)


def _run_one(scenario: Scenario, op: OpRequest) -> OpReport:
    handler = HANDLERS.get(op.op)
    if handler is None:
        raise ParseError(f"unknown operation {op.op!r}")
    expected = op.expect.value if op.expect else None
    tol = op.expect.tol if op.expect else None
    try:
        value, err, target, extra = handler(scenario, op.params)
    except (ComputationError, ValueError, OSError) as exc:
        return OpReport(index=op.index, op=op.op, target="", value=None,
                        error_estimate=None, expected=expected, tol=tol,
                        passed=None, error=f"{type(exc).__name__}: {exc}",
                        numerical=isinstance(exc, ComputationError))
    passed = _check_expectation(value, extra, op.expect)
    return OpReport(index=op.index, op=op.op, target=target, value=value,
                    error_estimate=err, expected=expected, tol=tol,
                    passed=passed, error=None, extra=extra)


def run_scenario(scenario: Scenario) -> RunRecord:
    """Execute all operations in request order."""
    reports = [_run_one(scenario, op) for op in scenario.operations]
    passed = all(r.error is None and r.passed is not False for r in reports)
    return RunRecord(scenario=scenario.name, version=__version__,
                     paper_claim=scenario.paper_claim, reports=tuple(reports),
                     passed=passed, timestamp=time.time())


def exit_code(record: RunRecord) -> int:
    """0 all good, 1 expectation failure, 3 per-operation error."""
    if any(r.error is not None for r in record.reports):
        return 3
    if any(r.passed is False for r in record.reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def record_payload(record: RunRecord) -> dict:
    """Deterministic JSON payload; wall-clock data lives in the sidecar."""
    return {
        "scenario": record.scenario,
        "version": record.version,
        "paper_claim": record.paper_claim,
        "passed": record.passed,
        "reports": [
            {
                "index": r.index,
                "op": r.op,
                "target": r.target,
                "value": r.value,
                "error_estimate": r.error_estimate,
                "expected": r.expected,
                "tol": r.tol,
                "pass": r.passed,
                "error": r.error,
                "extra": r.extra,
            }
            for r in record.reports
        ],
    }


def record_json(record: RunRecord) -> str:
    return json.dumps(record_payload(record), sort_keys=True, indent=2) + "\n"


def sidecar_json(record: RunRecord) -> str:
    return json.dumps({"scenario": record.scenario,
                       "timestamp": record.timestamp}, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_csv(record: RunRecord) -> str:
    lines = ["scenario,op,target,value,error_estimate,expected,tol,pass"]
    for r in record.reports:
        lines.append(",".join([
            record.scenario, r.op, r.target, _csv_cell(r.value),
            _csv_cell(r.error_estimate), _csv_cell(r.expected),
            _csv_cell(r.tol), _csv_cell(r.passed),
        ]))
    return "\n".join(lines) + "\n"


def write_outputs(record: RunRecord, out_dir, fmt: Optional[str] = None) -> list:
    """Write record files under out_dir; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = fmt or "json"
    # "svg" scenarios emit their drawings from field_map operations; the
    # run record itself is always stored as JSON then.
    if fmt == "svg":
        fmt = "json"
    written = []
    if fmt in ("json", "both"):
        p = out / f"{record.scenario}.json"
        p.write_text(record_json(record), encoding="utf-8")
        written.append(p)
    if fmt in ("csv", "both"):
        p = out / f"{record.scenario}.csv"
        p.write_text(record_csv(record), encoding="utf-8")
        written.append(p)
    meta = out / f"{record.scenario}.meta.json"
    meta.write_text(sidecar_json(record), encoding="utf-8")
    written.append(meta)
    return written
