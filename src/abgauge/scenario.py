"""Scenario files: ingestion, execution, and result persistence.

A scenario is a JSON document naming a solenoid, fields and gauges by
string id, paths/discs, and a list of operations with optional declared
expectations.  Each field, gauge, path or disc an operation refers to is
built once, at parse, into ``OpRequest.refs``; handlers take those objects.
Running one produces a RunRecord whose JSON/CSV serialization is
deterministic for a fixed scenario and seed; wall-clock metadata goes to a
separate sidecar payload so the main outputs stay byte-comparable.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .ab_phase import (PHASE_TOL, PhaseProbe, VelocitySample, _phases,
                       energy_cancellation, gauge_dependence_scan,
                       interaction_energy, interference_shift, loop_phase,
                       open_path_phase)
from .analytic_fields import (LANDAU_VARIANTS, BawinBurnelGauge, GaugeGradientField,
                              LandauField, PolynomialGauge, SingularSolenoidGauge,
                              SolenoidBField, SolenoidSpec, SolenoidTransverseField,
                              StringField, TransformedPotentialField, gauge_label,
                              landau_link1, landau_link2)
from .biot_savart import NumericBiotSavartField, numeric_b_field, numeric_potential
from .calculus import (DiffConfig, add_estimates, disc_flux, helmholtz_classify,
                       line_integral, numeric_curl, numeric_divergence,
                       shrinking_loop_circulation, stokes_residual)
from .errors import ComputationError, NonFinite, ParseError
from .geometry import DiscSpec, LoopSpec, PathSpec, winding_number
from .svgmap import emit_field_map

def load_schema() -> dict:
    text = resources.files("abgauge").joinpath("schema/scenario.schema.json").read_text()
    return json.loads(text)


def __getattr__(name):
    # The benchmark's span "scenario.schema_validation" hooks
    # abgauge.scenario.jsonschema.validate, which the program never calls, so
    # jsonschema is imported only when that attribute is read.  ROADMAP item 1
    # repoints the span at the program's own checker and deletes this.
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Schema checking
# ---------------------------------------------------------------------------

# Draft-07 types: a bool is no number, and a float without a fraction is an integer.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_ANNOTATIONS = frozenset({"$schema", "title", "description"})
# keyword: (the type it constrains, whether (instance, limit) breaks it, message)
_LIMITS = {
    "minimum": ("number", operator.lt, "{v!r} is less than the minimum of {m!r}"),
    "maximum": ("number", operator.gt, "{v!r} is greater than the maximum of {m!r}"),
    "exclusiveMinimum": ("number", operator.le,
                         "{v!r} is less than or equal to the minimum of {m!r}"),
    "minItems": ("array", lambda v, m: len(v) < m, "{v!r} is too short"),
    "maxItems": ("array", lambda v, m: len(v) > m, "{v!r} is too long"),
    "minLength": ("string", lambda v, m: len(v) < m, "{v!r} is too short"),
}
# jsonschema's wording at the limits 1 and 0 of a size
_SIZE_WORDS = {("minItems", 1): "{v!r} should be non-empty",
               ("minLength", 1): "{v!r} should be non-empty",
               ("maxItems", 0): "{v!r} is expected to be empty"}
_KEYWORDS = _ANNOTATIONS | set(_LIMITS) | {
    "type", "properties", "additionalProperties", "required", "items", "enum", "const",
    "anyOf", "oneOf", "$ref", "required_by_op"}


class _Mismatch:
    """Where an instance first breaks the schema.  The path grows innermost key
    first as the failure returns up the checker.  words() forms the message only
    for the mismatch reported, so a failing anyOf branch of a valid document
    costs no string."""

    __slots__ = ("words", "path", "wrong_type")

    def __init__(self, words, wrong_type: bool = False):
        self.words, self.path, self.wrong_type = words, [], wrong_type

    def at(self, key):
        self.path.append(key)
        return self


def compile_schema(schema: dict):
    """A checker for the draft-07 subset the scenario schema uses, and its
    required_by_op keyword: each operation kind's required parameters.

    The checker returns None for a matching instance and otherwise
    (location, message) for the first mismatch, worded as jsonschema words it.
    Annotations are skipped; any other keyword raises ValueError here, so the
    schema cannot use a keyword that is not checked.
    """
    definitions = schema.get("definitions", {})
    built = {}

    def ref(target):
        name = target.removeprefix("#/definitions/")
        if name == target or name not in definitions:
            raise ValueError(f"$ref {target!r} does not name an entry of definitions")
        if name not in built:
            built[name] = None
            built[name] = build(definitions[name])
        if built[name] is None:
            raise ValueError(f"$ref {target!r} refers to itself")
        return built[name]

    def build(s, root=False):
        if not isinstance(s, dict):
            raise ValueError(f"schema {s!r} is not an object")
        unknown = set(s) - _KEYWORDS - ({"definitions"} if root else set())
        if unknown:
            raise ValueError(f"unsupported schema keyword(s): {', '.join(sorted(unknown))}")
        if "$ref" in s:
            if set(s) - _ANNOTATIONS != {"$ref"}:
                raise ValueError("$ref takes no sibling keywords")
            return ref(s["$ref"])
        kind = s.get("type")
        if kind not in (None, *_JSON_TYPES):
            raise ValueError(f"unsupported type {kind!r}")

        def declared(applies, keyword):
            """A keyword that constrains one type needs that type declared beside it,
            so that its step needs no type test of its own."""
            if kind != applies and (applies, kind) != ("number", "integer"):
                raise ValueError(f"{keyword} needs type {applies!r} beside it")

        steps = []
        if "enum" in s:
            steps.append(_member_of(s["enum"], lambda v: f"{v!r} is not one of {s['enum']!r}"))
        if "const" in s:
            steps.append(_member_of([s["const"]], lambda v: f"{s['const']!r} was expected"))
        for key, (applies, breaks, message) in _LIMITS.items():
            if key in s:
                limit = s[key]
                message = _SIZE_WORDS.get((key, limit), message)
                declared(applies, key)
                steps.append(lambda v, m=limit, breaks=breaks, message=message:
                             _Mismatch(lambda: message.format(v=v, m=m)) if breaks(v, m) else None)

        props = {key: build(sub) for key, sub in s.get("properties", {}).items()}
        extra = s.get("additionalProperties", True)
        other = build(extra) if isinstance(extra, dict) else None
        closed = extra is False
        required = tuple(s.get("required", ()))
        by_op = s.get("required_by_op")
        if props or other or closed or required or by_op:
            declared("object", "an object keyword")

            def members(v):
                for key in required:
                    if key not in v:
                        return _Mismatch(lambda: f"{key!r} is a required property")
                if by_op is not None and isinstance(v.get("op"), str):
                    for key in by_op.get(v["op"], ()):
                        if key not in v:
                            return _Mismatch(lambda: f"{key!r} is a required property")
                if closed and not v.keys() <= props.keys():
                    extras = sorted(v.keys() - props.keys(), key=str)
                    return _Mismatch(lambda: "Additional properties are not allowed "
                                     f"({', '.join(map(repr, extras))} "
                                     f"{'was' if len(extras) == 1 else 'were'} unexpected)")
                for key, item in v.items() if props or other else ():
                    check = props.get(key, other)
                    if check is not None:
                        bad = check(item)
                        if bad is not None:
                            return bad.at(key)
                return None
            steps.append(members)

        items = s.get("items")
        if items is not None:
            declared("array", "items")
            # One schema per position (tuple form) or one for every element; zip stops at
            # the instance's end, and a repeat never runs out, so it serves every call.
            checks = [build(sub) for sub in items] if isinstance(items, list) \
                else itertools.repeat(build(items))

            def elements(v):
                for i, (item, check) in enumerate(zip(v, checks)):
                    bad = check(item)
                    if bad is not None:
                        return bad.at(i)
                return None
            steps.append(elements)

        for key in ("anyOf", "oneOf"):
            if key in s:
                steps.append(_branches([build(sub) for sub in s[key]], s[key], key == "oneOf"))

        is_type = _JSON_TYPES.get(kind)

        def check(v):
            if is_type is not None and not is_type(v):
                return _Mismatch(lambda: f"{v!r} is not of type {kind!r}", wrong_type=True)
            for step in steps:
                bad = step(v)
                if bad is not None:
                    return bad
            return None
        return check

    root = build(schema, root=True)
    for name in definitions:  # entries no $ref names are compiled, so checked, too
        ref(f"#/definitions/{name}")

    def check(instance):
        bad = root(instance)
        if bad is None:
            return None
        return ".".join(str(k) for k in reversed(bad.path)), bad.words()
    return check


def _member_of(values: list, mismatch):
    """enum or const: the instance equals one of values, a bool only a bool."""
    if any(isinstance(x, (list, dict)) for x in values):
        raise ValueError("enum and const take scalar values only")
    allowed = {(isinstance(x, bool), x) for x in values}

    def step(v):
        if isinstance(v, (list, dict)) or (isinstance(v, bool), v) not in allowed:
            return _Mismatch(lambda: mismatch(v))
        return None
    return step


def _rank(mismatch: _Mismatch) -> tuple:
    return len(mismatch.path), not mismatch.wrong_type


def _branches(branches, subs, one: bool):
    """anyOf (one False) or oneOf (one True) over compiled branches; an anyOf returns at
    the first branch that admits the instance."""
    def step(v):
        failures = []
        for check in branches:
            bad = check(v)
            if bad is None and not one:
                return None
            failures.append(bad)
        valid = [sub for sub, bad in zip(subs, failures) if bad is None]
        if not valid:
            # As jsonschema's best_match: the deepest branch failure, one whose branch
            # admits the instance's type before one that does not; the combinator's own
            # when the best two rank alike.
            failures.sort(key=_rank, reverse=True)
            if len(failures) > 1 and _rank(failures[0]) == _rank(failures[1]):
                return _Mismatch(lambda: f"{v!r} is not valid under any of the given schemas")
            return failures[0]
        if len(valid) > 1:
            return _Mismatch(lambda: f"{v!r} is valid under each of "
                                     f"{', '.join(map(repr, valid[1:] + valid[:1]))}")
        return None
    return step


@lru_cache(maxsize=1)
def _schema_checker():
    """The scenario schema's checker, compiled once; the tests meta-check the schema."""
    return compile_schema(load_schema())


@dataclass(frozen=True)
class Expectation:
    value: object = None
    tol: float = 0.0
    classification: Optional[str] = None


@dataclass(frozen=True)
class OpRequest:
    """One operation; refs maps each reference parameter (_REF_KINDS) to its built object."""

    index: int
    op: str
    params: dict
    expect: Optional[Expectation]
    refs: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    paper_claim: str
    seed: int
    solenoid: SolenoidSpec
    landau_b: float
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
    else:  # "polyline", the one kind the schema leaves
        p = PathSpec.polyline(spec["points"])
    if spec.get("reverse"):
        p = p.reverse()
    return p


def _build_disc(spec: dict) -> DiscSpec:
    return DiscSpec(center=spec["center"], radius=spec["radius"],
                    normal=tuple(spec.get("normal", (0.0, 0.0, 1.0))))


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file; raises ParseError on any defect."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    return scenario_from_dict(raw)


def _non_finite_at(value, where: str = "") -> Optional[str]:
    """Location of the first NaN or infinite number in a raw scenario or a result, or None."""
    if isinstance(value, (int, float)):
        try:
            return None if math.isfinite(value) else where
        except OverflowError:  # an integer beyond the float range
            return where
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
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
    mismatch = _schema_checker()(raw)
    if mismatch is not None:
        at, message = mismatch
        raise ParseError(f"scenario does not match schema{' at ' + at if at else ''}: {message}")
    # The name becomes the record's file name under the output directory.
    name = raw["name"]
    if name in (".", "..") or "\0" in name or Path(name).name != name:
        raise ParseError(f"bad scenario name at name: {name!r} is not a plain file name")

    try:
        solenoid = SolenoidSpec(**raw.get("solenoid", {}))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    definitions = {}
    for name, spec in raw.get("definitions", {}).items():
        coeffs = tuple((i, j, k, float(c)) for i, j, k, c in spec["coefficients"])
        definitions[name] = PolynomialGauge(coeffs, name=name)

    paths = {name: _parse_geometry(_build_path, spec, f"paths.{name}")
             for name, spec in raw.get("paths", {}).items()}
    discs = {name: _parse_geometry(_build_disc, spec, f"discs.{name}")
             for name, spec in raw.get("discs", {}).items()}

    scenario = Scenario(
        name=raw["name"], paper_claim=raw.get("paper_claim", ""),
        seed=raw.get("seed", 0), solenoid=solenoid,
        landau_b=raw.get("landau_b", 1.0),
        definitions=definitions, paths=paths, discs=discs, operations=(),
        output_format=raw.get("output", {}).get("format", "json"))
    ops = []
    for idx, spec in enumerate(raw["operations"]):
        params = {k: v for k, v in spec.items() if k not in ("op", "expect")}
        expect = None
        if "expect" in spec:
            e = spec["expect"]
            expect = Expectation(value=e.get("value"), tol=e.get("tol", 0.0),
                                 classification=e.get("classification"))
        ops.append(OpRequest(index=idx, op=spec["op"], params=params, expect=expect,
                             refs=_resolve_refs(params, scenario, f"operations.{idx}")))
    return replace(scenario, operations=tuple(ops))


def _parse_geometry(build, spec: dict, where: str):
    """A path or disc built at parse time; any defect is a ParseError naming where."""
    try:
        return build(spec)
    except (ValueError, ComputationError) as exc:
        raise ParseError(f"bad path or disc at {where}: {exc}") from exc


# The kind of object each reference parameter names.
_REF_KINDS = {"field": "field", "field_a": "field", "field_b": "field", "base": "field",
             "gauge": "gauge", "gauge_a": "gauge", "gauge_b": "gauge", "gauges": "gauges",
             "path": "path", "path1": "path", "path2": "path", "loop": "path",
             "disc": "disc"}


def _resolve_refs(params: dict, scenario: Scenario, where: str) -> dict:
    """The built object of each reference parameter of one operation."""
    refs = {}
    for key in filter(params.__contains__, _REF_KINDS):
        value, kind = params[key], _REF_KINDS[key]
        if kind == "field":
            refs[key] = resolve_field(value, scenario)
        elif kind == "gauge":
            refs[key] = resolve_gauge(value, scenario)
        elif kind == "gauges":
            refs[key] = tuple(resolve_gauge(g, scenario) for g in value)
        elif isinstance(value, str):
            named = scenario.paths if kind == "path" else scenario.discs
            if value not in named:
                raise ParseError(f"unknown {kind} id {value!r}")
            refs[key] = named[value]
        else:
            build = _build_path if kind == "path" else _build_disc
            refs[key] = _parse_geometry(build, value, f"{where}.{key}")
    return refs


# ---------------------------------------------------------------------------
# Identifier resolution
# ---------------------------------------------------------------------------

# Each built-in id and the constructor of its object from the scenario.
_GAUGES = {
    "gauge.sing": lambda sc: SingularSolenoidGauge(sc.solenoid),
    "gauge.chi1": lambda sc: landau_link1(sc.landau_b),
    "gauge.chi2": lambda sc: landau_link2(sc.landau_b),
    "gauge.chitilde": lambda sc: BawinBurnelGauge(sc.landau_b),
}
_FIELDS = {
    "solenoid.AS": lambda sc: SolenoidTransverseField(sc.solenoid),
    "solenoid.Aprime": lambda sc: TransformedPotentialField(sc.solenoid),
    "solenoid.B": lambda sc: SolenoidBField(sc.solenoid),
    "solenoid.AS.numeric": lambda sc: NumericBiotSavartField(sc.solenoid),
    **{f"landau.{v}": lambda sc, v=v: LandauField(v, sc.landau_b) for v in LANDAU_VARIANTS},
}


def resolve_gauge(gauge_id, scenario: Scenario):
    """Gauge choice for a string id; 'none' means the bare potential."""
    if gauge_id == "none":
        return None
    if gauge_id in _GAUGES:
        return _GAUGES[gauge_id](scenario)
    if gauge_id in scenario.definitions:
        return scenario.definitions[gauge_id]
    raise ParseError(f"unknown gauge id {gauge_id!r}; known ids: none, "
                     f"{', '.join(_GAUGES)} or a definitions entry")


def resolve_field(field_id, scenario: Scenario):
    """Field expression for a string id.

    Gauge ids resolve to the gradient of the gauge function when used in
    field position.
    """
    if field_id in _FIELDS:
        return _FIELDS[field_id](scenario)
    if field_id in _GAUGES or field_id in scenario.definitions:
        return GaugeGradientField(resolve_gauge(field_id, scenario))
    raise ParseError(f"unknown field id {field_id!r}; known ids: "
                     f"{', '.join([*_FIELDS, *_GAUGES])} or a definitions entry")


# ---------------------------------------------------------------------------
# Point sampling for scan operations
# ---------------------------------------------------------------------------

def _sample_points(rng, n, rho_range, z_range=(-1.0, 1.0), avoid_shell=None,
                   shell_margin=0.01, avoid_cut=False) -> np.ndarray:
    """(n, 3) random points; ValueError when the shell margin rejects nearly all."""
    rows = []
    lo, hi = (-math.pi + 0.2, math.pi - 0.2) if avoid_cut else (-math.pi, math.pi)
    for _ in range(1000 * (int(n) + 1)):  # n may be a float without a fraction
        if len(rows) >= n:
            break
        rho = rng.uniform(*rho_range)
        if avoid_shell is not None and abs(rho - avoid_shell) < shell_margin:
            continue
        phi = rng.uniform(lo, hi)
        rows.append((rho * math.cos(phi), rho * math.sin(phi), rng.uniform(*z_range)))
    if len(rows) < n:
        raise ValueError("the rho range leaves no room outside the shell margin")
    return np.array(rows, dtype=float).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Operation handlers
# ---------------------------------------------------------------------------

def _vec(value) -> list:
    return [float(v) + 0.0 for v in np.asarray(value)]  # + 0.0 turns -0.0 into 0.0


def _op_rng(scenario: Scenario, params: dict):
    # The standard library's generator: importing numpy.random would add about
    # 6.5 MB of resident memory (numpy 2.4, Linux x86-64) to every run with a scan.
    return random.Random(params.get("seed", scenario.seed))


def _probe(scenario: Scenario, params: dict, refs: dict) -> PhaseProbe:
    return PhaseProbe(solenoid=scenario.solenoid, gauge=refs.get("gauge"),
                      e=params.get("e", 1.0), base_field=refs.get("base"))


# Handlers map (scenario, params, refs) to (value, error estimate, target, extra).

def _h_eval_field(scenario, params, refs):
    return _vec(refs["field"](params["at"])), 0.0, params["field"], {}


def _h_line_integral(scenario, params, refs):
    rep = line_integral(refs["field"], refs["path"], tol=params.get("tol", 1e-9))
    return rep.value, rep.error_estimate, params["field"], {"n_points": rep.n_points}


def _h_winding_number(scenario, params, refs):
    return float(winding_number(LoopSpec(refs["loop"]))), 0.0, "winding", {}


def _h_numeric_potential(scenario, params, refs):
    rep = numeric_potential(params["at"], scenario.solenoid)
    return _vec(rep.value), rep.error_estimate, "solenoid.AS.numeric", {}


def _h_numeric_b_field(scenario, params, refs):
    rep = numeric_b_field(params["at"], scenario.solenoid)
    return _vec(rep.value), rep.error_estimate, "solenoid.B.numeric", {}


def _h_disc_flux(scenario, params, refs):
    deltas = [StringField(scenario.solenoid)] if params.get("with_string") else []
    rep = disc_flux(refs["field"], refs["disc"], deltas=deltas, tol=params.get("tol", 1e-9))
    return rep.value, rep.error_estimate, params["field"], {"with_string": bool(deltas)}


def _h_string_flux(scenario, params, refs):
    return StringField(scenario.solenoid).flux, 0.0, "string", {}


def _h_shrinking_loop(scenario, params, refs):
    rep = shrinking_loop_circulation(refs["field"], params.get("center", (0.0, 0.0, 0.0)),
                                     eps_list=params.get("eps", (1e-1, 1e-2, 1e-3)))
    extra = {"eps": list(rep.eps_values), "circulations": list(rep.circulations)}
    return rep.value, rep.error_estimate, params["field"], extra


def _h_stokes_residual(scenario, params, refs):
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 2))
    val = stokes_residual(refs["field"], refs["disc"], cfg)
    return val, 0.0, params["field"], {}


def _h_helmholtz_classify(scenario, params, refs):
    f = refs["field"]
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


def _h_open_phase(scenario, params, refs):
    rep = open_path_phase(_probe(scenario, params, refs), refs["path"],
                          tol=params.get("tol", PHASE_TOL))
    extra = {"transverse_part": rep.transverse_part, "gauge_part": rep.gauge_part,
             "singular_gauge": rep.singular_gauge}
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), extra


def _h_loop_phase(scenario, params, refs):
    rep = loop_phase(_probe(scenario, params, refs), LoopSpec(refs["loop"]),
                     tol=params.get("tol", PHASE_TOL))
    extra = {"transverse_part": rep.transverse_part, "gauge_part": rep.gauge_part,
             "winding": rep.winding, "singular_gauge": rep.singular_gauge,
             "notes": list(rep.notes)}
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), extra


def _h_interference_shift(scenario, params, refs):
    rep = interference_shift(_probe(scenario, params, refs), refs["path1"], refs["path2"],
                             tol=params.get("tol", PHASE_TOL))
    return rep.phase, rep.error_estimate, params.get("gauge", "none"), {}


def _h_phase_shift(scenario, params, refs):
    pa, pb = _phases(_probe(scenario, params, refs), refs["path"],
                     (refs["gauge_a"], refs["gauge_b"]), params.get("tol", PHASE_TOL))
    extra = {"phase_a": pa.phase, "phase_b": pb.phase}
    return pa.phase - pb.phase, add_estimates(pa.error_estimate, pb.error_estimate), \
        f"{params['gauge_a']}-{params['gauge_b']}", extra


def _h_gauge_scan(scenario, params, refs):
    gauges = refs["gauges"]
    rows = gauge_dependence_scan(refs["path"], gauges, probe=_probe(scenario, params, refs),
                                 tol=params.get("tol", PHASE_TOL))
    extra = {"rows": [{"gauge": gauge_label(g), "phase": r.phase,
                       "transverse_part": r.transverse_part,
                       "gauge_part": r.gauge_part} for g, r in zip(gauges, rows)]}
    # The transverse part as each gauge measures it: the total minus its gauge part.
    measured = [r.phase - r.gauge_part for r in rows]
    return max(measured) - min(measured), 0.0, ",".join(params["gauges"]), extra


def _h_interaction_energy(scenario, params, refs):
    sample = VelocitySample(tuple(params["v"]), params["at"])
    val = interaction_energy(params["model"], sample, scenario.solenoid,
                             e=params.get("e", 1.0))
    return val, 0.0, params["model"], {}


def _h_energy_cancellation(scenario, params, refs):
    sample = VelocitySample(tuple(params["v"]), params["at"])
    val = energy_cancellation(sample, scenario.solenoid, e=params.get("e", 1.0))
    return val, 0.0, "boyer+virtual_photon", {}


def _h_landau_compare(scenario, params, refs):
    loop = LoopSpec(refs["loop"])
    e = params.get("e", 1.0)
    tol = params.get("tol", PHASE_TOL)
    phases = {}
    for variant in ("S", "L1", "L2"):
        probe = PhaseProbe(solenoid=scenario.solenoid, e=e,
                           base_field=LandauField(variant, scenario.landau_b))
        phases[f"landau.{variant}"] = loop_phase(probe, loop, tol=tol).phase
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


def _h_curl_scan(scenario, params, refs):
    f = refs["field"]
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 4))
    target = np.asarray(params.get("target", (0.0, 0.0, 0.0)), dtype=float)
    curl = numeric_curl(f, _scan_points(scenario, params, f.branch_cut), cfg)
    return _max_abs(curl - target), 0.0, params["field"], {}


def _h_div_scan(scenario, params, refs):
    f = refs["field"]
    cfg = DiffConfig(h=params.get("h", 1e-4), order=params.get("order", 4))
    div = numeric_divergence(f, _scan_points(scenario, params, f.branch_cut), cfg)
    return _max_abs(div), 0.0, params["field"], {}


def _h_field_max_abs(scenario, params, refs):
    f = refs["field"]
    return _max_abs(f(_scan_points(scenario, params, f.branch_cut))), 0.0, params["field"], {}


def _h_gauge_link_residual(scenario, params, refs):
    fa, fb = refs["field_a"], refs["field_b"]
    pts = _scan_points(scenario, params, fa.branch_cut or fb.branch_cut)
    resid = fa(pts) - fb(pts) - refs["gauge"].gradient(pts)
    return _max_abs(resid), 0.0, f"{params['field_a']}={params['field_b']}+grad", {}


def _h_field_map(scenario, params, refs):
    out = Path(params["out"])
    emit_field_map(refs["field"], params.get("window", (-3.0, 3.0, -3.0, 3.0)),
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
        value, err, target, extra = handler(scenario, op.params, op.refs)
        where = _non_finite_at({"value": value, "error_estimate": err, "extra": extra})
        if where is not None:
            raise NonFinite(f"the result is not finite at {where}")
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
    return json.dumps(record_payload(record), sort_keys=True) + "\n"


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
