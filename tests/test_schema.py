"""The scenario schema and the checker abgauge compiles from it.

jsonschema, extended with the schema's ``required_by_op`` keyword, is the
reference: the compiled checker must accept and reject the same documents and
report a location and message that jsonschema also reports.  The documents
are the bundled scenarios, the benchmark generator's requests, the Hypothesis
exit-code corpus, and one-field mutations of each.
"""

import ast
import copy
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import scenario as scenario_module
from abgauge.ab_phase import INTERACTION_MODELS
from abgauge.cli import main
from abgauge.scenario import (compile_schema, load_schema, record_json, run_scenario,
                              scenario_from_dict)
from test_exit_codes import scenario as exit_code_scenario

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (the benchmark's seeded request generator)

SCHEMA = load_schema()
CHECK = compile_schema(SCHEMA)


def _required_by_op(validator, table, instance, schema):
    """The schema keyword required_by_op: the parameters each operation kind must give."""
    if not validator.is_type(instance, "object") or not isinstance(instance.get("op"), str):
        return
    for key in table.get(instance["op"], ()):
        if key not in instance:
            yield jsonschema.exceptions.ValidationError(f"{key!r} is a required property")


REFERENCE = jsonschema.validators.extend(jsonschema.validators.validator_for(SCHEMA),
                                         {"required_by_op": _required_by_op})(SCHEMA)


def _where(error) -> tuple:
    return ".".join(str(k) for k in error.absolute_path), error.message


def assert_parity(doc, one_change=False):
    """Both accept or both reject doc, and the checker reports one of jsonschema's
    errors, those nested in anyOf/oneOf included; for a valid document changed at
    one place, the one best_match picks."""
    top = list(REFERENCE.iter_errors(doc))
    errors, todo = [], list(top)
    while todo:
        error = todo.pop()
        errors.append(_where(error))
        todo.extend(error.context)
    found = CHECK(doc)
    assert (found is None) == (not errors), (found, errors[:3])
    if found is not None:
        assert found in errors, (found, errors[:5])
        if one_change:
            assert found == _where(jsonschema.exceptions.best_match(top))


def bundled_documents() -> dict:
    folder = resources.files("abgauge").joinpath("scenarios")
    return {p.name: json.loads(p.read_text()) for p in folder.iterdir()
            if p.name.endswith(".json")}


def generated_documents(seeds, count) -> dict:
    """gen.request scenarios of every workload, the cli workload's run verb included."""
    docs = {}
    for workload in gen.WORKLOADS:
        for seed in seeds:
            for i in range(count):
                r = gen.request(workload, seed, i)
                if "scenario" in r:
                    docs[f"{workload}-{seed}-{i}"] = r["scenario"]
    return docs


# ---------------------------------------------------------------------------
# One-field mutations
# ---------------------------------------------------------------------------

def _resolve(node):
    while "$ref" in node:
        node = SCHEMA["definitions"][node["$ref"].rpartition("/")[2]]
    return node


def _locations(value, node, path=()):
    """(path, schema node) of every place in a document, anyOf/oneOf resolved by type."""
    node = _resolve(node)
    for sub in node.get("anyOf", node.get("oneOf", ())):
        sub = _resolve(sub)
        if REFERENCE.is_type(value, sub["type"]):
            node = sub
            break
    yield path, node
    if isinstance(value, dict):
        props, extra = node.get("properties", {}), node.get("additionalProperties")
        for key, item in value.items():
            sub = props.get(key, extra if isinstance(extra, dict) else None)
            if sub is not None:
                yield from _locations(item, sub, path + (key,))
    elif isinstance(value, list):
        items = node.get("items")
        subs = items if isinstance(items, list) else [items] * len(value) if items else []
        for i, (item, sub) in enumerate(zip(value, subs)):
            yield from _locations(item, sub, path + (i,))


_OTHER_TYPE = {dict: [], list: {}, str: 1, bool: "true", int: "1", float: "1.5"}


def _edits(value, node):
    """Replacement values for one place of a document, given its schema node."""
    kind = node.get("type")
    yield _OTHER_TYPE[type(value)]
    if kind in ("number", "integer"):
        yield True
        if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= 2 ** 53:
            yield float(value)
        for key in ("minimum", "maximum", "exclusiveMinimum"):
            if key in node:
                bound = node[key]
                steps = (bound - 1, bound + 1) if kind == "integer" else \
                    (math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
                yield from (*steps, bound)
    if "enum" in node or "const" in node:
        yield "not-an-option"
    if isinstance(value, list) and value:
        yield value[:-1]
        yield value + value[-1:]


def _replaced(doc, path, value):
    """doc with the value at path replaced, copying only the containers along path."""
    if not path:
        return value
    new = copy.copy(doc)
    new[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return new


def mutations(doc) -> list:
    """(path, new value) pairs, each giving a document that differs from doc at one place."""
    out = []
    for path, node in _locations(doc, SCHEMA):
        value = doc
        for key in path:
            value = value[key]
        if path:
            out += [(path, new) for new in _edits(value, node)]
        if isinstance(value, dict):
            required = [*node.get("required", ()),
                        *node.get("required_by_op", {}).get(value.get("op"), ())]
            out += [(path, {k: v for k, v in value.items() if k != key})
                    for key in required if key in value]
            out.append((path, {**value, "unknown_key": 1}))
    return out


DOCUMENTS = {**bundled_documents(), **generated_documents(seeds=(1, 2, 3, 12), count=40)}


class TestParity:
    @pytest.mark.parametrize("source", ["bundled", *gen.WORKLOADS])
    def test_bundled_and_generated_scenarios_pass(self, source):
        names = [name for name in DOCUMENTS if name.startswith(f"{source}-")
                 or source == "bundled" and name.endswith(".json")]
        assert names
        for name in names:
            assert CHECK(DOCUMENTS[name]) is None
            assert REFERENCE.is_valid(DOCUMENTS[name])

    @pytest.mark.parametrize("name", sorted(bundled_documents()))
    def test_every_mutation_of_a_bundled_scenario(self, name):
        doc = DOCUMENTS[name]
        for path, value in mutations(doc):
            assert_parity(_replaced(doc, path, value), one_change=True)

    @given(st.sampled_from(sorted(DOCUMENTS)), st.data())
    def test_mutations_of_generated_scenarios(self, name, data):
        doc = DOCUMENTS[name]
        assert_parity(_replaced(doc, *data.draw(st.sampled_from(mutations(doc)))),
                      one_change=True)

    @given(exit_code_scenario)
    def test_exit_code_corpus(self, doc):
        assert_parity(doc)

    @given(exit_code_scenario, st.data())
    def test_mutations_of_the_exit_code_corpus(self, doc, data):
        assert_parity(_replaced(doc, *data.draw(st.sampled_from(mutations(doc)))))

    def test_mutations_cover_every_kind_of_edit(self):
        doc = DOCUMENTS["landau_gauges.json"]
        docs = [_replaced(doc, path, value) for path, value in mutations(doc)]
        rejected = [CHECK(d)[1] for d in docs if CHECK(d) is not None]
        for words in ("is a required property", "Additional properties", "is not of type",
                      "is less than the minimum", "is too short", "is too long",
                      "is not one of", "is greater than the maximum"):
            assert any(words in m for m in rejected), words
        assert any(CHECK(d) is None for d in docs)  # e.g. 2.0 for an integer


# ---------------------------------------------------------------------------
# The compiler and the interfaces around it
# ---------------------------------------------------------------------------

class TestCompiler:
    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"type": "object", "properties": {"x": {"format": "email"}}},
        {"allOf": [{"type": "number"}]},
        {"type": ["number", "string"]},
        {"type": "null"},
        {"minimum": 0},
        {"type": "number", "maxItems": 3},
        {"required": ["x"]},
        {"$ref": "#/definitions/a", "minimum": 0, "definitions": {"a": {"type": "number"}}},
        {"$ref": "#/definitions/missing"},
        {"definitions": {"a": {"type": "number", "exclusiveMaximum": 3}}},
        {"definitions": {"a": {"type": "array", "items": {"$ref": "#/definitions/a"}}}},
    ])
    def test_unsupported_schema_raises(self, schema):
        with pytest.raises(ValueError):
            compile_schema(schema)

    def test_annotations_compile(self):
        check = compile_schema({
            "$schema": "http://json-schema.org/draft-07/schema#", "title": "t",
            "description": "d", "type": "object",
            "properties": {"x": {"description": "an x", "$ref": "#/definitions/n"}},
            "definitions": {"n": {"title": "n", "type": "integer", "maximum": 3}}})
        assert check({"x": 3}) is None
        assert check({"x": 4}) == ("x", "4 is greater than the maximum of 3")

    def test_a_valid_document_forms_no_message(self):
        class Unprintable(dict):
            def __repr__(self):
                raise AssertionError("a message was formed")

        path = Unprintable(kind="circle", radius=2.0)  # fails path_ref's string branch
        assert CHECK({"name": "t", "operations": [{"op": "loop_phase", "loop": path}]}) is None

    def test_import_of_the_cli_leaves_jsonschema_out(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", "import sys, abgauge.cli; "
                              "print('jsonschema' in sys.modules)"],
                             capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_other_module_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            scenario_module.no_such_name


# ---------------------------------------------------------------------------
# Declared bounds
# ---------------------------------------------------------------------------

def _schema_nodes(node, path="#"):
    if isinstance(node, dict):
        yield path, node
        for key, sub in node.items():
            yield from _schema_nodes(sub, f"{path}/{key}")
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _schema_nodes(sub, f"{path}/{i}")


def test_every_integer_and_array_is_bounded():
    unbounded = [path for path, node in _schema_nodes(SCHEMA)
                 if (node.get("type") == "integer" and "maximum" not in node)
                 or (node.get("type") == "array" and "maxItems" not in node)]
    assert not unbounded


def _node(*path):
    node = SCHEMA
    for key in path:
        node = node[key]
    return node


OP = ("definitions", "operation", "properties")
PATH = ("definitions", "path", "properties")
MAX_OPS = _node("properties", "operations", "maxItems")


def _scenario(**overrides):
    raw = {"name": "bounds", "solenoid": {"R": 1.0, "B": 1.0},
           "operations": [{"op": "string_flux"}]}
    raw.update(overrides)
    return raw


def _op(**params):
    return _scenario(operations=[params])


def _poly(terms):
    return _scenario(definitions={"p": {"id": "custom.regular", "coefficients": terms}},
                     operations=[{"op": "eval_field", "field": "p", "at": [1, 2, 3]}])


EXP_MAX = _node("definitions", "exponent", "maximum")
BEYOND_EACH_BOUND = [
    (_scenario(seed=_node("properties", "seed", "maximum") + 1), "seed"),
    (_scenario(paths={"c": {"kind": "circle", "radius": 10 * _node(*PATH, "radius", "maximum")}}),
     "paths.c.radius"),
    (_poly([[1, 0, 0, 1.0]] * (_node("properties", "definitions", "additionalProperties",
                                      "properties", "coefficients", "maxItems") + 1)),
     "definitions.p.coefficients"),
    (_poly([[EXP_MAX + 1, 0, 0, 1.0]]), "definitions.p.coefficients.0.0"),
    (_poly([[0, EXP_MAX + 1, 0, 1.0]]), "definitions.p.coefficients.0.1"),
    (_poly([[0, 0, EXP_MAX + 1, 1.0]]), "definitions.p.coefficients.0.2"),
    (_poly([[1, 0, 0, 1.0, 2.0]]), "definitions.p.coefficients.0"),
    (_scenario(operations=[{"op": "string_flux"}] * (MAX_OPS + 1)), "operations"),
    (_scenario(paths={"c": {"kind": "circle", "radius": 2.0,
                            "turns": _node(*PATH, "turns", "maximum") + 1}}), "paths.c.turns"),
    (_scenario(paths={"c": {"kind": "circle", "radius": 2.0,
                            "turns": _node(*PATH, "turns", "minimum") - 1}}), "paths.c.turns"),
    (_scenario(paths={"p": {"kind": "polyline", "points": [[2.0, 0.0, 0.0]] * (
        _node(*PATH, "points", "maxItems") + 1)}}), "paths.p.points"),
    (_scenario(paths={"s": {"kind": "segment", "from": [0, 0, 0, 0], "to": [1, 0, 0]}}),
     "paths.s.from"),
    (_op(op="curl_scan", field="solenoid.AS", seed=_node(*OP, "seed", "maximum") + 1),
     "operations.0.seed"),
    (_op(op="curl_scan", field="solenoid.AS", n=_node(*OP, "n", "maximum") + 1),
     "operations.0.n"),
    (_op(op="field_map", field="solenoid.AS", out="map.svg",
         resolution=_node(*OP, "resolution", "maximum") + 1), "operations.0.resolution"),
    (_op(op="field_map", field="solenoid.AS", out="map.svg", window=[-1, 1, -1, 1, 0]),
     "operations.0.window"),
    (_op(op="gauge_scan", path={"kind": "arc", "radius": 2.0, "phi0": 0, "phi1": 1},
         gauges=["none"] * (_node(*OP, "gauges", "maxItems") + 1)), "operations.0.gauges"),
    (_op(op="shrinking_loop", field="gauge.sing",
         eps=[0.1] * (_node(*OP, "eps", "maxItems") + 1)), "operations.0.eps"),
    (_op(op="curl_scan", field="solenoid.AS", rho=[0.5, 1.0, 2.0]), "operations.0.rho"),
    (_op(op="curl_scan", field="solenoid.AS", z=[0.5, 1.0, 2.0]), "operations.0.z"),
    (_op(op="eval_field", field="solenoid.AS", at=[2, 0, 0, 0]), "operations.0.at"),
    (_op(op="curl_scan", field="solenoid.AS", target=[0, 0, 1, 0]), "operations.0.target"),
    (_op(op="energy_cancellation", at=[2, 0, 0], v=[0.1, 0, 0, 0]), "operations.0.v"),
    (_scenario(paths={"a": {"kind": "arc", "radius": 2.0, "phi0": 0.0, "phi1": 1e300}}),
     "paths.a.phi1"),
    (_scenario(paths={"a": {"kind": "arc", "radius": 2.0, "phi1": 0.0,
                            "phi0": _node(*PATH, "phi0", "minimum") - 1e-9}}), "paths.a.phi0"),
    (_op(op="gauge_scan", path={"kind": "arc", "radius": 2.0, "phi0": 0, "phi1": 1},
         gauges=[]), "operations.0.gauges"),
    (_op(op="interaction_energy", model="other", v=[0.1, 0, 0], at=[2, 0, 0]),
     "operations.0.model"),
    (_scenario(paths={"c": {"kind": "circle", "radius": 2.0, "start_phase": 1e17}}),
     "paths.c.start_phase"),
]


@pytest.mark.parametrize("raw, where", BEYOND_EACH_BOUND,
                         ids=[f"{w}-{i}" for i, (_, w) in enumerate(BEYOND_EACH_BOUND)])
def test_one_beyond_each_bound_exits_2_naming_it(raw, where, tmp_path, capsys):
    src = tmp_path / "bounds.json"
    src.write_text(json.dumps(raw))
    assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 2
    assert f"scenario does not match schema at {where}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_model_enum_is_the_interaction_models():
    assert tuple(_node(*OP, "model", "enum")) == INTERACTION_MODELS


# Runs one scenario with the address space capped; one BLAS thread keeps the
# interpreter's own reservations small on machines with many cores.
_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from abgauge.cli import main
sys.exit(main(["run", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_an_arc_across_the_shell_at_the_angle_bound_runs_under_a_memory_cap(tmp_path):
    # Each of its nearly 16 turns crosses the shell twice, and the closed forms list
    # every crossing.
    lo, hi = _node(*PATH, "phi0", "minimum"), _node(*PATH, "phi1", "maximum")
    raw = _scenario(paths={"a": {"kind": "arc", "center": [1.0, 0.0, 0.0], "radius": 0.9,
                                 "phi0": lo, "phi1": hi}},
                    operations=[{"op": "line_integral", "field": "solenoid.AS", "path": "a"},
                                {"op": "line_integral", "field": "gauge.sing", "path": "a"},
                                {"op": "phase_shift", "path": "a", "gauge_a": "none",
                                 "gauge_b": "none"},
                                {"op": "gauge_scan", "path": "a", "gauges": ["none"]}])
    src = tmp_path / "bounds.json"
    src.write_text(json.dumps(raw))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, str(src), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "out" / "bounds.json").exists()


@pytest.mark.parametrize("term", [[2.7, 0, 0, 1], [-1, 0, 0, 1]])
def test_polynomial_exponents_are_non_negative_integers(term, tmp_path, capsys):
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(_poly([term])))
    assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 2
    assert "at definitions.p.coefficients.0.0: " in capsys.readouterr().err


@pytest.mark.parametrize("raw, key", [
    (_op(op="curl_scan", field="solenoid.AS", n=3), ("operations", 0, "n")),
    (_scenario(paths={"c": {"kind": "circle", "radius": 2.0, "turns": 2}},
               operations=[{"op": "loop_phase", "loop": "c"}]),
     ("paths", "c", "turns")),
    (_poly([[2, 1, 0, 0.5]]), ("definitions", "p", "coefficients", 0, 0)),
])
def test_a_float_without_a_fraction_runs_as_its_integer(raw, key):
    """Draft-07 counts 3.0 as an integer, so it parses and gives the record of 3."""
    as_float = copy.deepcopy(raw)
    parent = as_float
    for k in key[:-1]:
        parent = parent[k]
    parent[key[-1]] = float(parent[key[-1]])
    assert record_json(run_scenario(scenario_from_dict(as_float))) == \
        record_json(run_scenario(scenario_from_dict(raw)))


# ---------------------------------------------------------------------------
# Declared keys: every one is read, and every key read is declared
# ---------------------------------------------------------------------------

def _keys_read() -> dict:
    """The string keys scenario.py reads from each of params, raw and spec, by subscript
    or .get(); the reference parameters of _REF_KINDS count as read from params."""
    tree = ast.parse(Path(scenario_module.__file__).read_text(encoding="utf-8"))
    read = {"params": set(), "raw": set(), "spec": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_REF_KINDS":
            read["params"].update(key.value for key in node.value.keys)
            continue
        if isinstance(node, ast.Subscript):
            holder, key = node.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args:
            holder, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(holder, ast.Name) and holder.id in read \
                and isinstance(key, ast.Constant) and isinstance(key.value, str):
            read[holder.id].add(key.value)
    return read


class TestDeclaredKeys:
    READ = _keys_read()

    def test_every_top_level_key_is_read_and_declared(self):
        assert set(SCHEMA["properties"]) == self.READ["raw"]

    def test_every_operation_key_is_read(self):
        declared = set(_node(*OP))
        assert declared - self.READ["params"] == {"op", "expect"}
        assert {"op", "expect"} <= self.READ["spec"]

    def test_every_key_a_handler_reads_is_declared(self):
        assert self.READ["params"] <= set(_node(*OP))

    def test_every_path_and_disc_key_is_read(self):
        declared = set(_node(*PATH)) | set(_node("definitions", "disc", "properties"))
        assert declared <= self.READ["spec"]
