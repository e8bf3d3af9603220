import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import abgauge
from abgauge import (DiscSpec, LandauField, NumericCurlField, SolenoidSpec,
                     SolenoidTransverseField, TransformedPotentialField, disc_flux)
from abgauge import ab_phase as ab_phase_module
from abgauge import scenario as scenario_module
from abgauge.calculus import _polar_flux_level
from abgauge.cli import main
from abgauge.errors import ParseError
from abgauge.geometry import PathSpec
from abgauge.scenario import (exit_code, load_scenario, load_schema, record_csv,
                              record_json, run_scenario, scenario_from_dict,
                              sidecar_json, write_outputs)
from abgauge.svgmap import emit_field_map

BUNDLED = ["loop_flux", "string_circulation", "singular_gauge_expulsion",
           "flux_cancellation", "gauge_invariance", "partial_phase",
           "biot_savart_check", "interior_curl", "landau_gauges",
           "interaction_energy", "helmholtz_classification"]


def bundled_path(name: str) -> str:
    return str(resources.files("abgauge").joinpath(f"scenarios/{name}.json"))


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def minimal_scenario(**overrides) -> dict:
    raw = {
        "name": "t",
        "solenoid": {"R": 1.0, "B": 1.0},
        "paths": {"c2": {"kind": "circle", "center": [0, 0, 0], "radius": 2.0}},
        "operations": [
            {"op": "line_integral", "field": "solenoid.AS", "path": "c2",
             "tol": 1e-10, "expect": {"value": math.pi, "tol": 1e-6}}
        ],
    }
    raw.update(overrides)
    return raw


class TestScenarioIngestion:
    def test_bundled_list_matches_package(self):
        folder = resources.files("abgauge").joinpath("scenarios")
        present = {p.name.removesuffix(".json") for p in folder.iterdir()
                   if p.name.endswith(".json")}
        assert sorted(BUNDLED) == sorted(present)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_load(self, name):
        sc = load_scenario(bundled_path(name))
        assert sc.name == name
        assert sc.paper_claim

    def test_unknown_field_id_rejected(self):
        raw = minimal_scenario()
        raw["operations"][0]["field"] = "solenoid.AX"
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    def test_unknown_path_id_rejected(self):
        raw = minimal_scenario()
        raw["operations"][0]["path"] = "nope"
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    def test_schema_passes_its_meta_schema(self):
        schema = load_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_schema_operations_match_the_handlers(self):
        ops = load_schema()["definitions"]["operation"]
        assert set(ops["properties"]["op"]["enum"]) == set(scenario_module.HANDLERS)
        assert set(ops["required_by_op"]) <= set(ops["properties"]["op"]["enum"])

    def test_schema_violation_rejected(self):
        raw = minimal_scenario()
        raw["operations"][0]["op"] = "conjure"
        with pytest.raises(ParseError):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("overrides", [
        {"quadrature": {"n_phi": 48, "n_z": 48}},
        {"quadrature": {"half_lengths": [8, math.inf]}},
        {"quadrature": {"half_lengths": [8, math.nan]}},
        {"solenoid": {"R": math.nan, "B": 1.0}},
        {"solenoid": {"R": 1.0, "B": math.inf}},
        {"quadrature": {"extrapolation": "richardson"}},
        {"quadrature": {"half_lengths": [8, 16]}},
    ])
    def test_removed_or_non_finite_settings_rejected(self, overrides):
        with pytest.raises(ParseError):
            scenario_from_dict(minimal_scenario(**overrides))

    @pytest.mark.parametrize("overrides", [
        {"discs": {"d": {"center": [0, 0, 0], "radius": math.nan}}},
        {"paths": {"c2": {"kind": "circle", "center": [0, 0, math.inf], "radius": 2.0}}},
        {"operations": [{"op": "eval_field", "field": "solenoid.AS", "at": [math.nan, 0, 0]}]},
        {"operations": [{"op": "line_integral", "field": "solenoid.AS", "path": "c2",
                         "tol": math.nan}]},
        {"operations": [{"op": "eval_field", "field": "solenoid.AS", "at": [2, 0, 0],
                         "expect": {"value": [0, 0.25, 0], "tol": -math.inf}}]},
        {"landau_b": -math.inf},
        {"paths": {"c2": {"kind": "circle", "radius": 2.0, "turns": 10 ** 400}}},
    ])
    def test_non_finite_numbers_rejected(self, overrides):
        with pytest.raises(ParseError, match="non-finite"):
            scenario_from_dict(minimal_scenario(**overrides))

    @pytest.mark.parametrize("op, where", [
        ({"op": "eval_field", "field": "solenoid.AS"}, "at operations.0: 'at' is a required"),
        ({"op": "eval_field", "field": "solenoid.AS", "at": [1, 2]}, "at operations.0.at: "),
        ({"op": "interaction_energy", "model": "boyer", "at": [2, 0, 0]},
         "at operations.0: 'v' is a required"),
        ({"op": "shrinking_loop", "field": "gauge.sing", "center": [0, 0]},
         "at operations.0.center: "),
        ({"op": "curl_scan", "field": "solenoid.AS", "target": "z"}, "at operations.0.target: "),
        ({"op": "line_integral", "field": "solenoid.AS", "path": "c2", "tol": 0},
         "at operations.0.tol: "),
        ({"op": "gauge_scan", "path": "c2"}, "at operations.0: 'gauges' is a required"),
        ({"op": "shrinking_loop", "field": "solenoid.AS", "center": [1.2, 0, 0],
          "eps": [0.6, 0.3]}, "at operations.0.eps: [0.6, 0.3] is too short"),
    ])
    def test_operation_parameters_checked_at_parse(self, op, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            scenario_from_dict(minimal_scenario(operations=[op]))

    def test_expect_needs_tolerance(self):
        raw = minimal_scenario()
        del raw["operations"][0]["expect"]["tol"]
        with pytest.raises(ParseError, match=re.escape("at operations.0.expect:")):
            scenario_from_dict(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "missing.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(p)


class TestScenarioExecution:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_scenarios_pass(self, name):
        record = run_scenario(load_scenario(bundled_path(name)))
        failures = [(r.op, r.value, r.expected, r.error)
                    for r in record.reports if r.passed is False or r.error]
        assert not failures
        assert exit_code(record) == 0

    def test_expectation_failure_exit_code(self):
        raw = minimal_scenario()
        raw["operations"][0]["expect"] = {"value": 99.0, "tol": 1e-9}
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 1

    def test_numerical_error_exit_code(self):
        raw = minimal_scenario()
        raw["operations"] = [{"op": "numeric_potential", "at": [1.0, 0, 0]}]
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 3
        assert "OnShell" in record.reports[0].error

    @pytest.mark.parametrize("op", [
        {"op": "shrinking_loop", "field": "gauge.sing", "eps": [1e-3, 1e-2, 1e-1]},
        {"op": "interaction_energy", "model": "boyer", "v": [0.6, 0.8, 0.0],
         "at": [2, 0, 0]},
    ])
    def test_handler_value_error_is_an_operation_error(self, op):
        record = run_scenario(scenario_from_dict(minimal_scenario(operations=[op])))
        assert exit_code(record) == 3
        assert record.reports[0].error.startswith("ValueError: ")
        assert record.reports[0].value is None

    def test_uneven_polyline_scenario_runs(self):
        verts = [[2.0, 0.1 * k, 0.0] for k in range(11)] + [[-40.0, 1.1, 0.0]]
        raw = minimal_scenario(
            paths={"uneven": {"kind": "polyline", "points": verts}},
            operations=[{"op": "open_phase", "path": "uneven", "gauge": "none",
                         "tol": 1e-9}])
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 0
        assert record.reports[0].value == pytest.approx(0.5 * math.atan2(1.1, -40.0),
                                                        abs=1e-8)

    def test_off_centre_disc_across_the_shell_has_an_exact_flux(self, tmp_path):
        # Quadrature of this disc took 13.1 M nodes at tol 1e-4 and did not converge
        # at 1e-6; the overlap area meets the rim circulation of A_S.
        want = {"value": 20.016490776492960, "tol": 1e-13}
        raw = minimal_scenario(
            solenoid={"R": 3.05, "B": 1.0},
            paths={"rim": {"kind": "circle", "center": [0, 1.08, 0], "radius": 2.75}},
            discs={"d": {"center": [0, 1.08, 0], "radius": 2.75}},
            operations=[{"op": "disc_flux", "field": "solenoid.B", "disc": "d", "tol": 1e-12,
                         "expect": want},
                        {"op": "line_integral", "field": "solenoid.AS", "path": "rim",
                         "tol": 1e-12, "expect": want}])
        src = tmp_path / "lens.json"
        src.write_text(json.dumps(raw))
        assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 0
        flux = json.loads((tmp_path / "out" / "t.json").read_text())["reports"][0]
        assert flux["error_estimate"] is None

    def test_disc_flux_reports_its_last_level_difference(self):
        # The finite-difference curl of the transverse potential has no closed-form
        # flux.  On an off-centre disc cutting the shell it jumps inside the panels,
        # so successive levels differ well above rounding.
        curl = NumericCurlField(SolenoidTransverseField(SolenoidSpec(1.0, 1.0)))
        disc = DiscSpec((0.5, 0, 0), 1.0)
        rep = disc_flux(curl, disc, tol=1e-3)
        levels = [_polar_flux_level(curl, disc, [0.0, 1.0], k)[0] for k in range(4)]
        assert abs(levels[2] - levels[1]) >= 1e-3 > abs(levels[3] - levels[2])
        assert rep.value == levels[3]
        assert rep.error_estimate == abs(levels[3] - levels[2]) > 0.0
        assert rep.n_points == 100 * 2 ** 7

    def test_numeric_b_field_estimate_bounds_its_error(self):
        # A scenario may still send the step h of the removed stencil; it changes nothing.
        raw = minimal_scenario(operations=[{"op": "numeric_b_field", "at": at, "h": 0.01}
                                           for at in ([2, 0, 0], [0.99, 0.05, 0])])
        outside, inside = run_scenario(scenario_from_dict(raw)).reports
        for report, b_z in ((outside, 0.0), (inside, 1.0)):
            assert report.error is None
            assert isinstance(report.error_estimate, float)
            assert abs(report.value[2] - b_z) <= report.error_estimate + 1e-14

    def test_winding_through_the_axis_is_an_operation_error(self):
        square = [[-1, 0, 0], [1, 0, 0], [1, 2, 0], [-1, 2, 0], [-1, 0, 0]]
        raw = minimal_scenario(paths={"sq": {"kind": "polyline", "points": square}},
                               operations=[{"op": "winding_number", "loop": "sq"}])
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 3
        assert record.reports[0].error.startswith("AxisCrossing: ")

    def test_winding_of_a_circle_passing_just_outside_the_axis(self):
        circle = {"kind": "circle", "center": [1, 0, 0], "radius": 1.00000001}
        raw = minimal_scenario(paths={"c": circle},
                               operations=[{"op": "winding_number", "loop": "c"}])
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 0
        assert record.reports[0].value == 1.0

    def test_large_circle_scenario_runs(self):
        # Three turns of radius 2000 end 1.5e-12 from their start, by rounding alone.
        circle = {"kind": "circle", "center": [0, 0, 0], "radius": 2000.0, "turns": 3}
        raw = minimal_scenario(paths={"c": circle},
                               operations=[{"op": "loop_phase", "loop": "c"},
                                           {"op": "winding_number", "loop": "c"}])
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 0
        assert record.reports[0].value == pytest.approx(3 * math.pi, abs=1e-9)
        assert record.reports[1].value == 3.0

    @pytest.mark.parametrize("op", [
        {"op": "phase_shift", "gauge_a": "gauge.sing", "gauge_b": "none", "path": "arc"},
        {"op": "gauge_scan", "gauges": ["none", "gauge.sing"], "path": "arc"},
        {"op": "landau_compare", "loop": "c2"},
        {"op": "open_phase", "gauge": "gauge.sing", "path": "arc"},
        {"op": "loop_phase", "gauge": "gauge.sing", "loop": "c2"},
    ], ids=lambda op: op["op"])
    def test_phase_operations_pass_their_tol_on(self, op, monkeypatch):
        seen = []
        real = ab_phase_module.line_integral

        def spy(field, path, tol):
            seen.append(tol)
            return real(field, path, tol=tol)

        monkeypatch.setattr(ab_phase_module, "line_integral", spy)
        arc = {"kind": "arc", "center": [0, 0, 0], "radius": 2.0, "phi0": 0.0, "phi1": 1.0}
        raw = minimal_scenario(paths={"arc": arc, "c2": minimal_scenario()["paths"]["c2"]},
                               operations=[{**op, "tol": 1e-3}])
        record = run_scenario(scenario_from_dict(raw))
        assert record.reports[0].error is None
        assert seen and set(seen) == {1e-3}

    @pytest.mark.parametrize("op", [
        {"op": "open_phase", "gauge": "gauge.chitilde", "path": "cut"},
        {"op": "open_phase", "base": "landau.BB", "path": "cut"},
        {"op": "line_integral", "field": "landau.BB", "path": "cut"},
    ], ids=["gauge.chitilde", "base-landau.BB", "line_integral"])
    def test_path_across_the_branch_cut_is_a_domain_violation(self, op):
        cut = {"kind": "segment", "from": [-2, -1, 0], "to": [-2, 2, 0]}
        record = run_scenario(scenario_from_dict(minimal_scenario(paths={"cut": cut},
                                                                  operations=[op])))
        assert exit_code(record) == 3
        assert record.reports[0].error.startswith("DomainViolation: ")

    def test_every_operation_reported_once(self):
        sc = load_scenario(bundled_path("loop_flux"))
        record = run_scenario(sc)
        assert [r.index for r in record.reports] == list(range(len(sc.operations)))


class TestReferencesBuiltOnce:
    """Each field, gauge, path and disc an operation names is built once, at parse."""

    def test_a_run_builds_no_reference(self, monkeypatch):
        scenarios = [load_scenario(bundled_path(name)) for name in BUNDLED]
        before = [(record_json(r), record_csv(r)) for r in map(run_scenario, scenarios)]

        def refuse(*args, **kwargs):
            raise RuntimeError("a reference was built at run time")
        for name in ("resolve_field", "resolve_gauge", "_build_path", "_build_disc"):
            monkeypatch.setattr(scenario_module, name, refuse)
        after = [(record_json(r), record_csv(r)) for r in map(run_scenario, scenarios)]
        assert after == before

    def test_refs_hold_the_built_paths_and_discs(self):
        inline = {"kind": "segment", "from": [2, 0, 0], "to": [0, 2, 0]}
        raw = minimal_scenario(
            discs={"d": {"center": [0, 0, 0], "radius": 2.0}},
            operations=[
                {"op": "interference_shift", "path1": "c2", "path2": inline},
                {"op": "disc_flux", "field": "solenoid.B", "disc": "d"},
                {"op": "disc_flux", "field": "solenoid.B",
                 "disc": {"center": [0, 0, 1], "radius": 0.5}},
                {"op": "winding_number", "loop": "c2"}])
        scenarios = [scenario_from_dict(raw)] + [load_scenario(bundled_path(n)) for n in BUNDLED]
        seen = 0
        for sc in scenarios:
            for op in sc.operations:
                for key in ("path", "path1", "path2", "loop", "disc"):
                    if key not in op.params:
                        continue
                    seen += 1
                    built = op.refs[key]
                    assert isinstance(built, DiscSpec if key == "disc" else PathSpec)
                    name = op.params[key]
                    if isinstance(name, str):
                        assert built is (sc.discs if key == "disc" else sc.paths)[name]
        assert seen >= 5

    def test_refs_hold_fields_and_gauges(self):
        raw = minimal_scenario(operations=[
            {"op": "gauge_scan", "path": "c2", "gauges": ["none", "gauge.chi1"],
             "base": "solenoid.AS"},
            {"op": "gauge_link_residual", "field_a": "solenoid.Aprime",
             "field_b": "solenoid.AS", "gauge": "gauge.sing"}])
        scan, link = scenario_from_dict(raw).operations
        assert scan.refs["gauges"][0] is None and len(scan.refs["gauges"]) == 2
        assert isinstance(scan.refs["base"], SolenoidTransverseField)
        assert isinstance(link.refs["field_a"], TransformedPotentialField)
        assert set(link.refs) == {"field_a", "field_b", "gauge"}

    def test_inline_path_with_overflowing_data_exits_2(self, tmp_path, capsys):
        line = {"kind": "polyline", "points": [[1e308, 0, 0], [-1e308, 0, 0]]}
        raw = minimal_scenario(operations=[{"op": "open_phase", "path": line}])
        p = tmp_path / "big.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "operations.0.path" in capsys.readouterr().err

    def test_non_finite_result_is_a_numerical_error(self, tmp_path):
        raw = {"name": "huge", "solenoid": {"B": 1000.0}, "operations": [
            {"op": "interaction_energy", "model": "boyer", "v": [0.5, 0, 0], "at": [0, 2, 0],
             "e": 1e308},
            {"op": "energy_cancellation", "v": [0.5, 0, 0], "at": [0, 2, 0], "e": 1e308}]}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        text = (tmp_path / "out" / "huge.json").read_text()
        reports = json.loads(text, parse_constant=reject_constant)["reports"]
        assert [r["error"] for r in reports] == ["NonFinite: the result is not finite at value"] * 2
        assert [r["value"] for r in reports] == [None, None]


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        sc = load_scenario(bundled_path("helmholtz_classification"))
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert record_json(a) == record_json(b)
        assert record_csv(a) == record_csv(b)

    def test_record_is_one_line_of_json(self):
        text = record_json(run_scenario(load_scenario(bundled_path("loop_flux"))))
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text)["scenario"] == "loop_flux"

    def test_timestamp_only_in_sidecar(self):
        sc = load_scenario(bundled_path("interaction_energy"))
        record = run_scenario(sc)
        assert "timestamp" not in record_json(record)
        assert "timestamp" in sidecar_json(record)

    def test_write_outputs_layout(self, tmp_path):
        sc = load_scenario(bundled_path("interaction_energy"))
        record = run_scenario(sc)
        written = write_outputs(record, tmp_path, "both")
        names = {p.name for p in written}
        assert names == {"interaction_energy.json", "interaction_energy.csv",
                         "interaction_energy.meta.json"}

    def test_csv_column_contract(self):
        sc = load_scenario(bundled_path("loop_flux"))
        record = run_scenario(sc)
        lines = record_csv(record).splitlines()
        assert lines[0] == "scenario,op,target,value,error_estimate,expected,tol,pass"
        assert len(lines) == 1 + len(record.reports)
        assert lines[1].startswith("loop_flux,line_integral,solenoid.AS,")


class TestFieldMaps:
    def test_transverse_map_arrows_tangential_peak_on_shell(self, tmp_path):
        s = SolenoidSpec(1.0, 1.0)
        out = emit_field_map(SolenoidTransverseField(s), (-3, 3, -3, 3), 24,
                             tmp_path / "as.svg", solenoid=s)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        arrows = root.findall(".//svg:line[@class='arrow']", ns)
        assert len(arrows) == 24 * 24
        best_mag, best_rho = 0.0, None
        for a in arrows:
            cx, cy = float(a.get("data-cx")), float(a.get("data-cy"))
            mag = float(a.get("data-mag"))
            dx = float(a.get("x2")) - float(a.get("x1"))
            dy = float(a.get("y1")) - float(a.get("y2"))  # screen y flip
            if mag > 1e-12:
                radial = (dx * cx + dy * cy) / math.hypot(dx, dy) / math.hypot(cx, cy)
                assert abs(radial) < 1e-6
            if mag > best_mag:
                best_mag, best_rho = mag, math.hypot(cx, cy)
        # Strongest arrows sit in the ring of cells nearest the shell.
        assert abs(best_rho - s.R) < 0.2
        # Cross-section circle present.
        assert root.findall(".//svg:circle", ns)

    def test_transformed_map_exterior_arrows_zero(self, tmp_path):
        s = SolenoidSpec(1.0, 1.0)
        out = emit_field_map(TransformedPotentialField(s), (-3, 3, -3, 3), 24,
                             tmp_path / "ap.svg", solenoid=s)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        for a in root.findall(".//svg:line[@class='arrow']", ns):
            cx, cy = float(a.get("data-cx")), float(a.get("data-cy"))
            if math.hypot(cx, cy) > s.R:
                assert float(a.get("data-mag")) == 0.0
                assert a.get("x1") == a.get("x2") and a.get("y1") == a.get("y2")

    def test_first_landau_gauge_arrows_x_directed(self, tmp_path):
        out = emit_field_map(LandauField("L1", 1.0), (-3, 3, -3, 3), 16,
                             tmp_path / "l1.svg")
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        for a in root.findall(".//svg:line[@class='arrow']", ns):
            if float(a.get("data-mag")) > 1e-12:
                assert float(a.get("y1")) == pytest.approx(float(a.get("y2")), abs=1e-6)

    def test_byte_identical_output(self, tmp_path):
        s = SolenoidSpec(1.0, 1.0)
        p1 = emit_field_map(SolenoidTransverseField(s), (-3, 3, -3, 3), 12,
                            tmp_path / "a.svg", solenoid=s)
        p2 = emit_field_map(SolenoidTransverseField(s), (-3, 3, -3, 3), 12,
                            tmp_path / "b.svg", solenoid=s)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_map_operation(self, tmp_path):
        raw = minimal_scenario()
        raw["operations"] = [{"op": "field_map", "field": "solenoid.AS",
                              "window": [-3, 3, -3, 3], "resolution": 8,
                              "out": str(tmp_path / "map.svg")}]
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 0
        assert (tmp_path / "map.svg").exists()


class TestCli:
    def test_run_bundled(self, tmp_path, capsys):
        code = main(["run", bundled_path("loop_flux"), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS ]" in out
        assert (tmp_path / "loop_flux.json").exists()
        assert (tmp_path / "loop_flux.csv").exists()

    def test_run_unknown_field_exits_2(self, tmp_path, capsys):
        bad = {"name": "bad", "operations": [
            {"op": "eval_field", "field": "solenoid.AX", "at": [2, 0, 0]}]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "sub/../escaped", ".", "..",
                                      "nul\0byte"])
    def test_run_refuses_a_name_that_leaves_out(self, tmp_path, capsys, name):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"name": name, "operations": [{"op": "string_flux"}]}))
        assert main(["run", str(p), "--out", str(tmp_path / "t" / "out")]) == 2
        assert "at name" in capsys.readouterr().err
        assert [q.name for q in tmp_path.rglob("*")] == ["s.json"]

    @pytest.mark.parametrize("expect", [{}, {"tol": 1e-3}])
    def test_run_refuses_an_expect_that_checks_nothing(self, tmp_path, capsys, expect):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"name": "s", "operations": [
            {"op": "string_flux", "expect": expect}]}))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "at operations.0.expect:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_eval_prints_no_negative_zero(self, capsys, fmt):
        assert main(["eval", "solenoid.AS", "--at", "2,0,0", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert ("value: [0.0, 0.25, 0.0]" in out if fmt == "text"
                else json.loads(out)["value"] == [0.0, 0.25, 0.0])

    def test_run_removed_n_z_exits_2(self, tmp_path):
        p = tmp_path / "nz.json"
        p.write_text(json.dumps(minimal_scenario(quadrature={"n_z": 48})))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2

    def test_run_non_finite_half_length_exits_2(self, tmp_path):
        p = tmp_path / "inf.json"
        p.write_text(json.dumps(minimal_scenario(quadrature={"half_lengths": [8, math.inf]})))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2

    def test_run_removed_half_lengths_exits_2_naming_quadrature(self, tmp_path, capsys):
        p = tmp_path / "hl.json"
        p.write_text(json.dumps(minimal_scenario(quadrature={"half_lengths": [8, 16]})))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2
        assert "quadrature" in capsys.readouterr().err

    @pytest.mark.parametrize("n_phi", [8, 48])
    def test_run_removed_quadrature_exits_2_naming_it(self, tmp_path, capsys, n_phi):
        # The oracle's order is fixed; the default 48 is refused like any other.
        p = tmp_path / "nphi.json"
        p.write_text(json.dumps(minimal_scenario(quadrature={"n_phi": n_phi})))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2
        assert "Additional properties are not allowed ('quadrature' was unexpected)" \
            in capsys.readouterr().err

    def test_run_misspelled_operation_key_exits_2_naming_it(self, tmp_path, capsys):
        raw = minimal_scenario()
        raw["operations"] = [{"op": "line_integral", "field": "solenoid.AS", "path": "c2",
                              "tolerance": 1e-2}]
        p = tmp_path / "typo.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2
        assert "at operations.0: Additional properties are not allowed " \
            "('tolerance' was unexpected)" in capsys.readouterr().err

    def test_run_non_finite_disc_radius_exits_2(self, tmp_path, capsys):
        raw = minimal_scenario(discs={"d": {"center": [0, 0, 0], "radius": math.nan}})
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(raw))  # json writes the NaN token and reads it back
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "non-finite number at discs.d.radius" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_bad_window_exits_2(self, tmp_path):
        raw = minimal_scenario(operations=[
            {"op": "field_map", "field": "solenoid.AS", "window": [1, 2],
             "out": str(tmp_path / "map.svg")}])
        p = tmp_path / "window.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "map.svg").exists()

    def test_run_missing_operation_parameter_exits_2(self, tmp_path, capsys):
        p = tmp_path / "noat.json"
        p.write_text(json.dumps({"name": "noat", "operations": [
            {"op": "eval_field", "field": "solenoid.AS"}]}))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "operations.0" in err and "Traceback" not in err

    def test_plot_into_missing_directory_exits_3(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.svg"
        assert main(["plot", "field", "solenoid.AS", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "FileNotFoundError" in err and "Traceback" not in err

    def test_run_field_map_into_missing_directory_records_the_error(self, tmp_path):
        raw = minimal_scenario(operations=[
            {"op": "field_map", "field": "solenoid.AS", "out": str(tmp_path / "nodir" / "m.svg")},
            {"op": "string_flux"}])
        p = tmp_path / "map.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 3
        reports = json.loads((tmp_path / "out" / "t.json").read_text())["reports"]
        assert reports[0]["error"].startswith("FileNotFoundError: ")
        assert reports[1]["error"] is None

    def test_run_into_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", bundled_path("loop_flux"), "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {blocker}: ")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_out_file_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        assert main(["eval", "solenoid.AS", "--at", "2,0,0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err and "Traceback" not in err

    def test_run_expectation_failure_exits_1(self, tmp_path):
        raw = minimal_scenario()
        raw["operations"][0]["expect"] = {"value": 42.0, "tol": 1e-12}
        p = tmp_path / "fail.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("order", [("pass", "fail"), ("fail", "pass")])
    def test_run_many_files_exits_with_the_worst_code(self, order, tmp_path, capsys):
        files = []
        for name in order:
            raw = minimal_scenario(name=name)
            if name == "fail":
                raw["operations"][0]["expect"] = {"value": 42.0, "tol": 1e-12}
            files.append(tmp_path / f"{name}.json")
            files[-1].write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", *map(str, files), "--out", str(out)]) == 1
        for name in order:
            record = json.loads((out / f"{name}.json").read_text())
            assert record["passed"] is (name == "pass")
        assert capsys.readouterr().out.count("wrote: ") == 2

    def test_run_parses_every_file_before_running_any(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_scenario(name="good")))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_scenario(name="bad", operations=[
            {"op": "eval_field", "field": "solenoid.AS"}])))
        out = tmp_path / "out"
        assert main(["run", str(good), str(bad), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ") and captured.out == ""
        assert not out.exists()

    def test_run_refuses_two_scenarios_of_one_name(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(json.dumps(minimal_scenario()))
        out = tmp_path / "out"
        assert main(["run", str(p), str(p), "--out", str(out)]) == 2
        assert "named 't'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_numerical_error_exits_3(self, tmp_path):
        raw = {"name": "shell", "operations": [
            {"op": "numeric_potential", "at": [1.0, 0, 0]}]}
        p = tmp_path / "shell.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p), "--out", str(tmp_path)]) == 3

    def test_eval_verb(self, capsys):
        assert main(["eval", "solenoid.AS", "--at", "2,0,0"]) == 0
        assert "0.25" in capsys.readouterr().out

    def test_eval_json_format(self, capsys):
        assert main(["eval", "landau.L1", "--at", "3,2,0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == [-2.0, 0.0, 0.0]

    def test_phase_loop_verb(self, capsys):
        assert main(["phase", "loop", "--circle", "2", "--gauge", "gauge.sing",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["phase"]) < 1e-8
        assert payload["singular_gauge"] is True

    def test_phase_loop_winding_just_outside_the_axis(self, capsys):
        assert main(["phase", "loop", "--circle", "1.00000001", "--center", "1,0,0",
                     "--tol", "1e-9"]) == 0
        assert "winding: 1\n" in capsys.readouterr().out

    def test_phase_open_arc(self, capsys):
        assert main(["phase", "open", "--arc", "2:0:0.7853981633974483",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase"] == pytest.approx(math.pi / 8, abs=1e-8)

    def test_flux_verb(self, capsys):
        assert main(["flux", "--radius", "0.5", "--with-string",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flux"] == pytest.approx(math.pi / 4 - math.pi, abs=1e-8)

    def test_string_verb(self, capsys):
        assert main(["string", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["string_flux"] == pytest.approx(-math.pi)
        assert payload["singular_gradient_limit"] == pytest.approx(-math.pi, abs=1e-6)

    @pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
    def test_string_verb_bad_radius_exits_2(self, radius):
        assert main(["string", "--R", radius]) == 2

    def test_landau_compare_verb(self, capsys):
        assert main(["landau", "compare", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for fid in ("landau.S", "landau.L1", "landau.L2"):
            assert payload[fid] == pytest.approx(1.0, abs=1e-8)

    def test_plot_verb(self, tmp_path):
        out = tmp_path / "map.svg"
        assert main(["plot", "field", "solenoid.Aprime", "--out", str(out),
                     "--resolution", "8"]) == 0
        assert out.exists()

    def test_quadrature_overrides(self, capsys):
        # The oracle's order is fixed, so --nphi is a usage error on eval and plot.
        for argv in (["eval", "solenoid.AS.numeric", "--at", "2,0,0"],
                     ["plot", "field", "solenoid.AS.numeric", "--out", "map.svg"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--nphi", "48"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --nphi 48" in capsys.readouterr().err

    def test_phase_open_uneven_polyline(self, capsys):
        verts = ";".join(f"2,{0.1 * k:.1f},0" for k in range(11)) + ";-40,1.1,0"
        assert main(["phase", "open", "--tol", "1e-9", "--polyline", verts,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase"] == pytest.approx(0.5 * math.atan2(1.1, -40.0), abs=1e-8)

    def test_error_labels(self, tmp_path, capsys):
        assert main(["eval", "solenoid.AS.numeric", "--at", "1,0,0"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: OnShell: ")
        out = tmp_path / "nodir" / "x.svg"
        assert main(["plot", "field", "solenoid.AS", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("operation error: FileNotFoundError: ")
        assert main(["string", "--eps=1e-3,1e-2,1e-1"]) == 3
        assert capsys.readouterr().err.startswith("operation error: ValueError: ")

    # Each verb given only its required flags, then with the values the
    # engine defaults to written out: the output is the same byte for byte.
    @pytest.mark.parametrize("argv, defaults", [
        (["eval", "solenoid.AS", "--at=2,0,0"], ["--R=1", "--B=1", "--landau-b=1"]),
        (["eval", "solenoid.AS.numeric", "--at=2,0,0"], ["--R=1", "--B=1", "--landau-b=1"]),
        (["phase", "loop", "--circle=2"],
         ["--tol=1e-12", "--turns=1", "--charge=1", "--gauge=none", "--center=0,0,0",
          "--R=1", "--B=1", "--landau-b=1"]),
        (["phase", "open", "--arc=2:0:1"],
         ["--tol=1e-12", "--charge=1", "--gauge=none", "--center=0,0,0",
          "--R=1", "--B=1", "--landau-b=1"]),
        # A segment across the shell: its phase and estimate depend on the tolerance.
        (["phase", "open", "--segment=0.5,0,0:2,1,0"], ["--tol=1e-12"]),
        (["flux", "--radius=0.5"],
         ["--field=solenoid.B", "--center=0,0,0", "--tol=1e-9", "--R=1", "--B=1",
          "--landau-b=1"]),
        (["string"], ["--eps=0.1,0.01,0.001", "--R=1", "--B=1", "--landau-b=1"]),
        (["landau", "compare"], ["--b=1", "--charge=1", "--corner=0,0", "--size=1"]),
        (["plot", "field", "landau.S", "--out=map.svg"],
         ["--window=-3,3,-3,3", "--resolution=24", "--R=1", "--B=1", "--landau-b=1"]),
    ])
    def test_omitted_flags_take_the_engine_defaults(self, argv, defaults, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for args in (argv, argv + defaults):
            assert main(args) == 0
            svg = tmp_path / "map.svg"
            outputs.append((capsys.readouterr(), svg.read_bytes() if svg.exists() else None))
        assert outputs[0] == outputs[1]

    def test_removed_nz_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "solenoid.AS.numeric", "--at", "2,0,0", "--nz", "8"])
        assert exc.value.code == 2

    def test_removed_half_lengths_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "solenoid.AS.numeric", "--at", "2,0,0", "--half-lengths", "8,16"])
        assert exc.value.code == 2
        assert "--half-lengths" in capsys.readouterr().err


class TestCliExitCodes:
    """Every verb runs as a scenario: degenerate input gets an exit code, not a traceback."""

    @pytest.mark.parametrize("argv, code, message", [
        (["flux", "--radius=-1"], 2, "radius"),
        (["flux", "--radius=nan"], 2, "non-finite"),
        (["eval", "solenoid.AS", "--at=nan,0,0"], 2, "non-finite"),
        (["phase", "open", "--arc=2:0:1", "--tol=inf"], 2, "non-finite"),
        (["phase", "loop", "--circle=0"], 2, "radius"),
        (["phase", "loop", "--circle=2", "--turns=0"], 2, "turn"),
        (["eval", "gauge.sing", "--at=0,0,0"], 3, "AxisCrossing"),
        (["plot", "field", "solenoid.AS", "--window=1,2", "--out=map.svg"], 2, "window"),
        (["string", "--eps=1e-3,1e-2,1e-1"], 3, "ValueError"),
        (["phase", "loop", "--circle=1", "--charge=0"], 3, "ValueError"),
        (["phase", "loop", "--segment=2,0,0:3,0,0"], 3, "NotClosed"),
        (["eval", "solenoid.AS", "--at=1e200,0,0"], 2, "operations.0.at.0"),
        (["phase", "open", "--arc=5e307:0:1"], 2, "paths.arc.radius"),
        (["flux", "--radius=1e200"], 2, "discs.disc.radius"),
        (["phase", "loop", "--polyline=1e200,0,0;0,1e200,0;-1e200,0,0;0,-1e200,0;1e200,0,0"],
         2, "paths.polyline.points"),
        (["plot", "field", "solenoid.AS", "--resolution=1", "--out=map.svg"], 2,
         "operations.0.resolution"),
        (["string", "--eps=0.6,0.3"], 2, "operations.1.eps"),
        (["phase", "open", "--arc=1:0:1e300"], 2, "paths.arc.phi1"),
    ])
    def test_degenerate_argv(self, argv, code, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "map.svg").exists()

    @pytest.mark.parametrize("operation", [
        {"op": "eval_field", "field": "big", "at": [1e150, 1, 0]},
        {"op": "line_integral", "field": "big",
         "path": {"kind": "segment", "from": [1e150, 1, 0], "to": [1e150, 2, 0]}},
    ], ids=["eval_field", "line_integral"])
    def test_overflowing_polynomial_gauge_exits_3(self, operation, tmp_path, capsys):
        # x^4 overflows at x = 1e150, inside the coordinate bound; numpy must not warn.
        src = tmp_path / "big.json"
        src.write_text(json.dumps({
            "name": "big", "operations": [operation],
            "definitions": {"big": {"id": "custom.regular", "coefficients": [[4, 0, 0, 1]]}}}))
        assert main(["run", str(src), "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert "NonFinite" in captured.out and "1e+150" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_overflowing_flux_through_the_entry_point_exits_2(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(abgauge.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "abgauge",
                               "eval", "solenoid.AS", "--at", "2,0,0", "--R", "1e200"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "flux" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["phase", "open", "--arc=1:2"],
        ["phase", "open", "--segment=1,0,0"],
        ["phase", "loop", "--polyline=1,0,0;0,1"],
        ["landau", "compare", "--corner=1,2,3"],
    ])
    def test_malformed_flag_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
