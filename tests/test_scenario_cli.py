import json
import math
import re
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from abgauge import (DiscSpec, LandauField, Point, SolenoidBField, SolenoidSpec,
                     SolenoidTransverseField, TransformedPotentialField, disc_flux)
from abgauge.calculus import _polar_flux_level
from abgauge.cli import main
from abgauge.errors import ParseError
from abgauge.scenario import (exit_code, load_scenario, record_csv, record_json,
                              run_scenario, scenario_from_dict, sidecar_json,
                              write_outputs)
from abgauge.svgmap import emit_field_map

BUNDLED = ["loop_flux", "string_circulation", "singular_gauge_expulsion",
           "flux_cancellation", "gauge_invariance", "partial_phase",
           "biot_savart_check", "interior_curl", "landau_gauges",
           "interaction_energy", "helmholtz_classification"]


def bundled_path(name: str) -> str:
    return str(resources.files("abgauge").joinpath(f"scenarios/{name}.json"))


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
    ])
    def test_operation_parameters_checked_at_parse(self, op, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            scenario_from_dict(minimal_scenario(operations=[op]))

    def test_expect_needs_tolerance(self):
        raw = minimal_scenario()
        del raw["operations"][0]["expect"]["tol"]
        with pytest.raises(ParseError):
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
        raw["operations"] = [{"op": "numeric_potential", "at": [1.0001, 0, 0]}]
        record = run_scenario(scenario_from_dict(raw))
        assert exit_code(record) == 3
        assert "TooCloseToShell" in record.reports[0].error

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

    def test_disc_flux_reports_its_last_level_difference(self):
        # An off-centre disc cutting the shell: B jumps inside the panels,
        # so successive levels differ well above rounding.
        raw = minimal_scenario(
            discs={"d": {"center": [0.5, 0, 0], "radius": 1.0}},
            operations=[{"op": "disc_flux", "field": "solenoid.B", "disc": "d", "tol": 1e-3}])
        rep = run_scenario(scenario_from_dict(raw)).reports[0]
        b, disc = SolenoidBField(SolenoidSpec(1.0, 1.0)), DiscSpec(Point(0.5, 0, 0), 1.0)
        levels = [_polar_flux_level(b, disc, [0.0, 1.0], k, 10, 10) for k in range(4)]
        assert abs(levels[2] - levels[1]) >= 1e-3 > abs(levels[3] - levels[2])
        assert rep.value == levels[3]
        assert rep.error_estimate == abs(levels[3] - levels[2]) > 0.0
        assert disc_flux(b, disc, tol=1e-3).n_points == 100 * 2 ** 7

    def test_single_half_length_estimate_is_null(self):
        raw = minimal_scenario(quadrature={"half_lengths": [8.0]},
                               operations=[{"op": "numeric_potential", "at": [2, 0, 0]}])
        text = record_json(run_scenario(scenario_from_dict(raw)))

        def reject(token):
            raise ValueError(f"{token} is not JSON")
        report = json.loads(text, parse_constant=reject)["reports"][0]
        assert report["error"] is None
        assert report["error_estimate"] is None

    def test_numeric_b_field_estimate_is_null(self):
        raw = minimal_scenario(quadrature={"half_lengths": [8.0, 16.0]},
                               operations=[{"op": "numeric_b_field", "at": [2, 0, 0]}])
        report = run_scenario(scenario_from_dict(raw)).reports[0]
        assert report.error is None
        assert report.error_estimate is None

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

    def test_every_operation_reported_once(self):
        sc = load_scenario(bundled_path("loop_flux"))
        record = run_scenario(sc)
        assert [r.index for r in record.reports] == list(range(len(sc.operations)))


class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        sc = load_scenario(bundled_path("helmholtz_classification"))
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert record_json(a) == record_json(b)
        assert record_csv(a) == record_csv(b)

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

    def test_run_numerical_error_exits_3(self, tmp_path):
        raw = {"name": "shell", "operations": [
            {"op": "numeric_potential", "at": [1.0001, 0, 0]}]}
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
        assert main(["eval", "solenoid.AS.numeric", "--at", "2,0,0",
                     "--nphi", "32", "--half-lengths", "8,16,32",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"][1] == pytest.approx(0.25, rel=1e-4)

    def test_phase_open_uneven_polyline(self, capsys):
        verts = ";".join(f"2,{0.1 * k:.1f},0" for k in range(11)) + ";-40,1.1,0"
        assert main(["phase", "open", "--tol", "1e-9", "--polyline", verts,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase"] == pytest.approx(0.5 * math.atan2(1.1, -40.0), abs=1e-8)

    def test_error_labels(self, tmp_path, capsys):
        assert main(["eval", "solenoid.AS.numeric", "--at", "1.0001,0,0"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: TooCloseToShell: ")
        out = tmp_path / "nodir" / "x.svg"
        assert main(["plot", "field", "solenoid.AS", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("operation error: FileNotFoundError: ")
        assert main(["string", "--eps=1e-3,1e-2,1e-1"]) == 3
        assert capsys.readouterr().err.startswith("operation error: ValueError: ")

    def test_removed_nz_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "solenoid.AS.numeric", "--at", "2,0,0", "--nz", "8"])
        assert exc.value.code == 2


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
    ])
    def test_degenerate_argv(self, argv, code, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "map.svg").exists()

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
