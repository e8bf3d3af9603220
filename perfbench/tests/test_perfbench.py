"""Tests of the benchmark itself: inputs, schema, correctness, tracing, contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEEDS = (1, 2)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """run.py pointed at this checkout, writing into a temporary directory."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "SRC", ROOT / "src")
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_REQUESTS", 12)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 2)
    monkeypatch.setattr(run, "TRACE_REQUESTS", dict.fromkeys(gen.WORKLOADS, 3))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    return run


def _result(bench, *argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert bench.main(list(argv)) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _declared(kind):
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [gen.request(workload, 7, i) for i in range(-1, 25)]
    again = [gen.request(workload, 7, i) for i in range(-1, 25)]
    assert json.dumps(first) == json.dumps(again)
    other = [gen.request(workload, 8, i) for i in range(-1, 25)]
    assert json.dumps(first) != json.dumps(other)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_repeats_reuse_an_earlier_request(workload):
    r = gen.request(workload, 3, 19)
    assert r["repeat_of"] == 14
    assert {k: v for k, v in r.items() if k not in ("index", "repeat_of")} == \
        {k: v for k, v in gen.request(workload, 3, 14).items() if k not in ("index", "repeat_of")}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_generated_scenario_passes_the_schema(workload):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "src/abgauge/schema/scenario.schema.json").read_text())
    seen = 0
    for seed in SEEDS:
        for i in range(-1, 40):
            r = gen.request(workload, seed, i)
            if "scenario" in r:
                jsonschema.validate(r["scenario"], schema)
                assert all("expect" in op for op in r["scenario"]["operations"])
                seen += 1
    assert seen > 0


def test_timed_run_never_uses_interfaces_later_removed():
    for workload in gen.WORKLOADS:
        text = json.dumps([gen.request(workload, 1, i) for i in range(40)])
        for banned in ('"parallel"', "--parallel", '"n_z"', "--nz"):
            assert banned not in text
    assert "_h_" not in (BENCH / "run.py").read_text()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_untraced_run_is_correct_on_two_seeds(bench, workload):
    for seed in SEEDS:
        res = _result(bench, "--workload", workload, "--seed", str(seed),
                      "--seconds", "0.1", "--trace", "0")
        assert res["failed"] == 0 and res["correct"] is True, res
        assert res["attempted"] >= 12
        assert sorted(res["metrics"]) == sorted(_declared("end_to_end"))
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_scaling_follows_the_reference_loop_and_nothing_else():
    n, nominal = 3 * run.REFERENCE_WINDOW, 1.5
    walls = [0.1 + 0.001 * i for i in range(n)]
    assert run.scaled_walls(walls, [nominal] * n, nominal) == pytest.approx(walls)
    # A machine twice as slow doubles both the reference and the request.
    slow = run.scaled_walls([2 * w for w in walls], [2 * nominal] * n, nominal)
    assert slow == pytest.approx(walls)
    # A slow stretch in the middle only rescales the requests around it.
    refs = [nominal] * n
    refs[n // 3:2 * n // 3] = [2 * nominal] * (n // 3)
    scaled = run.scaled_walls(walls, refs, nominal)
    assert scaled[0] == pytest.approx(walls[0]) and scaled[-1] == pytest.approx(walls[-1])
    assert scaled[n // 2] == pytest.approx(walls[n // 2] / 2)
    assert len(run.scaled_walls(walls[:5], refs[:5], nominal)) == 5


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reference_work_never_runs_abgauge(workload):
    timer, nominal = run.REFERENCES[workload]
    assert timer() > 0 and nominal > 0
    assert "abgauge" not in timer.__code__.co_names


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_reports_every_layer_metric(bench, workload):
    res = _result(bench, "--workload", workload, "--seed", "1", "--seconds", "0.1",
                  "--trace", "1")
    assert res["failed"] == 0 and res["correct"] is True, res
    assert sorted(res["metrics"]) == sorted(_declared("per_layer"))
    nulls = [k for k, m in res["metrics"].items() if m["value"] is None]
    assert nulls == []


@pytest.mark.parametrize("workload", ("loops", "scans"))
def test_traced_self_times_fit_in_request_wall_time(bench, workload, tmp_path):
    client = bench.ScenarioClient(tmp_path)
    args = SimpleNamespace(workload=workload, seed=2)
    traced = bench.traced_run(args, client, bench.Tally())
    total_self = sum(own for _, _, own in spans.self_times(traced["tracer"]).values())
    assert 0.0 < total_self <= sum(traced["walls"].values())
    assert spans.unattributed(traced["tracer"], traced["walls"]) >= 0.0


def test_vanished_hook_reports_null(monkeypatch):
    import abgauge.geometry  # noqa: F401

    hooks = [h if h[0] != "geometry.point_evals" else
             ("geometry.point_evals", "abgauge.geometry", "PathSpec._gone", "count")
             for h in spans.HOOKS]
    monkeypatch.setattr(spans, "HOOKS", hooks)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = spans.layer_metrics(tracer, {}, 1.0, {})
    assert metrics["geometry.point_evals"] is None
    assert metrics["geometry.sample.calls"] == 0


def test_uninstall_restores_the_program():
    import abgauge.calculus as calculus
    import abgauge.geometry as geometry
    import abgauge.scenario as scenario

    before = (scenario.line_integral, calculus.line_integral, geometry.PathSpec.sample,
              dict(scenario.HANDLERS))
    tracer = spans.Tracer()
    tracer.install()
    assert scenario.line_integral is not before[0]
    tracer.uninstall()
    after = (scenario.line_integral, calculus.line_integral, geometry.PathSpec.sample,
             dict(scenario.HANDLERS))
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *cmd[1:], "--workload", "loops", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 1 <= len(spec["paths"]) <= 16
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith("/")
               and ".." not in p for p in spec["paths"])
    assert len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in every) and len(every) == len(set(every))
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
