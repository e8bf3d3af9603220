#!/usr/bin/env python3
"""Benchmark of the abgauge toolkit: one closed-loop client, one workload.

    python3 perfbench/run.py --workload oracle|loops|scans|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  A
request is either one generated scenario run through scenario_from_dict,
run_scenario and write_outputs, or one fresh ``python -m abgauge`` process.
Each request waits for the previous one.  Inputs come from --seed alone and
every output is checked against expectations the generator derives from
its own closed forms.

With --trace 0 the last stdout line holds the end-to-end metrics, whose
request times are scaled to a reference speed (see REFERENCES); with
--trace 1 it holds the per-layer metrics of a traced pass over a fixed
number of requests, timed against an untraced pass over the same requests.
Scratch files, results and spans go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import gen
import spans

# One BLAS thread: a single client runs on one core, and OpenBLAS threads
# spinning on the second core of a small shared machine add noise to every
# numpy-heavy request.  Set before numpy is first imported; children inherit it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# p90 needs at least ten samples beyond it, so a run measures for
# --seconds and at least MIN_REQUESTS requests, but never longer than
# MAX_MEASURE_S so that the run ends within its time limit.
MIN_REQUESTS = 100
MAX_MEASURE_S = 130.0
SETUP_LAUNCHES = 7
# The speed of a shared machine drifts by a quarter and more over tens of
# seconds.  A fixed piece of work of the kind the workload's requests do,
# timed before every request on the same CPU, follows that drift.  Each
# request's wall is scaled by the work's nominal time over its median time
# across the REFERENCE_WINDOW requests around it (see scaled_walls).
REFERENCE_WINDOW = 21
# Requests in each pass of a traced run, fixed so that counts repeat.
TRACE_REQUESTS = {"oracle": 40, "loops": 45, "scans": 60, "cli": 16}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python_reference_ms() -> float:
    """Wall time of 20 000 integer multiply-adds in the interpreter."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return 1e3 * (time.perf_counter() - t0)


@functools.cache
def _kernel_inputs():
    import numpy as np

    return (np.linspace(0.1, 2.0, 384), np.linspace(-3.0, 3.0, 256) ** 2,
            np.linspace(0.0, 1.0, 256))


def numpy_reference_ms() -> float:
    """Wall time of a 384 x 256 inverse-distance kernel times a vector: the
    shape of one Biot-Savart quadrature sum."""
    import numpy as np

    a, b, w = _kernel_inputs()
    t0 = time.perf_counter()
    float((1.0 / np.sqrt(a[:, None] + b[None, :]) @ w).sum())
    return 1e3 * (time.perf_counter() - t0)


# Per workload: (reference timer, nominal ms).  The nominal times are about
# the median reference times on a 2-vCPU 2.1 GHz Xeon VM, so scaled times
# stay close to wall times there.  abgauge itself never runs in them.
REFERENCES = {"oracle": (numpy_reference_ms, 0.45), "loops": (python_reference_ms, 1.5),
              "scans": (python_reference_ms, 1.5), "cli": (python_reference_ms, 1.5)}


def calibration_ms() -> float:
    """Median of nine interpreter reference loops: the machine's speed now.

    Recorded before and after each run so that runs slowed by other load on
    a shared machine are visible next to their results.
    """
    return statistics.median(python_reference_ms() for _ in range(9))


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": version("numpy"), "jsonschema": version("jsonschema"),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "blas_threads": BLAS_THREADS,
            "loadavg_before": os.getloadavg(), "calibration_ms_before": calibration_ms()}


# ---------------------------------------------------------------------------
# Clients: one request at a time, outputs checked after the clock stops
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and the largest share of tol used."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tol_used_max = 0.0
        self.reasons = []

    def add(self, outcomes, label) -> None:
        for out in outcomes:
            self.attempted += 1
            if not out.ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(f"{label}: {out.why}")
            if out.tol_used is not None:
                self.tol_used_max = max(self.tol_used_max, out.tol_used)


class ScenarioClient:
    """Runs scenario requests in this process."""

    def __init__(self, out_dir: Path):
        import abgauge.cli  # noqa: F401  (set-up imports the CLI too)
        from abgauge import scenario

        self.scenario = scenario
        self.out_dir = out_dir

    def call(self, request: dict, tracer=None):
        """Returns (wall seconds, output bytes, outcomes)."""
        s = self.scenario
        raw = request["scenario"]
        t0 = time.perf_counter()
        try:
            record = s.run_scenario(s.scenario_from_dict(raw))
            s.write_outputs(record, self.out_dir, raw["output"]["format"])
            error = None
        except Exception as exc:  # every failure is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        n = len(raw["operations"])
        if error is not None:
            return wall, b"", [checks.Outcome(False, None, error)] * n
        data = (self.out_dir / f"{raw['name']}.json").read_bytes()
        try:
            payload = json.loads(data)
        except ValueError as exc:
            return wall, data, [checks.Outcome(False, None, f"record is not JSON: {exc}")] * n
        return wall, data, checks.check_record(raw, payload, request["extra_checks"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliClient:
    """Runs each request as a fresh interpreter, one child at a time."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.env = _child_env()
        self.peak_kb = 0
        self.main_s = []

    def call(self, request: dict, tracer=None):
        base = request["repeat_of"] if request["repeat_of"] is not None else request["index"]
        out = str(self.out_dir / f"r{base}")
        argv = [a.replace(gen.OUT, out) for a in request["argv"]]
        if request["verb"] == "run":
            scenario_file = self.out_dir / f"{request['name']}.json"
            scenario_file.write_text(json.dumps(request["scenario"]), encoding="utf-8")
            argv = [a.replace(gen.SCENARIO_FILE, str(scenario_file)) for a in argv]
        spans_file = self.out_dir / "child-spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "abgauge", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
        with open(self.out_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self.env)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if tracer is not None and spans_file.exists():
            dump = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.merge(dump, tracer.request)
            self.main_s += [e - s for name, s, e, _, _ in dump["spans"] if name == "cli.main"]
            spans_file.unlink()

        def read_text(suffix):
            return Path(out + suffix).read_text(encoding="utf-8")

        produced = stdout
        for suffix in (".svg", f"/{request['name']}.json"):
            if Path(out + suffix).exists():
                produced += Path(out + suffix).read_bytes()
        outcomes = checks.check_cli(request, proc.returncode, stdout.decode(errors="replace"),
                                    read_text)
        if proc.returncode != 0:
            tail = (self.out_dir / "stderr.txt").read_text(errors="replace")[-300:]
            outcomes = [checks.Outcome(False, None, f"{o.why}: {tail}") for o in outcomes]
        return wall, produced, outcomes

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Launch timings
# ---------------------------------------------------------------------------

def _launch(cmd) -> tuple:
    """(wall seconds until the child's first stdout line, that line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            cwd=ROOT, env=_child_env())
    line = proc.stdout.readline()
    wall = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"{cmd[1:]} exited with {proc.returncode}")
    return wall, line


def setup_launches(first_request: dict, scratch: Path) -> dict:
    """Time SETUP_LAUNCHES fresh interpreters up to the first timed request.

    One unmeasured launch first fills the bytecode and file caches.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    if first_request["kind"] == "scenario":
        path = scratch / "first-request.json"
        path.write_text(json.dumps(first_request["scenario"]), encoding="utf-8")
        cmd.append(str(path))
    walls, imports = [], []
    for k in range(SETUP_LAUNCHES + 1):
        wall, line = _launch(cmd)
        probe = json.loads(line)
        if not Path(probe["abgauge"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"abgauge imported from {probe['abgauge']}, not {SRC}")
        if k:
            walls.append(wall)
            imports.append(probe["import_s"])
    return {"wall": walls, "import": imports}


def interpreter_launches() -> list:
    """Bare interpreter start and exit; its stdout closes at exit."""
    cmd = [sys.executable, "-c", "pass"]
    _launch(cmd)
    return [_launch(cmd)[0] for _ in range(SETUP_LAUNCHES)]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _serve(client, request, tally, outputs, tracer=None) -> float:
    """One request: time it, check it, and compare repeats byte for byte."""
    wall, data, outcomes = client.call(request, tracer)
    label = f"request {request['index']}"
    tally.add(outcomes, label)
    base = request["repeat_of"]
    if base is not None and base in outputs:
        same = outputs[base] == data
        tally.add([checks.Outcome(same, None, "" if same else
                                  f"output differs from request {base}")], label)
    else:
        outputs.setdefault(request["index"], data)
    return wall


def timed_run(args, client, tally) -> tuple:
    """(request walls, reference times); one reference before each request."""
    reference_ms = REFERENCES[args.workload][0]
    outputs = {}
    _serve(client, gen.request(args.workload, args.seed, -1), tally, {})
    walls, refs = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and len(walls) >= MIN_REQUESTS) or elapsed >= MAX_MEASURE_S:
            break
        refs.append(reference_ms())
        walls.append(_serve(client, gen.request(args.workload, args.seed, len(walls)),
                            tally, outputs))
    return walls, refs


def scaled_walls(walls, refs, nominal_ms) -> list:
    """Each wall scaled by nominal_ms over the median reference time of the
    REFERENCE_WINDOW requests around it: its wall on a machine where the
    reference takes nominal_ms."""
    half = REFERENCE_WINDOW // 2
    out = []
    for i, wall in enumerate(walls):
        lo = max(0, min(i - half, len(refs) - REFERENCE_WINDOW))
        out.append(wall * nominal_ms / statistics.median(refs[lo:lo + REFERENCE_WINDOW]))
    return out


def traced_run(args, client, tally) -> dict:
    """Each request untraced, then traced right after it on the same inputs.

    Interleaving keeps both passes under the same machine load, so their
    ratio is the tracing overhead; traced outputs must match byte for byte.
    """
    outputs = {}
    _serve(client, gen.request(args.workload, args.seed, -1), tally, {})
    tracer = spans.Tracer()
    untraced, walls = [], {}
    for i in range(TRACE_REQUESTS[args.workload]):
        request = gen.request(args.workload, args.seed, i)
        untraced.append(_serve(client, request, tally, outputs))
        base = i if request["repeat_of"] is None else request["repeat_of"]
        tracer.request = i
        if args.workload != "cli":
            tracer.install()
        try:
            walls[i] = _serve(client, dict(request, repeat_of=base), tally, outputs, tracer)
        finally:
            tracer.uninstall()
    return {"tracer": tracer, "walls": walls,
            "overhead": sum(walls.values()) / sum(untraced)}


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "abgauge" / "__init__.py").is_file():
        print(f"error: no abgauge sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    env = environment(args)
    # One CPU for the client and its children, so that the reference work
    # is timed on the CPU that serves the requests.
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        first = gen.request(args.workload, args.seed, 0)
        setup = setup_launches(first, scratch)
        out_dir = scratch / "out"
        out_dir.mkdir()
        client = CliClient(out_dir) if args.workload == "cli" else ScenarioClient(out_dir)
        if args.trace:
            interp = interpreter_launches()
            traced = traced_run(args, client, tally)
            tracer = traced["tracer"]
            launches = {"interpreter": interp, "import": setup["import"],
                        "main": getattr(client, "main_s", [])}
            metrics = spans.layer_metrics(tracer, traced["walls"], traced["overhead"], launches)
            units = {m["name"]: m["unit"] for m in _declared("per_layer")}
            spans.save(tracer, WORK / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            raw, refs = timed_run(args, client, tally)
            walls = scaled_walls(raw, refs, REFERENCES[args.workload][1])
            env["unscaled"] = {"requests_per_s": len(raw) / sum(raw),
                               "latency_p50_ms": 1e3 * statistics.median(raw),
                               "latency_p90_ms": 1e3 * quantile(raw, 0.90),
                               "reference_ms": statistics.median(refs)}
            setup_s = statistics.median(setup["import"] if args.workload == "cli"
                                        else setup["wall"])
            metrics = {
                "ref_requests_per_s": len(walls) / sum(walls),
                "ref_latency_p50_ms": 1e3 * statistics.median(walls),
                "ref_latency_p90_ms": 1e3 * quantile(walls, 0.90),
                "tol_used_max_plus1": 1.0 + tally.tol_used_max,
                "peak_rss_mb": client.peak_rss_mb(),
                "setup_s": setup_s,
            }
            units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
            env["requests"] = len(walls)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env["loadavg_after"] = os.getloadavg()
    env["calibration_ms_after"] = calibration_ms()
    env["op_fail_ratio"] = tally.failed / max(1, tally.attempted)
    env["tol_used_max"] = tally.tol_used_max
    env["failures"] = tally.reasons
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:45s} {value!s:>24} {units.get(name, '')}")
    for name, value in env.get("unscaled", {}).items():
        print(f"{'unscaled ' + name:45s} {value!s:>24}")
    print(f"{'op_fail_ratio':45s} {env['op_fail_ratio']!s:>24} ratio")
    print(f"{'tol_used_max':45s} {tally.tol_used_max!s:>24} ratio")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units.get(name, "")}
                          for name, value in metrics.items()}}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _declared(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


if __name__ == "__main__":
    sys.exit(main())
