"""The scripts under scripts/ run end to end against the installed package."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import abgauge

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(abgauge.__file__).parents[1])}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name),
                           *map(str, args)], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_biot_savart_convergence_writes_its_table(tmp_path):
    out = tmp_path / "convergence.csv"
    proc = run_script("biot_savart_convergence.py", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    # Four points, each with four half-lengths, one extrapolation and four orders.
    assert len(rows) == 4 * (4 + 1 + 4)
    extrapolated = [float(r["rel_err"]) for r in rows if r["mode"] == "extrapolated"]
    assert max(extrapolated) < 1e-5

