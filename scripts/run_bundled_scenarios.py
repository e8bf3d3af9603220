#!/usr/bin/env python3
"""Run every bundled scenario and collect its outputs under results/.

Exit status is the worst per-scenario code (0 ok, 1 expectation failure,
3 numerical error), so this doubles as a quick end-to-end health check.
"""

import sys
import time
from importlib import resources
from pathlib import Path

from abgauge.scenario import exit_code, load_scenario, run_scenario, write_outputs


def bundled_scenarios() -> list:
    """The package's scenarios/*.json files, sorted by name."""
    folder = resources.files("abgauge").joinpath("scenarios")
    return sorted((p for p in folder.iterdir() if p.name.endswith(".json")),
                  key=lambda p: p.name)


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    worst = 0
    for path in bundled_scenarios():
        name = path.name.removesuffix(".json")
        t0 = time.monotonic()
        scenario = load_scenario(str(path))
        record = run_scenario(scenario)
        code = exit_code(record)
        worst = max(worst, code)
        write_outputs(record, out_dir, "both")
        n_ok = sum(1 for r in record.reports if r.passed is not False and r.error is None)
        print(f"{name:32s} exit={code} ops={n_ok}/{len(record.reports)} "
              f"t={time.monotonic() - t0:5.2f}s")
    print(f"outputs in {out_dir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
