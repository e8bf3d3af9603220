"""Set-up probe: a fresh interpreter imports abgauge and its CLI, then parses
the first request of a run.

    python setup_probe.py [SCENARIO_JSON]

Prints one JSON line with the import time and the parse time, measured
inside the child; the parent times the launch from outside.
"""

import json
import sys
import time

t0 = time.perf_counter()
import abgauge  # noqa: E402
import abgauge.cli  # noqa: E402,F401

t1 = time.perf_counter()
if len(sys.argv) > 1:
    from abgauge.scenario import scenario_from_dict

    with open(sys.argv[1], encoding="utf-8") as fh:
        scenario_from_dict(json.load(fh))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "abgauge": abgauge.__file__}),
      flush=True)
