"""Traced CLI launch for the per-layer run.

    python cli_child.py SPANS_JSON ARG...

Behaves like ``python -m abgauge ARG...`` but times the import of
abgauge.cli as a span, wraps abgauge's modules with the benchmark's tracer,
and writes the spans to SPANS_JSON before exiting with main()'s code.
"""

import json
import sys
import time

from spans import Tracer

tracer = Tracer()
tracer.request = 0
t0 = time.perf_counter()
import abgauge.cli  # noqa: E402

tracer.add_span("cli.import", t0, time.perf_counter())
tracer.install()
try:
    code = abgauge.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans(), "missing": sorted(tracer.missing),
                   "counters": tracer.counters}, fh)
sys.exit(code)
