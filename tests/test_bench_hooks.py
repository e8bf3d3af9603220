"""Every function and method the benchmark's tracer hooks still exists in abgauge.

perfbench/spans.py names each hook target by module and dotted attribute.  A
target that is renamed or deleted leaves its span empty, and every metric taken
from it reads null in a traced run.  Each target is resolved here as the tracer
resolves it; the tracer itself is never installed.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import HOOKS  # noqa: E402  (the benchmark's span table)


@pytest.mark.parametrize("module_name, attr",
                         [(module_name, attr) for _, module_name, attr, _ in HOOKS],
                         ids=[f"{module_name}:{attr}" for _, module_name, attr, _ in HOOKS])
def test_hook_target_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
