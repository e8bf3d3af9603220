import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

# "suite" is the default; "deep" (pytest --hypothesis-profile=deep) runs ten times
# as many examples, as the CI property step does.
for _name, _examples in (("suite", 30), ("deep", 300)):
    settings.register_profile(
        _name,
        max_examples=_examples,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
settings.load_profile("suite")


def pytest_configure(config):
    settings.load_profile(config.getoption("--hypothesis-profile") or "suite")


@pytest.fixture
def solenoid():
    from abgauge import SolenoidSpec
    return SolenoidSpec(R=1.0, B=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
