import pytest

from abgauge.errors import NoConvergence
from abgauge.extrapolation import refine


def _recorded(values):
    """A level function over a list of values that records the levels it was asked for."""
    calls = []

    def level_value(k):
        calls.append(k)
        return values[k]
    return level_value, calls


def _close(cur, prev):
    return abs(cur - prev) < 1e-3


class TestRefine:
    def test_returns_first_agreeing_pair(self):
        level_value, calls = _recorded([1.0, 0.5, 0.2501, 0.25, 0.25])
        assert refine(level_value, _close, 8, "sequence") == (0.25, 0.2501, 3)
        assert calls == [0, 1, 2, 3]

    def test_agreement_at_level_one(self):
        level_value, calls = _recorded([2.0, 2.0])
        assert refine(level_value, _close, 8, "sequence") == (2.0, 2.0, 1)
        assert calls == [0, 1]

    @pytest.mark.parametrize("max_levels", [1, 3, 6])
    def test_failure_evaluates_every_level_once(self, max_levels):
        level_value, calls = _recorded([float(k) for k in range(10)])
        with pytest.raises(NoConvergence) as info:
            refine(level_value, _close, max_levels, "counting sequence")
        assert calls == list(range(max_levels + 1))
        message = str(info.value)
        assert message.startswith("counting sequence did not converge")
        assert f"within {max_levels} doublings" in message
        assert f"{float(max_levels - 1)!r} and {float(max_levels)!r}" in message

    def test_stop_test_sees_value_then_previous(self):
        seen = []

        def converged(cur, prev):
            seen.append((cur, prev))
            return len(seen) == 2
        value, previous, level = refine(lambda k: 10 * k, converged, 5, "sequence")
        assert seen == [(10, 0), (20, 10)]
        assert (value, previous, level) == (20, 10, 2)
