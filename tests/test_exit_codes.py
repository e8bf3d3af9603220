"""Every scenario ends in exit code 0, 1, 2 or 3 and a record, never a traceback.

Scenario dicts are built from degenerate pieces: zero, negative, non-finite
and oversized numbers, arc angles at their bound and just past it, radii on
the shell, points on the axis and the branch cut, speeds of 1 or more,
mis-shaped vectors, empty gauge lists and missing parameters.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from abgauge.cli import main
from abgauge.errors import ParseError
from abgauge.scenario import scenario_from_dict


def mostly(usual, rare, one_in):
    """usual, except about one draw in one_in comes from rare.

    The rare branch sits mid-range because Hypothesis favours the ends.
    """
    return st.integers(0, one_in - 1).flatmap(lambda k: rare if k == one_in // 2 else usual)


# Degenerate yet schema-valid: zero, negative, on the unit shell, tiny.
edge = st.sampled_from([0.0, -1.0, 1.0, 1e-12])
# NaN, infinities, and an integer no float can hold.
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])
number = mostly(st.floats(-4.0, 4.0), st.one_of(edge, edge, non_finite), 8)
radius = mostly(st.floats(0.05, 4.0), st.one_of(edge, edge, non_finite), 8)
point = st.one_of(
    st.lists(number, min_size=3, max_size=3),
    # on the axis, on the unit shell, on the negative x-axis (branch cut)
    st.sampled_from([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.5],
                     [-2.0, 0.0, 0.0]]))
misshaped = st.one_of(st.lists(number, max_size=2), st.lists(number, min_size=4, max_size=4),
                      st.just("x"))
vector = mostly(point, misshaped, 20)
# An arc angle is bounded by 50 in magnitude.
angle = st.one_of(number, st.sampled_from([-50.0, 50.0, -50.000001, 50.000001]))
speed = st.one_of(vector, st.sampled_from([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [2.0, 0.0, 0.0]]))

path = st.one_of(
    st.fixed_dictionaries({"kind": st.just("circle"), "center": vector, "radius": radius,
                           "turns": st.integers(-2, 2)}),
    st.fixed_dictionaries({"kind": st.just("arc"), "center": vector, "radius": radius,
                           "phi0": angle, "phi1": angle, "reverse": st.booleans()}),
    st.fixed_dictionaries({"kind": st.just("segment"), "from": vector, "to": vector}),
    st.fixed_dictionaries({"kind": st.just("polyline"),
                           "points": st.lists(vector, min_size=1, max_size=4)}),
)
field = st.sampled_from(["solenoid.AS", "solenoid.Aprime", "solenoid.B", "gauge.sing",
                         "gauge.chi1", "gauge.chitilde", "landau.L1", "landau.BB"])
gauge = st.sampled_from(["none", "gauge.sing", "gauge.chi1", "gauge.chitilde"])
scan_op = st.sampled_from(["curl_scan", "div_scan", "field_max_abs", "helmholtz_classify"])


def op(name, **params):
    return st.fixed_dictionaries({"op": st.just(name), **params})


operation_templates = st.one_of(
    op("eval_field", field=st.one_of(field, st.just("solenoid.AS.numeric")), at=vector),
    op("numeric_potential", at=vector),
    op("line_integral", field=field, path=path,
       tol=mostly(st.just(1e-9), st.sampled_from([0.0, -1.0]), 8)),
    op("loop_phase", loop=path, gauge=gauge),
    op("open_phase", path=path, gauge=gauge),
    op("phase_shift", path=path, gauge_a=gauge, gauge_b=gauge),
    op("gauge_scan", path=path, gauges=st.lists(gauge, max_size=3)),
    op("winding_number", loop=path),
    op("shrinking_loop", field=field, center=vector, eps=st.lists(radius, max_size=4)),
    op("interaction_energy", model=st.sampled_from(["boyer", "virtual_photon", "other"]),
       v=speed, at=vector),
    op("energy_cancellation", v=speed, at=vector),
    op("disc_flux", field=field, with_string=st.booleans(),
       disc=st.fixed_dictionaries({"center": vector, "radius": radius})),
    st.fixed_dictionaries({"op": scan_op, "field": field, "n": st.integers(0, 4),
                           "rho": st.lists(radius, min_size=2, max_size=2)}),
    op("string_flux"),
)


@st.composite
def operation(draw):
    spec = draw(operation_templates)
    keys = sorted(k for k in spec if k != "op")
    if keys and draw(mostly(st.just(False), st.just(True), 10)):
        del spec[draw(st.sampled_from(keys))]
    return spec


scenario = st.fixed_dictionaries({
    "name": st.just("prop"),
    "solenoid": st.fixed_dictionaries({"R": radius, "B": number}),
    "operations": st.lists(operation(), min_size=1, max_size=3),
})


@given(scenario)
# A disc whose points overflow is refused at parse, with no numpy warning.
@example({"name": "prop", "solenoid": {"R": 1.0, "B": 1.0},
          "operations": [{"op": "disc_flux", "field": "solenoid.B",
                          "disc": {"center": [1e308, 0.0, 0.0], "radius": 1e308}}]})
def test_every_run_ends_in_an_exit_code_and_a_record(raw):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "scenario.json"
        src.write_text(json.dumps(raw))  # NaN and Infinity tokens survive the round trip
        try:
            scenario_from_dict(json.loads(src.read_text()))
            parsed = True
        except ParseError:
            parsed = False
        code = main(["run", str(src), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2, 3)
        assert (code == 2) == (not parsed)
        assert (Path(tmp) / "out" / "prop.json").exists() == parsed
        if parsed:  # a record holds no NaN or Infinity token
            json.loads((Path(tmp) / "out" / "prop.json").read_text(),
                       parse_constant=lambda token: pytest.fail(f"{token} in the record"))
