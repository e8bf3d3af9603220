import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import (LandauField, LoopSpec, PathSpec, PhaseProbe, PhaseReport,
                     PolynomialGauge, SingularSolenoidGauge, SolenoidSpec,
                     SolenoidTransverseField, VelocitySample, energy_cancellation,
                     gauge_dependence_scan, interaction_energy, interference_shift,
                     landau_link1, landau_link2, loop_phase, open_path_phase)
import abgauge.ab_phase as ab_phase
from abgauge.cli import main
from abgauge.errors import EndpointMismatch
from abgauge.scenario import exit_code, load_scenario, run_scenario, scenario_from_dict

from helpers import random_polynomial_gauge, simpson_path_integral

S = SolenoidSpec(1.0, 1.0)
PI = math.pi
HALF_CIRCLE = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI)
PARTIAL_PHASE = str(resources.files("abgauge").joinpath("scenarios/partial_phase.json"))


def assert_split_consistent(report):
    assert abs(report.phase - report.transverse_part - report.gauge_part) < 1e-10


class TestOpenPathPhase:
    def test_bare_half_circle_transverse(self):
        # Oracle: Simpson quadrature of the transverse potential on the arc.
        probe = PhaseProbe(solenoid=S)
        rep = open_path_phase(probe, HALF_CIRCLE)
        oracle = simpson_path_integral(SolenoidTransverseField(S), HALF_CIRCLE)
        assert oracle == pytest.approx(PI / 2, abs=1e-9)
        assert rep.transverse_part == pytest.approx(PI / 2, abs=1e-8)
        assert_split_consistent(rep)

    def test_regular_gauge_endpoint_values(self):
        probe = PhaseProbe(solenoid=S, gauge=PolynomialGauge(((1, 1, 0, 1.0),),
                                                             name="xy"))
        rep = open_path_phase(probe, HALF_CIRCLE)
        # chi = x y vanishes at both endpoints of the half circle.
        assert rep.gauge_part == pytest.approx(0.0, abs=1e-12)
        assert rep.phase == pytest.approx(rep.transverse_part, abs=1e-9)
        assert_split_consistent(rep)

    def test_singular_gauge_cancels_exterior_phase(self):
        probe = PhaseProbe(solenoid=S, gauge=SingularSolenoidGauge(S))
        rep = open_path_phase(probe, HALF_CIRCLE)
        assert rep.gauge_part == pytest.approx(-PI / 2, abs=1e-10)
        assert rep.phase == pytest.approx(0.0, abs=1e-8)
        assert rep.singular_gauge
        assert_split_consistent(rep)

    def test_charge_scales_phase(self):
        probe = PhaseProbe(solenoid=S, e=-2.0)
        rep = open_path_phase(probe, HALF_CIRCLE)
        assert rep.phase == pytest.approx(-PI, abs=1e-8)


class TestLoopPhase:
    def test_bare_loop(self):
        rep = loop_phase(PhaseProbe(solenoid=S), LoopSpec.circle((0, 0, 0), 2.0))
        assert rep.phase == pytest.approx(PI, abs=1e-8)
        assert rep.winding == 1

    def test_regular_gauge_leaves_loop_phase(self):
        probe = PhaseProbe(solenoid=S, gauge=PolynomialGauge(((2, 1, 0, 1.0),),
                                                             name="x2y"))
        rep = loop_phase(probe, LoopSpec.circle((0, 0, 0), 2.0))
        assert rep.phase == pytest.approx(PI, abs=1e-8)
        assert rep.gauge_part == pytest.approx(0.0, abs=1e-10)
        assert_split_consistent(rep)

    def test_singular_gauge_expels_loop_phase(self):
        probe = PhaseProbe(solenoid=S, gauge=SingularSolenoidGauge(S))
        rep = loop_phase(probe, LoopSpec.circle((0, 0, 0), 2.0))
        assert rep.phase == pytest.approx(0.0, abs=1e-8)
        assert rep.singular_gauge
        assert rep.notes
        assert rep.gauge_part == pytest.approx(-PI, abs=1e-10)
        assert_split_consistent(rep)

    def test_winding_two(self):
        rep = loop_phase(PhaseProbe(solenoid=S),
                         LoopSpec.circle((0, 0, 0), 2.0, turns=2))
        assert rep.phase == pytest.approx(2 * PI, abs=1e-8)
        assert rep.winding == 2

    def test_gauge_invariance_random_gauges_and_windings(self, rng):
        # 10 random smooth gauges, loops of winding -2..2.
        gauges = [random_polynomial_gauge(rng) for _ in range(10)]
        for w in (-2, -1, 1, 2):
            loop = LoopSpec.circle((0, 0, 0), 2.0, turns=w)
            for g in gauges[:3] if w != 1 else gauges:
                rep = loop_phase(PhaseProbe(solenoid=S, gauge=g), loop)
                assert abs(rep.phase - w * PI) < 1e-7

    def test_landau_base_field_loop(self):
        square = LoopSpec(PathSpec.polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0),
                                             (0, 1, 0), (0, 0, 0)]))
        phases = []
        for variant in ("S", "L1", "L2"):
            probe = PhaseProbe(base_field=LandauField(variant, 1.0))
            phases.append(loop_phase(probe, square).phase)
        assert all(p == pytest.approx(1.0, abs=1e-8) for p in phases)
        assert max(phases) - min(phases) < 1e-8

    def test_undefined_winding_is_noted(self):
        # The unit square from the origin has a corner on the axis, so its
        # winding count is undefined; the phase itself is still the flux.
        square = LoopSpec(PathSpec.polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0),
                                             (0, 1, 0), (0, 0, 0)]))
        rep = loop_phase(PhaseProbe(base_field=LandauField("S", 1.0)), square)
        assert rep.phase == pytest.approx(1.0, abs=1e-8)
        assert rep.winding is None
        assert any("AxisCrossing" in n for n in rep.notes)

    def test_edge_through_the_axis_between_samples_is_noted(self):
        # No sample of this square lands on the axis; the closed-form check
        # on its bottom edge still leaves the winding count undefined.
        square = LoopSpec(PathSpec.polyline([(-1, 0, 0), (1, 0, 0), (1, 2, 0),
                                             (-1, 2, 0), (-1, 0, 0)]))
        rep = loop_phase(PhaseProbe(base_field=LandauField("S", 1.0)), square)
        assert rep.phase == pytest.approx(4.0, abs=1e-8)
        assert rep.winding is None
        assert any(n.startswith("winding undefined: AxisCrossing") for n in rep.notes)


class TestInterference:
    def test_upper_minus_lower_encloses_flux(self):
        c1 = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI)
        c2 = PathSpec.arc((0, 0, 0), 2.0, 0.0, -PI)
        rep = interference_shift(PhaseProbe(solenoid=S), c1, c2)
        assert rep.phase == pytest.approx(PI, abs=1e-8)

    def test_matches_loop_over_difference(self):
        c1 = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI)
        c2 = PathSpec.arc((0, 0, 0), 2.0, 0.0, -PI)
        shift = interference_shift(PhaseProbe(solenoid=S), c1, c2).phase
        loop = LoopSpec.circle((0, 0, 0), 2.0)
        assert shift == pytest.approx(loop_phase(PhaseProbe(solenoid=S), loop).phase,
                                      abs=1e-9)

    def test_identical_arms_cancel_exactly(self):
        c = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.0)
        rep = interference_shift(PhaseProbe(solenoid=S), c, c)
        assert rep.phase == 0.0

    def test_non_enclosing_arms(self):
        # Both arms stay in the half-plane x > 1.5 where the potential is
        # curl free; oracle: Simpson quadrature of both arms.
        a = PathSpec.segment((2, -1, 0), (2, 1, 0))
        b = PathSpec.polyline([(2, -1, 0), (3, 0, 0), (2, 1, 0)])
        rep = interference_shift(PhaseProbe(solenoid=S), a, b)
        f = SolenoidTransverseField(S)
        oracle = simpson_path_integral(f, a) - simpson_path_integral(f, b)
        assert oracle == pytest.approx(0.0, abs=1e-9)
        assert rep.phase == pytest.approx(0.0, abs=1e-8)

    def test_gauge_part_cancels_for_regular_gauge(self):
        g = PolynomialGauge(((1, 0, 0, 0.6), (0, 1, 1, -0.3)), name="mix")
        c1 = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI)
        c2 = PathSpec.arc((0, 0, 0), 2.0, 0.0, -PI)
        rep = interference_shift(PhaseProbe(solenoid=S, gauge=g), c1, c2)
        assert rep.gauge_part == pytest.approx(0.0, abs=1e-10)

    def test_large_arms_share_endpoints(self):
        # Endpoints 3e4 from the origin agree only to rounding relative to that size.
        upper = PathSpec.arc((0, 0, 0), 3e4, 0.3, 2.0)
        lower = PathSpec.arc((0, 0, 0), 3e4, 0.3, 2.0 - 2 * PI)
        rep = interference_shift(PhaseProbe(solenoid=S), upper, lower)
        assert rep.phase == pytest.approx(S.flux, abs=1e-8)

    def test_endpoint_mismatch_rejected(self):
        c1 = PathSpec.segment((2, 0, 0), (3, 0, 0))
        c2 = PathSpec.segment((2, 0, 0), (3, 0.5, 0))
        with pytest.raises(EndpointMismatch):
            interference_shift(PhaseProbe(solenoid=S), c1, c2)


class TestGaugeScan:
    def test_segment_scan_matches_endpoint_arithmetic(self):
        path = PathSpec.segment((2, 0, 0), (3, 0, 0))
        gauges = [None,
                  PolynomialGauge(((1, 1, 0, 1.0),), name="xy"),
                  PolynomialGauge(((1, 0, 0, 1.0),), name="x")]
        rows = gauge_dependence_scan(path, gauges, PhaseProbe(solenoid=S))
        assert len(rows) == 3
        assert rows[0].phase == pytest.approx(0.0, abs=1e-10)
        assert rows[1].phase == pytest.approx(0.0, abs=1e-10)
        assert rows[2].phase == pytest.approx(1.0, abs=1e-8)

    def test_single_gauge_row(self):
        rows = gauge_dependence_scan(PathSpec.segment((2, 0, 0), (2, 1, 0)),
                                     [None], PhaseProbe(solenoid=S))
        assert len(rows) == 1

    def test_exterior_arc_with_singular_gauge(self):
        arc = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI / 4)
        rows = gauge_dependence_scan(arc, [None, SingularSolenoidGauge(S)],
                                     PhaseProbe(solenoid=S))
        assert rows[1].phase - rows[0].phase == pytest.approx(-PI / 8, abs=1e-8)
        assert abs(rows[1].transverse_part - rows[0].transverse_part) < 1e-10

    def test_closed_path_rejected(self):
        with pytest.raises(ValueError):
            gauge_dependence_scan(PathSpec.circle((0, 0, 0), 2.0), [None],
                                  PhaseProbe(solenoid=S))

    @staticmethod
    def drift_singular_gradient(monkeypatch, drift):
        # The singular gauge's gradient drifts by (0, drift, 0); its gauge part, an
        # endpoint difference of its value, does not.
        real = SingularSolenoidGauge.gradient
        monkeypatch.setattr(SingularSolenoidGauge, "gradient",
                            lambda self, p, azimuth=None: real(self, p, azimuth)
                            + np.array([0.0, drift, 0.0]))

    def test_drift_below_the_split_check_shows_in_the_value(self, monkeypatch):
        # The drift moves phase - gauge_part by drift * (the arc's rise, sqrt 2), below
        # PhaseReport's 1e-10, so only the scan's value can show it.
        self.drift_singular_gradient(monkeypatch, 3e-11)
        scenario = load_scenario(PARTIAL_PHASE)
        scan = run_scenario(scenario).reports[3]
        assert scan.op == "gauge_scan" and scan.error is None
        assert scan.value == pytest.approx(3e-11 * math.sqrt(2), rel=1e-3, abs=0.0)

    def test_broken_invariants_raise(self, monkeypatch, tmp_path):
        # A gauge gradient that drifts by 1e-9 must fail bundled partial_phase,
        # also under python -O.
        self.drift_singular_gradient(monkeypatch, 1e-9)
        assert main(["run", PARTIAL_PHASE, "--out", str(tmp_path)]) != 0
        record = json.loads((tmp_path / "partial_phase.json").read_text())
        assert record["reports"][3]["op"] == "gauge_scan"
        assert record["reports"][3]["pass"] is not True

    def test_transverse_integral_taken_once(self, monkeypatch):
        # One integral of A_S for the path, one of the full potential per gauge.
        calls = []
        real = ab_phase.line_integral

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ab_phase, "line_integral", counting)
        arc = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI / 4)
        rows = gauge_dependence_scan(
            arc, [None, SingularSolenoidGauge(S), PolynomialGauge(((1, 0, 0, 1.0),))],
            PhaseProbe(solenoid=S))
        assert len(calls) == 3
        assert [r.transverse_part for r in rows] == [rows[0].transverse_part] * 3

    def test_pairwise_differences_for_random_gauges(self, rng):
        path = PathSpec.polyline([(2, 0, 0), (2.5, 1, 0.5), (1.5, 2, 0)])
        gauges = [random_polynomial_gauge(rng) for _ in range(4)]
        rows = gauge_dependence_scan(path, gauges, PhaseProbe(solenoid=S))
        start, end = path.point_at(0.0), path.point_at(1.0)
        for i in range(4):
            for j in range(4):
                expected = ((gauges[i].value(end) - gauges[i].value(start))
                            - (gauges[j].value(end) - gauges[j].value(start)))
                assert rows[i].phase - rows[j].phase == pytest.approx(expected, abs=1e-8)


class TestPhaseReport:
    """The split check is relative to the largest of 1 and the three magnitudes."""

    def test_unit_scale_residual_raises(self):
        with pytest.raises(ValueError, match="phase split inconsistent"):
            PhaseReport(phase=0.5 + 2e-10, transverse_part=0.5, gauge_part=0.0,
                        error_estimate=None)

    def test_residual_scales_with_the_largest_part(self):
        PhaseReport(phase=3e300 + 3e284, transverse_part=1e300, gauge_part=2e300,
                    error_estimate=None)
        with pytest.raises(ValueError, match="phase split inconsistent"):
            PhaseReport(phase=1.0, transverse_part=1e300, gauge_part=-1e300 + 1e291,
                        error_estimate=None)

    def test_phase_shift_on_a_huge_arc_exits_0(self):
        # Rounding alone leaves a residual of about 3e284 here, which an absolute
        # 1e-10 refused.
        arc = {"kind": "arc", "center": [0.0, 3.0, 1e150], "radius": 1e150,
               "phi0": -1.8693555163419235, "phi1": 2.4146109359718686}
        record = run_scenario(scenario_from_dict({"name": "huge", "operations": [
            {"op": "phase_shift", "path": arc, "gauge_a": "gauge.chitilde",
             "gauge_b": "none"}]}))
        assert exit_code(record) == 0
        assert abs(record.reports[0].value) > 1e299


class TestReparametrization:
    def test_phase_ignores_traversal_speed(self):
        base = PathSpec.arc((0, 0, 0), 2.0, 0.0, 2.2)
        cubed = PathSpec.parametric(
            lambda t: base.point_at(t ** 3),
            lambda t: 3.0 * t ** 2 * base.velocity_at(t ** 3))
        probe = PhaseProbe(solenoid=S)
        p1 = open_path_phase(probe, base, tol=1e-12)
        p2 = open_path_phase(probe, cubed, tol=1e-12)
        assert p1.phase == pytest.approx(p2.phase, abs=1e-9)


class TestLandauCrossCheck:
    def test_open_phases_differ_by_link_endpoint_shifts(self):
        path = PathSpec.segment((0.2, 0.1, 0), (1.4, 0.9, 0))
        start, end = path.point_at(0.0), path.point_at(1.0)
        rep_s = open_path_phase(PhaseProbe(base_field=LandauField("S", 1.0)), path)
        rep_1 = open_path_phase(PhaseProbe(base_field=LandauField("L1", 1.0)), path)
        rep_2 = open_path_phase(PhaseProbe(base_field=LandauField("L2", 1.0)), path)
        chi1, chi2 = landau_link1(1.0), landau_link2(1.0)
        d1 = chi1.value(end) - chi1.value(start)
        d2 = chi2.value(end) - chi2.value(start)
        assert rep_s.phase - rep_1.phase == pytest.approx(d1, abs=1e-9)
        assert rep_s.phase - rep_2.phase == pytest.approx(d2, abs=1e-9)


class TestInteractionEnergy:
    def test_spot_values(self):
        sample = VelocitySample((0, 0.1, 0), (2, 0, 0))
        assert interaction_energy("boyer", sample, S) == pytest.approx(0.025)
        assert interaction_energy("virtual_photon", sample, S) == pytest.approx(-0.025)

    def test_radial_velocity_orthogonal(self):
        sample = VelocitySample((0.1, 0, 0), (2, 0, 0))
        assert interaction_energy("boyer", sample, S) == 0.0
        assert interaction_energy("virtual_photon", sample, S) == 0.0

    def test_cancellation_exact(self):
        for v, x in [((0, 0.1, 0), (2, 0, 0)),
                     ((0.05, 0.05, 0), (1.3, 0.7, 2)),
                     ((-0.2, 0.1, 0.3), (0.4, -0.8, 1))]:
            sample = VelocitySample(v, x)
            assert energy_cancellation(sample, S) == 0.0
            assert energy_cancellation(sample, S, e=-1.0) == 0.0

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
           st.floats(0.2, 4), st.floats(-3, 3))
    def test_cancellation_property(self, vx, vy, x, z):
        sample = VelocitySample((vx, vy, 0.0), (x, 0.4, z))
        assert energy_cancellation(sample, S) == 0.0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            interaction_energy("classical", VelocitySample((0, 0, 0), (1, 0, 0)), S)

    def test_speed_limit(self):
        with pytest.raises(ValueError):
            VelocitySample((1.5, 0, 0), (1, 0, 0))

    def test_charge_required_nonzero(self):
        with pytest.raises(ValueError):
            PhaseProbe(solenoid=S, e=0.0)
