import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import LoopSpec, PathSpec, Point, winding_number
from abgauge.errors import AxisCrossing, NonFinite, NotClosed
from abgauge.geometry import (axis_distance, azimuth_change, continuous_azimuth,
                              endpoint_azimuths, stable_azimuth_change)


class TestPoint:
    def test_cylindrical_accessors(self):
        p = Point(3.0, 4.0, 2.0)
        assert p.rho == pytest.approx(5.0, abs=1e-15)
        assert p.phi == pytest.approx(math.atan2(4, 3), abs=1e-15)

    @given(st.floats(1e-6, 10), st.floats(-math.pi + 1e-9, math.pi - 1e-9),
           st.floats(-5, 5))
    def test_cylindrical_round_trip(self, rho, phi, z):
        p = Point.from_cylindrical(rho, phi, z)
        q = Point.from_cylindrical(p.rho, p.phi, p.z)
        for a, b in zip(p.as_array(), q.as_array()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


class TestContinuousAzimuth:
    def test_unit_circle_ccw(self):
        az = continuous_azimuth(PathSpec.circle((0, 0, 0), 1.0), 1024)
        assert az[-1] - az[0] == pytest.approx(2 * math.pi, abs=1e-10)

    def test_straight_segment(self):
        path = PathSpec.segment((2, 0, 0), (2, 1, 0))
        az = continuous_azimuth(path, 1024)
        assert az[-1] - az[0] == pytest.approx(math.atan2(1, 2), abs=1e-12)

    def test_double_winding(self):
        az = continuous_azimuth(PathSpec.circle((0, 0, 0), 1.0, turns=2), 4096)
        assert az[-1] - az[0] == pytest.approx(4 * math.pi, abs=1e-10)

    def test_no_jump_exceeds_pi(self):
        az = continuous_azimuth(PathSpec.circle((0.4, 0, 0), 1.0), 4096)
        assert np.max(np.abs(np.diff(az))) < math.pi

    def test_axis_crossing_rejected(self):
        path = PathSpec.segment((0, 0, 0), (1, 0, 0))
        with pytest.raises(AxisCrossing):
            continuous_azimuth(path, 256)

    def test_axis_crossing_detected_on_sample(self):
        # Samples at odd counts land exactly on the midpoint crossing.
        path = PathSpec.segment((-1, 0, 0), (1, 0, 0))
        with pytest.raises(AxisCrossing):
            continuous_azimuth(path, 257)

    def test_reversal_negates_change_exactly(self):
        path = PathSpec.arc((0.2, 0.1, 0), 1.3, 0.3, 2.8)
        fwd = azimuth_change(path)
        rev = azimuth_change(path.reverse())
        assert rev == -fwd  # bitwise

    def test_concat_adds_changes(self):
        a = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.1)
        b = PathSpec.arc((0, 0, 0), 2.0, 1.1, 2.9)
        both = PathSpec.concat(a, b)
        total = azimuth_change(both)
        assert abs(total - (azimuth_change(a) + azimuth_change(b))) < 1e-12

    def test_endpoint_azimuths_track_branch(self):
        path = PathSpec.circle((0, 0, 0), 2.0, turns=3)
        start, end = endpoint_azimuths(path)
        assert start == pytest.approx(0.0, abs=1e-15)
        assert end == pytest.approx(6 * math.pi, abs=1e-9)


class TestWinding:
    def test_ccw_circle_enclosing(self):
        assert winding_number(LoopSpec.circle((0, 0, 0), 2.0)) == 1

    def test_axis_outside(self):
        assert winding_number(LoopSpec.circle((5, 0, 0), 0.3)) == 0

    def test_cw_circle(self):
        assert winding_number(LoopSpec.circle((0, 0, 0), 2.0, turns=-1)) == -1

    @given(st.integers(-3, 3).filter(lambda w: w != 0))
    def test_multi_turn(self, w):
        assert winding_number(LoopSpec.circle((0, 0, 0), 1.5, turns=w)) == w

    def test_not_closed_rejected(self):
        with pytest.raises(NotClosed):
            LoopSpec(PathSpec.segment((1, 0, 0), (2, 0, 0)))

    def test_square_loop_winding(self):
        square = PathSpec.polyline([(1, 1, 0), (-1, 1, 0), (-1, -1, 0),
                                    (1, -1, 0), (1, 1, 0)])
        assert winding_number(LoopSpec(square)) == 1


class TestPathSpec:
    def test_polyline_needs_two_vertices(self):
        with pytest.raises(ValueError):
            PathSpec.polyline([(0, 0, 0)])

    def test_polyline_point_and_velocity(self):
        path = PathSpec.polyline([(0, 0, 0), (2, 0, 0), (2, 2, 0)])
        assert np.allclose(path.point_at(0.25), (1, 0, 0))
        assert np.allclose(path.point_at(0.75), (2, 1, 0))
        assert np.allclose(path.velocity_at(0.1), (4, 0, 0))

    def test_reverse_round_trip(self):
        path = PathSpec.circle((0, 0, 0), 1.0)
        assert np.allclose(path.reverse().reverse().point_at(0.3),
                           path.point_at(0.3))

    def test_reverse_swaps_endpoints(self):
        path = PathSpec.segment((1, 2, 3), (4, 5, 6))
        rev = path.reverse()
        assert np.allclose(rev.start, path.end)
        assert np.allclose(rev.end, path.start)

    def test_sampled_continuity_check(self):
        assert PathSpec.circle((0, 0, 0), 1.0).check_sampled_continuity()

        def jumpy(t):
            return np.array([0.0 if t < 0.5 else 5.0, 1.0, 0.0])

        assert not PathSpec.parametric(jumpy).check_sampled_continuity()

    def test_uneven_polyline_passes_continuity(self):
        verts = [(2.0, 0.1 * k, 0.0) for k in range(11)] + [(-40.0, 1.1, 0.0)]
        assert PathSpec.polyline(verts).check_sampled_continuity()
        assert PathSpec.polyline(verts).reverse().check_sampled_continuity()

    def test_concat_checks_its_parametric_pieces(self):
        def jumpy(t):
            return np.array([2.0, 1.0 if t < 0.5 else 1.5, 0.0])

        piece = PathSpec.parametric(jumpy)
        tail = PathSpec.segment(piece.end, (-40.0, 1.5, 0.0))
        assert not PathSpec.concat(piece, tail).check_sampled_continuity()
        smooth = PathSpec.arc((0, 0, 0), 2.0, 0.0, 0.5)
        long_tail = PathSpec.segment(smooth.end, (-40.0, 1.0, 0.0))
        assert PathSpec.concat(smooth, long_tail).check_sampled_continuity()

    def test_numeric_velocity_fallback(self):
        path = PathSpec.parametric(
            lambda t: np.array([math.cos(t), math.sin(t), t]))
        v = path.velocity_at(0.5)
        assert np.allclose(v, (-math.sin(0.5), math.cos(0.5), 1.0), atol=1e-7)

    def test_closure_detection(self):
        assert PathSpec.circle((0, 0, 0), 2.0).is_closed
        assert not PathSpec.segment((0, 1, 0), (1, 1, 0)).is_closed


class TestDiscSpec:
    def test_validation(self):
        from abgauge import DiscSpec
        with pytest.raises(ValueError):
            DiscSpec(Point(0, 0, 0), -1.0)
        with pytest.raises(ValueError):
            DiscSpec(Point(0, 0, 0), 1.0, normal=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            DiscSpec(Point(0, 0, 0), 1.0, normal=(0.0, 0.0, 0.5))

    def test_axis_containment(self):
        from abgauge import DiscSpec
        assert DiscSpec(Point(0.2, 0, 0), 1.0).contains_axis()
        assert not DiscSpec(Point(5, 0, 0), 1.0).contains_axis()

    def test_boundary_orientation(self):
        from abgauge import DiscSpec
        disc = DiscSpec(Point(0, 0, 0), 2.0)
        assert winding_number(disc.boundary()) == 1
        flipped = DiscSpec(Point(0, 0, 0), 2.0, normal=(0.0, 0.0, -1.0))
        assert winding_number(flipped.boundary()) == -1


def _every_path_kind():
    arc = PathSpec.arc((0.2, -0.1, 0.5), 1.3, 0.3, 2.8)
    square = PathSpec.polyline([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0), (1, 1, 0)])
    inner = PathSpec.concat(PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.0),
                            PathSpec.arc((0, 0, 0), 2.0, 1.0, 2.5).reverse().reverse())
    tail = PathSpec.segment(inner.end, (0.0, 3.0, 1.0))
    return {
        "circle": PathSpec.circle((0.4, 0.1, -0.3), 1.7, turns=-2, start_phase=0.9),
        "arc": arc,
        "segment": PathSpec.segment((1, 2, 3), (4, 5, 6)),
        "polyline": square,
        "reversed arc": arc.reverse(),
        "reversed polyline": square.reverse(),
        "nested concat": PathSpec.concat(inner, tail.reverse().reverse()),
        "reversed nested concat": PathSpec.concat(inner, tail).reverse(),
        "parametric": PathSpec.parametric(
            lambda t: np.array([math.cos(3 * t), t * t, math.sin(t)]),
            lambda t: np.array([-3 * math.sin(3 * t), 2 * t, math.cos(t)])),
        "parametric, numeric velocity": PathSpec.parametric(
            lambda t: np.array([math.cos(3 * t), t * t, math.sin(t)])),
        "reversed parametric": PathSpec.parametric(
            lambda t: np.array([1.0 + t, t ** 3, 0.0])).reverse(),
    }


class TestAxisDistance:
    def test_segment_uses_clamped_projection_in_xy(self):
        assert axis_distance(PathSpec.segment((-1, 0.5, 3), (1, 0.5, -2))) == 0.5
        assert axis_distance(PathSpec.segment((1, 1, 0), (2, 3, 5))) == math.sqrt(2.0)
        assert axis_distance(PathSpec.segment((0, 0, 1), (0, 0, 4))) == 0.0

    def test_arc_reaching_nearest_point(self):
        # The circle point nearest the axis is at azimuth pi from (2, 0).
        assert axis_distance(PathSpec.arc((2, 0, 0), 1.0, 0.5, 5.5)) == 1.0
        assert axis_distance(PathSpec.arc((2, 0, 0), 1.0, 4.0, 2.0)) == 1.0
        assert axis_distance(PathSpec.arc((2, 0, 0), 1.0, 2.0 - 4 * math.pi, 4.0 - 4 * math.pi)) == 1.0
        assert axis_distance(PathSpec.circle((0.3, 0.4, 0), 2.0)) == pytest.approx(1.5, abs=1e-15)

    def test_arc_missing_nearest_point_uses_an_endpoint(self):
        arc = PathSpec.arc((1, 0, 0), 1.0, -2.5, 2.5)
        assert axis_distance(arc) == pytest.approx(math.sqrt(2.0 + 2.0 * math.cos(2.5)), abs=1e-15)

    def test_concat_takes_minimum_and_reversal_is_ignored(self):
        a = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.0)
        b = PathSpec.segment(a.end, (0.5, 0.0, 0.0))
        both = PathSpec.concat(a, b)
        assert axis_distance(both) == axis_distance(b) == 0.5
        assert axis_distance(both.reverse()) == 0.5
        assert axis_distance(a.reverse()) == axis_distance(a)

    def test_parametric_has_no_closed_form(self):
        assert axis_distance(PathSpec.parametric(lambda t: np.array([1.0 + t, 0.0, 0.0]))) == math.inf

    @pytest.mark.parametrize("name", [k for k in _every_path_kind() if "parametric" not in k])
    def test_matches_dense_sampling(self, name):
        path = _every_path_kind()[name]
        pts = path.sample(200_001)
        sampled = float(np.hypot(pts[:, 0], pts[:, 1]).min())
        assert sampled - 1e-6 <= axis_distance(path) <= sampled


class TestPathsThroughTheAxis:
    """Paths that touch the axis between samples still raise AxisCrossing."""

    def test_square_with_an_edge_through_the_axis(self):
        square = PathSpec.polyline([(-1, 0, 0), (1, 0, 0), (1, 2, 0), (-1, 2, 0), (-1, 0, 0)])
        with pytest.raises(AxisCrossing):
            winding_number(LoopSpec(square))

    def test_circle_through_the_axis(self):
        with pytest.raises(AxisCrossing):
            winding_number(LoopSpec.circle((1, 0, 0), 1.0))

    def test_segment_through_the_axis(self):
        with pytest.raises(AxisCrossing):
            stable_azimuth_change(PathSpec.segment((-1, 0, 0), (1, 0, 0)))

    def test_arc_through_the_axis(self):
        with pytest.raises(AxisCrossing):
            endpoint_azimuths(PathSpec.arc((1, 0, 0), 1.0, 0.5, 5.5))

    def test_reversed_concat_within_cutoff(self):
        a = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.0)
        b = PathSpec.segment(a.end, (0.0, 5e-10, 0.0))
        with pytest.raises(AxisCrossing):
            azimuth_change(PathSpec.concat(a, b).reverse())

    def test_parametric_keeps_the_sampled_check(self):
        path = PathSpec.parametric(lambda t: np.array([2.0 * t - 1.0, 0.0, 0.0]))
        with pytest.raises(AxisCrossing):
            azimuth_change(path, n_samples=5)


class TestArrayContract:
    """points/velocities on a parameter array are the stacked one-row results."""

    TS = np.concatenate([[0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0], np.linspace(0, 1, 37)])

    @pytest.mark.parametrize("name", list(_every_path_kind()))
    def test_points_are_stacked_point_at(self, name):
        path = _every_path_kind()[name]
        pts = path.points(self.TS)
        assert pts.shape == (len(self.TS), 3)
        assert np.array_equal(pts, np.array([path.point_at(t) for t in self.TS]))

    @pytest.mark.parametrize("name", list(_every_path_kind()))
    def test_velocities_are_stacked_velocity_at(self, name):
        path = _every_path_kind()[name]
        vel = path.velocities(self.TS)
        assert vel.shape == (len(self.TS), 3)
        assert np.array_equal(vel, np.array([path.velocity_at(t) for t in self.TS]))

    @pytest.mark.parametrize("name", list(_every_path_kind()))
    def test_reversed_samples_mirror_forward_bitwise(self, name):
        path = _every_path_kind()[name]
        assert np.array_equal(path.reverse().sample(257), path.sample(257)[::-1])

    def test_empty_parameter_array(self):
        for path in _every_path_kind().values():
            assert path.points(np.array([])).shape == (0, 3)


class TestNonFiniteSamples:
    def test_azimuth_stops_at_a_nan_point(self):
        path = PathSpec.parametric(lambda t: np.array([1.0, math.nan if t > 0.5 else t, 0.0]))
        with pytest.raises(NonFinite, match=r"path sample is not finite at t = 0\.5\d*, point"):
            azimuth_change(path, 2049)
        with pytest.raises(NonFinite):
            winding_number(LoopSpec(PathSpec.concat(path, PathSpec.segment(path.end, path.start))))

    def test_infinite_sample_fails_continuity(self):
        path = PathSpec.parametric(lambda t: np.array([1.0, math.inf if t > 0.9 else t, 0.0]))
        assert not path.check_sampled_continuity()
