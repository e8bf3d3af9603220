import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import DiscSpec, LoopSpec, PathSpec, winding_number
from abgauge.errors import AxisCrossing, NonFinite, NotClosed
from abgauge.geometry import axis_distance, azimuth_change, endpoint_azimuths, same_point


class TestContinuousAzimuth:
    def test_unit_circle_ccw(self):
        path = PathSpec.circle((0, 0, 0), 1.0)
        assert azimuth_change(path) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_straight_segment(self):
        path = PathSpec.segment((2, 0, 0), (2, 1, 0))
        assert azimuth_change(path) == pytest.approx(math.atan2(1, 2), abs=1e-12)

    def test_double_winding(self):
        path = PathSpec.circle((0, 0, 0), 1.0, turns=2)
        assert azimuth_change(path) == pytest.approx(4 * math.pi, abs=1e-10)

    def test_axis_crossing_rejected(self):
        path = PathSpec.segment((0, 0, 0), (1, 0, 0))
        with pytest.raises(AxisCrossing):
            azimuth_change(path)

    def test_axis_crossing_detected_on_sample(self):
        # A parametric path has no closed form; it rests on the axis for
        # 0.4 <= t <= 0.6, where samples land.
        path = PathSpec.parametric(
            lambda t: np.array([min(t - 0.4, 0.0) + max(t - 0.6, 0.0), 0.0, 0.0]),
            lambda t: np.array([float(t < 0.4) + float(t > 0.6), 0.0, 0.0]))
        with pytest.raises(AxisCrossing):
            azimuth_change(path)

    def test_reversal_negates_change_exactly(self):
        path = PathSpec.arc((0.2, 0.1, 0), 1.3, 0.3, 2.8)
        fwd = azimuth_change(path)
        rev = azimuth_change(path.reverse())
        assert rev == -fwd  # bitwise

    def test_split_arc_changes_add(self):
        a = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.1)
        b = PathSpec.arc((0, 0, 0), 2.0, 1.1, 2.9)
        total = azimuth_change(PathSpec.arc((0, 0, 0), 2.0, 0.0, 2.9))
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

    @pytest.mark.parametrize("radius, turns", [(2000.0, 3), (1e4, 1)])
    def test_large_circle_closes(self, radius, turns):
        # Its endpoints differ by more than 1e-12, by rounding alone.
        assert winding_number(LoopSpec(PathSpec.circle((0, 0, 0), radius, turns=turns))) == turns

    def test_square_loop_winding(self):
        square = PathSpec.polyline([(1, 1, 0), (-1, 1, 0), (-1, -1, 0),
                                    (1, -1, 0), (1, 1, 0)])
        assert winding_number(LoopSpec(square)) == 1


class TestSamePoint:
    """Endpoints agree within CLOSURE_TOL, scaled by their size beyond 1."""

    def test_tolerance_scales_with_size(self):
        assert same_point((1e4, 0, 0), (1e4, 5e-9, 0))
        assert not same_point((1e4, 0, 0), (1e4, 2e-8, 0))
        assert same_point((0.5, 0, 0), (0.5, 1e-12, 0))
        assert not same_point((0.5, 0, 0), (0.5, 2e-12, 0))
        assert not same_point((0, 0, 0), (math.nan, 0, 0))

    def test_points_near_the_float_limit(self):
        assert not same_point((1.7e308, 0, 0), (-1.7e308, 0, 0))
        assert same_point((1.7e308, 0, 0), (1.7e308, 1.0, 0))

    def test_loop_gap_near_the_float_limit(self):
        # Its speed, 3.4e308, overflows; only its endpoints are evaluated.
        path = PathSpec.parametric(lambda t: np.array([1.7e308 * (1.0 - 2.0 * t), 1.0, 0.0]),
                                   lambda t: np.array([-math.inf, 0.0, 0.0]))
        with pytest.raises(NotClosed, match="loop endpoints differ by"):
            LoopSpec(path)

    def test_large_arcs_join(self):
        # The ends below differ by more than 1e-12, by rounding alone.
        upper = PathSpec.arc((0, 0, 0), 3e4, 0.3, 2.0)
        lower = PathSpec.arc((0, 0, 0), 3e4, 0.3, 2.0 - 2 * math.pi)
        assert np.abs(upper.end - lower.end).max() > 1e-12
        assert same_point(upper.end, lower.end)
        loop = PathSpec.arc((0, 0, 0), 3e4, 2.0, 2.0 + 2 * math.pi)
        assert np.abs(loop.start - loop.end).max() > 1e-12
        assert loop.is_closed
        assert winding_number(LoopSpec(loop)) == 1


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

    def test_parametric_velocity_is_its_derivative(self):
        path = PathSpec.parametric(lambda t: np.array([math.cos(t), math.sin(t), t]),
                                   lambda t: np.array([-math.sin(t), math.cos(t), 1.0]))
        assert np.array_equal(path.velocity_at(0.5), (-math.sin(0.5), math.cos(0.5), 1.0))
        assert np.array_equal(path.reverse().velocity_at(0.5),
                              (math.sin(0.5), -math.cos(0.5), -1.0))

    def test_closure_detection(self):
        assert PathSpec.circle((0, 0, 0), 2.0).is_closed
        assert not PathSpec.segment((0, 1, 0), (1, 1, 0)).is_closed


class TestDiscSpec:
    def test_validation(self):
        from abgauge import DiscSpec
        with pytest.raises(ValueError):
            DiscSpec((0, 0, 0), -1.0)
        with pytest.raises(ValueError):
            DiscSpec((0, 0, 0), 1.0, normal=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            DiscSpec((0, 0, 0), 1.0, normal=(0.0, 0.0, 0.5))

    def test_axis_containment(self):
        from abgauge import DiscSpec
        assert DiscSpec((0.2, 0, 0), 1.0).contains_axis()
        assert not DiscSpec((5, 0, 0), 1.0).contains_axis()

    def test_boundary_orientation(self):
        from abgauge import DiscSpec
        disc = DiscSpec((0, 0, 0), 2.0)
        assert winding_number(disc.boundary()) == 1
        flipped = DiscSpec((0, 0, 0), 2.0, normal=(0.0, 0.0, -1.0))
        assert winding_number(flipped.boundary()) == -1


def _every_path_kind():
    arc = PathSpec.arc((0.2, -0.1, 0.5), 1.3, 0.3, 2.8)
    square = PathSpec.polyline([(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0), (1, 1, 0)])
    return {
        "circle": PathSpec.circle((0.4, 0.1, -0.3), 1.7, turns=-2, start_phase=0.9),
        "arc": arc,
        "segment": PathSpec.segment((1, 2, 3), (4, 5, 6)),
        "polyline": square,
        "reversed arc": arc.reverse(),
        "reversed polyline": square.reverse(),
        "parametric": PathSpec.parametric(
            lambda t: np.array([math.cos(3 * t), t * t, math.sin(t)]),
            lambda t: np.array([-3 * math.sin(3 * t), 2 * t, math.cos(t)])),
        "reversed parametric": PathSpec.parametric(
            lambda t: np.array([1.0 + t, t ** 3, 0.0]),
            lambda t: np.array([1.0, 3 * t * t, 0.0])).reverse(),
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

    def test_reversal_is_ignored(self):
        a = PathSpec.arc((0, 0, 0), 2.0, 0.0, 1.0)
        b = PathSpec.segment(a.end, (0.5, 0.0, 0.0))
        assert axis_distance(b.reverse()) == axis_distance(b) == 0.5
        assert axis_distance(a.reverse()) == axis_distance(a)

    def test_parametric_has_no_closed_form(self):
        path = PathSpec.parametric(lambda t: np.array([1.0 + t, 0.0, 0.0]),
                                   lambda t: np.array([1.0, 0.0, 0.0]))
        assert axis_distance(path) == math.inf

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
            azimuth_change(PathSpec.segment((-1, 0, 0), (1, 0, 0)))

    def test_arc_through_the_axis(self):
        with pytest.raises(AxisCrossing):
            endpoint_azimuths(PathSpec.arc((1, 0, 0), 1.0, 0.5, 5.5))

    def test_reversed_segment_within_cutoff(self):
        with pytest.raises(AxisCrossing):
            azimuth_change(PathSpec.segment((2.0, 1.0, 0.0), (0.0, 5e-10, 0.0)).reverse())

    def test_parametric_keeps_the_sampled_check(self):
        path = PathSpec.parametric(lambda t: np.array([t, 0.0, 0.0]),
                                   lambda t: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(AxisCrossing):
            azimuth_change(path)

    def test_parametric_crossing_between_samples(self):
        # No sample count of the form 4096 * 2**k lands on t = 0.5, where
        # the path crosses the axis; the chord between two samples does.
        path = PathSpec.parametric(lambda t: np.array([2 * t - 1, 0.0, 0.0]),
                                   lambda t: np.array([2.0, 0.0, 0.0]))
        with pytest.raises(AxisCrossing):
            azimuth_change(path)

    def test_parametric_circle_around_the_axis_passes(self):
        path = PathSpec.parametric(
            lambda t: np.array([math.cos(6 * t), math.sin(6 * t), 0.0]),
            lambda t: np.array([-6 * math.sin(6 * t), 6 * math.cos(6 * t), 0.0]))
        assert azimuth_change(path) == pytest.approx(6.0, abs=1e-12)


def _seeded_azimuth_cases():
    """Arcs and polygons at least 1e-3 from the axis, every other one reversed."""
    rng = np.random.default_rng(20261018)
    two_pi = 2.0 * math.pi
    sweeps = {"multi-turn": lambda: rng.choice([-1, 1]) * (two_pi * rng.integers(1, 4)
                                                           + rng.uniform(0, two_pi)),
              "whole turns": lambda: two_pi * rng.choice([-2, -1, 1, 3]),
              "tiny sweep": lambda: rng.choice([-1, 1]) * rng.uniform(1e-9, 1e-6),
              "partial": lambda: rng.uniform(-two_pi, two_pi)}
    cases = {}
    for kind, sweep in sweeps.items():
        for where in ("axis inside", "axis outside"):
            r = rng.uniform(0.5, 2.0)
            rho = rng.uniform(0, r - 1e-3) if where == "axis inside" else rng.uniform(r + 1e-3, 4)
            phi = rng.uniform(-math.pi, math.pi)
            center = (rho * math.cos(phi), rho * math.sin(phi), rng.uniform(-1, 1))
            phase = rng.uniform(-7, 7)
            cases[f"{kind}, {where}"] = PathSpec._arc(center, r, phase, sweep(), "arc")
    while len(cases) < 12:
        n = int(rng.integers(3, 8))
        verts = rng.uniform(-2, 2, size=(n, 3)) + rng.uniform(-1, 1, size=3)
        path = PathSpec.polyline(np.vstack([verts, verts[:1]]) if rng.random() < 0.5 else verts)
        if axis_distance(path) >= 1e-3:
            cases[f"polygon {len(cases) - 7}"] = path
    return {name + (", reversed" if k % 2 else ""): p.reverse() if k % 2 else p
            for k, (name, p) in enumerate(cases.items())}


class TestExactAzimuth:
    """Closed forms for arcs and polylines, against the sampled route and near the axis."""

    @pytest.mark.parametrize("name", list(_seeded_azimuth_cases()))
    def test_matches_the_sampled_route(self, name):
        path = _seeded_azimuth_cases()[name]
        sampled = azimuth_change(PathSpec.parametric(path.point_at, path.velocity_at))
        assert abs(azimuth_change(path) - sampled) <= 1e-12

    def test_arc_passing_just_outside_the_axis(self):
        # The axis lies 1e-8 inside the circle, so the arc subtends the
        # inscribed angle plus pi.
        change = azimuth_change(PathSpec.arc((1, 0, 0), 1 + 1e-8, 0.5, 5.0))
        assert change == pytest.approx((5.0 - 0.5) / 2 + math.pi, abs=1e-6)

    def test_circle_passing_just_outside_the_axis(self):
        loop = LoopSpec.circle((1, 0, 0), 1.00000001)
        assert winding_number(loop) == 1
        assert winding_number(loop.reverse()) == -1

    @pytest.mark.parametrize("phase", [-2.5, 0.0, 0.3, 1.0, 2.0, 4.0])
    def test_half_circle_whose_chord_crosses_the_axis(self, phase):
        for sweep in (math.pi, -math.pi, 3 * math.pi):
            path = PathSpec.arc((0, 0, 0), 1.5, phase, phase + sweep)
            assert azimuth_change(path) == pytest.approx(sweep, abs=1e-12)

    def test_non_finite_data_raises(self):
        with pytest.raises(NonFinite):
            azimuth_change(PathSpec.segment((1, 0, 0), (math.nan, 1, 0)))
        with pytest.raises(NonFinite):
            azimuth_change(PathSpec.arc((0, 0, 0), 1.0, 0.0, math.inf))


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


class TestConstructorsCheckTheirData:
    """An arc, polyline or disc whose data cannot give finite points is refused when built."""

    @pytest.mark.parametrize("build", [
        lambda: PathSpec.polyline([(1e308, 0, 0), (-1e308, 0, 0)]),
        lambda: PathSpec.polyline([(1, 0, 0), (2, 0, 0), (2, math.inf, 0)]),
        lambda: PathSpec.segment((1, 0, 0), (math.nan, 1, 0)),
        lambda: PathSpec.arc((1e308, 0, 0), 1e308, 0.0, 1.0),
        lambda: PathSpec.arc((0, 0, 0), 1.0, -1e308, 1e308),
        lambda: PathSpec.arc((0, 0, math.nan), 1.0, 0.0, 1.0),
        lambda: PathSpec.arc((0, 0, 0), math.nan, 0.0, 1.0),
        lambda: PathSpec.circle((0, 0, 0), 1.0, start_phase=math.inf),
        lambda: PathSpec.arc((0, 0, 0), 1e308, 0.0, 3.0),
        lambda: PathSpec.polyline([(1e308, 0, 0), (0, 0, 0), (1e308, 0, 0)]),
        lambda: DiscSpec((1e308, 0, 0), 1e308),
        lambda: DiscSpec((0, 0, math.inf), 1.0),
        lambda: DiscSpec((0, 0, 0), math.nan),
    ], ids=["polyline-step-overflows", "polyline-inf-vertex", "segment-nan-vertex",
            "arc-center-plus-radius-overflows", "arc-sweep-overflows", "arc-nan-z",
            "arc-nan-radius", "circle-inf-phase", "arc-speed-overflows",
            "polyline-speed-overflows", "disc-center-plus-radius-overflows",
            "disc-inf-z", "disc-nan-radius"])
    def test_overflowing_or_non_finite_data(self, build):
        with pytest.raises(NonFinite):
            build()

    def test_large_finite_data_is_kept(self):
        arc = PathSpec.arc((1e307, 0, 0), 1e307, 0.0, 1.0)
        assert np.isfinite(arc.sample(9)).all()
        arc = PathSpec.arc((0, 0, 0), 1e307, 0.0, 3.0)
        assert np.isfinite(arc.velocities(np.linspace(0.0, 1.0, 9))).all()
        line = PathSpec.polyline([(1e307, 0, 0), (-1e307, 0, 0)])
        assert np.isfinite(line.sample(9)).all()
        assert DiscSpec((1e307, 0, 0), 1e307).radius == 1e307


class TestNonFiniteSamples:
    def test_azimuth_stops_at_a_nan_point(self):
        # A closed path whose points are NaN for 0.5 < t < 1.
        path = PathSpec.parametric(
            lambda t: np.array([1.0, math.nan if 0.5 < t < 1.0 else t * (1.0 - t), 0.0]),
            lambda t: np.array([0.0, math.nan if 0.5 < t < 1.0 else 1.0 - 2.0 * t, 0.0]))
        with pytest.raises(NonFinite, match=r"path sample is not finite at t = 0\.5\d*, point"):
            azimuth_change(path)
        with pytest.raises(NonFinite):
            winding_number(LoopSpec(path))
