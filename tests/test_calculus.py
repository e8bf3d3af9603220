import math
import re

import numpy as np
import pytest

from abgauge import (BawinBurnelGauge, CallableField, DiffConfig, DiscSpec,
                     FieldExpr, GaugeGradientField, LandauField, LoopSpec, PathSpec,
                     PolynomialGauge, SingularSolenoidGauge, SolenoidBField, SolenoidSpec,
                     SolenoidTransverseField, StringField, TransformedPotentialField,
                     disc_flux, helmholtz_classify, landau_link1, landau_link2,
                     line_integral, numeric_curl, numeric_divergence,
                     shrinking_loop_circulation, stokes_residual)
import abgauge.calculus as calculus
from abgauge.biot_savart import NumericBiotSavartField
from abgauge.errors import DomainViolation, NoConvergence, NoLimit, NonFinite

from helpers import cylinder_points, random_polynomial_gauge, simpson_path_integral

S = SolenoidSpec(1.0, 1.0)
AS = SolenoidTransverseField(S)
PI = math.pi


class TestNumericCurl:
    def test_interior_transverse_potential(self):
        c = numeric_curl(AS, (0.5, 0, 0), DiffConfig(h=1e-4, order=2))
        assert np.allclose(c, (0, 0, 1), atol=1e-6)

    def test_gradient_of_link_gauge_is_curl_free(self):
        f = GaugeGradientField(landau_link1(1.0))
        for p in [(0.3, 0.8, 0.0), (2, -1, 1), (4, 4, -2)]:
            assert np.max(np.abs(numeric_curl(f, p))) < 1e-8

    def test_first_landau_gauge(self):
        c = numeric_curl(LandauField("L1", 1.0), (3, 2, 0))
        assert np.allclose(c, (0, 0, 1), atol=1e-8)

    def test_order4_on_transformed_potential(self):
        ap = TransformedPotentialField(S)
        c = numeric_curl(ap, (0.1, 0.05, 0), DiffConfig(h=1e-4, order=4))
        assert np.allclose(c, (0, 0, 1), atol=1e-5)

    def test_stencil_domain_violation(self):
        ap = TransformedPotentialField(S)
        with pytest.raises(DomainViolation):
            numeric_curl(ap, (5e-5, 0, 0), DiffConfig(h=1e-4, order=2))


class TestNumericDivergence:
    def test_transverse_potential_divergence_free(self):
        assert abs(numeric_divergence(AS, (2, 1, 0))) < 1e-6

    def test_second_landau_gauge(self):
        assert abs(numeric_divergence(LandauField("L2", 1.0), (1.3, -0.4, 2))) < 1e-8

    def test_laplacian_of_quadratic(self):
        g = PolynomialGauge(((2, 0, 0, 1.0), (0, 2, 0, 1.0)), name="r2")
        f = GaugeGradientField(g)
        assert numeric_divergence(f, (1, 1, 0)) == pytest.approx(4.0, abs=1e-6)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("order", [8, 10, 16, 32, 48, 64, 128])
    def test_matches_numpy_leggauss(self, order):
        from abgauge.calculus import _gl01
        u, w = _gl01(order)
        x, ref = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(u - 0.5 * (x + 1.0))) <= 4e-16
        # leggauss's own weights are off by up to ~1e-11 relative at order 128.
        assert np.max(np.abs(w - 0.5 * ref) / w) <= 1e-10
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", [8, 48, 128])
    def test_exact_for_degree_below_twice_the_order(self, order):
        from abgauge.calculus import _gl01
        u, w = _gl01(order)
        for k in range(2 * order):
            assert math.fsum(w * u ** k) == pytest.approx(1.0 / (k + 1), rel=1e-13, abs=0)


class TestLineIntegral:
    def test_enclosing_circle_gives_flux(self):
        rep = line_integral(AS, PathSpec.circle((0, 0, 0), 2.0), tol=1e-10)
        assert rep.value == pytest.approx(PI, abs=1e-8)

    def test_non_enclosing_circle_vanishes(self):
        rep = line_integral(AS, PathSpec.circle((5, 0, 0), 0.3), tol=1e-10)
        assert rep.value == pytest.approx(0.0, abs=1e-8)

    def test_gradient_theorem_on_polyline(self):
        f = GaugeGradientField(landau_link1(1.0))
        path = PathSpec.polyline([(0, 0, 0), (1, 2, 0), (3, 2, 0)])
        rep = line_integral(f, path, tol=1e-10)
        assert rep.value == pytest.approx(3.0, abs=1e-8)

    def test_matches_simpson_oracle(self):
        path = PathSpec.arc((0, 0, 0), 2.0, 0.2, 2.1)
        rep = line_integral(AS, path, tol=1e-12)
        assert rep.value == pytest.approx(simpson_path_integral(AS, path), abs=1e-9)

    def test_report_fields(self):
        # A sum of fields has no closed form, so this stays on quadrature.
        f = AS + GaugeGradientField(PolynomialGauge(((1, 1, 0, 0.5),)))
        rep = line_integral(f, PathSpec.circle((0, 0, 0), 2.0), tol=1e-10)
        assert rep.n_points > 0
        assert rep.error_estimate >= 0.0

    def test_field_converging_at_level_one_is_called_once(self):
        # The work of (-y, x, 0) along a circle has a constant part and a cos/sin
        # part, which levels 0 and 1 both integrate to rounding.
        calls = []

        class Rotation(FieldExpr):
            def __call__(self, p):
                calls.append(len(p))
                x, y, _ = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
                return np.stack([-y, x, np.zeros_like(x)], axis=-1)

        rep = line_integral(Rotation(), PathSpec.circle((0.3, -0.2, 0.5), 1.5), tol=1e-10)
        assert calls == [(2 + 4) * 8]  # one call for levels 0 and 1
        assert rep.n_points == 4 * 8
        assert rep.value == pytest.approx(2 * PI * 1.5 ** 2, abs=1e-12)

    def test_estimate_bounds_an_error_below_the_level_difference(self):
        # The oracle's potential around rho = 2 gives pi to within rounding, and the
        # last two levels agree more closely than that: the rounding floor bounds it.
        rep = line_integral(NumericBiotSavartField(S), PathSpec.circle((0, 0, 0), 2.0),
                            tol=1e-4)
        assert rep.error_estimate > 0.0
        assert abs(rep.value - PI) <= rep.error_estimate

    def test_exact_report_fields(self):
        rep = line_integral(AS, PathSpec.circle((0, 0, 0), 2.0), tol=1e-10)
        assert rep.value == PI
        assert rep.n_points == 0
        assert rep.error_estimate is None

    def test_no_convergence_budget(self, monkeypatch):
        # A discontinuous integrand cannot meet an absurd tolerance.
        monkeypatch.setattr(calculus, "_LINE_MAX_DOUBLINGS", 6)
        f = CallableField(lambda p: np.array([0.0 if p[0] < 0.55 else 1.0, 0.0, 0.0]))
        path = PathSpec.parametric(lambda t: np.array([t, 0.5, 0.0]),
                                   lambda t: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NoConvergence):
            line_integral(f, path, tol=1e-14)

    def test_domain_violation_for_axis_path(self):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        path = PathSpec.segment((0, 0, 0), (1, 0, 0))
        with pytest.raises(DomainViolation):
            line_integral(f, path)

    @pytest.mark.parametrize("field", [LandauField("BB"),
                                       GaugeGradientField(BawinBurnelGauge(1.0))],
                             ids=["landau.BB", "gauge.chitilde"])
    @pytest.mark.parametrize("path", [PathSpec.segment((-2, -1, 0), (-2, 2, 0)),
                                      PathSpec.arc((0, 0, 0), 2.0, 3.0, 3.3)],
                             ids=["segment", "arc"])
    def test_crossing_the_branch_cut_is_a_domain_violation(self, field, path):
        # No sample lands on the cut; the principal azimuth jumps between two of them.
        with pytest.raises(DomainViolation, match="branch cut"):
            line_integral(field, path)
        with pytest.raises(DomainViolation, match="branch cut"):
            line_integral(field, path.reverse())

    def test_path_beside_the_branch_cut_integrates(self):
        # -B r phi e_r is radial, so on a centred arc the work vanishes.
        rep = line_integral(LandauField("BB"), PathSpec.arc((0, 0, 0), 2.0, -3.0, 3.0))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_gradient_theorem_randomized(self, rng):
        # 20 random polylines, random smooth gauges.
        for _ in range(20):
            g = random_polynomial_gauge(rng)
            pts = [rng.uniform(-2, 2, size=3) for _ in range(int(rng.integers(2, 5)))]
            path = PathSpec.polyline(pts)
            rep = line_integral(GaugeGradientField(g), path, tol=1e-11)
            expected = g.value(pts[-1]) - g.value(pts[0])
            assert rep.value == pytest.approx(expected, abs=1e-8)

    def test_winding_proportional_circulation_of_singular_gradient(self):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        for w in (-2, -1, 1, 2):
            loop = PathSpec.circle((0, 0, 0), 1.7, turns=w)
            rep = line_integral(f, loop, tol=1e-11)
            assert rep.value == pytest.approx(-w * PI, abs=1e-8)

    def test_orientation_antisymmetry_exact(self):
        for path in [PathSpec.circle((0, 0, 0), 2.0),
                     PathSpec.polyline([(2, 0, 0), (2, 2, 0), (0, 2, 1)]),
                     PathSpec.arc((0, 0, 0), 1.4, 0.1, 2.0)]:
            fwd = line_integral(AS, path, tol=1e-10)
            rev = line_integral(AS, path.reverse(), tol=1e-10)
            assert rev.value == -fwd.value  # bitwise

    def test_additivity_over_interference_loop(self):
        c1 = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI)
        c2 = PathSpec.arc((0, 0, 0), 2.0, 0.0, -PI)
        whole = line_integral(AS, PathSpec.circle((0, 0, 0), 2.0), tol=1e-11)
        parts = (line_integral(AS, c1, tol=1e-11).value
                 - line_integral(AS, c2, tol=1e-11).value)
        assert whole.value == pytest.approx(parts, abs=1e-10)


class TestDiscFlux:
    def test_uniform_field_with_string_cancels(self):
        b = SolenoidBField(S)
        disc = DiscSpec((0, 0, 0), 1.0)
        total = disc_flux(b, disc, deltas=[StringField(S)], tol=1e-10).value
        assert total == pytest.approx(0.0, abs=1e-8)

    def test_smooth_part_alone(self):
        b = SolenoidBField(S)
        disc = DiscSpec((0, 0, 0), 0.5)
        assert disc_flux(b, disc, tol=1e-10).value == pytest.approx(PI / 4, abs=1e-8)

    def test_wide_disc_captures_all_flux(self):
        b = SolenoidBField(S)
        disc = DiscSpec((0, 0, 0), 3.0)
        assert disc_flux(b, disc, tol=1e-10).value == pytest.approx(PI, abs=1e-6)

    def test_orientation_flips_sign(self):
        b = SolenoidBField(S)
        disc = DiscSpec((0, 0, 0), 0.5, normal=(0.0, 0.0, -1.0))
        assert disc_flux(b, disc, tol=1e-10).value == pytest.approx(-PI / 4, abs=1e-8)

    def test_string_ignored_when_axis_outside(self):
        b = SolenoidBField(S)
        disc = DiscSpec((5, 0, 0), 1.0)
        total = disc_flux(b, disc, deltas=[StringField(S)], tol=1e-9).value
        assert total == pytest.approx(0.0, abs=1e-8)

    def test_no_bulk_curl_inside_transformed_system(self):
        # The smooth part of the transformed field has no curl away from the
        # axis: a small off-axis interior disc sees zero flux of it.
        from abgauge import NumericCurlField
        curl_b = NumericCurlField(SolenoidBField(S), DiffConfig(h=1e-4, order=2))
        disc = DiscSpec((0.4, 0, 0), 0.15)
        assert abs(disc_flux(curl_b, disc, tol=1e-8).value) < 1e-6


class TestStokes:
    def test_transverse_potential_through_shell(self):
        disc = DiscSpec((0, 0, 0), 2.0)
        assert stokes_residual(AS, disc) < 1e-5

    def test_uniform_field_disc_off_axis(self):
        disc = DiscSpec((4, 0, 0), 1.0)
        f = LandauField("S", 1.0)
        assert stokes_residual(f, disc) < 1e-5
        # Both sides are the uniform-field flux through the disc.
        circ = line_integral(f, disc.boundary().path, tol=1e-10)
        assert circ.value == pytest.approx(PI, abs=1e-8)

    def test_pure_gradient_has_zero_residual(self):
        disc = DiscSpec((2, 1, 0), 0.8)
        f = GaugeGradientField(landau_link2(1.0))
        assert stokes_residual(f, disc) < 1e-8


class TestShrinkingLoop:
    def test_singular_gradient_string(self):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        rep = shrinking_loop_circulation(f, (0, 0, 0))
        assert rep.value == pytest.approx(-PI, abs=1e-6)
        for c in rep.circulations:
            assert c == pytest.approx(-PI, abs=1e-9)

    def test_link_gauge_gradient_no_string(self):
        f = GaugeGradientField(landau_link1(1.0))
        rep = shrinking_loop_circulation(f, (0, 0, 0))
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_transformed_potential_extrapolates_to_string(self):
        # The smooth remainder contributes at second order in the radius.
        f = TransformedPotentialField(S)
        rep = shrinking_loop_circulation(f, (0, 0, 0))
        assert rep.value == pytest.approx(-PI, abs=1e-6)
        assert rep.circulations[0] == pytest.approx(-PI + PI * 1e-2, abs=1e-8)

    def test_transverse_potential_has_no_string(self):
        rep = shrinking_loop_circulation(AS, (0, 0, 0))
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_no_limit_for_diverging_circulation(self):
        f = CallableField(
            lambda p: np.array([-p[1], p[0], 0.0]) / (p[0] ** 2 + p[1] ** 2) ** 1.5)
        with pytest.raises(NoLimit):
            shrinking_loop_circulation(f, (0, 0, 0))

    def test_radii_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            shrinking_loop_circulation(AS, (0, 0, 0), eps_list=(1e-3, 1e-2, 1e-1))

    def test_two_radii_are_refused(self):
        # Two radii would extrapolate the same pair twice and report a spread of 0.0.
        with pytest.raises(ValueError, match="three radii"):
            shrinking_loop_circulation(AS, (1.2, 0, 0), eps_list=(0.6, 0.3))


class TestHelmholtzClassify:
    def test_transverse_potential(self, rng):
        pts = cylinder_points(rng, 100, (0.3, 3.0), avoid_shell=1.0,
                              shell_margin=0.05)
        rep = helmholtz_classify(AS, pts, DiffConfig(h=1e-3, order=4))
        assert rep.classification == "transverse"
        assert rep.max_abs_div < 1e-6

    def test_non_harmonic_gradient_is_longitudinal(self, rng):
        g = PolynomialGauge(((2, 0, 0, 1.0), (0, 2, 0, 1.0)), name="r2")
        pts = cylinder_points(rng, 40, (0.3, 3.0))
        rep = helmholtz_classify(GaugeGradientField(g), pts)
        assert rep.classification == "longitudinal"

    def test_harmonic_link_gauge_flags_both(self, rng):
        # The link gauges have vanishing Laplacian, so their gradients pass
        # both thresholds and land in the harmonic bucket.
        pts = cylinder_points(rng, 40, (0.3, 3.0))
        rep = helmholtz_classify(GaugeGradientField(landau_link1(1.0)), pts)
        assert rep.classification == "both"
        assert "harmonic" in rep.notes

    def test_singular_gradient_harmonic_off_axis(self, rng):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        pts = cylinder_points(rng, 60, (0.5, 3.0))
        rep = helmholtz_classify(f, pts, DiffConfig(h=1e-3, order=4))
        assert rep.classification == "both"
        assert "harmonic" in rep.notes
        assert rep.max_abs_div < 1e-6 and rep.max_abs_curl < 1e-6

    def test_zero_field(self, rng):
        f = CallableField(lambda p: np.zeros(3))
        rep = helmholtz_classify(f, cylinder_points(rng, 10, (0.5, 2.0)))
        assert rep.classification == "both"
        assert "zero" in rep.notes

    def test_generic_field_neither(self, rng):
        f = CallableField(lambda p: np.array([p[0] * p[0], p[0] * p[1], 0.0]))
        rep = helmholtz_classify(f, cylinder_points(rng, 10, (0.5, 2.0)))
        assert rep.classification == "neither"


class TestDiffConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiffConfig(h=-1.0)
        with pytest.raises(ValueError):
            DiffConfig(order=3)


class TestNonFiniteStopsRefinement:
    def test_nan_field_on_circle_fails_at_level_zero(self):
        calls = []

        def nan_field(p):
            calls.append(p)
            return np.array([math.nan, 0.0, 0.0])

        # Level 0's nodes come first, so the message names its first node.
        first = re.escape(repr(float(calculus._gl01(8)[0][0] / 2)))
        message = rf"line integrand is not finite at t = {first}, point \["
        with pytest.raises(NonFinite, match=message):
            line_integral(CallableField(nan_field), PathSpec.circle((0, 0, 0), 2.0))
        assert len(calls) == (2 + 4) * 8  # one evaluation of levels 0 and 1: 2 and 4 panels

    def test_infinite_value_on_a_polyline_segment(self):
        f = CallableField(lambda p: np.array([math.inf if p[0] > 1.5 else 1.0, 0.0, 0.0]))
        path = PathSpec.polyline([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        with pytest.raises(NonFinite, match="line integrand"):
            line_integral(f, path)

    def test_nan_flux_integrand_names_the_polar_node(self):
        f = CallableField(lambda p: np.array([0.0, 0.0, math.nan if p[0] > 0.3 else 1.0]))
        with pytest.raises(NonFinite, match=r"flux integrand is not finite at \(r, theta\) = \["):
            disc_flux(f, DiscSpec((0, 0, 0), 1.0))


class TestStencilArrays:
    def test_curl_and_divergence_on_rows(self):
        rows = np.array([[0.5, 0.2, 0.0], [2.0, -1.0, 0.3], [-1.5, 0.7, -2.0]])
        for cfg in (DiffConfig(1e-4, 2), DiffConfig(1e-3, 4)):
            assert np.array_equal(numeric_curl(AS, rows, cfg),
                                  np.array([numeric_curl(AS, p, cfg) for p in rows]))
            assert np.array_equal(numeric_divergence(AS, rows, cfg),
                                  np.array([numeric_divergence(AS, p, cfg) for p in rows]))

    def test_one_row_off_the_domain_raises(self):
        ap = TransformedPotentialField(S)
        rows = np.array([[0.5, 0.2, 0.0], [5e-5, 0.0, 0.0]])
        with pytest.raises(DomainViolation, match="5e-05"):
            numeric_curl(ap, rows, DiffConfig(h=1e-4, order=2))
