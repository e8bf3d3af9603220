import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from abgauge import (NumericBiotSavartField, SolenoidBField, SolenoidSpec,
                     SolenoidTransverseField, line_integral, numeric_b_field,
                     numeric_potential)
from abgauge.biot_savart import _log_kernel, _quadrature
from abgauge.errors import OnShell
from abgauge.geometry import PathSpec

S = SolenoidSpec(1.0, 1.0)


def rel_error(value, exact):
    return float(np.max(np.abs(value - exact)) / np.max(np.abs(exact)))


class TestNumericPotential:
    def test_exterior_point_matches_closed_form(self):
        r = numeric_potential((2, 0, 0), S)
        assert rel_error(r.value, (0, 0.25, 0)) < 1e-4

    def test_interior_point_matches_closed_form(self):
        r = numeric_potential((0.5, 0, 0), S)
        assert rel_error(r.value, (0, 0.25, 0)) < 1e-4

    def test_on_axis_vanishes(self):
        r = numeric_potential((0, 0, 7), S)
        assert float(np.max(np.abs(r.value))) < 1e-6

    def test_transverse_components_vanish(self):
        # Radial and axial components are zero up to the error estimate.
        r = numeric_potential((1.7, 0.9, 0.4), S)
        rho_hat = np.array([1.7, 0.9, 0.0]) / math.hypot(1.7, 0.9)
        assert abs(float(np.dot(r.value, rho_hat))) <= max(r.error_estimate, 1e-9)
        assert r.value[2] == 0.0

    def test_error_estimate_brackets_true_error(self):
        p = (2, 0, 0.3)
        exact = SolenoidTransverseField(S)(p)
        r = numeric_potential(p, S)
        assert float(np.max(np.abs(r.value - exact))) < 10 * r.error_estimate + 1e-12

    def test_on_shell_rejected(self):
        for p in ((1.0, 0, 0), (0, -1.0 - 5e-13, 2.0)):
            with pytest.raises(OnShell):
                numeric_potential(p, S)
            with pytest.raises(OnShell):
                numeric_b_field(p, S)


class TestTruncationDecay:
    def test_pure_quadrature_error_cascade(self):
        p = (1.0011, 0, 0.3)
        ref, *values = _quadrature(_log_kernel, p, S, (128, 32, 40, 48))
        prev = None
        for value in values:
            err = float(np.max(np.abs(value - ref)))
            if prev is not None and prev > 1e-13:
                assert err <= prev / 4.0 or err < 1e-13
            prev = err


class TestAzimuthalSymmetry:
    def test_rotated_points_related_by_rotation(self):
        delta = 0.7
        a = numeric_potential((3.0, 0, 0.2), S).value
        b = numeric_potential((3.0 * math.cos(delta), 3.0 * math.sin(delta), 0.2),
                              S).value
        rot = np.array([[math.cos(delta), -math.sin(delta), 0],
                        [math.sin(delta), math.cos(delta), 0],
                        [0, 0, 1]])
        assert np.allclose(rot @ a, b, atol=1e-10)


class TestNumericBField:
    def test_interior_field(self):
        rep = numeric_b_field((0.5, 0, 0), S)
        assert np.max(np.abs(rep.value - (0, 0, 1))) <= 1e-14
        assert rep.error_estimate <= 1e-14

    def test_exterior_field(self):
        rep = numeric_b_field((3, 0, 0), S)
        assert np.max(np.abs(rep.value)) <= 1e-14
        assert rep.error_estimate <= 1e-14

    def test_z_invariance(self):
        b1 = numeric_b_field((0.5, 0, 0), S).value
        b2 = numeric_b_field((0.5, 0, 4), S).value
        assert np.array_equal(b1, b2)

    def test_point_near_the_shell_meets_the_closed_form(self):
        for rho, b_z in ((1.02, 0.0), (0.98, 1.0)):
            rep = numeric_b_field((rho, 0, 0), S)
            assert np.max(np.abs(rep.value - (0, 0, b_z))) <= 1e-12


class TestGaugeInvariantChain:
    def test_circulation_of_numeric_potential_equals_flux(self):
        # Quadrature output alone, integrated around an enclosing loop,
        # reproduces the flux without touching the closed form.
        f = NumericBiotSavartField(S)
        rep = line_integral(f, PathSpec.circle((0, 0, 0), 2.0), tol=1e-4)
        assert abs(rep.value - math.pi) / math.pi < 1e-3


def _points_off_the_shell(n, seed=3):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1, 1.8, n)
    rho[np.abs(rho - 1.0) < 0.01] += 0.02
    phi = rng.uniform(-math.pi, math.pi, n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-3, 3, n)], axis=1)


class TestArrayOracle:
    def test_azimuth_rule_covers_the_circle(self):
        from abgauge.biot_savart import _azimuth_rule
        for levels in (1, 2, 7, 33, 56):
            offsets, weights, s2, wcos, wsin = _azimuth_rule(48, levels)
            assert offsets.shape == weights.shape == (2 * (levels + 1) * 48,)
            assert np.all(np.diff(offsets) > 0)
            assert -math.pi < offsets[0] and offsets[-1] < math.pi
            assert np.abs(offsets).min() < math.pi / 2 ** levels
            assert math.fsum(weights) == pytest.approx(2 * math.pi, rel=1e-14)
            assert np.array_equal(s2, np.sin(offsets / 2) ** 2)
            assert np.array_equal(wcos, weights * np.cos(offsets))
            assert np.array_equal(wsin, weights * np.sin(offsets))

    def test_points_at_many_gaps_match_single_calls_bitwise(self):
        # Each gap takes its own number of levels, so the rows fall into several groups.
        rho = 1.0 + np.array([3.0, -1e-9, 0.5, 1e-5, -0.9, 1e-9, 2.5e-3, 3.0])
        pts = np.stack([rho * math.cos(0.3), rho * math.sin(0.3), np.linspace(-1, 1, 8)], 1)
        for oracle in (numeric_potential, numeric_b_field):
            rep = oracle(pts.reshape(2, 4, 3), S)
            assert rep.value.shape == (2, 4, 3)
            rows = [oracle(p, S) for p in pts]
            assert np.array_equal(rep.value.reshape(8, 3), [row.value for row in rows])
            assert rep.error_estimate == max(row.error_estimate for row in rows)

    def test_rows_longer_than_a_block_match_single_calls_bitwise(self):
        pts = _points_off_the_shell(50)
        rep = numeric_potential(pts, S)
        assert rep.value.shape == (50, 3)
        for k, p in enumerate(pts):
            assert np.array_equal(rep.value[k], numeric_potential(p, S).value)

    def test_error_estimate_is_the_row_maximum(self):
        pts = _points_off_the_shell(7)
        rep = numeric_potential(pts, S)
        rows = [numeric_potential(p, S).error_estimate for p in pts]
        assert rep.error_estimate == max(rows)

    def test_one_row_on_the_shell_names_the_point(self):
        pts = _points_off_the_shell(5)
        pts[3] = (0.0, 1.0, 0.5)
        for oracle in (numeric_potential, numeric_b_field):
            with pytest.raises(OnShell, match=r"point \[0\.0, 1\.0, 0\.5\] is on"):
                oracle(pts, S)

    def test_b_field_on_an_array_matches_single_points(self):
        pts = _points_off_the_shell(50)
        rep = numeric_b_field(pts, S)
        assert rep.value.shape == (50, 3)
        rows = [numeric_b_field(p, S) for p in pts]
        for k, row in enumerate(rows):
            assert np.array_equal(rep.value[k], row.value)
        assert rep.error_estimate == max(row.error_estimate for row in rows)

    def test_row_near_the_shell_meets_the_closed_form(self):
        pts = _points_off_the_shell(5)
        pts[2] = (1.0004, 0.0, 0.5)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        b = np.zeros_like(pts)
        b[:, 2] = np.where(rho < 1.0, 1.0, 0.0)
        for oracle, exact in ((numeric_potential, SolenoidTransverseField(S)(pts)),
                              (numeric_b_field, b)):
            assert np.max(np.abs(oracle(pts, S).value - exact)) <= 1e-12


@st.composite
def calibration_point(draw, R):
    """A point near the shell, |rho/R - 1| log-uniform on [1e-9, 0.9] on either side,
    one anywhere within 6 R of the axis and at least 1e-9 R from the shell, or one far
    out, rho/R log-uniform on [6, 1e6], where the sums cancel to a small value."""
    where = draw(st.sampled_from(["shell", "near", "far"]))
    if where == "shell":
        gap = math.exp(draw(st.floats(math.log(1e-9), math.log(0.9))))
        rho = R * (1.0 + gap if draw(st.booleans()) else 1.0 - gap)
    elif where == "near":
        rho = draw(st.floats(0.0, 6.0 * R))
        assume(abs(rho - R) >= 1e-9 * R)
    else:
        rho = R * math.exp(draw(st.floats(math.log(6.0), math.log(1e6))))
    phi = draw(st.floats(-math.pi, math.pi))
    return (rho * math.cos(phi), rho * math.sin(phi), R * draw(st.floats(-3.0, 3.0)))


SPECS = st.sampled_from([(1.0, 1.0), (0.3, 2.0), (3.0, 0.5)])


class TestEstimateCalibration:
    """The estimate bounds the error against the closed form with no slack, rounding
    included."""

    @given(st.data(), SPECS)
    def test_estimate_bounds_the_error(self, data, spec):
        s = SolenoidSpec(*spec)
        p = data.draw(calibration_point(s.R))
        rep = numeric_potential(p, s)
        assert float(np.max(np.abs(rep.value - SolenoidTransverseField(s)(p)))) \
            <= rep.error_estimate <= 1e-9 * abs(s.B) * s.R

    @given(st.data(), SPECS)
    def test_b_field_estimate_bounds_the_error(self, data, spec):
        s = SolenoidSpec(*spec)
        p = data.draw(calibration_point(s.R))
        rho = math.hypot(p[0], p[1])
        exact = (0.0, 0.0, s.B if rho < s.R else 0.0)
        rep = numeric_b_field(p, s)
        error = float(np.max(np.abs(rep.value - exact)))
        assert error <= rep.error_estimate <= 1e-9 * abs(s.B)
        assert error <= 1e-12 * abs(s.B)

    def test_far_field_estimate_follows_the_value(self):
        # The terms are about 1e-6 and cancel to about 1e-22; a floor of a few ulps of
        # |B| would read about 1e-15, so it would not follow the value.
        rep = numeric_b_field((1e6, 0.0, 0.0), S)
        assert abs(rep.value[2]) <= rep.error_estimate <= 1e-20


class TestShellTolerance:
    """A point is on the shell within SHELL_TOL * R of it, the same rule for the closed
    form, its domain and both oracles, whatever the radius."""

    @pytest.mark.parametrize("R", [1e-13, 1.0, 1e8])
    def test_a_gap_scales_with_the_radius(self, R):
        s = SolenoidSpec(R, 1.0)
        fields = (SolenoidBField(s), NumericBiotSavartField(s))
        for sign in (1.0, -1.0):
            near, on = (R * (1.0 + sign * 1e-6), 0.0, 0.0), (R * (1.0 + sign * 1e-13), 0.0, 0.0)
            for f in fields:
                assert f.domain_ok(near) and not f.domain_ok(on)
                f(near)
                with pytest.raises(OnShell):
                    f(on)
            for oracle in (numeric_potential, numeric_b_field):
                oracle(near, s)
                with pytest.raises(OnShell):
                    oracle(on, s)
