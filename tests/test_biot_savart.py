import math

import numpy as np
import pytest

from abgauge import (NumericBiotSavartField, QuadratureConfig, SolenoidSpec,
                     line_integral, numeric_b_field, numeric_potential,
                     solenoid_transverse_potential)
from abgauge.errors import NonConvergent, TooCloseToShell
from abgauge.geometry import PathSpec

S = SolenoidSpec(1.0, 1.0)
CFG = QuadratureConfig(n_phi=64, half_lengths=(8, 16, 32, 64))


def rel_error(value, exact):
    return float(np.max(np.abs(value - exact)) / np.max(np.abs(exact)))


class TestConfig:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            QuadratureConfig(n_phi=4)

    def test_half_lengths_ascending(self):
        with pytest.raises(ValueError):
            QuadratureConfig(half_lengths=(16, 8))

    def test_half_lengths_minimum(self):
        with pytest.raises(ValueError):
            QuadratureConfig(half_lengths=(2, 8))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_half_lengths_finite(self, bad):
        with pytest.raises(ValueError):
            QuadratureConfig(half_lengths=(8, bad))


class TestNumericPotential:
    def test_exterior_point_matches_closed_form(self):
        r = numeric_potential((2, 0, 0), S, CFG)
        assert rel_error(r.value, (0, 0.25, 0)) < 1e-4

    def test_interior_point_matches_closed_form(self):
        r = numeric_potential((0.5, 0, 0), S, CFG)
        assert rel_error(r.value, (0, 0.25, 0)) < 1e-4

    def test_on_axis_vanishes(self):
        r = numeric_potential((0, 0, 7), S, CFG)
        assert float(np.max(np.abs(r.value))) < 1e-6

    def test_transverse_components_vanish(self):
        # Radial and axial components are zero up to the error estimate.
        r = numeric_potential((1.7, 0.9, 0.4), S, CFG)
        rho_hat = np.array([1.7, 0.9, 0.0]) / math.hypot(1.7, 0.9)
        assert abs(float(np.dot(r.value, rho_hat))) <= max(r.error_estimate, 1e-9)
        assert r.value[2] == 0.0

    def test_error_estimate_brackets_true_error(self):
        p = (2, 0, 0.3)
        exact = solenoid_transverse_potential(p, S)
        r = numeric_potential(p, S, CFG)
        assert float(np.max(np.abs(r.value - exact))) < 10 * r.error_estimate + 1e-12

    def test_shell_band_rejected(self):
        with pytest.raises(TooCloseToShell):
            numeric_potential((1.0005, 0, 0), S, CFG)

    def test_per_length_values_recorded(self):
        r = numeric_potential((2, 0, 0), S, CFG)
        assert len(r.per_length) == 4
        assert r.half_lengths == (8, 16, 32, 64)

    def test_monotone_guard_triggers_on_corrupted_sequence(self):
        from abgauge.biot_savart import _check_monotone_approach
        good = [np.array([0.0, 0.1, 0.0]), np.array([0.0, 0.01, 0.0])]
        _check_monotone_approach(good, np.zeros(3))
        bad = [np.array([0.0, 0.01, 0.0]), np.array([0.0, 0.1, 0.0])]
        with pytest.raises(NonConvergent):
            _check_monotone_approach(bad, np.zeros(3))

    def test_single_half_length_has_no_estimate(self):
        r = numeric_potential((2, 0, 0), S, QuadratureConfig(n_phi=32, half_lengths=(8,)))
        assert np.all(r.value == r.per_length[0])
        assert r.error_estimate is None


def dense_axial_sum(z, half_length, d, order=40):
    """Composite Gauss-Legendre sum of 1/sqrt(d**2 + (z - z')**2) over z'.

    Panels grow geometrically from the point nearest z, so the peak of
    width d is resolved.
    """
    zc = min(max(z, -half_length), half_length)
    steps = d * 2.0 ** np.arange(60)
    breaks = np.unique(np.clip(np.concatenate(([-half_length, zc, half_length],
                                               zc - steps, zc + steps)),
                               -half_length, half_length))
    x, w = np.polynomial.legendre.leggauss(order)
    parts = []
    for a, b in zip(breaks, breaks[1:]):
        zp = 0.5 * (a + b) + 0.5 * (b - a) * x
        parts.extend(0.5 * (b - a) * w / np.sqrt(d * d + (z - zp) ** 2))
    return math.fsum(parts)


class TestAxialClosedForm:
    @pytest.mark.parametrize("d", [1e-3, 1e-2, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("z", [0.0, 2.5, -7.999, 8.0, 9.0, -20.0])
    def test_matches_dense_gauss_legendre(self, d, z):
        from abgauge.biot_savart import _axial_integral
        exact = float(_axial_integral(z, 8.0, np.array([d]))[0])
        assert exact == pytest.approx(dense_axial_sum(z, 8.0, d), rel=1e-12)


class TestTruncationDecay:
    def test_truncation_error_scales_as_inverse_square(self):
        # Distances to the closed form should drop ~4x per half-length doubling.
        p = (2, 0, 0)
        exact = solenoid_transverse_potential(p, S)
        r = numeric_potential(p, S, CFG)
        dists = [float(np.max(np.abs(v - exact))) for v in r.per_length]
        for a, b in zip(dists, dists[1:]):
            assert 3.0 < a / b < 5.0

    def test_pure_quadrature_error_cascade(self):
        p = (1.1, 0, 0.3)
        ref_cfg = QuadratureConfig(n_phi=128, half_lengths=(16.0,))
        ref = numeric_potential(p, S, ref_cfg).per_length[0]
        prev = None
        for n in (8, 16, 32):
            cfg = QuadratureConfig(n_phi=n, half_lengths=(16.0,))
            err = float(np.max(np.abs(numeric_potential(p, S, cfg).per_length[0] - ref)))
            if prev is not None and prev > 1e-13:
                assert err <= prev / 4.0 or err < 1e-13
            prev = err


class TestAzimuthalSymmetry:
    def test_rotated_points_related_by_rotation(self):
        delta = 0.7
        a = numeric_potential((3.0, 0, 0.2), S, CFG).value
        b = numeric_potential((3.0 * math.cos(delta), 3.0 * math.sin(delta), 0.2),
                              S, CFG).value
        rot = np.array([[math.cos(delta), -math.sin(delta), 0],
                        [math.sin(delta), math.cos(delta), 0],
                        [0, 0, 1]])
        assert np.allclose(rot @ a, b, atol=1e-10)


class TestNumericBField:
    def test_interior_field(self):
        b = numeric_b_field((0.5, 0, 0), S, CFG, h=1e-2)
        assert np.allclose(b, (0, 0, 1), atol=1e-3)

    def test_exterior_field(self):
        b = numeric_b_field((3, 0, 0), S, CFG, h=1e-2)
        assert np.allclose(b, (0, 0, 0), atol=1e-3)

    def test_z_invariance(self):
        b1 = numeric_b_field((0.5, 0, 0), S, CFG, h=1e-2)
        b2 = numeric_b_field((0.5, 0, 4), S, CFG, h=1e-2)
        assert np.allclose(b1, b2, atol=2e-3)

    def test_stencil_near_shell_rejected(self):
        with pytest.raises(TooCloseToShell):
            numeric_b_field((1.02, 0, 0), S, CFG, h=1e-2)


class TestGaugeInvariantChain:
    def test_circulation_of_numeric_potential_equals_flux(self):
        # Quadrature output alone, integrated around an enclosing loop,
        # reproduces the flux without touching the closed form.
        cfg = QuadratureConfig(n_phi=32, half_lengths=(8, 16, 32))
        f = NumericBiotSavartField(S, cfg)
        rep = line_integral(f, PathSpec.circle((0, 0, 0), 2.0), tol=1e-4)
        assert abs(rep.value - math.pi) / math.pi < 1e-3


def _off_band_points(n, seed=3):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1, 1.8, n)
    rho[np.abs(rho - 1.0) < 0.01] += 0.02
    phi = rng.uniform(-math.pi, math.pi, n)
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-3, 3, n)], axis=1)


class TestArrayOracle:
    def test_azimuth_rule_covers_the_circle(self):
        from abgauge.biot_savart import _azimuth_rule
        offsets, weights = _azimuth_rule(48)
        assert offsets.shape == weights.shape == (16 * 48,)
        assert np.all(np.diff(offsets) > 0)
        assert -math.pi < offsets[0] and offsets[-1] < math.pi
        assert math.fsum(weights) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_rows_longer_than_a_block_match_single_calls_bitwise(self):
        cfg = QuadratureConfig(n_phi=48)
        pts = _off_band_points(50)
        rep = numeric_potential(pts, S, cfg)
        assert rep.value.shape == (50, 3)
        assert all(v.shape == (50, 3) for v in rep.per_length)
        for k, p in enumerate(pts):
            one = numeric_potential(p, S, cfg)
            assert np.array_equal(rep.value[k], one.value)
            for many, single in zip(rep.per_length, one.per_length):
                assert np.array_equal(many[k], single)

    def test_error_estimate_is_the_row_maximum(self):
        pts = _off_band_points(7)
        rep = numeric_potential(pts, S, CFG)
        rows = [numeric_potential(p, S, CFG).error_estimate for p in pts]
        assert rep.error_estimate == max(rows)

    def test_one_row_in_the_shell_band_names_its_rho(self):
        pts = _off_band_points(5)
        pts[3] = (0.0, 1.0004, 0.5)
        with pytest.raises(TooCloseToShell, match=r"rho = 1\.0004 is within"):
            numeric_potential(pts, S, CFG)

    def test_monotone_guard_on_stacked_points(self):
        from abgauge.biot_savart import _check_monotone_approach
        far = np.array([[0.0, 0.1, 0.0], [0.2, 0.0, 0.0]])
        near = np.array([[0.0, 0.01, 0.0], [0.02, 0.0, 0.0]])
        _check_monotone_approach([far, near], np.zeros((2, 3)))
        mixed = near.copy()
        mixed[1] = (0.3, 0.0, 0.0)
        pts = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        named = r"at \[0\.0, 3\.0, 0\.0\]: distances \[0\.2, 0\.3\]"
        with pytest.raises(NonConvergent, match=named):
            _check_monotone_approach([far, mixed], np.zeros((2, 3)), pts)

    def test_b_field_on_an_array_matches_single_points(self):
        pts = np.array([[0.5, 0.0, 0.0], [3.0, 0.0, 0.0], [0.1, 0.4, 2.0]])
        many = numeric_b_field(pts, S, CFG, h=1e-2)
        assert many.shape == (3, 3)
        for k, p in enumerate(pts):
            assert np.array_equal(many[k], numeric_b_field(p, S, CFG, h=1e-2))

    def test_b_field_stencil_near_shell_rejected_for_any_row(self):
        with pytest.raises(TooCloseToShell):
            numeric_b_field([(0.5, 0, 0), (1.02, 0, 0)], S, CFG, h=1e-2)
