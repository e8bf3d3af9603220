import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import (BawinBurnelGauge, GaugeGradientField, LandauField,
                     SingularSolenoidGauge, SolenoidBField, SolenoidSpec,
                     SolenoidTransverseField, StringField, TransformedPotentialField,
                     landau_link1)
from abgauge.errors import AxisCrossing, OnShell

from helpers import fd_gradient

S = SolenoidSpec(R=1.0, B=1.0)
PI = math.pi


class TestSolenoidSpec:
    def test_flux_identity(self):
        assert SolenoidSpec(2.0, 3.0).flux == pytest.approx(12 * PI, rel=1e-15)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SolenoidSpec(R=-1.0)

    @pytest.mark.parametrize("kwargs", [{"R": math.nan}, {"R": math.inf},
                                        {"B": math.nan}, {"B": -math.inf}])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolenoidSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"R": 1e200}, {"R": 1e154, "B": 2.0}])
    def test_overflowing_flux_rejected(self, kwargs):
        with pytest.raises(ValueError, match="flux"):
            SolenoidSpec(**kwargs)


class TestTransversePotential:
    def test_interior_branch(self):
        assert np.allclose(SolenoidTransverseField(S)((0.5, 0, 0)),
                           (0, 0.25, 0), atol=1e-15)

    def test_exterior_branch(self):
        assert np.allclose(SolenoidTransverseField(S)((2, 0, 0)),
                           (0, 0.25, 0), atol=1e-15)

    def test_on_axis(self):
        assert np.allclose(SolenoidTransverseField(S)((0, 0, 5)),
                           (0, 0, 0), atol=1e-15)

    def test_branches_meet_on_shell(self):
        inner = S.flux / (2 * PI) * (1.0 - 1e-14) / S.R ** 2
        outer = S.flux / (2 * PI) / (1.0 + 1e-14)
        assert inner == pytest.approx(outer, abs=1e-12)

    @given(st.floats(0.05, 5).filter(lambda r: abs(r - 1) > 1e-3),
           st.floats(-math.pi, math.pi), st.floats(-3, 3))
    def test_azimuthal_direction(self, rho, phi, z):
        p = (rho * math.cos(phi), rho * math.sin(phi), z)
        a = SolenoidTransverseField(S)(p)
        # Tangential: no radial or axial component.
        assert abs(a[0] * p[0] + a[1] * p[1]) < 1e-12
        assert a[2] == 0.0


class TestBField:
    def test_inside(self):
        assert np.allclose(SolenoidBField(S)((0.5, 0, 0)), (0, 0, 1))

    def test_outside(self):
        assert np.allclose(SolenoidBField(S)((2, 0, 0)), (0, 0, 0))

    def test_z_translation_invariance(self):
        assert np.allclose(SolenoidBField(S)((0, 0, -3)), (0, 0, 1))

    def test_on_shell_rejected(self):
        with pytest.raises(OnShell):
            SolenoidBField(S)((1.0, 0, 0))


class TestGaugeValues:
    def test_singular_zero_azimuth(self):
        g = SingularSolenoidGauge(S)
        assert g.value((1, 0, 0), 0.0) == 0.0

    def test_singular_full_winding(self):
        g = SingularSolenoidGauge(S)
        assert g.value((1, 0, 0), 2 * PI) == pytest.approx(-PI, abs=1e-15)

    def test_landau_link1_value(self):
        assert landau_link1(1.0).value((3, 2, 0)) == pytest.approx(3.0)

    def test_singular_axis_rejected(self):
        with pytest.raises(AxisCrossing):
            SingularSolenoidGauge(S).value((0, 0, 0))


class TestGaugeGradients:
    def test_singular_gradient(self):
        g = SingularSolenoidGauge(S)
        assert np.allclose(g.gradient((2, 0, 0)), (0, -0.25, 0), atol=1e-15)

    def test_landau_link1_gradient(self):
        assert np.allclose(landau_link1(1.0).gradient((3, 2, 0)),
                           (1.0, 1.5, 0.0), atol=1e-15)

    def test_bawin_burnel_gradient_against_fd_oracle(self):
        # Oracle: central differences of the gauge value with the branch
        # frozen by passing the continued azimuth explicitly.
        bb = BawinBurnelGauge(1.0)
        p = np.array([1.0, 0.0, 0.0])

        def chi(q):
            return bb.value(q, math.atan2(q[1], q[0]))

        oracle = fd_gradient(chi, p, h=1e-6)
        closed = bb.gradient(p, 0.0)
        assert np.allclose(closed, oracle, atol=1e-9)
        assert np.allclose(closed, (0.0, -0.5, 0.0), atol=1e-12)

    def test_bawin_burnel_gradient_off_zero_azimuth(self):
        bb = BawinBurnelGauge(0.7)
        p = np.array([0.8, 1.1, 0.4])
        az = math.atan2(p[1], p[0])

        def chi(q):
            return bb.value(q, math.atan2(q[1], q[0]))

        assert np.allclose(bb.gradient(p, az),
                           fd_gradient(chi, p, h=1e-6), atol=1e-8)

    def test_singular_gradient_matches_fd_of_branch(self):
        g = SingularSolenoidGauge(S)
        p = np.array([0.4, 0.9, -1.0])

        def chi(q):
            return g.value(q, math.atan2(q[1], q[0]))

        assert np.allclose(g.gradient(p), fd_gradient(chi, p, h=1e-6),
                           atol=1e-9)


class TestTransformedPotential:
    def test_exterior_vanishes_exactly(self):
        assert np.all(TransformedPotentialField(S)((2, 0, 0)) == 0.0)

    def test_interior_value(self):
        assert np.allclose(TransformedPotentialField(S)((0.5, 0, 0)),
                           (0, -0.75, 0), atol=1e-15)

    def test_equals_sum_of_potential_and_gradient(self):
        p = (0.3, 0.4, 1.0)
        direct = TransformedPotentialField(S)(p)
        summed = (SolenoidTransverseField(S)(p)
                  + SingularSolenoidGauge(S).gradient(p))
        assert np.allclose(direct, summed, atol=1e-12)

    def test_axis_rejected(self):
        with pytest.raises(AxisCrossing):
            TransformedPotentialField(S)((0, 0, 0))


class TestLandauPotentials:
    def test_l1(self):
        assert np.allclose(LandauField("L1")((3, 2, 0)), (-2, 0, 0))

    def test_symmetric(self):
        assert np.allclose(LandauField("S")((3, 2, 0)), (-1, 1.5, 0))

    def test_l2(self):
        assert np.allclose(LandauField("L2")((3, 2, 0)), (0, 3, 0))

    def test_gauge_link_identity_at_point(self):
        p = (3, 2, 0)
        diff = LandauField("S")(p) - LandauField("L1")(p)
        assert np.allclose(diff, landau_link1(1.0).gradient(p), atol=1e-15)

    def test_bawin_burnel_from_symmetric(self):
        p = np.array([0.9, 0.4, 0.0])
        az = math.atan2(p[1], p[0])
        built = (LandauField("S")(p)
                 + BawinBurnelGauge(1.0).gradient(p, az))
        assert np.allclose(built, LandauField("BB")(p), atol=1e-14)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            LandauField("L3")((1, 0, 0))


class TestStringDescriptors:
    def test_string_flux_default(self):
        assert StringField(S).flux == pytest.approx(-PI, abs=1e-15)

    def test_string_flux_scales_with_geometry(self):
        assert StringField(SolenoidSpec(2, 3)).flux == pytest.approx(-12 * PI)

    @given(st.floats(0.1, 5))
    def test_string_flux_linear_in_strength(self, b):
        assert StringField(SolenoidSpec(1.0, 2 * b)).flux == pytest.approx(
            2 * StringField(SolenoidSpec(1.0, b)).flux, rel=1e-12)


class TestFieldExprAlgebra:
    def test_sum(self):
        f = SolenoidTransverseField(S)
        g = GaugeGradientField(SingularSolenoidGauge(S))
        p = (0.7, 0.2, 0.1)
        assert np.array_equal((f + g)(p), f(p) + g(p))

    def test_domain_metadata_propagates(self):
        f = SolenoidTransverseField(S) + GaugeGradientField(SingularSolenoidGauge(S))
        assert f.excludes_axis
        assert not f.domain_ok((0, 0, 0))
        assert f.domain_ok((2, 0, 0))

    def test_branch_cut_metadata(self):
        bb = LandauField("BB", 1.0)
        assert bb.branch_cut
        assert not bb.domain_ok((-1.0, 0.0, 0.0), margin=1e-6)
        assert bb.domain_ok((1.0, 0.0, 0.0))


def _builtin_fields():
    from abgauge import CallableField, DiffConfig, NumericBiotSavartField, PolynomialGauge
    from abgauge.calculus import NumericCurlField
    poly = PolynomialGauge(((2, 1, 0, 0.7), (0, 0, 3, -0.2), (1, 0, 0, 1.5)), name="p")
    return {
        "solenoid.AS": SolenoidTransverseField(S),
        "solenoid.B": SolenoidBField(SolenoidSpec(1.3, 0.8)),
        "solenoid.Aprime": TransformedPotentialField(S),
        "gauge.sing": GaugeGradientField(SingularSolenoidGauge(S)),
        "gauge.chitilde": GaugeGradientField(BawinBurnelGauge(1.4)),
        "polynomial": GaugeGradientField(poly),
        **{f"landau.{v}": LandauField(v, 0.9) for v in ("S", "L1", "L2", "BB")},
        "sum": SolenoidTransverseField(S) + GaugeGradientField(poly),
        "callable": CallableField(lambda p: np.array([p[1] * p[2], -p[0], 1.0])),
        "numeric curl": NumericCurlField(SolenoidTransverseField(S), DiffConfig(1e-3, 4)),
        "numeric potential": NumericBiotSavartField(S),
    }


# Off the axis, the shell, and the negative x-axis, so every field is defined.
ROWS = np.array([[0.5, 0.2, 0.0], [2.0, -1.0, 0.3], [-1.5, 0.7, -2.0],
                 [0.1, -0.3, 1.0], [3.0, 2.5, 0.0], [-0.4, -0.6, 0.5]])


class TestArrayContract:
    """One code path: (N, 3) in gives the stacked (3,) results."""

    @pytest.mark.parametrize("name", list(_builtin_fields()))
    def test_field_on_rows_equals_row_by_row(self, name):
        f = _builtin_fields()[name]
        stacked = np.array([f(p) for p in ROWS])
        assert f(ROWS).shape == ROWS.shape
        assert np.array_equal(f(ROWS), stacked)
        assert np.array_equal(f(ROWS.reshape(1, -1, 3))[0], stacked)

    @pytest.mark.parametrize("name", list(_builtin_fields()))
    def test_domain_mask_equals_row_by_row(self, name):
        f = _builtin_fields()[name]
        edge = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.3, 0.0, 0.0], [-2.0, 0.0, 0.0],
                         [0.0, 1e-10, 0.0], [-1.0, 1e-7, 0.0]])
        rows = np.concatenate([ROWS, edge])
        for margin in (0.0, 1e-6):
            mask = f.domain_ok(rows, margin)
            assert mask.shape == (len(rows),)
            assert mask.tolist() == [bool(f.domain_ok(p, margin)) for p in rows]

    def test_gauge_gradients_broadcast(self):
        for g in (SingularSolenoidGauge(S), BawinBurnelGauge(1.1), landau_link1(0.5)):
            assert np.array_equal(g.gradient(ROWS),
                                  np.array([g.gradient(p) for p in ROWS]))

    def test_any_singular_row_raises(self):
        rows = np.concatenate([ROWS, [[0.0, 0.0, 0.0]]])
        with pytest.raises(AxisCrossing):
            TransformedPotentialField(S)(rows)
        with pytest.raises(OnShell):
            SolenoidBField(S)(np.concatenate([ROWS, [[0.0, 1.0, 0.0]]]))
