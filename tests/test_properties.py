"""Cross-cutting invariants, mostly property based."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from abgauge import (BawinBurnelGauge, CallableField, DiffConfig, DiscSpec,
                     GaugeGradientField, LandauField, PathSpec, PolynomialGauge,
                     SingularSolenoidGauge, SolenoidBField, SolenoidSpec,
                     SolenoidTransverseField, disc_flux, landau_link1, landau_link2,
                     line_integral, numeric_curl)

import abgauge.calculus as calculus

from helpers import random_polynomial_gauge

S = SolenoidSpec(1.0, 1.0)
AS = SolenoidTransverseField(S)

safe_radius = st.floats(0.3, 4.0).filter(lambda r: abs(r - 1.0) > 0.05)
angle = st.floats(-3.0, 3.0)


class TestShellContinuity:
    @given(st.floats(0.2, 5.0), angle)
    def test_interior_exterior_branches_meet(self, r_shell, phi):
        s = SolenoidSpec(R=r_shell, B=1.3)
        eps = 1e-13 * r_shell
        p_in = ((r_shell - eps) * math.cos(phi), (r_shell - eps) * math.sin(phi), 0.0)
        p_out = ((r_shell + eps) * math.cos(phi), (r_shell + eps) * math.sin(phi), 0.0)
        a_in = SolenoidTransverseField(s)(p_in)
        a_out = SolenoidTransverseField(s)(p_out)
        assert np.max(np.abs(a_in - a_out)) < 1e-12 * max(1.0, s.flux)


class TestCurlOfGradientVanishes:
    def test_every_gauge_family(self, rng):
        gauges = [landau_link1(0.8), landau_link2(1.7),
                  SingularSolenoidGauge(S), BawinBurnelGauge(1.0)]
        gauges += [random_polynomial_gauge(rng) for _ in range(6)]
        cfg = DiffConfig(h=1e-4, order=4)
        for g in gauges:
            f = GaugeGradientField(g)
            for _ in range(10):
                rho = rng.uniform(0.5, 3.0)
                phi = rng.uniform(-2.8, 2.8)
                p = (rho * math.cos(phi), rho * math.sin(phi), rng.uniform(-1, 1))
                assert np.max(np.abs(numeric_curl(f, p, cfg))) < 1e-8


class TestLineIntegralAlgebra:
    @given(st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3), safe_radius)
    def test_scaling(self, c, radius):
        path = PathSpec.circle((0, 0, 0), radius)
        base = line_integral(AS, path, tol=1e-11).value
        scaled = line_integral(CallableField(lambda p: c * AS(p)), path,
                               tol=1e-11 * max(1, abs(c))).value
        assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-10)

    @given(safe_radius)
    def test_sum_field(self, radius):
        path = PathSpec.circle((0, 0, 0), radius)
        f = AS + GaugeGradientField(landau_link1(1.0))
        total = line_integral(f, path, tol=1e-11).value
        assert total == pytest.approx(line_integral(AS, path, tol=1e-11).value,
                                      abs=1e-8)

    @given(safe_radius, angle, st.floats(0.1, 2.9))
    def test_reversal_antisymmetry(self, radius, phi0, sweep):
        path = PathSpec.arc((0, 0, 0), radius, phi0, phi0 + sweep)
        fwd = line_integral(AS, path, tol=1e-10).value
        rev = line_integral(AS, path.reverse(), tol=1e-10).value
        assert rev == -fwd


class TestFluxLinearity:
    @given(st.floats(0.2, 3.0))
    def test_flux_scales_with_field_strength(self, b):
        disc = DiscSpec((0, 0, 0), 0.5)
        base = disc_flux(SolenoidBField(SolenoidSpec(1.0, 1.0)), disc, tol=1e-10).value
        scaled = disc_flux(SolenoidBField(SolenoidSpec(1.0, b)), disc, tol=1e-10).value
        assert scaled == pytest.approx(b * base, rel=1e-9)


class TestWindingCirculation:
    @given(st.integers(-2, 2).filter(lambda w: w != 0), safe_radius)
    def test_singular_gradient_winds(self, w, radius):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        loop = PathSpec.circle((0, 0, 0), radius, turns=w)
        rep = line_integral(f, loop, tol=1e-11)
        assert rep.value == pytest.approx(-w * math.pi, abs=1e-8)

    @given(st.floats(1.5, 4.0), st.floats(0.1, 0.4))
    def test_no_winding_no_circulation(self, cx, radius):
        f = GaugeGradientField(SingularSolenoidGauge(S))
        loop = PathSpec.circle((cx, 0, 0), radius)
        rep = line_integral(f, loop, tol=1e-11)
        assert rep.value == pytest.approx(0.0, abs=1e-9)


class TestLandauUniformity:
    @given(st.sampled_from(["S", "L1", "L2"]), st.floats(0.3, 2.0),
           st.floats(-2, 2), st.floats(-2, 2))
    def test_curl_is_uniform(self, variant, b, x, y):
        assume(math.hypot(x, y) > 0.05)
        f = LandauField(variant, b)
        c = numeric_curl(f, (x, y, 0.0))
        assert np.allclose(c, (0, 0, b), atol=1e-7)


coord = st.floats(-3.0, 3.0)


@st.composite
def any_path(draw):
    """An arc, a circle, a polyline or a parametric helix, maybe reversed."""
    kind = draw(st.sampled_from(["arc", "circle", "polyline", "parametric"]))
    c = (draw(coord), draw(coord), draw(coord))
    r = draw(st.floats(0.1, 4.0))
    if kind == "arc":
        phi0 = draw(angle)
        path = PathSpec.arc(c, r, phi0, phi0 + draw(st.floats(-9.0, 9.0)))
    elif kind == "circle":
        path = PathSpec.circle(c, r, turns=draw(st.sampled_from([-2, -1, 1, 3])),
                               start_phase=draw(angle))
    elif kind == "polyline":
        path = PathSpec.polyline(draw(st.lists(st.tuples(coord, coord, coord),
                                               min_size=2, max_size=6)))
    else:
        w, h = draw(st.floats(-7.0, 7.0)), draw(coord)
        path = PathSpec.parametric(
            lambda t: np.array([c[0] + r * math.cos(w * t), c[1] + r * math.sin(w * t),
                                c[2] + h * t]),
            lambda t: np.array([-r * w * math.sin(w * t), r * w * math.cos(w * t), h]))
    return path.reverse() if draw(st.booleans()) else path


def forward_velocities(path, ts):
    """Velocities of the forward curve by each kind's own formula."""
    if path.kind == "arc":
        _, r, phase, sweep = path.arc
        a = phase + sweep * ts
        return np.stack([-r * sweep * np.sin(a), r * sweep * np.cos(a), np.zeros_like(a)],
                        axis=1)
    if path.kind == "parametric":
        return np.array([path.dfn(t) for t in ts.tolist()]).reshape(-1, 3)
    m = len(path.vertices) - 1
    i = np.minimum((ts * m).astype(int), m - 1)
    v = np.asarray(path.vertices)
    return (v[i + 1] - v[i]) * m


def bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


class TestOneEvaluationPerLevel:
    """A path's frame and the paired first two quadrature levels are bitwise the
    separate evaluations they replace."""

    @given(any_path(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_frame_is_points_and_velocities(self, path, ts):
        ts = np.array(ts)
        pts, vel = path.frame(ts)
        assert bits(pts, vel) == bits(path.points(ts), path.velocities(ts))
        want = (-forward_velocities(path, 1.0 - ts) if path.is_reversed
                else forward_velocities(path, ts))
        assert bits(vel) == bits(want)

    @given(any_path(), st.sampled_from([1, 2]), st.integers(0, 4),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                              st.floats(-2.0, 2.0)), min_size=1, max_size=4))
    def test_paired_levels_are_the_single_level_rules(self, path, start, level, terms):
        f = AS + GaugeGradientField(PolynomialGauge(tuple(terms)))
        g = calculus._integrand(f, path)
        n = start << level
        paired = calculus._composite(g, (n, 2 * n), 8)
        single = calculus._composite(g, (n,), 8) + calculus._composite(g, (2 * n,), 8)
        assert bits(paired) == bits(single)
