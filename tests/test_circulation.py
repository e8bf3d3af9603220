"""Closed-form circulations and fluxes against independent values, and refusals
that stay the same.

``line_integral`` takes the transverse potential and the linear Landau
potentials on arcs and polylines and gauge gradients on any path by
formula.  Wrapping a field in a one-term ``SumField`` hides its closed form,
so the same call integrates it by quadrature.  Paths that cross the shell
are compared with quadrature of pieces this module splits itself, by
bisection on rho(t) - R, and crossing circles with the exact lens area.
Landau arcs are compared with a fixed Gauss-Legendre rule, and the exact
flux of B through a disc with the exact circulation of A_S around its rim.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abgauge import (BawinBurnelGauge, DiscSpec, FieldExpr, GaugeGradientField,
                     LandauField, PathSpec, PolynomialGauge, SingularSolenoidGauge,
                     SolenoidBField, SolenoidSpec, SolenoidTransverseField, SumField,
                     disc_flux, line_integral)
from abgauge.errors import ComputationError, DomainViolation
from abgauge.scenario import _FIELDS, _GAUGES, scenario_from_dict

TOL = 1e-12
QUAD_TOL = 1e-13

solenoids = st.builds(SolenoidSpec, st.floats(0.5, 2.0),
                      st.floats(0.3, 2.0) | st.floats(-2.0, -0.3))
phase = st.floats(-math.pi, math.pi)
sweep = st.floats(0.2, 4.0 * math.pi) | st.floats(-4.0 * math.pi, -0.2)
unit = st.floats(0.0, 1.0)


def quadrature(f, path):
    return line_integral(SumField((f,)), path, tol=QUAD_TOL).value


def close(got, want, scale=1.0):
    return abs(got - want) <= TOL * max(1.0, abs(want), scale)


def polar(rho, phi, z=0.0):
    return (rho * math.cos(phi), rho * math.sin(phi), z)


# -- paths on one side of the shell ------------------------------------------

@st.composite
def inside_arc(draw, R):
    """An arc of a circle that lies within 0.95 R of the axis."""
    r = R * draw(st.floats(0.05, 0.9))
    c = polar(draw(unit) * (0.95 * R - r), draw(phase), draw(st.floats(-1.0, 1.0)))
    p0 = draw(phase)
    return PathSpec.arc(c, r, p0, p0 + draw(sweep))


@st.composite
def outside_arc(draw, R):
    """An arc of a circle around the whole shell or beside it, 1.05 R clear of it."""
    if draw(st.booleans()):
        hc = R * draw(st.floats(0.0, 1.0))
        r = hc + R * draw(st.floats(1.05, 2.0))
    else:
        r = R * draw(st.floats(0.1, 1.5))
        hc = r + R * draw(st.floats(1.05, 2.0))
    p0 = draw(phase)
    return PathSpec.arc(polar(hc, draw(phase), 0.5), r, p0, p0 + draw(sweep))


@st.composite
def inside_polyline(draw, R):
    """Vertices within 0.95 R of the axis; the disc is convex, so every edge is too."""
    n = draw(st.integers(2, 6))
    return PathSpec.polyline([polar(0.95 * R * draw(unit), draw(phase), draw(unit))
                              for _ in range(n)])


@st.composite
def outside_polyline(draw, R, start=None):
    """Vertices at 1.5 R to 3 R, after start if given (at least 1.05 R out), whose
    azimuths step by less than 0.5 rad.  An edge between points at least m from
    the axis keeps m cos(step / 2) > 1.01 R from it."""
    pts = [] if start is None else [tuple(start)]
    phi = draw(phase) if start is None else math.atan2(start[1], start[0])
    for _ in range(draw(st.integers(2 - len(pts), 7 - len(pts)))):
        if pts:
            phi += draw(st.floats(-0.49, 0.49))
        pts.append(polar(R * draw(st.floats(1.5, 3.0)), phi, draw(unit)))
    return PathSpec.polyline(pts)


def one_side(R):
    return st.one_of(inside_arc(R), outside_arc(R), inside_polyline(R), outside_polyline(R))


@st.composite
def one_side_pieces(draw, R):
    """The pieces of a path on one side of the shell: an arc or a polyline, maybe
    followed by a polyline that starts at its end, all maybe reversed."""
    pieces = [draw(one_side(R))]
    if draw(st.booleans()):
        end = pieces[0].end
        if math.hypot(end[0], end[1]) < R:
            pieces.append(PathSpec.polyline([end, *draw(inside_polyline(R)).vertices]))
        else:
            pieces.append(draw(outside_polyline(R, start=end)))
    return [p.reverse() for p in pieces] if draw(st.booleans()) else pieces


def piecewise(integrate, f, pieces):
    return math.fsum(integrate(f, p) for p in pieces)


def exact(f, path):
    return line_integral(f, path).value


def gauss_legendre(f, path, panels=64, order=8):
    """Composite Gauss-Legendre rule over the path parameter, independent of calculus."""
    x, w = np.polynomial.legendre.leggauss(order)
    ts = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    terms = np.tile(0.5 * w / panels, panels) * (f(path.points(ts))
                                                 * path.velocities(ts)).sum(axis=1)
    return math.fsum(terms.tolist())


class TestOneSideOfTheShell:
    @given(st.data(), solenoids)
    def test_transverse_potential_matches_quadrature(self, data, s):
        pieces = data.draw(one_side_pieces(s.R))
        f = SolenoidTransverseField(s)
        assert close(piecewise(exact, f, pieces), piecewise(quadrature, f, pieces),
                     abs(s.flux))

    def test_edge_with_no_motion_in_the_plane_adds_nothing(self):
        # An edge from -0.0 to 0.0 once gave atan2(0, -0) = pi as its azimuth change.
        f = SolenoidTransverseField(SolenoidSpec())
        path = PathSpec.polyline([(0.27, 0.42, 0.0), (-0.0, -0.0, 0.0), (0.0, 0.0, 0.0),
                                  (0.0, 0.0, 1.0), (2.0, 0.0, 1.0), (2.0, 0.0, -1.0)])
        assert line_integral(f, path).value == 0.0

    @given(st.data(), st.sampled_from(["S", "L1", "L2"]), st.floats(-2.0, 2.0))
    def test_landau_polyline_matches_quadrature(self, data, variant, b):
        path = data.draw(inside_polyline(3.0) | outside_polyline(1.0))
        if data.draw(st.booleans()):
            path = path.reverse()
        f = LandauField(variant, b)
        assert close(line_integral(f, path).value, quadrature(f, path), 10.0)

    @given(st.data(), st.sampled_from(["S", "L1", "L2"]),
           st.floats(0.3, 2.0) | st.floats(-2.0, -0.3), st.booleans())
    def test_landau_arc_matches_gauss_legendre(self, data, variant, b, reverse):
        path = data.draw(inside_arc(3.0) | outside_arc(1.0))
        f = LandauField(variant, b)
        (cx, cy, _), r, _, sw = path.arc
        got = line_integral(f, path.reverse() if reverse else path).value
        want = gauss_legendre(f, path)
        # |A| <= |b| (|c| + r) on the arc, whose length is r |sweep|.
        scale = abs(b) * (math.hypot(cx, cy) + r) * r * abs(sw)
        assert abs(got - (-want if reverse else want)) <= 1e-13 * scale

    @given(st.data(), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                         st.integers(0, 1), st.floats(-1.0, 1.0)),
                               min_size=1, max_size=4))
    def test_polynomial_gauge_gradient_matches_quadrature(self, data, terms):
        pieces = data.draw(one_side_pieces(1.0))
        f = GaugeGradientField(PolynomialGauge(tuple(terms)))
        assert close(piecewise(exact, f, pieces), piecewise(quadrature, f, pieces), 100.0)

    @given(st.data(), solenoids)
    def test_singular_gauge_gradient_matches_quadrature(self, data, s):
        path = data.draw(outside_arc(s.R) | outside_polyline(s.R))
        if data.draw(st.booleans()):
            path = path.reverse()
        f = GaugeGradientField(SingularSolenoidGauge(s))
        assert close(line_integral(f, path).value, quadrature(f, path), abs(s.flux))


# -- paths across the shell -----------------------------------------------------

def _shell_crossings(path, R, samples):
    """Parameters where rho(t) = R: sign changes of rho - R on a grid, bisected."""
    def gap(t):
        x, y, _ = path.points([t])[0]
        return math.hypot(x, y) - R

    ts = np.linspace(0.0, 1.0, samples + 1)
    pts = path.points(ts)
    gaps = np.hypot(pts[:, 0], pts[:, 1]) - R
    roots = []
    for k in np.nonzero(np.signbit(gaps[:-1]) != np.signbit(gaps[1:]))[0]:
        lo, hi = float(ts[k]), float(ts[k + 1])
        below = gaps[k] < 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (gap(mid) < 0) == below:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def _split_reference(f, path, R):
    """Quadrature of a forward arc or segment, piece by piece between its crossings."""
    if path.kind == "arc":
        c, r, p0, sw = path.arc
        cuts = [0.0, *_shell_crossings(path, R, 1024 * math.ceil(abs(sw) / math.pi)), 1.0]
        pieces = [PathSpec.arc(c, r, p0 + sw * t, p0 + sw * u) for t, u in zip(cuts, cuts[1:])]
    else:
        a, b = (np.asarray(v) for v in path.vertices)
        cuts = [0.0, *_shell_crossings(path, R, 4096), 1.0]
        pieces = [PathSpec.segment(a + t * (b - a), a + u * (b - a))
                  for t, u in zip(cuts, cuts[1:])]
    return math.fsum(quadrature(f, p) for p in pieces)


@st.composite
def crossing_segment(draw, R):
    """From inside 0.8 R to outside 1.2 R (one crossing), or a chord through the
    shell that passes within 0.8 R of the axis (two crossings)."""
    if draw(st.booleans()):
        a = polar(0.8 * R * draw(unit), draw(phase), draw(unit))
        b = polar(R * draw(st.floats(1.2, 3.0)), draw(phase), draw(unit))
    else:
        h, psi = 0.8 * R * draw(unit), draw(phase)
        n, u = np.array(polar(1.0, psi)), np.array(polar(1.0, psi + math.pi / 2))
        a = h * n - R * draw(st.floats(1.2, 3.0)) * u
        b = h * n + R * draw(st.floats(1.2, 3.0)) * u
    return PathSpec.segment(a, b)


@st.composite
def crossing_circle(draw, R):
    """(centre distance, radius) of a circle that cuts the shell at an angle:
    hc + r > 1.2 R and |hc - r| < 0.8 R."""
    hc = R * draw(st.floats(0.3, 2.5))
    lo, hi = max(hc - 0.8 * R, 1.2 * R - hc), hc + 0.8 * R
    return hc, lo + (hi - lo) * draw(st.floats(0.01, 0.99))


@st.composite
def crossing_arc(draw, R):
    hc, r = draw(crossing_circle(R))
    p0 = draw(phase)
    return PathSpec.arc(polar(hc, draw(phase), -0.5), r, p0, p0 + draw(sweep))


def lens_area(R, hc, r):
    """Area shared by the disc of radius R at the origin and that of radius r at distance hc."""
    a = r * r * math.acos((hc * hc + r * r - R * R) / (2.0 * hc * r))
    b = R * R * math.acos((hc * hc + R * R - r * r) / (2.0 * hc * R))
    k = 0.5 * math.sqrt((-hc + r + R) * (hc + r - R) * (hc - r + R) * (hc + r + R))
    return a + b - k


class TestAcrossTheShell:
    @given(st.data(), solenoids, st.booleans())
    def test_crossing_segment_matches_split_quadrature(self, data, s, reverse):
        path = data.draw(crossing_segment(s.R))
        f = SolenoidTransverseField(s)
        want = _split_reference(f, path, s.R)
        got = line_integral(f, path.reverse() if reverse else path).value
        assert close(got, -want if reverse else want, abs(s.flux))

    @given(st.data(), solenoids, st.booleans())
    def test_crossing_arc_matches_split_quadrature(self, data, s, reverse):
        path = data.draw(crossing_arc(s.R))
        f = SolenoidTransverseField(s)
        want = _split_reference(f, path, s.R)
        got = line_integral(f, path.reverse() if reverse else path).value
        assert close(got, -want if reverse else want, abs(s.flux))

    @given(st.data(), solenoids, st.booleans())
    def test_polyline_and_arc_across_the_shell(self, data, s, reverse):
        # A two-edge polyline that crosses the shell, an arc from its end, and a
        # segment back to its start.
        seg = data.draw(crossing_segment(s.R))
        corner = polar(s.R * data.draw(st.floats(0.1, 3.0)), data.draw(phase), data.draw(unit))
        poly = PathSpec.polyline([seg.start, seg.end, corner])
        arc = PathSpec.arc((corner[0] - 0.3 * s.R, corner[1], corner[2]), 0.3 * s.R, 0.0,
                           data.draw(sweep))
        back = PathSpec.segment(arc.end, seg.start)
        f = SolenoidTransverseField(s)
        want = math.fsum(_split_reference(f, p, s.R)
                         for p in (seg, PathSpec.segment(seg.end, corner), arc, back))
        got = math.fsum(line_integral(f, p.reverse() if reverse else p).value
                        for p in (poly, arc, back))
        assert close(got, -want if reverse else want, abs(s.flux))

    @given(st.data(), solenoids, st.sampled_from([-2, -1, 1, 3]), phase, phase)
    def test_crossing_circle_encloses_the_lens_flux(self, data, s, turns, psi, start):
        hc, r = data.draw(crossing_circle(s.R))
        path = PathSpec.circle(polar(hc, psi), r, turns=turns, start_phase=start)
        want = turns * s.B * lens_area(s.R, hc, r)
        assert close(line_integral(SolenoidTransverseField(s), path).value, want,
                     abs(turns * s.flux))

    @given(st.data(), st.floats(-3.0, 3.0), st.floats(0.3, 2.0) | st.floats(-2.0, -0.3),
           st.sampled_from([1.0, -1.0]))
    def test_closed_form_flux_meets_the_rim_circulation(self, data, log_r, b, normal):
        # Stokes: the flux of B through a disc is the circulation of A_S around its rim.
        s = SolenoidSpec(10.0 ** log_r, b)
        hc, r = data.draw(st.one_of(
            st.tuples(st.just(0.0), st.floats(0.05, 3.0).map(lambda u: u * s.R)),
            crossing_circle(s.R),
            st.tuples(st.floats(0.0, 3.0), st.floats(0.05, 3.0)).map(
                lambda t: (t[0] * s.R, t[1] * s.R))))
        disc = DiscSpec(polar(hc, data.draw(phase), data.draw(unit)), r,
                        normal=(0.0, 0.0, normal))
        rep = disc_flux(SolenoidBField(s), disc)
        rim = line_integral(SolenoidTransverseField(s), disc.boundary().path)
        assert rep.n_points == 0 and rep.error_estimate is None
        assert abs(rep.value - rim.value) <= 1e-13 * abs(s.flux)

    def test_off_centre_circle_meets_its_lens_flux(self):
        # Quadrature converged falsely on this circle: 7.46e-12 off, reporting 0.0.
        s = SolenoidSpec(1.0, 1.0)
        rep = line_integral(SolenoidTransverseField(s), PathSpec.circle((1.2, 0, 0), 0.6),
                            tol=1e-12)
        assert abs(rep.value - lens_area(1.0, 1.2, 0.6)) <= 1e-14
        assert rep.n_points == 0 and rep.error_estimate is None


# -- refusals --------------------------------------------------------------------

def _outcome(f, path):
    try:
        line_integral(f, path)
    except ComputationError as exc:
        return type(exc), str(exc)
    pytest.fail("the path was not refused")


@pytest.mark.parametrize("field, path", [
    (GaugeGradientField(SingularSolenoidGauge(SolenoidSpec())),
     PathSpec.segment((0, 0, 0), (1, 0, 0))),
    (GaugeGradientField(SingularSolenoidGauge(SolenoidSpec())),
     PathSpec.segment((-1, 0, 0), (1, 0, 0))),
    (LandauField("BB"), PathSpec.segment((-2, -1, 0), (-2, 2, 0))),
    (LandauField("BB"), PathSpec.arc((0, 0, 0), 2.0, 3.0, 3.3)),
    (GaugeGradientField(BawinBurnelGauge(1.0)), PathSpec.segment((-2, -1, 0), (-2, 2, 0))),
    (GaugeGradientField(BawinBurnelGauge(1.0)), PathSpec.arc((0, 0, 0), 2.0, 3.0, 3.3)),
], ids=["gauge.sing-to-axis", "gauge.sing-through-axis", "landau.BB-segment",
        "landau.BB-arc", "gauge.chitilde-segment", "gauge.chitilde-arc"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_refusals_match_quadrature(field, path, reverse, monkeypatch):
    path = path.reverse() if reverse else path
    with_formulas = _outcome(field, path)
    for cls in (FieldExpr, SolenoidTransverseField, LandauField, GaugeGradientField):
        monkeypatch.setattr(cls, "circulation", lambda self, p: None)
    assert with_formulas == _outcome(field, path)
    assert with_formulas[0] is DomainViolation


# A point on the axis, on the shell, 5e-4 R from it (where the fields that exclude the
# shell are defined), on the branch cut, and one clear of all of them.
DOMAIN_PROBES = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0005, 0.0],
                          [-2.0, 0.0, 0.3], [2.0, 1.0, -0.3]])
SCENARIO = scenario_from_dict({"name": "domains", "operations": [{"op": "string_flux"}]})
DOMAIN_FIELDS = {
    **{fid: make(SCENARIO) for fid, make in _FIELDS.items()},
    **{gid: GaugeGradientField(make(SCENARIO)) for gid, make in _GAUGES.items()},
    "custom.regular": GaugeGradientField(PolynomialGauge(((1, 1, 0, 0.5), (0, 2, 1, -1.0)))),
}


@pytest.mark.parametrize("fid", DOMAIN_FIELDS)
def test_excludes_nothing_agrees_with_domain_ok(fid):
    # line_integral skips its sampled domain check on non-parametric paths
    # exactly when a field excludes nothing, alone or as a term of a sum.
    f = DOMAIN_FIELDS[fid]
    for g in (f, SumField((SolenoidTransverseField(SCENARIO.solenoid), f))):
        assert g.excludes_nothing == bool(g.domain_ok(DOMAIN_PROBES).all())
