"""Closed-form potentials, gauge functions, and the singular gauge's axis string.

Covers the infinitely long ideal solenoid (transverse potential, interior
field, singular azimuthal gauge, gauge-transformed potential) and the
uniform-field Landau system (symmetric gauge, the two Landau gauges, the
Bawin-Burnel gauge, and the scalar functions linking them).  Each closed
form is written once, as the ``__call__`` of its field class or the
``value``/``gradient`` of its gauge class; a field's exact work integral
along a path, where it has one, is its ``circulation``, and its exact flux
through a z-normal disc its ``flux`` (the solenoid's B: B times the area the
disc shares with the cross-section).  The string of
flux the singular gauge leaves on the axis is ``StringField``; it has no
pointwise values and enters a disc flux only through ``flux_through``.

All vectors are returned in Cartesian components; the local cylindrical
frame is resolved at the evaluation point.  Fields, gauge gradients and
``domain_ok`` masks broadcast: a point of shape (3,) gives a (3,) vector,
an (..., 3) array of points gives (..., 3) vectors, through one code path,
as does the Biot-Savart quadrature field.  Only ``CallableField`` applies a
user's one-point callable row by row.  Multi-valued gauge functions take the
continued azimuth as an explicit argument so that evaluation stays pure and
branch tracking lives with path geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import AxisCrossing, NonFinite, OnShell
from .geometry import (AXIS_CUTOFF, arc_azimuth_change, as_points, as_xyz,
                       endpoint_azimuths)

SHELL_TOL = 1e-12


def _components(p) -> tuple:
    arr = as_points(p)
    return arr[..., 0], arr[..., 1], arr[..., 2]


def _stack(x, y, z) -> np.ndarray:
    """Cartesian components, broadcast against each other, as (..., 3)."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


@dataclass(frozen=True)
class SolenoidSpec:
    """Ideal solenoid along the z-axis: radius R, interior field B.

    The azimuthal surface-current sheet at rho = R has strength B per unit
    length, so B is both the current density scale and the uniform interior
    field.  flux, the total through the cross-section, is pi * R**2 * B.
    """

    R: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError("solenoid radius must be positive and finite")
        if not math.isfinite(self.B):
            raise ValueError("solenoid field must be finite")
        if not math.isfinite(math.pi * self.R * self.R * self.B):
            raise ValueError("solenoid flux pi R^2 B must be finite")

    @property
    def flux(self) -> float:
        return math.pi * self.R ** 2 * self.B

    def on_shell(self, rho, margin: float = 0.0) -> np.ndarray:
        """Mask of the radii rho within SHELL_TOL * R, plus margin, of the shell."""
        return np.abs(rho - self.R) <= SHELL_TOL * self.R + margin


# ---------------------------------------------------------------------------
# Gauge functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialGauge:
    """Single-valued gauge function sum_k c_k x^i y^j z^k.

    coefficients holds (i, j, k, c) monomial entries.  Smooth everywhere,
    so the gradient is an exact closed form and its curl vanishes.  A value
    or gradient that overflows raises NonFinite naming the point.
    """

    coefficients: tuple
    name: str = "custom"
    multi_valued = False
    branch_dependent_gradient = False

    @property
    def label(self) -> str:
        return self.name

    def value(self, p, azimuth: Optional[float] = None) -> float:
        pt = as_xyz(p)
        x, y, z = pt
        with np.errstate(over="ignore", invalid="ignore"):
            terms = [c * x ** i * y ** j * z ** k for (i, j, k, c) in self.coefficients]
        try:
            total = math.fsum(terms)
        except (OverflowError, ValueError):  # a finite sum beyond the float range, or inf - inf
            total = math.inf
        if not math.isfinite(total):
            raise NonFinite(f"gauge {self.name} is not finite at point {pt.tolist()}")
        return total

    def gradient(self, p, azimuth: Optional[float] = None) -> np.ndarray:
        x, y, z = _components(p)
        with np.errstate(over="ignore", invalid="ignore"):
            gx = sum(c * i * x ** (i - 1) * y ** j * z ** k
                     for (i, j, k, c) in self.coefficients if i > 0)
            gy = sum(c * j * x ** i * y ** (j - 1) * z ** k
                     for (i, j, k, c) in self.coefficients if j > 0)
            gz = sum(c * k * x ** i * y ** j * z ** (k - 1)
                     for (i, j, k, c) in self.coefficients if k > 0)
        grad = _stack(gx, gy, gz)
        ok = np.isfinite(grad).all(axis=-1)
        if not ok.all():
            bad = as_points(p).reshape(-1, 3)[np.argmin(ok.ravel())].tolist()
            raise NonFinite(f"gradient of gauge {self.name} is not finite at point {bad}")
        return grad


def landau_link1(B: float = 1.0) -> PolynomialGauge:
    """chi1 = +B x y / 2, carrying the first Landau gauge into the symmetric one."""
    return PolynomialGauge(((1, 1, 0, 0.5 * B),), name="chi1")


def landau_link2(B: float = 1.0) -> PolynomialGauge:
    """chi2 = -B x y / 2, carrying the second Landau gauge into the symmetric one."""
    return PolynomialGauge(((1, 1, 0, -0.5 * B),), name="chi2")


@dataclass(frozen=True)
class SingularSolenoidGauge:
    """Multi-valued azimuthal gauge -(flux / 2 pi) * phi for the solenoid.

    Its gradient is single valued off the axis, but one full winding shifts
    the value by -flux: the axis carries a string of distributional curl.
    """

    solenoid: SolenoidSpec
    multi_valued = True
    branch_dependent_gradient = False
    label = "sing"

    def value(self, p, azimuth: Optional[float] = None) -> float:
        x, y, z = as_xyz(p)
        if math.hypot(x, y) < AXIS_CUTOFF:
            raise AxisCrossing("singular gauge undefined on the axis")
        az = math.atan2(y, x) if azimuth is None else azimuth
        return -self.solenoid.flux / (2.0 * math.pi) * az

    def gradient(self, p, azimuth: Optional[float] = None) -> np.ndarray:
        x, y, _ = _components(p)
        rho2 = x * x + y * y
        if np.any(rho2 < AXIS_CUTOFF ** 2):
            raise AxisCrossing("singular gauge gradient undefined on the axis")
        pref = -self.solenoid.flux / (2.0 * math.pi * rho2)
        return _stack(-pref * y, pref * x, 0.0)


@dataclass(frozen=True)
class BawinBurnelGauge:
    """Multi-valued Landau-system gauge -B r^2 phi / 2.

    Unlike the solenoid's singular gauge, its gradient itself depends on the
    azimuth branch, so gradient evaluation also takes the continued azimuth.
    """

    B: float = 1.0
    multi_valued = True
    branch_dependent_gradient = True
    label = "chitilde"

    def value(self, p, azimuth: Optional[float] = None) -> float:
        x, y, z = as_xyz(p)
        if math.hypot(x, y) < AXIS_CUTOFF:
            raise AxisCrossing("Bawin-Burnel gauge undefined on the axis")
        az = math.atan2(y, x) if azimuth is None else azimuth
        return -0.5 * self.B * (x * x + y * y) * az

    def gradient(self, p, azimuth: Optional[float] = None) -> np.ndarray:
        # -B r phi e_r - (B r / 2) e_phi, written out in Cartesian components.
        x, y, _ = _components(p)
        if np.any(np.hypot(x, y) < AXIS_CUTOFF):
            raise AxisCrossing("Bawin-Burnel gradient undefined on the axis")
        az = np.arctan2(y, x) if azimuth is None else azimuth
        return _stack(-self.B * az * x + 0.5 * self.B * y,
                      -self.B * az * y - 0.5 * self.B * x, 0.0)


GaugeChoice = Union[PolynomialGauge, SingularSolenoidGauge, BawinBurnelGauge]


def gauge_label(gauge: Optional[GaugeChoice]) -> str:
    return "none" if gauge is None else gauge.label


LANDAU_VARIANTS = ("S", "L1", "L2", "BB")


# ---------------------------------------------------------------------------
# Field expressions
# ---------------------------------------------------------------------------

class FieldExpr:
    """Evaluable vector field with domain metadata.

    Instances are immutable and evaluation is pure, so concurrent use is
    fine.  Metadata drives the numerical layers: excluded axis for singular
    gauges, radial breakpoints where smoothness fails, and the principal
    branch cut for azimuth-dependent fields.  A field with no value on the
    shell excludes it in ``domain_ok`` (``SolenoidSpec.on_shell``, by
    ``_extra_domain_ok``) and raises ``OnShell`` when evaluated there.
    """

    excludes_axis: bool = False
    branch_cut: bool = False

    @property
    def radial_breakpoints(self) -> tuple:
        return ()

    def __call__(self, p) -> np.ndarray:
        raise NotImplementedError

    def domain_ok(self, p, margin: float = 0.0) -> np.ndarray:
        """Mask of points inside the domain: () for one point, (...) for (..., 3)."""
        x, y, _ = _components(p)
        rho = np.hypot(x, y)
        ok = self._extra_domain_ok(rho, margin)
        if self.excludes_axis:
            ok = ok & ~(rho <= AXIS_CUTOFF + margin)
        if self.branch_cut:
            ok = ok & ~((x < margin) & (np.abs(y) <= margin))
        return ok

    def _extra_domain_ok(self, rho: np.ndarray, margin: float) -> np.ndarray:
        return np.full(rho.shape, True)

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        return SumField((self, other))

    def circulation(self, path) -> Optional[float]:
        """Exact work integral along a forward path, or None with no closed form there.

        ``calculus.line_integral`` resolves reversal first and
        integrates by quadrature where this gives None.
        """
        return None

    def flux(self, disc) -> Optional[float]:
        """Exact flux of the z-component through a disc along +z, or None with no
        closed form.  ``calculus.disc_flux`` applies the disc's orientation and
        integrates by quadrature where this gives None.
        """
        return None


@dataclass(frozen=True)
class SolenoidField(FieldExpr):
    """A field of the solenoid; smoothness fails on its shell, rho = R."""

    solenoid: SolenoidSpec = SolenoidSpec()

    @property
    def radial_breakpoints(self) -> tuple:
        return (self.solenoid.R,)


@dataclass(frozen=True)
class ShellExcludedField(SolenoidField):
    """A field of the solenoid with no value on its shell, within SHELL_TOL * R."""

    def _extra_domain_ok(self, rho: np.ndarray, margin: float) -> np.ndarray:
        return ~self.solenoid.on_shell(rho, margin)


@dataclass(frozen=True)
class SolenoidTransverseField(SolenoidField):
    """Divergence-free potential sourced by the solenoid current alone.

    (flux / 2 pi) * (rho / R^2) e_phi inside, (flux / 2 pi) / rho e_phi
    outside; both branches meet at rho = R.  Continuous everywhere,
    including the axis, where it vanishes.
    """

    def __call__(self, p) -> np.ndarray:
        s = self.solenoid
        x, y, _ = _components(p)
        pref = s.flux / (2.0 * math.pi * np.maximum(x * x + y * y, s.R ** 2))
        return _stack(-pref * y, pref * x, 0.0)

    def circulation(self, path) -> Optional[float]:
        """Exact work integral along a forward arc or polyline; None for other paths.

        Each piece is split where it crosses rho = R.  Outside, the work is
        (flux / 2 pi) times the azimuth change; inside, (flux / 2 pi R^2) times
        the integral of x dy - y dx.
        """
        if path.is_reversed or path.kind not in ("arc", "polyline"):
            return None
        s = self.solenoid
        R2 = s.R ** 2
        if path.kind == "arc":
            pieces = _arc_pieces(path.arc, R2)
        else:
            verts = path.vertices
            pieces = [q for a, b in zip(verts, verts[1:]) for q in _segment_pieces(a, b, R2)]
        inner = math.fsum(v for inside, v in pieces if inside)
        outer = math.fsum(v for inside, v in pieces if not inside)
        return s.flux / (2.0 * math.pi * R2) * inner + s.flux / (2.0 * math.pi) * outer


def _segment_pieces(a, b, R2: float) -> list:
    """(inside, term) for each piece of the segment a -> b between its crossings of
    rho^2 = R2: (p x q)_z inside and the azimuth change outside, for a piece p -> q.

    The crossings are the roots of |a + t d|^2 = R2, taken about the closest
    approach t0 so that no coordinate is squared twice.
    """
    ax, ay, bx, by = a[0], a[1], b[0], b[1]
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0:  # no motion in the xy plane, so no work
        return []
    lo = hi = 0.0
    t0 = -(ax * dx + ay * dy) / dd
    mx, my = ax + t0 * dx, ay + t0 * dy
    if mx * mx + my * my < R2:
        w = math.sqrt((R2 - (mx * mx + my * my)) / dd)
        lo, hi = t0 - w, t0 + w  # inside the shell between the roots
    ts = [0.0, *(t for t in (lo, hi) if 0.0 < t < 1.0), 1.0]
    pts = [(ax, ay), *((ax + t * dx, ay + t * dy) for t in ts[1:-1]), (bx, by)]
    out = []
    for (px, py), (qx, qy), t, u in zip(pts, pts[1:], ts, ts[1:]):
        cross = px * qy - py * qx
        inside = lo < 0.5 * (t + u) < hi
        out.append((inside, cross if inside else math.atan2(cross, px * qx + py * qy)))
    return out


def _arc_pieces(arc: tuple, R2: float) -> list:
    """(inside, term) for each piece of an arc between its crossings of rho^2 = R2.

    Inside, a piece from angle t to t + dt of a circle of centre c and radius
    r gives r^2 dt + r (c_x d(sin) - c_y d(cos)); outside, its azimuth
    change.  rho^2 = |c|^2 + r^2 + 2 r |c| cos(t - alpha), so the crossings
    are where cos(t - alpha) = kappa, and a piece is inside where the cosine
    at its middle is below kappa.
    """
    (cx, cy, _), r, phase, sweep = arc
    hc = math.hypot(cx, cy)
    alpha = math.atan2(cy, cx)
    den = 2.0 * r * hc
    kappa = ((R2 - hc * hc) - r * r) / den if den > 0 else (
        math.inf if r * r < R2 else -math.inf)
    pieces = [(phase, sweep)]
    if -1.0 < kappa < 1.0:
        two_pi = 2.0 * math.pi
        lo, hi = sorted((phase, phase + sweep))
        cuts = sorted(b + two_pi * k for b in (alpha - math.acos(kappa), alpha + math.acos(kappa))
                      for k in range(math.ceil((lo - b) / two_pi),
                                     math.floor((hi - b) / two_pi) + 1)
                      if lo < b + two_pi * k < hi)
        if cuts:
            angles = [phase, *(cuts if sweep > 0 else cuts[::-1]), phase + sweep]
            pieces = [(t, u - t) for t, u in zip(angles, angles[1:])]
    out = []
    for t, dt in pieces:
        if math.cos(t + 0.5 * dt - alpha) < kappa:
            u = t + dt
            out.append((True, r * r * dt + r * (cx * (math.sin(u) - math.sin(t))
                                                 - cy * (math.cos(u) - math.cos(t)))))
        else:
            out.append((False, arc_azimuth_change((arc[0], r, t, dt))))
    return out


@dataclass(frozen=True)
class SolenoidBField(ShellExcludedField):
    """Uniform B e_z inside the shell, zero outside, undefined on it."""

    def __call__(self, p) -> np.ndarray:
        s = self.solenoid
        x, y, _ = _components(p)
        rho = np.hypot(x, y)
        on = s.on_shell(rho)
        if on.any():
            raise OnShell(f"magnetic field has no value at point "
                          f"{as_points(p)[on][0].tolist()} on the current shell")
        return _stack(0.0, 0.0, np.where(rho < s.R, s.B, 0.0))

    def flux(self, disc) -> float:
        """B times the area the disc shares with the cross-section rho < R.

        With the disc's radius r at distance d from the axis, the overlap is
        empty, the smaller disc whole, or the lens between the two circles.
        """
        R, r = self.solenoid.R, disc.radius
        d = math.hypot(disc.center[0], disc.center[1])
        if d >= r + R:
            return 0.0
        if d <= abs(R - r):
            return self.solenoid.B * math.pi * min(r, R) ** 2
        # The lens in units of the larger radius, so that nothing overflows: the
        # sectors at the two centres less the kite of the centres and the corners.
        # k is four times the area of the triangle of d, r and R; each half-angle is
        # an atan2 of k, which keeps the area accurate near tangency.
        s = max(r, R)
        d, u, v = d / s, r / s, R / s
        k = math.prod(math.sqrt(max(0.0, f))
                      for f in (u + v - d, d + (u - v), d - (u - v), u + v + d))
        lens = (u * u * math.atan2(k, d * d + (u - v) * (u + v))
                + v * v * math.atan2(k, d * d - (u - v) * (u + v)) - 0.5 * k)
        return self.solenoid.B * (s * s * lens)


@dataclass(frozen=True)
class TransformedPotentialField(SolenoidField):
    """Potential after the singular azimuthal gauge transformation.

    Identically zero outside the solenoid; inside it keeps the uniform
    curl but picks up a 1/rho piece, so the axis is excluded.
    """

    excludes_axis = True

    def __call__(self, p) -> np.ndarray:
        s = self.solenoid
        x, y, _ = _components(p)
        rho2 = x * x + y * y
        if np.any(rho2 < AXIS_CUTOFF ** 2):
            raise AxisCrossing("transformed potential is singular on the axis")
        outside = rho2 >= s.R ** 2
        pref = s.flux / (2.0 * math.pi) * (1.0 / s.R ** 2 - 1.0 / rho2)
        return _stack(np.where(outside, 0.0, -pref * y), np.where(outside, 0.0, pref * x), 0.0)


@dataclass(frozen=True)
class GaugeGradientField(FieldExpr):
    gauge: GaugeChoice = None

    @property
    def excludes_axis(self) -> bool:  # type: ignore[override]
        return bool(self.gauge.multi_valued)

    @property
    def branch_cut(self) -> bool:  # type: ignore[override]
        return bool(self.gauge.branch_dependent_gradient)

    def __call__(self, p) -> np.ndarray:
        return self.gauge.gradient(p)

    def circulation(self, path) -> float:
        """The gauge function's endpoint difference along any path; a multi-valued
        gauge takes its endpoint values on the branch continued along the path."""
        g = self.gauge
        if g.multi_valued:
            az_i, az_f = endpoint_azimuths(path)
            return g.value(path.end, az_f) - g.value(path.start, az_i)
        return g.value(path.end) - g.value(path.start)


@dataclass(frozen=True)
class LandauField(FieldExpr):
    """Uniform-field potential in one of the standard gauges.

    S: (-B y / 2, B x / 2, 0); L1: (-B y, 0, 0); L2: (0, B x, 0);
    BB: -B r phi e_r on the principal azimuth, which excludes the axis and
    has its branch cut on the negative x half-plane.
    """

    variant: str = "S"
    B: float = 1.0

    excludes_axis = branch_cut = property(lambda self: self.variant == "BB")

    def __post_init__(self):
        if self.variant not in LANDAU_VARIANTS:
            raise ValueError(f"unknown Landau variant {self.variant!r}")

    def __call__(self, p) -> np.ndarray:
        B = self.B
        x, y, _ = _components(p)
        if self.variant == "S":
            return _stack(-0.5 * B * y, 0.5 * B * x, 0.0)
        if self.variant == "L1":
            return _stack(-B * y, 0.0, 0.0)
        if self.variant == "L2":
            return _stack(0.0, B * x, 0.0)
        if np.any(np.hypot(x, y) < AXIS_CUTOFF):
            raise AxisCrossing("Bawin-Burnel potential undefined on the axis")
        az = np.arctan2(y, x)
        return _stack(-B * az * x, -B * az * y, 0.0)

    def circulation(self, path) -> Optional[float]:
        """Exact work integral of the S, L1 or L2 potential along a forward polyline
        or arc; None for BB and other paths.

        These potentials are linear, A = M x, with M[0][1] = b and M[1][0] = c
        their only entries.  A segment p -> q gives A(midpoint) . (q - p).  On
        an arc x = x_c + r u(phi) with u = (cos phi, sin phi, 0), the work is
        r (M x_c) . du + r^2 (M u) . du, and (M u) . u' = c cos^2 - b sin^2.
        """
        if self.variant == "BB" or path.is_reversed or path.kind not in ("arc", "polyline"):
            return None
        if path.kind == "polyline":
            v = np.asarray(path.vertices)
            return math.fsum((self(0.5 * (v[:-1] + v[1:])) * np.diff(v, axis=0)).ravel().tolist())
        (cx, cy, _), r, phase, sweep = path.arc
        a_x, a_y = self(np.eye(3)[:2]).tolist()  # A at the unit vectors: M's columns
        b, c = a_y[0], a_x[1]
        # Differences of cos, sin and sin 2phi by product formulas, about the middle angle.
        mid, half = phase + 0.5 * sweep, math.sin(0.5 * sweep)
        d_cos, d_sin = -2.0 * half * math.sin(mid), 2.0 * half * math.cos(mid)
        d_sin2 = 2.0 * math.cos(2.0 * mid) * math.sin(sweep)
        return math.fsum((r * b * cy * d_cos, r * c * cx * d_sin,
                          r * r * (c - b) * 0.5 * sweep, r * r * (c + b) * 0.25 * d_sin2))


@dataclass(frozen=True)
class SumField(FieldExpr):
    terms: tuple = ()

    @property
    def excludes_axis(self) -> bool:  # type: ignore[override]
        return any(t.excludes_axis for t in self.terms)

    @property
    def branch_cut(self) -> bool:  # type: ignore[override]
        return any(t.branch_cut for t in self.terms)

    @property
    def radial_breakpoints(self) -> tuple:
        cuts = sorted({b for t in self.terms for b in t.radial_breakpoints})
        return tuple(cuts)

    def __call__(self, p) -> np.ndarray:
        first, *rest = self.terms
        total = first(p)
        for t in rest:
            total = total + t(p)
        return total

    def domain_ok(self, p, margin: float = 0.0) -> np.ndarray:
        return np.logical_and.reduce([t.domain_ok(p, margin) for t in self.terms])


@dataclass(frozen=True)
class CallableField(FieldExpr):
    """Wrap an arbitrary (x, y, z) -> vector callable, called once per point."""

    fn: object = None

    def __call__(self, p) -> np.ndarray:
        pts = as_points(p)
        rows = [np.asarray(self.fn(q), dtype=float) for q in pts.reshape(-1, 3)]
        return np.array(rows).reshape(pts.shape)


# ---------------------------------------------------------------------------
# The axis string
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StringField:
    """Delta-supported axial field of flux -flux left behind by the singular gauge."""

    solenoid: SolenoidSpec

    @property
    def flux(self) -> float:
        return -self.solenoid.flux

    def flux_through(self, disc) -> float:
        """Analytic flux through a disc; nonzero only when the axis pierces it."""
        if disc.contains_axis():
            return self.flux * disc.orientation
        return 0.0
