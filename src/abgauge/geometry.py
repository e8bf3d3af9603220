"""Paths, loops, and discs, with continuous-azimuth bookkeeping.

Paths are evaluated on arrays: ``PathSpec.points(ts)`` and
``PathSpec.velocities(ts)`` take an (N,) array of parameters in [0, 1] and
return (N, 3), ``PathSpec.frame(ts)`` both from one evaluation;
``point_at``/``velocity_at`` are the one-row case.  All
values are immutable after construction and safe to share between threads.
Arcs, polylines and discs check their data at construction (``NonFinite``
when it cannot give finite points).  Endpoints are compared by
``same_point``, within ``CLOSURE_TOL`` scaled by their size beyond 1, so
large loops close despite rounding.  ``azimuth_change`` is exact for arcs and
polylines: a polyline sums the branch-nearest steps between its vertices
and an arc takes a closed form.  Only parametric paths are sampled,
doubling the samples through ``extrapolation.refine``.  Axis crossings are
found in closed form for arcs and segments, by the chords between samples
for parametric paths.  The winding count rounds the change; a non-finite
sample stops with ``NonFinite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AxisCrossing, NoConvergence, NonFinite, NotClosed
from .extrapolation import refine

AXIS_CUTOFF = 1e-9
CLOSURE_TOL = 1e-12
_NEAR_AXIS = f"path passes within {AXIS_CUTOFF} of the z-axis; azimuth undefined"

# Azimuth sampling: first sample count, doublings, relative agreement.
_N_SAMPLES = 4096
_MAX_DOUBLINGS = 8
_AZIMUTH_RTOL = 1e-9


def as_points(p) -> np.ndarray:
    """Coerce a 3-vector or an (..., 3) array of points to float64."""
    arr = np.asarray(p, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shape {arr.shape}")
    return arr


def _scaled_gap(p, q) -> tuple:
    """(max-norm of p - q over scale, scale) with scale = max(1, the larger max-norm);
    both points are divided before they are subtracted, so nothing overflows."""
    p, q = as_points(p), as_points(q)
    scale = max(1.0, float(np.abs(p).max()), float(np.abs(q).max()))
    return float(np.abs(p / scale - q / scale).max()), scale


def same_point(p, q) -> bool:
    """Whether two points agree within CLOSURE_TOL times max(1, the larger max-norm)."""
    return _scaled_gap(p, q)[0] <= CLOSURE_TOL


def as_xyz(point) -> np.ndarray:
    """Coerce a length-3 sequence to a float64 array (x, y, z)."""
    arr = as_points(point)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def require_finite(values, points, param_at, what: str, name: str = "t") -> None:
    """Raise NonFinite naming the first row whose value or point is NaN or infinite.

    param_at maps a row index to the parameter(s) of that row, for the message.
    """
    if np.isfinite(values).all() and np.isfinite(points).all():
        return
    ok = np.isfinite(np.reshape(values, (len(points), -1))).all(axis=1)
    k = int(np.argmin(ok & np.isfinite(points).all(axis=1)))
    raise NonFinite(f"{what} is not finite at {name} = {param_at(k)}, "
                    f"point {np.asarray(points)[k].tolist()}")


@dataclass(frozen=True)
class PathSpec:
    """Oriented curve over the unit parameter interval.

    Three storage kinds: a circular arc stored as data (center, radius,
    start phase, sweep; a circle is an arc of sweep 2 pi turns), a
    parametric map of one parameter with its analytic derivative, or a
    polyline over explicit vertices.  Reversal is a flag, so that
    integrators can evaluate the underlying forward curve on identical
    quadrature nodes and negate.
    """

    kind: str
    fn: Optional[Callable[[float], np.ndarray]] = None
    dfn: Optional[Callable[[float], np.ndarray]] = None
    vertices: Optional[tuple] = None
    arc: Optional[tuple] = None
    is_reversed: bool = False

    # -- constructors --------------------------------------------------

    @classmethod
    def parametric(cls, fn, derivative) -> "PathSpec":
        """Path from a map t -> 3-vector and its derivative t -> d point / d t,
        each called once per parameter value."""
        return cls(kind="parametric", fn=fn, dfn=derivative)

    @classmethod
    def polyline(cls, points: Sequence) -> "PathSpec":
        verts = tuple(tuple(float(c) for c in as_xyz(p)) for p in points)
        if len(verts) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        # A velocity is a step times the step count; a NaN or infinite vertex spoils both.
        m = len(verts) - 1
        for k, (p, q) in enumerate(zip(verts, verts[1:])):
            if not all(math.isfinite((b - a) * m) for a, b in zip(p, q)):
                raise NonFinite(f"polyline step {k} from {p} to {q} times {m} is not finite")
        return cls(kind="polyline", vertices=verts)

    @classmethod
    def segment(cls, a, b) -> "PathSpec":
        return cls.polyline([a, b])

    @classmethod
    def circle(cls, center, radius: float, turns: int = 1,
               start_phase: float = 0.0) -> "PathSpec":
        """z-normal circle; positive turns wind counterclockwise."""
        if turns == 0:
            raise ValueError("circle needs a nonzero turn count")
        return cls._arc(center, radius, start_phase, 2.0 * math.pi * turns, "circle")

    @classmethod
    def arc(cls, center, radius: float, phi0: float, phi1: float) -> "PathSpec":
        """z-normal circular arc swept from azimuth phi0 to phi1."""
        return cls._arc(center, radius, phi0, phi1 - phi0, "arc")

    @classmethod
    def _arc(cls, center, radius, phase, sweep, what) -> "PathSpec":
        if radius <= 0:
            raise ValueError(f"{what} radius must be positive")
        c = tuple(float(v) for v in as_xyz(center))
        r, phase, sweep = float(radius), float(phase), float(sweep)
        # Points lie within |c_xy| + r of the axis, at angles from phase to phase + sweep;
        # speeds are r * |sweep|.
        if not all(map(math.isfinite, (c[2], math.hypot(c[0], c[1]) + r, r * sweep,
                                       phase + sweep))):
            raise NonFinite(f"{what} data do not give finite points: center {c}, "
                            f"radius {r}, phase {phase}, sweep {sweep}")
        return cls(kind="arc", arc=(c, r, phase, sweep))

    # -- evaluation ----------------------------------------------------

    def points(self, ts) -> np.ndarray:
        """(N, 3) points at an (N,) array of parameters."""
        ts = np.asarray(ts, dtype=float)
        return self._point(1.0 - ts if self.is_reversed else ts)

    def velocities(self, ts) -> np.ndarray:
        """(N, 3) derivatives d point / d t at an (N,) array of parameters."""
        return self.frame(ts)[1]

    def frame(self, ts) -> tuple:
        """(points, velocities) at an (N,) array of parameters, from one evaluation
        of the forward curve: an arc takes one cos and sin of its angles for both."""
        ts = np.asarray(ts, dtype=float)
        if self.is_reversed:
            pts, vel = self._point(1.0 - ts, velocity=True)
            return pts, -vel
        return self._point(ts, velocity=True)

    def point_at(self, t: float) -> np.ndarray:
        return self.points([t])[0]

    def velocity_at(self, t: float) -> np.ndarray:
        return self.velocities([t])[0]

    def _point(self, ts: np.ndarray, velocity: bool = False):
        """Points of the forward curve at an (N,) parameter array; with velocity,
        (points, velocities)."""
        if self.kind == "arc":
            (cx, cy, cz), r, phase, sweep = self.arc
            a = phase + sweep * ts
            cos, sin = np.cos(a), np.sin(a)
            pts = np.stack([cx + r * cos, cy + r * sin, np.full_like(a, cz)], axis=1)
            if not velocity:
                return pts
            return pts, np.stack([-r * sweep * sin, r * sweep * cos, np.zeros_like(a)], axis=1)
        if self.kind == "parametric":
            def rows(fn):
                return np.array([np.asarray(fn(t), dtype=float) for t in ts.tolist()]
                                ).reshape(-1, 3)
            return (rows(self.fn), rows(self.dfn)) if velocity else rows(self.fn)
        m = len(self.vertices) - 1
        s = np.clip(ts, 0.0, 1.0) * m
        i = np.minimum(s.astype(int), m - 1)
        v = np.asarray(self.vertices)
        d = v[i + 1] - v[i]
        pts = v[i] + (s - i)[:, None] * d
        return (pts, d * m) if velocity else pts

    # -- structure -----------------------------------------------------

    def reverse(self) -> "PathSpec":
        return replace(self, is_reversed=not self.is_reversed)

    @property
    def start(self) -> np.ndarray:
        return self.point_at(0.0)

    @property
    def end(self) -> np.ndarray:
        return self.point_at(1.0)

    @property
    def is_closed(self) -> bool:
        return same_point(self.start, self.end)

    def sample(self, n: int) -> np.ndarray:
        """n points along the path at uniform parameter values.

        A reversed path samples its forward twin and flips the array, so
        forward and reversed samples are bitwise mirrors of each other.
        """
        if n < 2:
            raise ValueError("need at least 2 samples")
        if self.is_reversed:
            return self.reverse().sample(n)[::-1].copy()
        return self.points(np.linspace(0.0, 1.0, n))


def axis_distance(path: PathSpec) -> float:
    """Closest approach to the z-axis in closed form; inf if parametric.

    Segments project the origin in xy, clamped; arcs give |rho_c - r| when
    the sweep reaches the circle point nearest the axis, else an endpoint's.
    """
    if path.kind == "parametric":
        return math.inf
    if path.kind == "arc":
        (cx, cy, _), r, phase, sweep = path.arc
        lo, hi = sorted((phase, phase + sweep))
        if (math.atan2(-cy, -cx) - lo) % (2.0 * math.pi) <= hi - lo:
            return abs(math.hypot(cx, cy) - r)
        return min(math.hypot(cx + r * math.cos(a), cy + r * math.sin(a)) for a in (lo, hi))
    best = math.inf
    for (ax, ay, _), (bx, by, _) in zip(path.vertices, path.vertices[1:]):
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        t = min(1.0, max(0.0, -(ax * dx + ay * dy) / dd)) if dd > 0 else 0.0
        best = min(best, math.hypot(ax + t * dx, ay + t * dy))
    return best


def _wrapped_sum(points: np.ndarray) -> float:
    """fsum of the branch-nearest azimuth steps between consecutive (N, 3) points."""
    d = np.diff(np.arctan2(points[:, 1], points[:, 0]))
    return math.fsum((d - 2.0 * math.pi * np.round(d / (2.0 * math.pi))).tolist())


def _sampled_change(path: PathSpec, n: int) -> float:
    pts = path.sample(n)
    require_finite(pts, pts, lambda k: k / (n - 1), "path sample")
    # Closest approach of each chord between samples: the clamped xy projection.
    a, d = pts[:-1, :2], np.diff(pts[:, :2], axis=0)
    dd = (d * d).sum(axis=1)
    t = np.clip(-(a * d).sum(axis=1) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    if np.hypot(*(a + t[:, None] * d).T).min() < AXIS_CUTOFF:
        raise AxisCrossing(_NEAR_AXIS)
    return _wrapped_sum(pts)


def azimuth_change(path: PathSpec) -> float:
    """Azimuth change phi(1) - phi(0) continued along the path: exact for arcs and
    polylines, refined samples for parametric paths; reversal negates bitwise."""
    if path.is_reversed:
        return -azimuth_change(path.reverse())
    if path.kind == "parametric":
        return refine(lambda k: _sampled_change(path, _N_SAMPLES << k),
                      lambda cur, prev: abs(cur - prev) <= _AZIMUTH_RTOL * (1.0 + abs(cur)),
                      _MAX_DOUBLINGS, "azimuth change")[0]
    if axis_distance(path) < AXIS_CUTOFF:
        raise AxisCrossing(_NEAR_AXIS)
    if path.kind == "polyline":
        return _wrapped_sum(np.asarray(path.vertices))
    return arc_azimuth_change(path.arc)


def arc_azimuth_change(arc: tuple) -> float:
    """Azimuth change along arc data (center, radius, start phase, sweep) clear of the axis.

    In complex xy an arc point is c + r e^(ia) = e^(ia) (r + c e^(-ia)) = c (1 + e^(ia) r/c).
    The first bracket (axis inside the circle) or the second (outside) stays in the right
    half plane; the change is the sweep (inside) or 0 plus that bracket's argument change.
    """
    (cx, cy, _), r, phase, sweep = arc
    inside = math.hypot(cx, cy) < r
    cos, sin = np.cos([phase, phase + sweep]), np.sin([phase, phase + sweep])
    k, m = cx * cos + cy * sin, cx * sin - cy * cos
    arg = -np.arctan2(m, r + k) if inside else np.arctan2(r * m, cx * cx + cy * cy + r * k)
    return sweep * inside + float(arg[1] - arg[0])


def endpoint_azimuths(path: PathSpec) -> tuple:
    """(start, end) azimuths on the branch continued along the path."""
    x, y, _ = path.start
    start = float(np.arctan2(y, x))
    return start, start + azimuth_change(path)


@dataclass(frozen=True)
class LoopSpec:
    """A closed PathSpec plus winding bookkeeping around the z-axis."""

    path: PathSpec

    def __post_init__(self):
        gap, scale = _scaled_gap(self.path.start, self.path.end)
        if gap > CLOSURE_TOL:
            raise NotClosed(f"loop endpoints differ by {gap * scale:.3e}")

    @classmethod
    def circle(cls, center, radius: float, turns: int = 1) -> "LoopSpec":
        return cls(PathSpec.circle(center, radius, turns=turns))

    def reverse(self) -> "LoopSpec":
        return LoopSpec(self.path.reverse())


def winding_number(loop: LoopSpec) -> int:
    """Signed revolutions around the z-axis: the azimuth change in whole turns,
    or NoConvergence when it is more than 1e-6 turns from an integer."""
    turns = azimuth_change(loop.path) / (2.0 * math.pi)
    if abs(turns - round(turns)) > 1e-6:
        raise NoConvergence(f"loop azimuth change is {turns!r} turns, not a whole number")
    return round(turns)


@dataclass(frozen=True)
class DiscSpec:
    """Flat z-normal disc used for flux integrals; center is a 3-vector, kept as floats."""

    center: tuple
    radius: float
    normal: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
        c = tuple(float(v) for v in as_xyz(self.center))
        object.__setattr__(self, "center", c)
        # As for arcs: points lie within |c_xy| + r of the axis, at height c_z.
        if not (math.isfinite(c[2]) and math.isfinite(math.hypot(c[0], c[1]) + self.radius)):
            raise NonFinite(f"disc data do not give finite points: center "
                            f"{c}, radius {self.radius}")
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("disc normal must be a unit vector")
        if abs(n[0]) > 1e-12 or abs(n[1]) > 1e-12:
            raise ValueError("only z-normal discs are supported")

    @property
    def orientation(self) -> float:
        """+1 for normal along +z, -1 for -z."""
        return 1.0 if self.normal[2] > 0 else -1.0

    def contains_axis(self) -> bool:
        return math.hypot(self.center[0], self.center[1]) < self.radius

    def boundary(self) -> LoopSpec:
        """Rim loop oriented by the right-hand rule around the normal."""
        turns = 1 if self.orientation > 0 else -1
        return LoopSpec.circle(self.center, self.radius, turns=turns)
