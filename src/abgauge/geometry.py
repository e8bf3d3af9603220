"""Points, paths, loops, and discs, with continuous-azimuth bookkeeping.

Paths are evaluated on arrays: ``PathSpec.points(ts)`` and
``PathSpec.velocities(ts)`` take an (N,) array of parameters in [0, 1] and
return (N, 3); ``point_at``/``velocity_at`` are the one-row case.  All
values are immutable after construction and safe to share between threads.
``azimuth_change`` is exact for arcs and polylines: a polyline sums the
branch-nearest steps between its vertices and an arc takes a closed form.
Only parametric paths are sampled, doubling the samples through
``extrapolation.refine``.  Axis crossings are found in closed form for arcs
and segments, by the samples for parametric paths.  The winding count
rounds the change; a non-finite sample or datum stops with ``NonFinite``.
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

# Step for the numeric fallback of parametric-path velocities.
_VELOCITY_H = 1e-7


def as_points(p) -> np.ndarray:
    """Coerce a Point, a 3-vector or an (..., 3) array of points to float64."""
    arr = p.as_array() if isinstance(p, Point) else np.asarray(p, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"expected 3-vectors, got shape {arr.shape}")
    return arr


def as_xyz(point) -> np.ndarray:
    """Coerce a Point or length-3 sequence to a float64 array (x, y, z)."""
    arr = as_points(point)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Point:
    """Cartesian point in desk units, with cylindrical accessors."""

    x: float
    y: float
    z: float

    @classmethod
    def from_cylindrical(cls, rho: float, phi: float, z: float) -> "Point":
        return cls(rho * math.cos(phi), rho * math.sin(phi), z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        """Principal azimuth in (-pi, pi]."""
        return math.atan2(self.y, self.x)


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

    Four storage kinds: a circular arc stored as data (center, radius,
    start phase, sweep; a circle is an arc of sweep 2 pi turns), a
    parametric map of one parameter (optionally with an analytic
    derivative), a polyline over explicit vertices, or a concatenation of
    sub-paths.  Reversal is a flag, so that integrators can evaluate the
    underlying forward curve on identical quadrature nodes and negate.
    """

    kind: str
    fn: Optional[Callable[[float], np.ndarray]] = None
    dfn: Optional[Callable[[float], np.ndarray]] = None
    vertices: Optional[tuple] = None
    children: Optional[tuple] = None
    arc: Optional[tuple] = None
    is_reversed: bool = False

    # -- constructors --------------------------------------------------

    @classmethod
    def parametric(cls, fn, derivative=None) -> "PathSpec":
        """Path from a map t -> 3-vector, called once per parameter value."""
        return cls(kind="parametric", fn=fn, dfn=derivative)

    @classmethod
    def polyline(cls, points: Sequence) -> "PathSpec":
        verts = tuple(tuple(float(c) for c in as_xyz(p)) for p in points)
        if len(verts) < 2:
            raise ValueError("polyline needs at least 2 vertices")
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
        return cls(kind="arc", arc=(c, float(radius), float(phase), float(sweep)))

    @classmethod
    def concat(cls, *paths: "PathSpec") -> "PathSpec":
        if len(paths) < 2:
            raise ValueError("concat needs at least two paths")
        for a, b in zip(paths, paths[1:]):
            if np.max(np.abs(a.end - b.start)) > CLOSURE_TOL:
                raise ValueError("concatenated paths do not join at endpoints")
        return cls(kind="concat", children=tuple(paths))

    # -- evaluation ----------------------------------------------------

    def points(self, ts) -> np.ndarray:
        """(N, 3) points at an (N,) array of parameters."""
        ts = np.asarray(ts, dtype=float)
        return self._point(1.0 - ts if self.is_reversed else ts)

    def velocities(self, ts) -> np.ndarray:
        """(N, 3) derivatives d point / d t at an (N,) array of parameters."""
        ts = np.asarray(ts, dtype=float)
        if self.is_reversed:
            return -self._forward(1.0 - ts, velocity=True)
        return self._forward(ts, velocity=True)

    def point_at(self, t: float) -> np.ndarray:
        return self.points([t])[0]

    def velocity_at(self, t: float) -> np.ndarray:
        return self.velocities([t])[0]

    def _point(self, ts: np.ndarray) -> np.ndarray:
        """Points of the forward curve at an (N,) parameter array."""
        return self._forward(ts, velocity=False)

    def _forward(self, ts: np.ndarray, velocity: bool) -> np.ndarray:
        """Points or velocities of the forward curve at parameters ts."""
        if self.kind == "arc":
            (cx, cy, cz), r, phase, sweep = self.arc
            a = phase + sweep * ts
            cos, sin = np.cos(a), np.sin(a)
            if velocity:
                return np.stack([-r * sweep * sin, r * sweep * cos, np.zeros_like(a)], axis=1)
            return np.stack([cx + r * cos, cy + r * sin, np.full_like(a, cz)], axis=1)
        if self.kind == "parametric":
            if velocity and self.dfn is None:
                return self._numeric_velocities(ts)
            fn = self.dfn if velocity else self.fn
            rows = [np.asarray(fn(t), dtype=float) for t in ts.tolist()]
            return np.array(rows).reshape(-1, 3)
        m = len(self.children) if self.kind == "concat" else len(self.vertices) - 1
        s = np.clip(ts, 0.0, 1.0) * m
        i = np.minimum(s.astype(int), m - 1)
        if self.kind == "polyline":
            v = np.asarray(self.vertices)
            d = v[i + 1] - v[i]
            return d * m if velocity else v[i] + (s - i)[:, None] * d
        out = np.empty((len(ts), 3))
        for k, child in enumerate(self.children):
            sel = i == k
            if sel.any():
                u = s[sel] - k
                out[sel] = child.velocities(u) * m if velocity else child.points(u)
        return out

    def _numeric_velocities(self, ts: np.ndarray) -> np.ndarray:
        """Second-order differences of a parametric map, one sided near the ends."""
        p = self._point
        h = _VELOCITY_H
        lo, hi = ts < h, ts > 1.0 - h
        mid = ~(lo | hi)
        out = np.empty((len(ts), 3))
        t = ts[lo]
        out[lo] = (-3.0 * p(t) + 4.0 * p(t + h) - p(t + 2 * h)) / (2 * h)
        t = ts[hi]
        out[hi] = (3.0 * p(t) - 4.0 * p(t - h) + p(t - 2 * h)) / (2 * h)
        t = ts[mid]
        out[mid] = (p(t + h) - p(t - h)) / (2 * h)
        return out

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
        return bool(np.max(np.abs(self.start - self.end)) <= CLOSURE_TOL)

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

    def check_sampled_continuity(self, n: int = 4096) -> bool:
        """True when every sample is finite and no parametric piece has a gap
        over 10x its mean; arcs, polylines and concat joins are continuous.
        """
        if self.kind == "concat":
            return all(c.check_sampled_continuity(n) for c in self.children)
        pts = self.sample(n)
        if not np.isfinite(pts).all():
            return False
        if self.kind != "parametric":
            return True
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        mean = float(gaps.mean())
        return bool(float(gaps.max()) <= 10.0 * mean) if mean > 0 else True


def axis_distance(path: PathSpec) -> float:
    """Closest approach to the z-axis in closed form per piece; inf if parametric.

    Segments project the origin in xy, clamped; arcs give |rho_c - r| when
    the sweep reaches the circle point nearest the axis, else an endpoint's.
    """
    if path.kind == "concat":
        return min(axis_distance(c) for c in path.children)
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
    if np.hypot(pts[:, 0], pts[:, 1]).min() < AXIS_CUTOFF:
        raise AxisCrossing(_NEAR_AXIS)
    return _wrapped_sum(pts)


def azimuth_change(path: PathSpec) -> float:
    """Azimuth change phi(1) - phi(0) continued along the path: exact for arcs and
    polylines, refined samples for parametric pieces; reversal negates bitwise."""
    if path.is_reversed:
        return -azimuth_change(path.reverse())
    if path.kind == "concat":
        return math.fsum(azimuth_change(c) for c in path.children)
    if path.kind == "parametric":
        return refine(lambda k: _sampled_change(path, _N_SAMPLES << k),
                      lambda cur, prev: abs(cur - prev) <= _AZIMUTH_RTOL * (1.0 + abs(cur)),
                      _MAX_DOUBLINGS, "azimuth change")[0]
    if not np.isfinite(path.vertices or (*path.arc[0], *path.arc[1:])).all():
        raise NonFinite(f"{path.kind} data is not finite: {path.vertices or path.arc}")
    if axis_distance(path) < AXIS_CUTOFF:
        raise AxisCrossing(_NEAR_AXIS)
    if path.kind == "polyline":
        return _wrapped_sum(np.asarray(path.vertices))
    # In complex xy an arc point is c + r e^(ia) = e^(ia) (r + c e^(-ia)) = c (1 + e^(ia) r/c).
    # The first bracket (axis inside the circle) or the second (outside) stays in the right
    # half plane; the change is the sweep (inside) or 0 plus that bracket's argument change.
    (cx, cy, _), r, phase, sweep = path.arc
    inside = math.hypot(cx, cy) < r
    cos, sin = np.cos([phase, phase + sweep]), np.sin([phase, phase + sweep])
    k, m = cx * cos + cy * sin, cx * sin - cy * cos
    arg = -np.arctan2(m, r + k) if inside else np.arctan2(r * m, cx * cx + cy * cy + r * k)
    return sweep * inside + float(arg[1] - arg[0])


def endpoint_azimuths(path: PathSpec) -> tuple:
    """(start, end) azimuths on the branch continued along the path."""
    start = float(np.arctan2(path.start[1], path.start[0]))
    return start, start + azimuth_change(path)


@dataclass(frozen=True)
class LoopSpec:
    """A closed PathSpec plus winding bookkeeping around the z-axis."""

    path: PathSpec

    def __post_init__(self):
        gap = float(np.max(np.abs(self.path.start - self.path.end)))
        if gap > CLOSURE_TOL:
            raise NotClosed(f"loop endpoints differ by {gap:.3e}")

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
    """Flat z-normal disc used for flux integrals."""

    center: Point
    radius: float
    normal: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
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
        return math.hypot(self.center.x, self.center.y) < self.radius

    def boundary(self) -> LoopSpec:
        """Rim loop oriented by the right-hand rule around the normal."""
        turns = 1 if self.orientation > 0 else -1
        return LoopSpec.circle(self.center.as_array(), self.radius, turns=turns)
