"""Numerical differential operators, line and flux quadrature, and checks.

A line integral first asks the field for its exact circulation along each
forward arc, polyline or parametric piece (``FieldExpr.circulation``: the
solenoid's transverse potential and the linear Landau potentials on arcs
and polylines, gauge gradients on any path), after the same domain checks
as quadrature; a disc flux first asks for the exact flux
(``FieldExpr.flux``: the solenoid's B by the area of the disc's overlap
with the cross-section).  An exact value reports no nodes and a None
estimate.  Where the field gives None, the piece is integrated by
composite Gauss-Legendre along the path parameter with panel doubling;
disc fluxes use a polar product rule with radial splits at known
breakpoints; both double through ``extrapolation.refine`` and report
|I_2n - I_n| as their estimate, or 8 ulps of the last level's sum of
absolute terms (``_ROUNDING``, the oracle's floor too) where that is larger.
Shrinking-loop circulations extrapolate in the squared loop radius.  The
axis string (``StringField``) never enters any stencil or quadrature; a disc
flux adds its ``flux_through``.

Each refinement level is one array evaluation (blocks of ``_CHUNK`` points
beyond that): a line level's points and velocities (``PathSpec.frame``) and
field values, a polar flux grid, the 6 or 12 stencil points of any number of
base points.  A line integral's first two levels, which every refinement
takes, are one evaluation of their nodes together.  Terms are summed exactly
with ``math.fsum``; a non-finite term raises ``NonFinite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .analytic_fields import FieldExpr
from .errors import DomainViolation, NoLimit, NonFinite
from .extrapolation import neville_to_zero, refine
from .geometry import DiscSpec, PathSpec, as_points, as_xyz, require_finite

# Points per field call; larger refinement levels are evaluated in blocks.
_CHUNK = 1 << 14

# Gauss-Legendre order per panel of line quadrature and per polar axis of disc flux.
_LINE_ORDER, _DISC_ORDER = 8, 10

# Refinement budgets in panel doublings: line quadrature, disc flux.
_LINE_MAX_DOUBLINGS, _DISC_MAX_DOUBLINGS = 16, 8

# Tolerances: the Stokes check's flux (its circulation is 100x tighter), each
# shrinking circle's circulation, and the spread of extrapolants that is a limit.
_STOKES_TOL, _SHRINK_TOL, _SHRINK_CAUCHY_TOL = 1e-8, 1e-11, 1e-6

# A quadrature estimate is at least 8 units of roundoff of the sum of the absolute terms.
_ROUNDING = 8 * np.finfo(float).eps

# Largest sampled |div| or |curl| that still counts as zero.
_HELMHOLTZ_THRESHOLD = 1e-6


@dataclass(frozen=True)
class DiffConfig:
    """Finite-difference step and stencil order for curl/divergence."""

    h: float = 1e-4
    order: int = 2

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step must be positive")
        if self.order not in (2, 4):
            raise ValueError("order must be 2 or 4")


@dataclass(frozen=True)
class CirculationReport:
    """A line integral or flux; an exact value has n_points 0 and error_estimate None."""

    value: float
    n_points: int
    error_estimate: Optional[float]

    def __post_init__(self):
        if self.error_estimate is not None and self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


def add_estimates(*estimates: Optional[float]) -> Optional[float]:
    """Exact sum of the estimates that are not None; None when every input is exact."""
    known = [e for e in estimates if e is not None]
    return math.fsum(known) if known else None


@dataclass(frozen=True)
class HelmholtzReport:
    max_abs_div: float
    max_abs_curl: float
    classification: str
    notes: tuple = ()


@dataclass(frozen=True)
class ShrinkingLoopReport:
    """Circulations on shrinking circles and their radius -> 0 limit."""

    value: float
    eps_values: tuple
    circulations: tuple
    error_estimate: float


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def _stencil_margin(cfg: DiffConfig) -> float:
    reach = 2 if cfg.order == 4 else 1
    return reach * cfg.h * 1.0001


def _jacobian(f: FieldExpr, p, cfg: DiffConfig) -> np.ndarray:
    """J[..., i, j] = d f_i / d x_j by central differences at (..., 3) points.

    All stencil points of all base points go to the field in one call.
    """
    base = as_points(p)
    ok = f.domain_ok(base, margin=_stencil_margin(cfg))
    if not np.all(ok):
        bad = base.reshape(-1, 3)[np.argmin(np.ravel(ok))].tolist()
        raise DomainViolation(f"finite-difference stencil at {bad} leaves the field's domain")
    h = cfg.h
    e = h * np.eye(3)
    if cfg.order == 2:
        v = f(base[..., None, :] + np.concatenate([e, -e]))
        cols = (v[..., 0:3, :] - v[..., 3:6, :]) / (2 * h)
    else:
        v = f(base[..., None, :] + np.concatenate([e, -e, 2 * e, -2 * e]))
        cols = (8.0 * (v[..., 0:3, :] - v[..., 3:6, :])
                - (v[..., 6:9, :] - v[..., 9:12, :])) / (12 * h)
    return np.swapaxes(cols, -1, -2)


def _curl(j: np.ndarray) -> np.ndarray:
    return np.stack([j[..., 2, 1] - j[..., 1, 2], j[..., 0, 2] - j[..., 2, 0],
                     j[..., 1, 0] - j[..., 0, 1]], axis=-1)


def _divergence(j: np.ndarray) -> np.ndarray:
    return j[..., 0, 0] + j[..., 1, 1] + j[..., 2, 2]


def numeric_curl(f: FieldExpr, p, cfg: DiffConfig = DiffConfig()) -> np.ndarray:
    """Curl at a point (3,) or at an (..., 3) array of points."""
    return _curl(_jacobian(f, p, cfg))


def numeric_divergence(f: FieldExpr, p, cfg: DiffConfig = DiffConfig()):
    """Divergence at a point (a float) or at an (..., 3) array of points."""
    return _divergence(_jacobian(f, p, cfg))


@dataclass(frozen=True)
class NumericCurlField(FieldExpr):
    """Curl of another field, evaluated by finite differences on demand."""

    base: FieldExpr = None
    cfg: DiffConfig = DiffConfig()

    @property
    def radial_breakpoints(self) -> tuple:
        return self.base.radial_breakpoints

    @property
    def excludes_nothing(self) -> bool:  # type: ignore[override]
        return self.base.excludes_nothing

    def __call__(self, p) -> np.ndarray:
        return numeric_curl(self.base, p, self.cfg)

    def domain_ok(self, p, margin: float = 0.0) -> np.ndarray:
        return self.base.domain_ok(p, margin + _stencil_margin(self.cfg))


# ---------------------------------------------------------------------------
# Line integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl01(order: int):
    """Gauss-Legendre nodes/weights mapped to the unit interval.

    Newton's method on the Legendre recurrence: numpy's ``leggauss`` loads
    numpy.polynomial and LAPACK, about 1.5 MB of memory, for these rules.
    """
    x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)


def _sums(blocks) -> tuple:
    """(exact sum, sum of magnitudes) of every entry of an iterable of arrays, in one pass."""
    magnitudes = []

    def lists():
        for b in blocks:
            magnitudes.append(float(np.abs(b).sum()))
            yield b.ravel().tolist()

    total = math.fsum(chain.from_iterable(lists()))
    return total, math.fsum(magnitudes)


def _refine(level_sums, tol: float, max_doublings: int, what: str) -> tuple:
    """(value, estimate, level) at the first level >= 1 where |I_2n - I_n| < tol.

    level_sums(k) returns (sum, sum of magnitudes) for levels k, k + 1, ... as far
    as one evaluation reaches.  The estimate is |I_2n - I_n|, but at least
    _ROUNDING times the last level's sum of magnitudes.
    """
    levels = {}

    def value(k):
        if k not in levels:
            levels.update(enumerate(level_sums(k), k))
        return levels[k][0]

    val, prev, depth = refine(value, lambda a, b: abs(a - b) < tol, max_doublings, what)
    return val, max(abs(val - prev), _ROUNDING * levels[depth][1]), depth


def _composite(g, panel_counts, order: int) -> list:
    """Composite rules for g, which maps an array of parameters to integrand values:
    one call of g on the nodes of every panel count (blocks of _CHUNK beyond that),
    and (sum, sum of magnitudes) of each count's terms."""
    nodes, weights = _gl01(order)
    ts = np.concatenate([(np.arange(panels)[:, None] * (1.0 / panels)
                          + (1.0 / panels) * nodes).ravel() for panels in panel_counts])
    terms = np.empty_like(ts)
    for i in range(0, ts.size, _CHUNK):
        terms[i:i + _CHUNK] = g(ts[i:i + _CHUNK])
    rows, out, lo = _CHUNK // order, [], 0
    for panels in panel_counts:
        level = terms[lo:lo + panels * order].reshape(panels, order)
        level *= weights * (1.0 / panels)
        out.append(_sums(level[k:k + rows] for k in range(0, panels, rows)))
        lo += panels * order
    return out


def _domain_precheck(f: FieldExpr, path: PathSpec, n: int = 129) -> None:
    pts = path.sample(n)
    ok = f.domain_ok(pts)
    if not ok.all():
        pt = tuple(np.round(pts[np.argmin(ok)], 6).tolist())
        raise DomainViolation(f"path point {pt} is outside the field's domain")
    # Between samples that straddle the cut the principal azimuth jumps by nearly 2 pi.
    if f.branch_cut and np.any(np.abs(np.diff(np.arctan2(pts[:, 1], pts[:, 0]))) > math.pi):
        raise DomainViolation("path crosses the field's branch cut on the negative x-axis")


def _integrand(f: FieldExpr, path: PathSpec):
    """ts -> f(r(t)) . r'(t) on a forward path, one call per array of ts."""
    def g(ts):
        pts, vel = path.frame(ts)
        vals = (f(pts) * vel).sum(axis=1)
        require_finite(vals, pts, lambda k: float(ts[k]), "line integrand")
        return vals
    return g


def line_integral(f: FieldExpr, path: PathSpec, tol: float = 1e-9) -> CirculationReport:
    """Work integral of f along the path: exact where the field has a closed form,
    else refined until |I_2n - I_n| < tol.

    A reversed path is integrated as its forward twin and negated, so
    orientation reversal is exactly antisymmetric.  Polylines on quadrature
    integrate segment by segment, so panel boundaries align with their kinks.
    """
    if path.is_reversed:
        rep = line_integral(f, path.reverse(), tol)
        return CirculationReport(-rep.value, rep.n_points, rep.error_estimate)

    n_pieces = len(path.vertices) - 1 if path.kind == "polyline" else 1
    # A field that excludes nothing refuses no path; a parametric path is still
    # sampled, because sampling calls its user function, which may fail.
    if path.kind == "parametric" or not f.excludes_nothing:
        _domain_precheck(f, path, n=max(129, 8 * n_pieces + 1))
    exact = f.circulation(path)
    if exact is not None:
        if not math.isfinite(exact):
            raise NonFinite(f"closed-form circulation along the {path.kind} is {exact}")
        return CirculationReport(exact, 0, None)
    if path.kind == "polyline":
        verts = path.vertices
        pieces = [(PathSpec.segment(a, b), 1) for a, b in zip(verts, verts[1:])]
    else:
        pieces = [(path, 2)]
    piece_tol = tol / len(pieces)
    parts = []
    for piece, start in pieces:
        g = _integrand(f, piece)
        # Levels 0 and 1 come from one call of g, later levels from one each.
        val, estimate, level = _refine(
            lambda k: _composite(g, (start, 2 * start) if k == 0 else (start << k,),
                                 _LINE_ORDER),
            piece_tol, _LINE_MAX_DOUBLINGS, f"line quadrature to tol={piece_tol:g}")
        parts.append(CirculationReport(val, (start << level) * _LINE_ORDER, estimate))
    return CirculationReport(math.fsum(r.value for r in parts), sum(r.n_points for r in parts),
                             add_estimates(*(r.error_estimate for r in parts)))


# ---------------------------------------------------------------------------
# Disc fluxes
# ---------------------------------------------------------------------------

def _polar_flux_level(f: FieldExpr, disc: DiscSpec, redges, level: int) -> tuple:
    """Polar product rule on the whole (radius x angle) node grid of one level:
    (sum, sum of magnitudes) of its terms."""
    nodes, weights = _gl01(_DISC_ORDER)
    cx, cy, cz = disc.center
    two_pi = 2.0 * math.pi
    rad_panels = 2 ** level
    ang_panels = 2 ** (level + 1)
    k = np.arange(rad_panels)[:, None]
    r, wr = [], []
    for lo, hi in zip(redges, redges[1:]):
        pw = (hi - lo) / rad_panels
        r.append((lo + k * pw + pw * nodes).ravel())
        wr.append(np.tile(weights * pw, rad_panels) * r[-1])
    r, wr = np.concatenate(r), np.concatenate(wr)
    tw_width = two_pi / ang_panels
    theta = (two_pi * np.arange(ang_panels)[:, None] / ang_panels + tw_width * nodes).ravel()
    tw = np.tile(weights, ang_panels)
    cos, sin = np.cos(theta), np.sin(theta)
    rows = max(1, _CHUNK // theta.size)

    def block(i):
        rb = r[i:i + rows, None]
        pts = np.stack(np.broadcast_arrays(cx + rb * cos, cy + rb * sin, cz), axis=-1)
        fz = f(pts)[..., 2]
        require_finite(fz.ravel(), pts.reshape(-1, 3),
                       lambda k: [float(rb[k // theta.size, 0]), float(theta[k % theta.size])],
                       "flux integrand", "(r, theta)")
        return ((wr[i:i + rows, None] * tw) * tw_width) * fz

    return _sums(block(i) for i in range(0, r.size, rows))


def disc_flux(f: FieldExpr, disc: DiscSpec, deltas: Sequence = (),
              tol: float = 1e-9) -> CirculationReport:
    """Flux of the smooth field through the disc plus enclosed delta fluxes.

    Where the field gives its flux in closed form (``FieldExpr.flux``) the
    smooth part is exact, with n_points 0 and a None estimate.  Otherwise a
    polar Gauss product rule is refined until |I_2n - I_n| < tol, the
    reported estimate; n_points counts the last level's nodes.  When the
    disc is centered on the axis the radial integration is split at the
    field's radial breakpoints so discontinuities sit on panel edges.  Each
    delta (a ``StringField``) adds its analytic flux through the disc.
    """
    smooth, nodes, estimate = f.flux(disc), 0, None
    if smooth is None:
        centered = math.hypot(disc.center[0], disc.center[1]) <= 1e-12
        cuts = []
        if centered:
            cuts = sorted(b for b in f.radial_breakpoints if 0.0 < b < disc.radius)
        redges = [0.0, *cuts, disc.radius]
        smooth, estimate, level = _refine(
            lambda k: [_polar_flux_level(f, disc, redges, k)],
            tol, _DISC_MAX_DOUBLINGS, f"disc flux to tol={tol:g}")
        nodes = (len(redges) - 1) * _DISC_ORDER ** 2 * 2 ** (2 * level + 1)
    total = smooth * disc.orientation
    for d in deltas:
        total += d.flux_through(disc)
    return CirculationReport(total, nodes, estimate)


def stokes_residual(f: FieldExpr, disc: DiscSpec, cfg: DiffConfig = DiffConfig()) -> float:
    """|circulation along the disc's rim - flux of the numeric curl through the disc|.

    Both sides are computed independently: the circulation in closed form
    where the field has one, else by quadrature, against quadrature of the
    finite-difference curl, which has no closed-form flux.
    """
    circ = line_integral(f, disc.boundary().path, tol=_STOKES_TOL * 1e-2)
    flux = disc_flux(NumericCurlField(f, cfg), disc, tol=_STOKES_TOL)
    return abs(circ.value - flux.value)


# ---------------------------------------------------------------------------
# Shrinking loops and field classification
# ---------------------------------------------------------------------------

def shrinking_loop_circulation(f: FieldExpr, center,
                               eps_list: Sequence[float] = (1e-1, 1e-2, 1e-3)
                               ) -> ShrinkingLoopReport:
    """Circulations around shrinking circles and their extrapolated limit.

    eps_list holds at least three strictly descending radii.  The limit
    comes from a polynomial fit in eps**2 through the last three radii (the
    smooth remainder of the probed fields is quadratic in the loop radius); a
    nonzero limit signals distributional curl at the center.
    """
    eps = [float(e) for e in eps_list]
    if len(eps) < 3:
        raise ValueError("need at least three radii")
    if any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] <= 0:
        raise ValueError("radii must be strictly descending and positive")

    c = as_xyz(center)
    circs = []
    quad_err = 0.0
    for e in eps:
        rep = line_integral(f, PathSpec.circle(c, e), tol=_SHRINK_TOL)
        circs.append(rep.value)
        if rep.error_estimate is not None:  # an exact circulation adds no quadrature error
            quad_err = max(quad_err, rep.error_estimate)

    xs = [e * e for e in eps]
    main = neville_to_zero(xs[-3:], circs[-3:])
    earlier = slice(-4, -1) if len(eps) >= 4 else slice(-2, None)
    prev = neville_to_zero(xs[earlier], circs[earlier])
    spread = abs(float(main) - float(prev))
    if spread > _SHRINK_CAUCHY_TOL:
        raise NoLimit(
            f"shrinking-loop extrapolants differ by {spread:.3e}; no limit")
    return ShrinkingLoopReport(value=float(main), eps_values=tuple(eps),
                               circulations=tuple(circs),
                               error_estimate=max(spread, quad_err))


def helmholtz_classify(f: FieldExpr, sample_points,
                       cfg: DiffConfig = DiffConfig()) -> HelmholtzReport:
    """Classify a field as transverse/longitudinal from sampled div and curl.

    A field below _HELMHOLTZ_THRESHOLD on both measures is reported as
    "both"; when it is not the zero field this is the harmonic case
    (curl-free on the sampled region yet divergence-free), flagged in the
    notes.
    """
    pts = np.asarray(sample_points, dtype=float).reshape(-1, 3)
    j = _jacobian(f, pts, cfg)
    max_div = float(np.max(np.abs(_divergence(j)), initial=0.0))
    max_curl = float(np.max(np.abs(_curl(j)), initial=0.0))
    max_mag = float(np.max(np.abs(f(pts)), initial=0.0))

    threshold = _HELMHOLTZ_THRESHOLD
    if max_div < threshold and max_curl < threshold:
        classification = "both"
        notes = ("harmonic",) if max_mag >= threshold else ("zero",)
    elif max_div < threshold:
        classification = "transverse"
        notes = ()
    elif max_curl < threshold:
        classification = "longitudinal"
        notes = ()
    else:
        classification = "neither"
        notes = ()
    return HelmholtzReport(max_abs_div=max_div, max_abs_curl=max_curl,
                           classification=classification, notes=notes)
