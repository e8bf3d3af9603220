"""Direct quadrature of the solenoid's current integral for its potential and field.

The shell current of the infinite solenoid is a ring of straight current
lines.  Integrated along one line, the 1/|x - x'| kernel grows as
2 ln 2L - 2 ln d with the half-length L, d being the in-plane distance from
the field point to the line; the 2 ln 2L term is the same for every source
azimuth, so it cancels against cos phi' and sin phi' in the azimuthal
integral, and the L -> infinity limit is exact.  B = curl A is the analytic
gradient of the same kernel, with B_x = B_y = 0:

    A(x) = (B R / 2 pi) * integral of (-ln d) phi_hat(phi') dphi',
    B_z(x) = -(B R / 2 pi) * integral of (x - x') . r_hat(phi') / d**2 dphi'.

Only the azimuth is quadrature, composite Gauss-Legendre with panels halving toward the
field point's azimuth down to about its gap |rho - R| from the shell, so points that share
a level count are one array evaluation; both estimate their error from half the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic_fields import SHELL_TOL, ShellExcludedField, SolenoidSpec
from .calculus import _gl01
from .errors import OnShell
from .geometry import as_points

# (point x azimuth node) entries per block of the vectorized quadrature.
_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order per azimuthal panel of the current integral."""

    n_phi: int = 48

    def __post_init__(self):
        if self.n_phi < 32:
            raise ValueError("quadrature order must be at least 32")


@dataclass(frozen=True)
class BiotSavartResult:
    """Quadrature value and the largest change from the half-order rule."""

    value: np.ndarray
    error_estimate: float


# A nonzero float gap is at least R / 2**53, so no point needs more than 56 levels:
# every level count of an (n_phi, n_phi // 2) pair of orders fits.
@lru_cache(maxsize=128)
def _azimuth_rule(order: int, levels: int):
    """Composite Gauss-Legendre rule as offsets a from the field point's azimuth: panels
    halve toward offset 0 from pi down to pi / 2**levels, and a point's nodes are its
    azimuth plus these offsets, with the same weights w.  Returns a, w, sin**2(a / 2),
    w cos a and w sin a."""
    half_widths = [math.pi / 2 ** k for k in range(levels + 1)]
    breaks = np.array(sorted([-o for o in half_widths] + [0.0] + half_widths))
    u, w = _gl01(order)
    width = np.diff(breaks)[:, None]
    a, w = (breaks[:-1, None] + width * u).ravel(), (width * w).ravel()
    return a, w, np.sin(0.5 * a) ** 2, w * np.cos(a), w * np.sin(a)


def _log_kernel(xyz: np.ndarray, s: SolenoidSpec, rule) -> np.ndarray:
    """Potential at (n, 3) points.  In the frame of the point's azimuth, the source
    at offset a lies at squared distance (rho - R)**2 + 4 rho R sin**2(a / 2), written
    so that nothing cancels near the shell, and its phi_hat' has components cos a
    along phi_hat and -sin a along rho_hat."""
    _, _, s2, wcos, wsin = rule
    x, y = xyz[:, 0], xyz[:, 1]
    rho, phi0 = np.hypot(x, y), np.arctan2(y, x)
    ux, uy = np.cos(phi0), np.sin(phi0)
    pref = s.B * s.R / (4.0 * math.pi)  # -ln d = -ln(d**2) / 2
    log_d2 = np.log((rho - s.R)[:, None] ** 2 + (4.0 * s.R * rho)[:, None] * s2)
    a_phi = -pref * (log_d2 * wcos).sum(axis=-1)
    a_rho = pref * (log_d2 * wsin).sum(axis=-1)
    return np.stack([a_rho * ux - a_phi * uy, a_rho * uy + a_phi * ux, np.zeros_like(x)], -1)


def _gradient_kernel(xyz: np.ndarray, s: SolenoidSpec, rule) -> np.ndarray:
    """Field at (n, 3) points.  The source at offset a gives (x - x') . r_hat' =
    rho cos a - R, written as (rho - R) - 2 rho sin**2(a / 2) so that nothing cancels
    near the shell."""
    _, w, s2, _, _ = rule
    rho = np.hypot(xyz[:, 0], xyz[:, 1])[:, None]
    gap = rho - s.R
    out = np.zeros(xyz.shape)
    out[:, 2] = (-s.B * s.R / (2.0 * math.pi)) * (
        w * (gap - 2.0 * rho * s2) / (gap ** 2 + 4.0 * s.R * rho * s2)).sum(axis=-1)
    return out


def _quadrature(kernel, p, s: SolenoidSpec, orders) -> list:
    """kernel at a point (3,) or (..., 3) points by each order's rule, at gap |rho - R|
    with max(1, ceil(log2(pi R / gap)) + 1) levels, so the innermost panels span arcs of at
    most half the gap.  Points are grouped by level, each group in blocks of about _BLOCK
    entries; OnShell names the first point within SHELL_TOL of the shell."""
    pts = as_points(p)
    flat, values = pts.reshape(-1, 3), []
    gap = np.abs(np.hypot(flat[:, 0], flat[:, 1]) - s.R)
    if (gap < SHELL_TOL).any():
        raise OnShell(f"point {flat[gap < SHELL_TOL][0].tolist()} is on the current shell")
    # gap / (pi R) = m 2**e with m in [0.5, 1), so ceil(log2(pi R / gap)) is 1 - e exactly
    levels = np.maximum(1, 2 - np.frexp(gap / (math.pi * s.R))[1])
    ns = set(levels.tolist())
    if len(ns) > 1:  # each level's points as one array of their own
        values = [np.empty(flat.shape) for _ in orders]
        for n in ns:
            at_n = levels == n
            for value, part in zip(values, _quadrature(kernel, flat[at_n], s, orders)):
                value[at_n] = part
        return [value.reshape(pts.shape) for value in values]
    for rule in (_azimuth_rule(order, max(ns, default=1)) for order in orders):
        rows, out = max(1, _BLOCK // rule[0].size), np.empty(flat.shape)
        for i in range(0, len(flat), rows):
            out[i:i + rows] = kernel(flat[i:i + rows], s, rule)
        values.append(out.reshape(pts.shape))
    return values


def _with_estimate(kernel, p, s: SolenoidSpec, cfg: QuadratureConfig) -> BiotSavartResult:
    value, coarse = _quadrature(kernel, p, s, (cfg.n_phi, cfg.n_phi // 2))
    return BiotSavartResult(value, float(np.max(np.abs(value - coarse), initial=0.0)))


def numeric_potential(p, s: SolenoidSpec,
                      cfg: QuadratureConfig = QuadratureConfig()) -> BiotSavartResult:
    """Potential of the solenoid current by quadrature of the log kernel at a point (3,)
    or an (..., 3) array of points, value having p's shape.  error_estimate is the largest
    component difference, over the points, from the same panels at order n_phi // 2."""
    return _with_estimate(_log_kernel, p, s, cfg)


def numeric_b_field(p, s: SolenoidSpec,
                    cfg: QuadratureConfig = QuadratureConfig()) -> BiotSavartResult:
    """Field of the solenoid current by quadrature of the log kernel's gradient; points,
    shapes and error_estimate as for numeric_potential."""
    return _with_estimate(_gradient_kernel, p, s, cfg)


@dataclass(frozen=True)
class NumericBiotSavartField(ShellExcludedField):
    """The quadrature potential as a field expression."""

    config: QuadratureConfig = QuadratureConfig()

    def __call__(self, p) -> np.ndarray:
        return _quadrature(_log_kernel, p, self.solenoid, (self.config.n_phi,))[0]
