"""Direct quadrature of the solenoid's current integral for its potential.

The shell current of the infinite solenoid is a ring of straight current
lines.  Integrated along one line, the 1/|x - x'| kernel grows as
2 ln 2L - 2 ln d with the half-length L, d being the in-plane distance from
the field point to the line; the 2 ln 2L term is the same for every source
azimuth, so it cancels against cos phi' and sin phi' in the azimuthal
integral, and the L -> infinity limit is exact:

    A(x) = (B R / 2 pi) * integral of (-ln d) phi_hat(phi') dphi'.

Only the azimuth is quadrature, composite Gauss-Legendre refined toward the
field point's azimuth and built once per order, so an (..., 3) array of
points is one array evaluation with one log per node.  The error estimate
is the difference from the same panels at half the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic_fields import SolenoidField, SolenoidSpec
from .calculus import DiffConfig, _gl01, numeric_curl
from .errors import TooCloseToShell
from .geometry import as_points

SHELL_BAND_FRACTION = 1e-3

# Dyadic panel refinement toward the source line nearest the field point:
# azimuthal panels halve down to pi / 2**_PHI_LEVELS around its azimuth.
_PHI_LEVELS = 7

# (point x azimuth node) entries per block of the vectorized quadrature.
_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order per azimuthal panel of the current integral."""

    n_phi: int = 48

    def __post_init__(self):
        if self.n_phi < 8:
            raise ValueError("quadrature order must be at least 8")


@dataclass(frozen=True)
class BiotSavartResult:
    """Quadrature potential and the largest change from the half-order rule."""

    value: np.ndarray
    error_estimate: float


@lru_cache(maxsize=32)
def _azimuth_rule(order: int):
    """Composite Gauss-Legendre rule as offsets from the field point's azimuth.

    Panels halve toward offset 0 from pi down to pi / 2**_PHI_LEVELS; a
    point's nodes are its azimuth plus these offsets, with the same weights.
    """
    half_widths = [math.pi / 2 ** k for k in range(_PHI_LEVELS + 1)]
    breaks = np.array(sorted([-o for o in half_widths] + [0.0] + half_widths))
    u, w = _gl01(order)
    width = np.diff(breaks)[:, None]
    return (breaks[:-1, None] + width * u).ravel(), (width * w).ravel()


@lru_cache(maxsize=32)
def _kernel_rule(order: int):
    """sin**2(offset / 2) and the weights times cos and sin of each azimuth offset."""
    offsets, weights = _azimuth_rule(order)
    return np.sin(0.5 * offsets) ** 2, weights * np.cos(offsets), weights * np.sin(offsets)


def _outside_band(p, s: SolenoidSpec) -> np.ndarray:
    """p as (..., 3) points; TooCloseToShell names the first within the shell band."""
    pts = as_points(p)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    near = rho[np.abs(rho - s.R) <= SHELL_BAND_FRACTION * s.R]
    if near.size:
        raise TooCloseToShell(
            f"rho = {near[0]:.6g} is within the exclusion band around R = {s.R:.6g}")
    return pts


def _log_kernel(pts: np.ndarray, s: SolenoidSpec, order: int) -> np.ndarray:
    """Infinite-solenoid potential at (..., 3) points by the order-`order` rule, in blocks.

    In the frame of the point's azimuth, the source at offset a lies at
    squared distance (rho - R)**2 + 4 rho R sin**2(a / 2), written so that
    nothing cancels near the shell, and its phi_hat' has components
    cos a along phi_hat and -sin a along rho_hat.
    """
    s2, wcos, wsin = _kernel_rule(order)
    flat = pts.reshape(-1, 3)
    rows = max(1, _BLOCK // s2.size)
    pref = s.B * s.R / (4.0 * math.pi)  # -ln d = -ln(d**2) / 2
    out = np.zeros(flat.shape)
    for i in range(0, len(flat), rows):
        x, y = flat[i:i + rows, 0], flat[i:i + rows, 1]
        rho, phi0 = np.hypot(x, y), np.arctan2(y, x)
        ux, uy = np.cos(phi0), np.sin(phi0)
        log_d2 = np.log((rho - s.R)[:, None] ** 2 + (4.0 * s.R * rho)[:, None] * s2)
        a_phi = -pref * (log_d2 * wcos).sum(axis=-1)
        a_rho = pref * (log_d2 * wsin).sum(axis=-1)
        out[i:i + rows, 0] = a_rho * ux - a_phi * uy
        out[i:i + rows, 1] = a_rho * uy + a_phi * ux
    return out.reshape(pts.shape)


def numeric_potential(p, s: SolenoidSpec,
                      cfg: QuadratureConfig = QuadratureConfig()) -> BiotSavartResult:
    """Potential of the solenoid current by quadrature of the log kernel.

    p is a point (3,) or an (..., 3) array of points and value has p's
    shape.  error_estimate is the largest component difference, over the
    points, from the same panels at order n_phi // 2.  Points within
    SHELL_BAND_FRACTION * R of the current shell are rejected; the closed
    form is the reference there.
    """
    pts = _outside_band(p, s)
    value = _log_kernel(pts, s, cfg.n_phi)
    coarse = _log_kernel(pts, s, cfg.n_phi // 2)
    return BiotSavartResult(value, float(np.max(np.abs(value - coarse), initial=0.0)))


def numeric_b_field(p, s: SolenoidSpec, cfg: QuadratureConfig = QuadratureConfig(),
                    h: float = 1e-2) -> np.ndarray:
    """Central-difference curl of the quadrature potential at (3,) or (..., 3) points."""
    pts = as_points(p)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(np.abs(rho - s.R) <= max(5.0 * h, SHELL_BAND_FRACTION * s.R)):
        raise TooCloseToShell("curl stencil would enter the shell exclusion band")
    return numeric_curl(NumericBiotSavartField(s, cfg), pts, DiffConfig(h, 2))


@dataclass(frozen=True)
class NumericBiotSavartField(SolenoidField):
    """The quadrature potential as a field expression (shell band excluded)."""

    config: QuadratureConfig = QuadratureConfig()

    excludes_shell = True

    def __call__(self, p) -> np.ndarray:
        return _log_kernel(_outside_band(p, self.solenoid), self.solenoid, self.config.n_phi)

    def _extra_domain_ok(self, rho: np.ndarray, margin: float) -> np.ndarray:
        return np.abs(rho - self.solenoid.R) > SHELL_BAND_FRACTION * self.solenoid.R + margin
