"""Direct quadrature of the solenoid's current integral for its potential.

The infinite surface-current integral is made concrete by truncating the
solenoid to half-length L and extrapolating the truncated values to
L -> infinity.  At each source azimuth the integral of the 1/|x - x'|
kernel along the current line -L <= z' <= L is exact, asinh((L - z)/d) +
asinh((L + z)/d) with d the in-plane distance from the field point to that
line; only the azimuth is quadrature, composite Gauss-Legendre refined
toward the field point's azimuth and built once per order, so an (..., 3)
array of points is one array evaluation.  The truncation error falls off as
1/L**2 once the azimuthal average removes the leading kernel term, so the
extrapolation is polynomial in 1/L**2; this decay law is validated
empirically, and a non-monotone approach to the extrapolant at any point is
an error rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .analytic_fields import FieldExpr, SolenoidSpec
from .calculus import DiffConfig, _gl01, numeric_curl
from .errors import NonConvergent, TooCloseToShell
from .extrapolation import neville_to_zero
from .geometry import as_points

SHELL_BAND_FRACTION = 1e-3

# Dyadic panel refinement toward the source line nearest the field point:
# azimuthal panels halve down to pi / 2**_PHI_LEVELS around its azimuth.
_PHI_LEVELS = 7

# (point x azimuth node) entries per block of the vectorized quadrature.
_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureConfig:
    """Azimuthal quadrature order and truncation schedule for the current integral.

    n_phi is the Gauss-Legendre order per azimuthal panel; the axial
    integral is exact and has no order.  half_lengths lists the solenoid
    truncation half-lengths in units of R, finite and ascending.
    """

    n_phi: int = 48
    half_lengths: tuple = (8.0, 16.0, 32.0, 64.0)

    def __post_init__(self):
        if self.n_phi < 8:
            raise ValueError("quadrature order must be at least 8")
        hl = tuple(float(v) for v in self.half_lengths)
        if not all(math.isfinite(v) for v in hl):
            raise ValueError("half_lengths must be finite")
        if len(hl) < 1 or any(b <= a for a, b in zip(hl, hl[1:])):
            raise ValueError("half_lengths must be strictly ascending")
        if hl[0] < 4.0:
            raise ValueError("half_lengths must be at least 4 R")
        object.__setattr__(self, "half_lengths", hl)


@dataclass(frozen=True)
class BiotSavartResult:
    """Extrapolated potential plus the per-truncation values behind it."""

    value: np.ndarray
    per_length: tuple
    half_lengths: tuple
    error_estimate: Optional[float]

    def __post_init__(self):
        if self.error_estimate is not None and self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


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


def _axial_integral(z, half_length: float, d: np.ndarray) -> np.ndarray:
    """Exact integral of 1/sqrt(d**2 + (z - z')**2) over |z'| <= half_length."""
    return np.arcsinh((half_length - z) / d) + np.arcsinh((half_length + z) / d)


def _truncated_potentials(pts: np.ndarray, s: SolenoidSpec, lengths,
                          order: int) -> np.ndarray:
    """(len(lengths), N, 3) truncated-solenoid potentials at (N, 3) points, in blocks."""
    offsets, weights = _azimuth_rule(order)
    rows = max(1, _BLOCK // offsets.size)
    pref = s.B * s.R / (4.0 * math.pi)
    out = np.zeros((len(lengths), len(pts), 3))
    for i in range(0, len(pts), rows):
        x, y, z = (pts[i:i + rows, c, None] for c in range(3))
        phi0 = np.where(np.hypot(x, y) > 0, np.arctan2(y, x), 0.0)
        cosp, sinp = np.cos(phi0 + offsets), np.sin(phi0 + offsets)
        d = np.hypot(x - s.R * cosp, y - s.R * sinp)
        wsin, wcos = weights * sinp, weights * cosp
        # One half-length at a time keeps the temporaries at one block's size.
        for j, L in enumerate(lengths):
            axial = _axial_integral(z, L, d)
            out[j, i:i + rows, 0] = -pref * (wsin * axial).sum(axis=-1)
            out[j, i:i + rows, 1] = pref * (wcos * axial).sum(axis=-1)
    return out


def _check_monotone_approach(per_length, limit, points=None) -> None:
    """Raise NonConvergent if any point's truncated values approach its limit non-monotonically.

    per_length holds one (..., 3) array per half-length and limit is (..., 3).
    """
    floor = 1e-11 * np.maximum(1.0, np.max(np.abs(limit), axis=-1))
    dists = np.stack([np.max(np.abs(v - limit), axis=-1) for v in per_length])
    bad = np.any(dists[1:] > dists[:-1] * 1.000001 + floor, axis=0)
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        at = "" if points is None else f" at {np.asarray(points)[k].tolist()}"
        raise NonConvergent(
            "truncated values do not approach the extrapolant monotonically"
            f"{at}: distances {dists[(slice(None), *k)].tolist()}")


def numeric_potential(p, s: SolenoidSpec,
                      cfg: QuadratureConfig = QuadratureConfig()) -> BiotSavartResult:
    """Potential of the solenoid current by truncated quadrature.

    p is a point (3,) or an (..., 3) array of points; value and each
    per_length entry have p's shape and error_estimate is the largest over
    the points (None for a single half-length).  Evaluates the
    finite-solenoid integral at each configured half-length and
    extrapolates in 1/L**2.  Points within
    SHELL_BAND_FRACTION * R of the current shell are rejected; the closed
    form is the reference there.
    """
    pts = as_points(p)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    near = rho[np.abs(rho - s.R) <= SHELL_BAND_FRACTION * s.R]
    if near.size:
        raise TooCloseToShell(
            f"rho = {near[0]:.6g} is within the exclusion band around R = {s.R:.6g}")

    lengths = [L * s.R for L in cfg.half_lengths]
    values = _truncated_potentials(pts.reshape(-1, 3), s, lengths, cfg.n_phi)
    per_length = tuple(v.reshape(pts.shape) for v in values)

    if len(per_length) < 2:
        limit, err = per_length[-1], None
    else:
        seq = neville_to_zero([1.0 / L ** 2 for L in lengths], per_length)[1]
        limit = seq[-1]
        err = float(np.max(np.abs(seq[-1] - seq[-2]), initial=0.0))
    _check_monotone_approach(per_length, limit, pts)
    return BiotSavartResult(value=np.asarray(limit, dtype=float),
                            per_length=per_length,
                            half_lengths=cfg.half_lengths,
                            error_estimate=err)


def numeric_b_field(p, s: SolenoidSpec, cfg: QuadratureConfig = QuadratureConfig(),
                    h: float = 1e-2) -> np.ndarray:
    """Central-difference curl of the quadrature potential at (3,) or (..., 3) points."""
    pts = as_points(p)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    if np.any(np.abs(rho - s.R) <= max(5.0 * h, SHELL_BAND_FRACTION * s.R)):
        raise TooCloseToShell("curl stencil would enter the shell exclusion band")
    return numeric_curl(NumericBiotSavartField(s, cfg), pts, DiffConfig(h, 2))


@dataclass(frozen=True)
class NumericBiotSavartField(FieldExpr):
    """The quadrature potential as a field expression (shell band excluded)."""

    solenoid: SolenoidSpec = SolenoidSpec()
    config: QuadratureConfig = QuadratureConfig()

    @property
    def radial_breakpoints(self) -> tuple:
        return (self.solenoid.R,)

    def __call__(self, p) -> np.ndarray:
        return numeric_potential(p, self.solenoid, self.config).value

    def _extra_domain_ok(self, rho: np.ndarray, margin: float) -> np.ndarray:
        return np.abs(rho - self.solenoid.R) > SHELL_BAND_FRACTION * self.solenoid.R + margin
