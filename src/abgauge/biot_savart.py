"""Direct quadrature of the solenoid's current integral for its potential.

The infinite surface-current integral is made concrete by truncating the
solenoid to half-length L and extrapolating the truncated values to
L -> infinity.  At each source azimuth the integral of the 1/|x - x'|
kernel along the current line -L <= z' <= L is exact, asinh((L - z)/d) +
asinh((L + z)/d) with d the in-plane distance from the field point to that
line; only the azimuth is quadrature, composite Gauss-Legendre refined
toward the field point's azimuth.  The truncation error falls off as
1/L**2 once the azimuthal average removes the leading kernel term, so the
extrapolation is polynomial in 1/L**2; this decay law is validated
empirically, and a non-monotone approach to the extrapolant is an error
rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic_fields import FieldExpr, SolenoidSpec, per_point
from .errors import NonConvergent, TooCloseToShell
from .extrapolation import neville_to_zero
from .geometry import as_xyz

SHELL_BAND_FRACTION = 1e-3

# Dyadic panel refinement toward the source line nearest the field point:
# azimuthal panels halve down to pi / 2**_PHI_LEVELS around its azimuth.
_PHI_LEVELS = 7


@dataclass(frozen=True)
class QuadratureConfig:
    """Azimuthal quadrature order and truncation schedule for the current integral.

    n_phi is the Gauss-Legendre order per azimuthal panel; the axial
    integral is exact and has no order.  half_lengths lists the solenoid
    truncation half-lengths in units of R, finite and ascending.
    """

    n_phi: int = 48
    half_lengths: tuple = (8.0, 16.0, 32.0, 64.0)
    extrapolation: str = "richardson"

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
        if self.extrapolation not in ("none", "richardson"):
            raise ValueError("extrapolation must be 'none' or 'richardson'")
        object.__setattr__(self, "half_lengths", hl)


@dataclass(frozen=True)
class BiotSavartResult:
    """Extrapolated potential plus the per-truncation values behind it."""

    value: np.ndarray
    per_length: tuple
    half_lengths: tuple
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_nodes(breaks, order: int):
    """Composite Gauss-Legendre nodes/weights over consecutive break intervals."""
    x, w = _gl_nodes(order)
    nodes = []
    weights = []
    for a, b in zip(breaks, breaks[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _phi_breaks(phi0: float) -> np.ndarray:
    offsets = [math.pi / 2 ** k for k in range(_PHI_LEVELS, -1, -1)]
    rel = [-o for o in reversed(offsets)] + [0.0] + offsets
    return phi0 + np.array(sorted(rel))


def _axial_integral(z: float, half_length: float, d: np.ndarray) -> np.ndarray:
    """Exact integral of 1/sqrt(d**2 + (z - z')**2) over |z'| <= half_length."""
    return np.arcsinh((half_length - z) / d) + np.arcsinh((half_length + z) / d)


def _truncated_potential(z: float, s: SolenoidSpec, half_length: float,
                         phi_cache) -> np.ndarray:
    phi_w, cosp, sinp, d = phi_cache
    axial = _axial_integral(z, half_length, d)
    pref = s.B * s.R / (4.0 * math.pi)
    ax = -pref * float(np.dot(phi_w * sinp, axial))
    ay = pref * float(np.dot(phi_w * cosp, axial))
    return np.array([ax, ay, 0.0])


def _check_monotone_approach(per_length, limit) -> None:
    scale = max(1.0, float(np.max(np.abs(limit))))
    dists = [float(np.max(np.abs(v - limit))) for v in per_length]
    floor = 1e-11 * scale
    for a, b in zip(dists, dists[1:]):
        if b > a * 1.000001 + floor:
            raise NonConvergent(
                "truncated values do not approach the extrapolant monotonically: "
                f"distances {dists}")


def numeric_potential(p, s: SolenoidSpec,
                      cfg: QuadratureConfig = QuadratureConfig()) -> BiotSavartResult:
    """Potential of the solenoid current by truncated quadrature.

    Evaluates the finite-solenoid integral at each configured half-length
    and extrapolates in 1/L**2.  Points within SHELL_BAND_FRACTION * R of
    the current shell are rejected; the closed form is the reference there.
    """
    x, y, z = as_xyz(p)
    rho = math.hypot(x, y)
    if abs(rho - s.R) <= SHELL_BAND_FRACTION * s.R:
        raise TooCloseToShell(
            f"rho = {rho:.6g} is within the exclusion band around R = {s.R:.6g}")

    phi0 = math.atan2(y, x) if rho > 0 else 0.0
    phi_nodes, phi_w = _panel_nodes(_phi_breaks(phi0), cfg.n_phi)
    cosp = np.cos(phi_nodes)
    sinp = np.sin(phi_nodes)
    phi_cache = (phi_w, cosp, sinp, np.hypot(x - s.R * cosp, y - s.R * sinp))

    lengths = [L * s.R for L in cfg.half_lengths]
    per_length = tuple(
        _truncated_potential(z, s, L, phi_cache) for L in lengths)

    if cfg.extrapolation == "richardson" and len(per_length) >= 2:
        xs = [1.0 / L ** 2 for L in lengths]
        limit, diagonal = neville_to_zero(xs, per_length)
        err = float(np.max(np.abs(diagonal[-1] - diagonal[-2])))
    else:
        limit = per_length[-1]
        if len(per_length) >= 2:
            err = float(np.max(np.abs(per_length[-1] - per_length[-2])))
        else:
            err = math.inf
    _check_monotone_approach(per_length, limit)
    return BiotSavartResult(value=np.asarray(limit, dtype=float),
                            per_length=per_length,
                            half_lengths=cfg.half_lengths,
                            error_estimate=err)


def numeric_b_field(p, s: SolenoidSpec, cfg: QuadratureConfig = QuadratureConfig(),
                    h: float = 1e-2) -> np.ndarray:
    """Central-difference curl of the quadrature potential."""
    x, y, z = as_xyz(p)
    rho = math.hypot(x, y)
    if abs(rho - s.R) <= max(5.0 * h, SHELL_BAND_FRACTION * s.R):
        raise TooCloseToShell("curl stencil would enter the shell exclusion band")

    def at(dx, dy, dz):
        return numeric_potential((x + dx, y + dy, z + dz), s, cfg).value

    dfdx = (at(h, 0, 0) - at(-h, 0, 0)) / (2 * h)
    dfdy = (at(0, h, 0) - at(0, -h, 0)) / (2 * h)
    dfdz = (at(0, 0, h) - at(0, 0, -h)) / (2 * h)
    return np.array([dfdy[2] - dfdz[1],
                     dfdz[0] - dfdx[2],
                     dfdx[1] - dfdy[0]])


@dataclass(frozen=True)
class NumericBiotSavartField(FieldExpr):
    """The quadrature potential as a field expression (shell band excluded).

    Each point is its own quadrature, so arrays of points are evaluated row
    by row.
    """

    solenoid: SolenoidSpec = SolenoidSpec()
    config: QuadratureConfig = QuadratureConfig()

    @property
    def radial_breakpoints(self) -> tuple:
        return (self.solenoid.R,)

    def __call__(self, p) -> np.ndarray:
        return per_point(lambda q: numeric_potential(q, self.solenoid, self.config).value, p)

    def _extra_domain_ok(self, rho: np.ndarray, margin: float) -> np.ndarray:
        return np.abs(rho - self.solenoid.R) > SHELL_BAND_FRACTION * self.solenoid.R + margin
