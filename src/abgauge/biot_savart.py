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
a level count are one array evaluation; both estimate their error from half the order and
from the rounding of their sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic_fields import ShellExcludedField, SolenoidSpec
from .calculus import _ROUNDING, _gl01
from .errors import OnShell
from .geometry import as_points

# Gauss-Legendre order per azimuthal panel; the error estimate compares it with half of it.
N_PHI = 48
# (point x azimuth node) entries per block of the vectorized quadrature.
_BLOCK = 4096


@dataclass(frozen=True)
class BiotSavartResult:
    """Quadrature value and a bound on its error."""

    value: np.ndarray
    error_estimate: float


# Off the shell a gap is more than SHELL_TOL * R = 1e-12 R, so no point needs more than 43
# levels: the rules of every level count at both orders fit.
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


def _log_kernel(xyz: np.ndarray, s: SolenoidSpec, rule, absolute: bool = False):
    """Potential at (n, 3) points, and with absolute the (n,) sums of the absolute values
    of its terms (else None).  In the frame of the point's azimuth, the source at offset
    a lies at squared distance (rho - R)**2 + 4 rho R sin**2(a / 2), written so that
    nothing cancels near the shell, and its phi_hat' has components cos a along phi_hat
    and -sin a along rho_hat."""
    _, w, s2, wcos, wsin = rule
    x, y = xyz[:, 0], xyz[:, 1]
    rho, phi0 = np.hypot(x, y), np.arctan2(y, x)
    ux, uy = np.cos(phi0), np.sin(phi0)
    pref = s.B * s.R / (4.0 * math.pi)  # -ln d = -ln(d**2) / 2
    log_d2 = np.log((rho - s.R)[:, None] ** 2 + (4.0 * s.R * rho)[:, None] * s2)
    a_phi = -pref * (log_d2 * wcos).sum(axis=-1)
    a_rho = pref * (log_d2 * wsin).sum(axis=-1)
    value = np.zeros(xyz.shape)  # by column: np.stack would cost more than the sums below
    value[:, 0], value[:, 1] = a_rho * ux - a_phi * uy, a_rho * uy + a_phi * ux
    if not absolute:
        return value, None
    # Each log also carries its argument's rounding, about 1 ulp of 1; the weights sum to 2 pi.
    return value, abs(pref) * ((np.abs(log_d2) * w).sum(axis=-1) + 2.0 * math.pi)


def _gradient_kernel(xyz: np.ndarray, s: SolenoidSpec, rule, absolute: bool = False):
    """Field at (n, 3) points, and with absolute the sums of its absolute terms, as for
    _log_kernel.  The source at offset a gives (x - x') . r_hat' = rho cos a - R, written
    as (rho - R) - 2 rho sin**2(a / 2) so that nothing cancels near the shell."""
    _, w, s2, _, _ = rule
    rho = np.hypot(xyz[:, 0], xyz[:, 1])[:, None]
    gap = rho - s.R
    pref = -s.B * s.R / (2.0 * math.pi)
    terms = w * (gap - 2.0 * rho * s2) / (gap ** 2 + 4.0 * s.R * rho * s2)
    value = np.zeros(xyz.shape)
    value[:, 2] = pref * terms.sum(axis=-1)
    if not absolute:
        return value, None
    return value, abs(pref) * np.abs(terms).sum(axis=-1)


def _quadrature(kernel, p, s: SolenoidSpec, orders, absolute: bool = False) -> list:
    """kernel at a point (3,) or (..., 3) points by each order's rule, at gap |rho - R|
    with max(1, ceil(log2(pi R / gap)) + 1) levels, so the innermost panels span arcs of at
    most half the gap.  With absolute, the first order's (...,) sums of absolute terms
    follow the values.  Points are grouped by level, each group in blocks of about _BLOCK
    entries; OnShell names the first point on the shell."""
    pts = as_points(p)
    flat = pts.reshape(-1, 3)
    rho = np.hypot(flat[:, 0], flat[:, 1])
    on = s.on_shell(rho)
    if on.any():
        raise OnShell(f"point {flat[on][0].tolist()} is on the current shell")
    # gap / (pi R) = m 2**e with m in [0.5, 1), so ceil(log2(pi R / gap)) is 1 - e exactly
    levels = np.maximum(1, 2 - np.frexp(np.abs(rho - s.R) / (math.pi * s.R))[1])
    ns = set(levels.tolist())
    outs = [np.empty(flat.shape) for _ in orders] + [np.empty(len(flat))] * absolute
    if len(ns) > 1:  # each level's points as one array of their own
        for n in ns:
            at_n = levels == n
            for out, part in zip(outs, _quadrature(kernel, flat[at_n], s, orders, absolute)):
                out[at_n] = part
    else:
        for k, order in enumerate(orders):
            rule = _azimuth_rule(order, max(ns, default=1))
            rows, want = max(1, _BLOCK // rule[0].size), absolute and k == 0
            for i in range(0, len(flat), rows):
                outs[k][i:i + rows], part = kernel(flat[i:i + rows], s, rule, want)
                if want:
                    outs[-1][i:i + rows] = part
    return [out.reshape(pts.shape[:-1] + out.shape[1:]) for out in outs]


def _with_estimate(kernel, p, s: SolenoidSpec) -> BiotSavartResult:
    value, coarse, total = _quadrature(kernel, p, s, (N_PHI, N_PHI // 2), absolute=True)
    return BiotSavartResult(value, float(max(np.abs(value - coarse).max(initial=0.0),
                                             _ROUNDING * total.max(initial=0.0))))


def numeric_potential(p, s: SolenoidSpec) -> BiotSavartResult:
    """Potential of the solenoid current by quadrature of the log kernel at a point (3,)
    or an (..., 3) array of points, value having p's shape.  error_estimate is the largest
    over the points of the component difference from the same panels at order N_PHI // 2
    and of 8 units of roundoff of the sum of the absolute terms."""
    return _with_estimate(_log_kernel, p, s)


def numeric_b_field(p, s: SolenoidSpec) -> BiotSavartResult:
    """Field of the solenoid current by quadrature of the log kernel's gradient; points,
    shapes and error_estimate as for numeric_potential."""
    return _with_estimate(_gradient_kernel, p, s)


@dataclass(frozen=True)
class NumericBiotSavartField(ShellExcludedField):
    """The quadrature potential as a field expression."""

    def __call__(self, p) -> np.ndarray:
        return _quadrature(_log_kernel, p, self.solenoid, (N_PHI,))[0]
