"""Deterministic SVG arrow maps of vector fields in the z = 0 plane.

Output is static markup with all coordinates printed at fixed precision, so
identical inputs produce byte-identical files.  Each arrow element carries
the world coordinates and field magnitude it encodes as data attributes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .analytic_fields import FieldExpr, SolenoidSpec
from .errors import DomainViolation

_CANVAS = 480.0


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def emit_field_map(field: FieldExpr, window, resolution: int, out_path,
                   solenoid: SolenoidSpec = None) -> Path:
    """Render an arrow map of the field over a rectangular window in z = 0.

    window is (xmin, xmax, ymin, ymax); resolution the cell count per axis.
    Grid cells whose center leaves the field's valid domain are masked (no
    arrow).  When a solenoid is given its cross-section circle is drawn.
    Returns the written path.
    """
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    if xmax <= xmin or ymax <= ymin:
        raise DomainViolation("window must have positive extent")
    if resolution < 2:
        raise DomainViolation("resolution must be at least 2 cells per axis")
    n = resolution

    width = _CANVAS
    height = _CANVAS * (ymax - ymin) / (xmax - xmin)
    sx = width / (xmax - xmin)
    sy = height / (ymax - ymin)

    def to_px(x, y):
        return (x - xmin) * sx, (ymax - y) * sy

    cell_px = min(width, height) / n
    cy, cx = np.meshgrid(ymin + (np.arange(n) + 0.5) * (ymax - ymin) / n,
                         xmin + (np.arange(n) + 0.5) * (xmax - xmin) / n, indexing="ij")
    centers = np.stack([cx.ravel(), cy.ravel(), np.zeros(cx.size)], axis=1)
    centers = centers[field.domain_ok(centers)]  # cells off the domain get no arrow
    vec = field(centers)
    mags = np.hypot(vec[:, 0], vec[:, 1])
    columns = (centers[:, 0], centers[:, 1], vec[:, 0], vec[:, 1], mags)
    samples = zip(*(c.tolist() for c in columns))
    max_mag = float(np.max(mags, initial=0.0))
    scale = (0.45 * cell_px / max_mag) if max_mag > 0 else 1.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        'fill="white"/>',
    ]
    if solenoid is not None:
        ox, oy = to_px(0.0, 0.0)
        parts.append(
            f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="{_fmt(solenoid.R * sx)}" '
            'fill="none" stroke="#888888" stroke-width="1.5"/>')

    for cx, cy, vx, vy, mag in samples:
        px, py = to_px(cx, cy)
        # Screen y grows downward, so the y component flips.
        dx = vx * scale
        dy = -vy * scale
        x1, y1 = px - 0.5 * dx, py - 0.5 * dy
        x2, y2 = px + 0.5 * dx, py + 0.5 * dy
        parts.append(
            f'<line class="arrow" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#1f4e8c" stroke-width="1.0" '
            f'data-cx="{_fmt(cx)}" data-cy="{_fmt(cy)}" data-mag="{_fmt(mag)}"/>')
        length = math.hypot(dx, dy)
        if length > 1e-6:
            ux, uy = dx / length, dy / length
            head = min(4.0, 0.35 * length)
            hx, hy = x2 - head * ux, y2 - head * uy
            nx_, ny_ = -uy, ux
            parts.append(
                '<polygon class="arrowhead" points="'
                f'{_fmt(x2)},{_fmt(y2)} '
                f'{_fmt(hx + 0.4 * head * nx_)},{_fmt(hy + 0.4 * head * ny_)} '
                f'{_fmt(hx - 0.4 * head * nx_)},{_fmt(hy - 0.4 * head * ny_)}" '
                'fill="#1f4e8c"/>')

    parts.append('</svg>')
    out = Path(out_path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
