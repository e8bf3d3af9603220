"""Seeded request generators for the abgauge benchmark.

Every request is derived from (workload, seed, index) alone, so the same
seed always gives the same inputs.  Expected values come from the closed
forms written out in this file (flux pi R^2 B per winding, A_phi = B rho/2
inside and B R^2/(2 rho) outside, arc phases dphi * flux / 2 pi, B times the
shoelace area for Landau loops, pi min(r, R)^2 B minus the string flux);
nothing here imports abgauge.

A scenario request is a schema-valid scenario dict in which every
operation carries an ``expect`` block.  A CLI request is an argv list plus
a ``checks`` description that ``checks.check_cli`` understands.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("oracle", "loops", "scans", "cli")

# Request i with i % REPEAT_EVERY == REPEAT_EVERY - 1 repeats request
# i - REPEAT_LAG, so byte determinism of the records is checked in every run.
REPEAT_EVERY = 10
REPEAT_LAG = 5

# Placeholders the runner replaces with paths inside its scratch directory.
OUT = "@OUT@"
SCENARIO_FILE = "@SCENARIO@"

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Closed forms (the benchmark's own, independent of abgauge)
# ---------------------------------------------------------------------------

def flux(R, B):
    return math.pi * R * R * B


def a_phi(rho, R, B):
    """Azimuthal component of the solenoid's transverse potential."""
    return B * rho / 2.0 if rho < R else B * R * R / (2.0 * rho)


def a_vec(x, y, R, B):
    rho = math.hypot(x, y)
    ap = a_phi(rho, R, B)
    return [-ap * y / rho, ap * x / rho, 0.0]


def sing_grad(x, y, R, B):
    """Gradient of the singular gauge -(flux / 2 pi) phi."""
    k = -flux(R, B) / (TWO_PI * (x * x + y * y))
    return [-k * y, k * x, 0.0]


def enclosed_flux_centered(rho, R, B):
    """Flux through a centred disc of radius rho: pi min(rho, R)^2 B."""
    return math.pi * min(rho, R) ** 2 * B


def landau_vec(variant, x, y, b):
    if variant == "S":
        return [-0.5 * b * y, 0.5 * b * x, 0.0]
    if variant == "L1":
        return [-b * y, 0.0, 0.0]
    return [0.0, b * x, 0.0]


def poly_value(coeffs, p):
    x, y, z = p
    return math.fsum(c * x ** i * y ** j * z ** k for i, j, k, c in coeffs)


def poly_laplacian_nonzero(coeffs):
    """True when the Laplacian of the polynomial is not identically zero."""
    lap = {}
    for i, j, k, c in coeffs:
        for n, key in ((i, (i - 2, j, k)), (j, (i, j - 2, k)), (k, (i, j, k - 2))):
            if n >= 2:
                lap[key] = lap.get(key, 0.0) + c * n * (n - 1)
    return any(abs(v) > 1e-12 for v in lap.values())


def shoelace(points):
    return 0.5 * math.fsum(a[0] * b[1] - b[0] * a[1]
                           for a, b in zip(points, points[1:]))


def winding_about_axis(points):
    """Winding number of a closed polyline around the z-axis."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        d = math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])
        total += d - TWO_PI * round(d / TWO_PI)
    return int(round(total / TWO_PI))


def segment_axis_distance(a, b):
    ax, ay = a[0], a[1]
    dx, dy = b[0] - ax, b[1] - ay
    L2 = dx * dx + dy * dy
    t = 0.0 if L2 == 0 else min(1.0, max(0.0, -(ax * dx + ay * dy) / L2))
    return math.hypot(ax + t * dx, ay + t * dy)


# ---------------------------------------------------------------------------
# Random building blocks
# ---------------------------------------------------------------------------

def _rng(workload, seed, index):
    return random.Random(f"abgauge-bench:{workload}:{seed}:{index}")


# Irrational steps of two independent low-discrepancy sequences.
QUASI_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0)


def _quasi(workload, seed, index):
    """Two low-discrepancy values in [0, 1) for a request, shifted per seed.

    They drive the inputs that set most of a request's cost or error, so
    every run sees nearly the same spread of them whatever the seed.
    """
    shift = _rng(workload, seed, "shift")
    return tuple((index * step + shift.random()) % 1.0 for step in QUASI_STEPS)


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _solenoid(rng, u):
    """R = 0.5 * 4**u[0], log-uniform on [0.5, 2], and B of either sign."""
    R = 0.5 * 4.0 ** u[0]
    B = _sign(rng) * rng.uniform(0.3, 2.0)
    return R, B


def _polar(rng, rho, z):
    phi = rng.uniform(-math.pi, math.pi)
    return [rho * math.cos(phi), rho * math.sin(phi), z]


def _rho_off_shell(rng, R, lo, hi, gap):
    """rho/R uniform on [lo, hi] with |rho - R| > gap."""
    while True:
        rho = R * rng.uniform(lo, hi)
        if abs(rho - R) > gap:
            return rho


def _poly_gauges(rng, count):
    defs = {}
    coeffs = {}
    for n in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            while True:
                i, j, k = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1)
                if 1 <= i + j + k <= 3:
                    break
            terms.append([i, j, k, _sign(rng) * rng.uniform(0.05, 0.5)])
        name = f"poly{n}"
        defs[name] = {"id": "custom.regular", "coefficients": terms}
        coeffs[name] = [tuple(t) for t in terms]
    return defs, coeffs


def _circle_regime(rng, R):
    """A z-normal circle that does not cross the shell.

    Returns (center, radius, enclosed flux factor, winds around axis) where
    the enclosed flux is factor * B.
    """
    kind = rng.randrange(4)
    ang = rng.uniform(-math.pi, math.pi)
    if kind == 0:  # encloses the whole cross-section
        c = R * rng.uniform(0.0, 1.0)
        r = c + R * rng.uniform(1.2, 2.5)
        enc, winds = math.pi * R * R, True
    elif kind == 1:  # inside the shell, around the axis
        r = R * rng.uniform(0.25, 0.85)
        c = rng.uniform(0.0, min(r - 0.1 * R, 0.9 * R - r))
        enc, winds = math.pi * r * r, True
    elif kind == 2:  # inside the shell, beside the axis
        r = R * rng.uniform(0.1, 0.3)
        c = rng.uniform(r + 0.1 * R, 0.9 * R - r)
        enc, winds = math.pi * r * r, False
    else:  # outside, not around the solenoid
        r = R * rng.uniform(0.2, 1.5)
        c = r + R * rng.uniform(1.2, 2.5)
        enc, winds = 0.0, False
    return [c * math.cos(ang), c * math.sin(ang)], r, enc, winds


def _exterior_polygon(rng, R, z):
    """Closed polygon outside the shell; returns (points, winding)."""
    if rng.random() < 0.5:
        while True:
            n = rng.randint(4, 7)
            angs = sorted(rng.uniform(0.0, TWO_PI) for _ in range(n))
            gaps = [b - a for a, b in zip(angs, angs[1:])] + [angs[0] + TWO_PI - angs[-1]]
            if max(gaps) > 0.8 * math.pi:
                continue
            radii = [R * rng.uniform(1.4, 3.0) for _ in angs]
            pts = [[r * math.cos(a), r * math.sin(a), z] for r, a in zip(radii, angs)]
            pts.append(list(pts[0]))
            if min(segment_axis_distance(a, b) for a, b in zip(pts, pts[1:])) > 1.15 * R:
                break
    else:
        d = R * rng.uniform(2.5, 4.0)
        psi = rng.uniform(-math.pi, math.pi)
        cx, cy = d * math.cos(psi), d * math.sin(psi)
        reach = d - 1.2 * R
        n = rng.randint(3, 6)
        angs = sorted(rng.uniform(0.0, TWO_PI) for _ in range(n))
        radii = [reach * rng.uniform(0.3, 1.0) for _ in angs]
        pts = [[cx + r * math.cos(a), cy + r * math.sin(a), z] for r, a in zip(radii, angs)]
        pts.append(list(pts[0]))
    if rng.random() < 0.5:
        pts.reverse()
    return pts, winding_about_axis(pts)


def _landau_polygon(rng, z):
    cx, cy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    n = rng.randint(3, 7)
    angs = sorted(rng.uniform(0.0, TWO_PI) for _ in range(n))
    radii = [rng.uniform(0.3, 2.0) for _ in angs]
    pts = [[cx + r * math.cos(a), cy + r * math.sin(a), z] for r, a in zip(radii, angs)]
    pts.append(list(pts[0]))
    if rng.random() < 0.5:
        pts.reverse()
    return pts


def _expect(value, tol):
    return {"value": value, "tol": tol}


def _gauge_part(gauge, coeffs, R, B, start, end, dphi):
    """Endpoint difference of the gauge function along a path.

    For the singular gauge the azimuth change dphi is the one continued
    along the path.
    """
    if gauge == "none":
        return 0.0
    if gauge == "gauge.sing":
        return -flux(R, B) / TWO_PI * dphi
    return poly_value(coeffs[gauge], end) - poly_value(coeffs[gauge], start)


def _phase_tol(scale):
    return 1e-8 * max(1.0, abs(scale))


def _circle_ops(rng, R, B, z0, e, gauges):
    """A circle with an offset centre, turns +-1..3, a start phase and maybe
    reversed, with its flux line integral and loop phase.

    Returns (path spec, operations on path "circ", winding number).
    """
    F = flux(R, B)
    (cx, cy), r, enc, winds = _circle_regime(rng, R)
    turns = int(_sign(rng)) * rng.randint(1, 3)
    rev = rng.random() < 0.3
    m = -turns if rev else turns
    path = {"kind": "circle", "center": [cx, cy, z0], "radius": r, "turns": turns,
            "start_phase": rng.uniform(0.0, TWO_PI), "reverse": rev}
    w = m if winds else 0
    g = rng.choice(gauges)
    loop = m * enc * B + (-F * w if g == "gauge.sing" else 0.0)
    ops = [{"op": "line_integral", "field": "solenoid.AS", "path": "circ",
            "tol": 1e-10 * max(1.0, abs(F)),
            "expect": _expect(m * enc * B, _phase_tol(F * m))},
           {"op": "loop_phase", "gauge": g, "loop": "circ", "e": e,
            "tol": 1e-12 * max(1.0, abs(e * F * m)),
            "expect": _expect(e * loop, _phase_tol(e * F * m))},
           {"op": "winding_number", "loop": "circ", "expect": _expect(float(w), 1e-9)}]
    return path, ops, w


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _oracle(rng, index, name, u):
    """Quadrature potentials and curls at seeded points, some circulations.

    Scenario generators return (scenario dict, extra checks).
    """
    R, B = _solenoid(rng, u)
    # One probe of the shell band, at |rho/R - 1| log-uniform on [2e-3, 0.9]
    # where the quadrature is least accurate, and one point anywhere.
    delta = 2e-3 * 450.0 ** u[1]
    rhos = [R * (1.0 + delta * _sign(rng)), _rho_off_shell(rng, R, 0.1, 6.0, 2e-3 * R)]
    ops = []
    for rho in rhos:
        p = _polar(rng, rho, R * rng.uniform(-3.0, 3.0))
        want = a_vec(p[0], p[1], R, B)
        ops.append({"op": "numeric_potential", "at": p,
                    "expect": _expect(want, 1e-4 * abs(a_phi(rho, R, B)))})
    # The curl stencil (h = 0.01) must stay 5 h clear of the shell.
    rho = _rho_off_shell(rng, R, 0.1, 6.0, 0.06)
    p = _polar(rng, rho, R * rng.uniform(-3.0, 3.0))
    ops.append({"op": "numeric_b_field", "at": p, "h": 0.01,
                "expect": _expect([0.0, 0.0, B if rho < R else 0.0], 1e-3 * abs(B))})
    raw = {"name": name, "solenoid": {"R": R, "B": B}, "operations": ops,
           "output": {"format": "json"}}
    # One request in seven.  The 90th latency percentile then falls among
    # these slow requests, in their cheaper half (R < 1), rather than on the
    # edge of the fast ones, where a few seconds of machine slowdown move it.
    if index % 7 == 3:
        off = R * rng.uniform(0.0, 0.5)
        ang = rng.uniform(-math.pi, math.pi)
        r = off + R * rng.uniform(1.2, 2.5)
        turns = 1 if rng.random() < 0.5 else -1
        F = flux(R, B)
        raw["paths"] = {"enclosing": {
            "kind": "circle", "center": [off * math.cos(ang), off * math.sin(ang), 0.0],
            "radius": r, "turns": turns, "start_phase": rng.uniform(0.0, TWO_PI)}}
        ops.append({"op": "line_integral", "field": "solenoid.AS.numeric",
                    "path": "enclosing", "tol": 1e-4 * abs(F),
                    "expect": _expect(turns * F, 1e-3 * abs(F))})
    return raw, []


def _loops(rng, index, name, u):
    """Closed-form phases on seeded paths.

    Requests rotate through three groups of operations of similar cost, so
    every run sees the same mix: circles and exterior polygons around or
    beside the solenoid; open arcs and interferometer arms under every
    gauge; shrinking circles and Landau polygons.
    """
    R, B = _solenoid(rng, u)
    F = flux(R, B)
    lb = _sign(rng) * rng.uniform(0.3, 2.0)
    e = _sign(rng) * rng.uniform(0.5, 2.0)
    z0 = R * rng.uniform(-2.0, 2.0)
    defs, coeffs = _poly_gauges(rng, rng.randint(1, 2))
    gauges = ["none", "gauge.sing", *defs]
    paths = {}
    ops = []
    extra_checks = []
    group = index % 3

    if group == 0:
        paths["circ"], ops, _ = _circle_ops(rng, R, B, z0, e, gauges)
        # Exterior polygon that winds around the axis or does not.
        poly, pw = _exterior_polygon(rng, R, z0)
        paths["poly"] = {"kind": "polyline", "points": poly}
        ops.append({"op": "winding_number", "loop": "poly",
                    "expect": _expect(float(pw), 1e-9)})
        ops.append({"op": "line_integral", "field": "solenoid.AS", "path": "poly",
                    "tol": 1e-10 * max(1.0, abs(F)),
                    "expect": _expect(pw * F, _phase_tol(F))})

    elif group == 1:
        # Centred arc inside or outside the shell.
        rho = R * (rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.15, 3.0))
        phi0 = rng.uniform(-math.pi, math.pi)
        dphi = _sign(rng) * rng.uniform(0.3, 1.8 * math.pi)
        paths["arc"] = {"kind": "arc", "center": [0.0, 0.0, z0], "radius": rho,
                        "phi0": phi0, "phi1": phi0 + dphi}
        start = [rho * math.cos(phi0), rho * math.sin(phi0), z0]
        end = [rho * math.cos(phi0 + dphi), rho * math.sin(phi0 + dphi), z0]
        transverse = dphi * enclosed_flux_centered(rho, R, B) / TWO_PI
        ptol = 1e-12 * max(1.0, abs(e * F))

        def gp(gauge):
            return _gauge_part(gauge, coeffs, R, B, start, end, dphi)

        g = rng.choice(gauges)
        ops.append({"op": "open_phase", "gauge": g, "path": "arc", "e": e, "tol": ptol,
                    "expect": _expect(e * (transverse + gp(g)), _phase_tol(e * F))})
        ga, gb = rng.sample(gauges, 2)
        ops.append({"op": "phase_shift", "gauge_a": ga, "gauge_b": gb, "path": "arc",
                    "e": e, "expect": _expect(e * (gp(ga) - gp(gb)), _phase_tol(e * F))})
        ops.append({"op": "gauge_scan", "path": "arc", "gauges": gauges, "e": e,
                    "expect": _expect(0.0, 1e-10 * max(1.0, abs(e * F)))})
        # Two arms sharing endpoints, passing the axis on opposite sides.
        rho2 = R * (rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.15, 3.0))
        p0 = rng.uniform(-math.pi, math.pi)
        d1 = rng.uniform(0.3, TWO_PI - 0.3)
        paths["arm1"] = {"kind": "arc", "center": [0.0, 0.0, z0], "radius": rho2,
                         "phi0": p0, "phi1": p0 + d1}
        paths["arm2"] = {"kind": "arc", "center": [0.0, 0.0, z0], "radius": rho2,
                         "phi0": p0, "phi1": p0 + d1 - TWO_PI}
        g = rng.choice(gauges)
        shift = enclosed_flux_centered(rho2, R, B) - (F if g == "gauge.sing" else 0.0)
        ops.append({"op": "interference_shift", "gauge": g, "path1": "arm1",
                    "path2": "arm2", "e": e, "tol": ptol,
                    "expect": _expect(e * shift, _phase_tol(e * F))})

    else:
        # Shrinking circles: the singular gauge leaves a string of flux -F.
        kind = rng.randrange(4)
        e0 = R * rng.uniform(0.05, 0.3)
        eps = [e0, e0 / rng.uniform(4.0, 10.0)]
        eps.append(eps[-1] / rng.uniform(4.0, 10.0))
        if kind < 3:
            field = ("gauge.sing", "solenoid.Aprime", "solenoid.AS")[kind]
            center = [0.0, 0.0, z0]
            limit = 0.0 if field == "solenoid.AS" else -F
        else:
            field = "gauge.sing"
            center = _polar(rng, R * rng.uniform(0.4, 2.0), z0)
            limit = 0.0
        ops.append({"op": "shrinking_loop", "field": field, "center": center, "eps": eps,
                    "expect": _expect(limit, _phase_tol(F))})


        # Landau polygon: every standard gauge gives B times the shoelace area.
        lpoly = _landau_polygon(rng, z0)
        paths["landau_loop"] = {"kind": "polyline", "points": lpoly}
        area = shoelace(lpoly)
        want = e * lb * area
        ops.append({"op": "landau_compare", "loop": "landau_loop", "e": e,
                    "expect": _expect(0.0, 1e-8 * max(1.0, abs(want)))})
        extra_checks = [[len(ops) - 1, ["extra", "loop_phases", fid], want,
                         1e-8 * max(1.0, abs(want))]
                        for fid in ("landau.S", "landau.L1", "landau.L2")]

    return {"name": name, "solenoid": {"R": R, "B": B}, "landau_b": lb,
            "definitions": defs, "paths": paths, "operations": ops,
            "output": {"format": "json"}}, extra_checks


def _scans(rng, index, name, u):
    """Finite-difference scans, disc fluxes and a Stokes check."""
    R, B = _solenoid(rng, u)
    F = flux(R, B)
    lb = _sign(rng) * rng.uniform(0.3, 2.0)
    defs, coeffs = _poly_gauges(rng, 1)
    poly = next(iter(defs))
    inside = [0.1 * R, 0.9 * R]
    outside = [1.1 * R, 5.0 * R]
    ops = []

    def scan(op, rho, z=None, **params):
        """An operation over n seeded points with rho in the given range."""
        spec = {"op": op, **params, "n": rng.randint(20, 40),
                "rho": [round(v, 12) for v in rho], "seed": rng.randrange(2 ** 31)}
        if z is not None:
            spec["z"] = z
        return spec

    zr = sorted([R * rng.uniform(-2.0, 2.0), R * rng.uniform(-2.0, 2.0)])
    # Curl of a solenoid potential: uniform B inside, zero outside.
    field = rng.choice(["solenoid.AS", "solenoid.Aprime"])
    region = rng.choice(["in", "out"])
    target = [0.0, 0.0, B] if region == "in" else [0.0, 0.0, 0.0]
    order = 4 if field == "solenoid.Aprime" else rng.choice([2, 4])
    ops.append(scan("curl_scan", inside if region == "in" else outside, z=zr, field=field,
                    order=order, h=1e-4, target=target, expect=_expect(0.0, 1e-5 * abs(B))))
    # Curl of a uniform-field potential or of a gauge gradient.
    field = rng.choice(["landau.S", "landau.L1", "landau.L2", "gauge.sing",
                        "gauge.chitilde", poly])
    target = [0.0, 0.0, lb] if field.startswith("landau") else [0.0, 0.0, 0.0]
    order = 4 if field == "gauge.sing" else rng.choice([2, 4])
    ops.append(scan("curl_scan", [0.3 * R, 5.0 * R], z=zr, field=field, order=order, h=1e-4,
                    target=target, expect=_expect(0.0, 1e-5 * max(1.0, abs(lb)))))
    # Divergence of a transverse field.
    field = rng.choice(["solenoid.AS", "solenoid.Aprime", "landau.S", "landau.L1",
                        "landau.L2", "gauge.sing"])
    order = 4 if field in ("solenoid.Aprime", "gauge.sing") else rng.choice([2, 4])
    ops.append(scan("div_scan", [0.1 * R, 5.0 * R], z=zr, field=field, order=order, h=1e-4,
                    expect=_expect(0.0, 1e-6 * max(1.0, abs(B), abs(lb)))))
    # Helmholtz classification.
    # A solenoid region never straddles the shell: the sampled points there
    # might all fall outside, and the expected class would depend on them.
    field, region = rng.choice([
        ("solenoid.AS", "in"), ("solenoid.AS", "out"),
        ("solenoid.Aprime", "in"), ("solenoid.Aprime", "out"), ("landau.S", "all"),
        ("landau.L1", "all"), ("gauge.sing", "all"), ("gauge.chi1", "all"),
        ("gauge.chitilde", "all"), (poly, "all")])
    rho = {"in": [0.3 * R, 0.9 * R], "out": outside, "all": [0.3 * R, 5.0 * R]}[region]
    if field.startswith("landau") or (field.startswith("solenoid") and region == "in"):
        cls = "transverse"
    elif field == "gauge.chitilde" or (field == poly and poly_laplacian_nonzero(coeffs[poly])):
        cls = "longitudinal"
    else:
        cls = "both"
    ops.append(scan("helmholtz_classify", rho, field=field, order=4, h=1e-4,
                    expect={"classification": cls}))
    # Gauge links: field_a = field_b + grad(gauge) pointwise.
    fa, fb, g = rng.choice([("landau.S", "landau.L1", "gauge.chi1"),
                            ("landau.S", "landau.L2", "gauge.chi2"),
                            ("solenoid.Aprime", "solenoid.AS", "gauge.sing"),
                            ("landau.BB", "landau.S", "gauge.chitilde")])
    ops.append(scan("gauge_link_residual", [0.1 * R, 5.0 * R], z=zr, field_a=fa, field_b=fb,
                    gauge=g, expect=_expect(0.0, 1e-9 * max(1.0, abs(B), abs(lb)))))
    # The singular gauge expels the exterior potential; B vanishes outside.
    ops.append(scan("field_max_abs", outside, z=zr,
                    field=rng.choice(["solenoid.Aprime", "solenoid.B"]),
                    expect=_expect(0.0, 1e-12)))
    # Disc fluxes with and without the axis string.
    discs = {}
    for k, with_string in enumerate((False, True)):
        r = R * rng.uniform(0.2, 3.0)
        sgn = _sign(rng)
        discs[f"d{k}"] = {"center": [0.0, 0.0, R * rng.uniform(-2.0, 2.0)], "radius": r,
                          "normal": [0.0, 0.0, sgn]}
        want = sgn * (enclosed_flux_centered(r, R, B) - (F if with_string else 0.0))
        ops.append({"op": "disc_flux", "field": "solenoid.B", "disc": f"d{k}",
                    "with_string": with_string, "tol": 1e-10 * abs(F),
                    "expect": _expect(want, 1e-8 * abs(F))})
    # Stokes on a uniform-field potential over an off-centre disc.
    r = rng.uniform(0.3, 2.0)
    discs["ds"] = {"center": [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                              rng.uniform(-2.0, 2.0)], "radius": r}
    ops.append({"op": "stokes_residual",
                "field": rng.choice(["landau.S", "landau.L1", "landau.L2"]), "disc": "ds",
                "h": 1e-4, "order": 2,
                "expect": _expect(0.0, 1e-7 * max(1.0, abs(lb) * math.pi * r * r))})
    return {"name": name, "solenoid": {"R": R, "B": B}, "landau_b": lb,
            "definitions": defs, "discs": discs, "operations": ops,
            "output": {"format": "json"}}, []


# CLI verbs in a fixed rotation, so every run sees the same mix.
CLI_VERBS = ("eval", "phase-loop", "phase-open", "flux", "string", "landau", "run", "plot")


def _fmt(v):
    return repr(float(v))


def _vec(v):
    return ",".join(_fmt(c) for c in v)


def _cli(rng, index, name, u):
    """One CLI invocation: argv plus the checks of its output."""
    verb = CLI_VERBS[index % len(CLI_VERBS)]
    R, B = _solenoid(rng, u)
    F = flux(R, B)
    lb = _sign(rng) * rng.uniform(0.3, 2.0)
    sol = ["--R", _fmt(R), "--B", _fmt(B)]
    checks = []
    if verb == "eval":
        field = rng.choice(["solenoid.AS", "solenoid.Aprime", "solenoid.B", "landau.S",
                            "landau.L1", "landau.L2", "gauge.sing", "gauge.chi1",
                            "gauge.chi2"])
        rho = _rho_off_shell(rng, R, 0.1, 5.0, 0.01 * R)
        p = _polar(rng, rho, R * rng.uniform(-3.0, 3.0))
        x, y = p[0], p[1]
        if field == "solenoid.AS":
            want = a_vec(x, y, R, B)
        elif field == "solenoid.Aprime":
            want = [a + s for a, s in zip(a_vec(x, y, R, B), sing_grad(x, y, R, B))]
        elif field == "solenoid.B":
            want = [0.0, 0.0, B if rho < R else 0.0]
        elif field.startswith("landau"):
            want = landau_vec(field.split(".")[1], x, y, lb)
        elif field == "gauge.sing":
            want = sing_grad(x, y, R, B)
        else:
            k = 0.5 * lb if field == "gauge.chi1" else -0.5 * lb
            want = [k * y, k * x, 0.0]
        argv = ["eval", field, "--at", _vec(p), *sol, "--landau-b", _fmt(lb)]
        checks.append(["value", want, 1e-12 * max(1.0, max(abs(c) for c in want))])
    elif verb == "phase-loop":
        (cx, cy), r, enc, winds = _circle_regime(rng, R)
        turns = int(_sign(rng)) * rng.randint(1, 3)
        e = _sign(rng) * rng.uniform(0.5, 2.0)
        g = rng.choice(["none", "gauge.sing", "gauge.chi1"])
        w = turns if winds else 0
        want = e * (turns * enc * B + (-F * w if g == "gauge.sing" else 0.0))
        argv = ["phase", "loop", "--circle", _fmt(r), "--center", _vec([cx, cy, 0.0]),
                "--turns", str(turns), "--gauge", g, "--charge", _fmt(e), *sol,
                "--landau-b", _fmt(lb), "--tol", _fmt(1e-12 * max(1.0, abs(e * F * turns)))]
        checks.append(["phase", want, 1e-8 * max(1.0, abs(e * F * turns))])
        checks.append(["winding", w, 0.5])
    elif verb == "phase-open":
        rho = R * (rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.15, 3.0))
        phi0 = rng.uniform(-math.pi, math.pi)
        dphi = _sign(rng) * rng.uniform(0.3, 1.8 * math.pi)
        z = R * rng.uniform(-2.0, 2.0)
        e = _sign(rng) * rng.uniform(0.5, 2.0)
        g = rng.choice(["none", "gauge.sing", "gauge.chi1", "gauge.chi2"])
        start = [rho * math.cos(phi0), rho * math.sin(phi0), z]
        end = [rho * math.cos(phi0 + dphi), rho * math.sin(phi0 + dphi), z]
        coeffs = {"gauge.chi1": [(1, 1, 0, 0.5 * lb)], "gauge.chi2": [(1, 1, 0, -0.5 * lb)]}
        want = e * (dphi * enclosed_flux_centered(rho, R, B) / TWO_PI
                    + _gauge_part(g, coeffs, R, B, start, end, dphi))
        argv = ["phase", "open", "--arc", f"{_fmt(rho)}:{_fmt(phi0)}:{_fmt(phi0 + dphi)}",
                "--center", _vec([0.0, 0.0, z]), "--gauge", g, "--charge", _fmt(e), *sol,
                "--landau-b", _fmt(lb), "--tol", _fmt(1e-12 * max(1.0, abs(e * F)))]
        checks.append(["phase", want, 1e-8 * max(1.0, abs(e * F))])
    elif verb == "flux":
        r = R * rng.uniform(0.2, 3.0)
        with_string = rng.random() < 0.5
        want = enclosed_flux_centered(r, R, B) - (F if with_string else 0.0)
        argv = ["flux", "--radius", _fmt(r), "--center", _vec([0.0, 0.0, R * rng.uniform(-2, 2)]),
                "--tol", _fmt(1e-10 * abs(F)), *sol]
        if with_string:
            argv.append("--with-string")
        checks.append(["flux", want, 1e-8 * abs(F)])
    elif verb == "string":
        e0 = R * rng.uniform(0.05, 0.3)
        eps = [e0, e0 / rng.uniform(4.0, 10.0)]
        eps.append(eps[-1] / rng.uniform(4.0, 10.0))
        argv = ["string", "--eps", ",".join(_fmt(v) for v in eps), *sol]
        for key in ("string_flux", "singular_gradient_limit", "transformed_potential_limit"):
            checks.append([key, -F, 1e-8 * max(1.0, abs(F))])
    elif verb == "landau":
        e = _sign(rng) * rng.uniform(0.5, 2.0)
        size = rng.uniform(0.3, 3.0)
        corner = [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]
        want = e * lb * size * size
        argv = ["landau", "compare", "--b", _fmt(lb), "--charge", _fmt(e),
                "--corner", f"{_fmt(corner[0])},{_fmt(corner[1])}", "--size", _fmt(size)]
        for key in ("landau.S", "landau.L1", "landau.L2"):
            checks.append([key, want, 1e-8 * max(1.0, abs(want))])
    elif verb == "run":
        e = _sign(rng) * rng.uniform(0.5, 2.0)
        circ, ops, _ = _circle_ops(rng, R, B, R * rng.uniform(-2.0, 2.0), e,
                                   ["none", "gauge.sing"])
        raw = {"name": name, "solenoid": {"R": R, "B": B}, "paths": {"circ": circ},
               "operations": ops, "output": {"format": "json"}}
        return {"kind": "cli", "verb": verb, "scenario": raw,
                "argv": ["run", SCENARIO_FILE, "--out", OUT, "--format", "json"],
                "checks": [["record", name]]}
    else:  # plot
        field = rng.choice(["solenoid.AS", "solenoid.Aprime", "landau.S", "gauge.sing"])
        half = R * rng.uniform(2.0, 4.0)
        res = 2 * rng.randint(6, 12)
        argv = ["plot", "field", field, "--window", _vec([-half, half, -half, half]),
                "--resolution", str(res), "--out", OUT + ".svg", *sol, "--landau-b", _fmt(lb)]
        checks.append(["svg", {"field": field, "R": R, "B": B, "b": lb, "half": half,
                                "resolution": res}])
    if verb != "plot":
        argv += ["--format", "json"]
    return {"kind": "cli", "verb": verb, "argv": _joined(argv), "checks": checks}


def _joined(argv):
    """Write every option value as --flag=value, so negative numbers parse."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


_GENERATORS = {"oracle": _oracle, "loops": _loops, "scans": _scans, "cli": _cli}


def request(workload, seed, index):
    """The index-th request of a workload; a dict, JSON serialisable.

    ``repeat_of`` names the earlier request this one repeats, if any.
    """
    repeat_of = None
    base = index
    if index >= 0 and index % REPEAT_EVERY == REPEAT_EVERY - 1:
        repeat_of = base = index - REPEAT_LAG
    name = f"{workload}-{seed}-{base}".replace("-", "_")
    out = _GENERATORS[workload](_rng(workload, seed, base), base, name,
                                _quasi(workload, seed, base))
    if workload != "cli":
        scenario, extra_checks = out
        out = {"kind": "scenario", "scenario": scenario, "extra_checks": extra_checks}
    out["index"] = index
    out["repeat_of"] = repeat_of
    out["name"] = name
    return out
