"""Phase functionals for a charge moving past the solenoid.

The phase along a path is the charge times the work integral of the vector
potential, in natural units with no extra factor.  Every report splits the
phase into the transverse part (the current-sourced potential alone) and
the gauge part (endpoint difference of the gauge function, branch tracked
for multi-valued gauges).  One routine, ``_phases``, makes that split for
every phase operation: it integrates the transverse potential once per
path, and for each gauge integrates the full potential once and takes the
gauge function's endpoint difference (``GaugeGradientField.circulation``);
the two routes must recombine to the total.  The transverse integral and
the endpoint difference are closed forms where the field has one, and the
full potential, a sum of fields, is always integrated by quadrature.

Also houses the two closed-form interaction-energy models for a charge at
constant velocity and their exact cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .analytic_fields import (FieldExpr, GaugeChoice, GaugeGradientField,
                              SolenoidSpec, SolenoidTransverseField)
from .calculus import add_estimates, line_integral
from .errors import ComputationError, EndpointMismatch
from .geometry import LoopSpec, PathSpec, as_xyz, same_point, winding_number

PHASE_TOL = 1e-12


@dataclass(frozen=True)
class PhaseProbe:
    """Charge, gauge choice, and base potential for phase measurements.

    gauge = None means the bare transverse potential.  base_field overrides
    the solenoid potential (for uniform-field systems); by default the
    probe uses the solenoid's transverse potential.
    """

    solenoid: SolenoidSpec = SolenoidSpec()
    gauge: Optional[GaugeChoice] = None
    e: float = 1.0
    base_field: Optional[FieldExpr] = None

    def __post_init__(self):
        if self.e == 0:
            raise ValueError("charge must be nonzero")

    def transverse_field(self) -> FieldExpr:
        if self.base_field is not None:
            return self.base_field
        return SolenoidTransverseField(self.solenoid)


@dataclass(frozen=True)
class PhaseReport:
    """Phase value with its transverse/gauge split.

    phase - transverse_part - gauge_part is a genuine consistency residual:
    the total comes from integrating the full potential, the parts from the
    split routes.  Construction rejects reports where the two routes drift
    apart by 1e-10 or more, relative to the largest of 1 and the three
    magnitudes, so that rounding at a large scale passes.  error_estimate is
    None when every integral behind the phase is exact.
    """

    phase: float
    transverse_part: float
    gauge_part: float
    error_estimate: Optional[float]
    winding: Optional[int] = None
    singular_gauge: bool = False
    notes: tuple = ()

    def __post_init__(self):
        residual = abs(self.phase - self.transverse_part - self.gauge_part)
        bound = 1e-10 * max(1.0, abs(self.phase), abs(self.transverse_part),
                            abs(self.gauge_part))
        if residual >= bound:
            raise ValueError(
                f"phase split inconsistent: residual {residual:.3e} >= {bound:.3e}")


@dataclass(frozen=True)
class VelocitySample:
    """Charge velocity and position (3-vectors, kept as floats) for the
    interaction-energy formulas."""

    v: tuple
    position: tuple

    def __post_init__(self):
        vv = tuple(float(c) for c in self.v)
        if math.hypot(*vv) >= 1.0:
            raise ValueError("speed must stay below 1 in natural units")
        object.__setattr__(self, "v", vv)
        object.__setattr__(self, "position", tuple(float(c) for c in as_xyz(self.position)))


def _phases(probe: PhaseProbe, path: PathSpec,
            gauges: Sequence[Optional[GaugeChoice]], tol: float) -> list:
    """One PhaseReport per gauge over one path; probe.gauge is not read.

    The transverse potential is integrated once for all gauges.  Each gauge
    that is not None adds one integral of the full potential, and its gauge
    part is the endpoint difference of the gauge function.
    """
    base = probe.transverse_field()
    e = probe.e
    rep_t = line_integral(base, path, tol=tol)
    transverse = e * rep_t.value

    def estimate(*reps):
        est = add_estimates(*(r.error_estimate for r in reps))
        return None if est is None else abs(e) * est

    reports = []
    for g in gauges:
        if g is None:
            reports.append(PhaseReport(phase=transverse, transverse_part=transverse,
                                       gauge_part=0.0, error_estimate=estimate(rep_t)))
            continue
        gradient = GaugeGradientField(g)
        rep_total = line_integral(base + gradient, path, tol=tol)
        singular = bool(g.multi_valued)
        notes = ("multi-valued gauge: endpoint values taken on the branch "
                 "continued along the path",) if singular else ()
        reports.append(PhaseReport(phase=e * rep_total.value,
                                   transverse_part=transverse,
                                   gauge_part=e * gradient.circulation(path),
                                   error_estimate=estimate(rep_t, rep_total),
                                   singular_gauge=singular,
                                   notes=notes))
    return reports


def open_path_phase(probe: PhaseProbe, path: PathSpec,
                    tol: float = PHASE_TOL) -> PhaseReport:
    """Phase along an open path, split into transverse and gauge parts."""
    return _phases(probe, path, (probe.gauge,), tol)[0]


def loop_phase(probe: PhaseProbe, loop: LoopSpec,
               tol: float = PHASE_TOL) -> PhaseReport:
    """Phase around a closed loop.

    With any single-valued gauge this equals charge * winding * flux; the
    gauge part collapses to zero because the endpoints coincide.  With the
    singular solenoid gauge the gauge part removes one flux quantum per
    winding and the exterior loop phase vanishes: that gauge moves the
    enclosed flux into the axis string, so the report is flagged.
    """
    rep = _phases(probe, loop.path, (probe.gauge,), tol)[0]
    notes = []
    if rep.singular_gauge:
        notes.append("singular gauge: the loop integral excludes the axis string, "
                     "so the net enclosed flux it sees is zero")
    try:
        w = winding_number(loop)
    except ComputationError as exc:
        w = None
        notes.append(f"winding undefined: {type(exc).__name__}: {exc}")
    return replace(rep, winding=w, notes=tuple(notes))


def interference_shift(probe: PhaseProbe, c1: PathSpec, c2: PathSpec,
                       tol: float = PHASE_TOL) -> PhaseReport:
    """Observable phase difference between two arms sharing endpoints.

    Equals the loop phase around the first arm followed by the reversed
    second arm; single-valued gauge parts cancel between the arms.
    """
    if not (same_point(c1.start, c2.start) and same_point(c1.end, c2.end)):
        raise EndpointMismatch("interference arms must share both endpoints")
    r1 = open_path_phase(probe, c1, tol=tol)
    r2 = open_path_phase(probe, c2, tol=tol)
    return PhaseReport(phase=r1.phase - r2.phase,
                       transverse_part=r1.transverse_part - r2.transverse_part,
                       gauge_part=r1.gauge_part - r2.gauge_part,
                       error_estimate=add_estimates(r1.error_estimate, r2.error_estimate),
                       singular_gauge=r1.singular_gauge or r2.singular_gauge)


def gauge_dependence_scan(path: PathSpec, gauges: Sequence[Optional[GaugeChoice]],
                          probe: PhaseProbe = PhaseProbe(),
                          tol: float = PHASE_TOL) -> list:
    """Open-path phase for each gauge choice over the same path: one PhaseReport
    per gauge, in order.  Each report's phase - gauge_part is the transverse
    part as that gauge measures it."""
    if path.is_closed:
        raise ValueError("gauge dependence scan expects an open path")
    return _phases(probe, path, gauges, tol)


# ---------------------------------------------------------------------------
# Interaction energies
# ---------------------------------------------------------------------------

INTERACTION_MODELS = ("boyer", "virtual_photon")


def interaction_energy(model: str, sample: VelocitySample, s: SolenoidSpec,
                       e: float = 1.0) -> float:
    """Interaction energy of a moving charge with the solenoid current.

    The magnetostatic overlap route gives +e v . A at the charge's position;
    the photon-exchange route gives the same magnitude with opposite sign.
    """
    a = SolenoidTransverseField(s)(sample.position)
    base = e * float(np.dot(np.asarray(sample.v), a))
    if model == "boyer":
        return base
    if model == "virtual_photon":
        return -base
    raise ValueError(f"unknown interaction model {model!r}; "
                     f"expected one of {INTERACTION_MODELS}")


def energy_cancellation(sample: VelocitySample, s: SolenoidSpec,
                        e: float = 1.0) -> float:
    """Sum of the two interaction energies; identically zero."""
    return (interaction_energy("boyer", sample, s, e)
            + interaction_energy("virtual_photon", sample, s, e))
