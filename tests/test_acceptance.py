"""Acceptance suite: every quantitative identity at its declared tolerance.

Each criterion prints one PASS/FAIL line (run with -s or -v to see them) and
asserts at the stated tolerance.  Desk scale throughout: R = 1, B = 1, so
the total flux is pi.
"""

import math
import time

import numpy as np
import pytest

from abgauge import (BawinBurnelGauge, DiffConfig, DiscSpec, GaugeGradientField,
                     LandauField, LoopSpec, PathSpec, PhaseProbe,
                     SingularSolenoidGauge, SolenoidBField,
                     SolenoidSpec, SolenoidTransverseField, StringField,
                     TransformedPotentialField, VelocitySample, disc_flux,
                     energy_cancellation, interaction_energy, landau_link1,
                     landau_link2, line_integral, loop_phase, numeric_curl,
                     numeric_divergence, numeric_potential, open_path_phase,
                     shrinking_loop_circulation)

from helpers import cylinder_points, random_polynomial_gauge

S = SolenoidSpec(1.0, 1.0)
PI = math.pi
PHI = S.flux


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_biot_savart_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for rho in (0.25, 0.5, 0.9, 1.1, 2.0, 5.0):
        p = (rho, 0.0, 0.0)
        exact = SolenoidTransverseField(S)(p)
        value = numeric_potential(p, S).value
        rel = float(np.max(np.abs(value - exact)) / np.max(np.abs(exact)))
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-4 and elapsed <= 60.0,
           f"quadrature potential matches the closed form, worst rel err "
           f"{worst:.2e} (<= 1e-4) in {elapsed:.1f}s (<= 60s)")


def test_criterion_02_flux_identity():
    f = SolenoidTransverseField(S)
    devs = []
    for rho in (1.5, 2.0, 10.0):
        rep = line_integral(f, PathSpec.circle((0, 0, 0), rho), tol=1e-10)
        devs.append(abs(rep.value - PHI))
    rep2 = line_integral(f, PathSpec.circle((0, 0, 0), 2.0, turns=2), tol=1e-10)
    dev_w2 = abs(rep2.value - 2 * PHI)
    report(2, max(devs) <= 1e-6 and dev_w2 <= 1e-6,
           f"circulation equals the flux per winding, max dev {max(devs):.2e}, "
           f"double winding dev {dev_w2:.2e} (<= 1e-6)")


def test_criterion_03_gauge_invariance():
    rng = np.random.default_rng(101)
    loop = LoopSpec.circle((0, 0, 0), 2.0)
    worst = 0.0
    for _ in range(10):
        g = random_polynomial_gauge(rng)
        rep = loop_phase(PhaseProbe(solenoid=S, gauge=g), loop)
        worst = max(worst, abs(rep.phase - PHI))
    report(3, worst < 1e-7,
           f"closed-loop phase is gauge invariant over 10 random smooth "
           f"gauges, worst dev {worst:.2e} (< 1e-7)")


def test_criterion_04_singular_gauge_expulsion():
    rng = np.random.default_rng(202)
    ap = TransformedPotentialField(S)
    worst = 0.0
    for p in cylinder_points(rng, 1000, (1.0 + 1e-6, 8.0), z_range=(-3, 3)):
        worst = max(worst, float(np.max(np.abs(ap(p)))))
    rep = loop_phase(PhaseProbe(solenoid=S, gauge=SingularSolenoidGauge(S)),
                     LoopSpec.circle((0, 0, 0), 2.0))
    report(4, worst < 1e-12 and abs(rep.phase) <= 1e-8,
           f"transformed potential vanishes outside (max {worst:.1e} < 1e-12) "
           f"and the singular-gauge loop phase is {rep.phase:.1e} (0 within 1e-8)")


def test_criterion_05_string_circulation():
    grad = GaugeGradientField(SingularSolenoidGauge(S))
    rep_g = shrinking_loop_circulation(grad, (0, 0, 0), eps_list=(1e-1, 1e-2, 1e-3))
    per_eps_dev = max(abs(c + PHI) for c in rep_g.circulations)
    rep_a = shrinking_loop_circulation(TransformedPotentialField(S), (0, 0, 0),
                                       eps_list=(1e-1, 1e-2, 1e-3))
    dev_a = abs(rep_a.value + PHI)
    report(5, per_eps_dev <= 1e-9 and dev_a <= 1e-6,
           f"axis string carries -flux: gauge gradient circulations within "
           f"{per_eps_dev:.1e} (<= 1e-9) at every radius, transformed potential "
           f"extrapolates within {dev_a:.1e} (<= 1e-6)")


def test_criterion_06_flux_cancellation():
    b = SolenoidBField(S)
    string = StringField(S)
    full = disc_flux(b, DiscSpec((0, 0, 0), 1.0), deltas=[string], tol=1e-10).value
    half = disc_flux(b, DiscSpec((0, 0, 0), 0.5), deltas=[string], tol=1e-10).value
    dev_full = abs(full)
    dev_half = abs(half - (PI / 4 - PI))
    report(6, dev_full <= 1e-8 and dev_half <= 1e-8,
           f"net flux with the string is zero through the full section "
           f"(dev {dev_full:.1e}) and pi/4 - pi at half radius "
           f"(dev {dev_half:.1e}) (<= 1e-8)")


def test_criterion_07_interior_curl():
    rng = np.random.default_rng(303)
    ap = TransformedPotentialField(S)
    cfg = DiffConfig(h=1e-4, order=4)
    worst = 0.0
    for p in cylinder_points(rng, 100, (0.05, 0.95), z_range=(-1, 1)):
        c = numeric_curl(ap, p, cfg)
        worst = max(worst, float(np.max(np.abs(c - np.array([0.0, 0.0, 1.0])))))
    report(7, worst <= 1e-5,
           f"transformed potential keeps the uniform interior curl, worst dev "
           f"{worst:.2e} (<= 1e-5) at 100 interior points")


def test_criterion_08_partial_phase_gauge_shift():
    arc = PathSpec.arc((0, 0, 0), 2.0, 0.0, PI / 4)
    bare = open_path_phase(PhaseProbe(solenoid=S), arc)
    sing = open_path_phase(PhaseProbe(solenoid=S, gauge=SingularSolenoidGauge(S)), arc)
    shift_dev = abs((sing.phase - bare.phase) - (-PI / 8))
    transverse_dev = abs(sing.transverse_part - bare.transverse_part)
    report(8, shift_dev <= 1e-8 and transverse_dev <= 1e-10,
           f"open-path phase shifts by the gauge endpoint difference -pi/8 "
           f"(dev {shift_dev:.1e} <= 1e-8) with identical transverse parts "
           f"(dev {transverse_dev:.1e} <= 1e-10)")


def test_criterion_09_landau_suite():
    rng = np.random.default_rng(404)
    max_div, max_curl_dev = 0.0, 0.0
    for variant in ("S", "L1", "L2"):
        f = LandauField(variant, 1.0)
        for p in cylinder_points(rng, 30, (0.2, 4.0)):
            max_div = max(max_div, abs(numeric_divergence(f, p)))
            c = numeric_curl(f, p)
            max_curl_dev = max(max_curl_dev,
                               float(np.max(np.abs(c - np.array([0, 0, 1.0])))))

    link_dev = 0.0
    chi1, chi2 = landau_link1(1.0), landau_link2(1.0)
    for p in cylinder_points(rng, 100, (0.2, 4.0)):
        d1 = LandauField("S")(p) - LandauField("L1")(p) - chi1.gradient(p)
        d2 = LandauField("S")(p) - LandauField("L2")(p) - chi2.gradient(p)
        link_dev = max(link_dev, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))

    bb = GaugeGradientField(BawinBurnelGauge(1.0))
    cfg4 = DiffConfig(h=1e-4, order=4)
    bb_curl = 0.0
    for p in cylinder_points(rng, 40, (0.5, 3.0), phi_range=(-2.8, 2.8)):
        bb_curl = max(bb_curl, float(np.max(np.abs(numeric_curl(bb, p, cfg4)))))

    square = LoopSpec(PathSpec.polyline([(0, 0, 0), (1, 0, 0), (1, 1, 0),
                                         (0, 1, 0), (0, 0, 0)]))
    phases = [loop_phase(PhaseProbe(base_field=LandauField(v, 1.0)), square).phase
              for v in ("S", "L1", "L2")]
    phase_spread = max(phases) - min(phases)

    ok = (max_div < 1e-8 and max_curl_dev < 1e-5 and link_dev <= 1e-10
          and bb_curl < 1e-8 and phase_spread <= 1e-8)
    report(9, ok,
           f"Landau gauges: div {max_div:.1e} (< 1e-8), curl dev "
           f"{max_curl_dev:.1e} (< 1e-5), link residual {link_dev:.1e} "
           f"(<= 1e-10), multi-valued gradient curl {bb_curl:.1e} (< 1e-8), "
           f"square loop-phase spread {phase_spread:.1e} (<= 1e-8)")


def test_criterion_10_interaction_energies():
    sample = VelocitySample((0.0, 0.1, 0.0), (2, 0, 0))
    boyer = interaction_energy("boyer", sample, S)
    photon = interaction_energy("virtual_photon", sample, S)
    rng = np.random.default_rng(505)
    sums = []
    for _ in range(20):
        v = rng.uniform(-0.3, 0.3, size=3)
        x = tuple(rng.uniform(-3, 3, size=3))
        vs = VelocitySample(tuple(v), x)
        sums.append(energy_cancellation(vs, S, e=float(rng.choice((-1.0, 1.0)))))
    ok = (boyer == pytest.approx(0.025, abs=1e-15)
          and photon == pytest.approx(-0.025, abs=1e-15)
          and all(t == 0.0 for t in sums))
    report(10, ok,
           f"interaction energies are +/- e v.A (spot {boyer}) and cancel "
           f"exactly for 20 random samples")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(606)

    grad_dev = 0.0
    for _ in range(20):
        g = random_polynomial_gauge(rng)
        pts = [rng.uniform(-2, 2, size=3) for _ in range(int(rng.integers(2, 5)))]
        rep = line_integral(GaugeGradientField(g), PathSpec.polyline(pts), tol=1e-11)
        expected = g.value(pts[-1]) - g.value(pts[0])
        grad_dev = max(grad_dev, abs(rep.value - expected))

    f = SolenoidTransverseField(S)
    arc = PathSpec.arc((0, 0, 0), 2.0, 0.3, 2.7)
    antisym_exact = (line_integral(f, arc.reverse(), tol=1e-10).value
                     == -line_integral(f, arc, tol=1e-10).value)

    base = PathSpec.arc((0, 0, 0), 2.0, 0.0, 2.2)
    cubed = PathSpec.parametric(lambda t: base.point_at(t ** 3),
                                lambda t: 3.0 * t ** 2 * base.velocity_at(t ** 3))
    probe = PhaseProbe(solenoid=S)
    reparam_dev = abs(open_path_phase(probe, base).phase
                      - open_path_phase(probe, cubed).phase)

    winding_dev = 0.0
    grad_sing = GaugeGradientField(SingularSolenoidGauge(S))
    for w in (-2, -1, 1, 2):
        rep = line_integral(grad_sing, PathSpec.circle((0, 0, 0), 1.7, turns=w),
                            tol=1e-11)
        winding_dev = max(winding_dev, abs(rep.value + w * PHI))

    ok = (grad_dev <= 1e-8 and antisym_exact and reparam_dev <= 1e-9
          and winding_dev <= 1e-8)
    report(11, ok,
           f"gradient theorem dev {grad_dev:.1e} (<= 1e-8), reversal exact: "
           f"{antisym_exact}, reparametrization dev {reparam_dev:.1e} (<= 1e-9), "
           f"winding circulation dev {winding_dev:.1e} (<= 1e-8)")
