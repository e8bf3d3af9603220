"""Gauge-field analysis toolkit for the ideal solenoid and the Landau system.

Closed-form potentials and gauge functions, direct quadrature of the
solenoid current integral, numerical vector calculus, phase functionals,
and a scenario runner that verifies the quantitative identities among them.
"""

from .analytic_fields import (BawinBurnelGauge, CallableField, FieldExpr,
                              GaugeGradientField, LandauField, PolynomialGauge,
                              ScaledField, SingularSolenoidGauge, SolenoidBField,
                              SolenoidSpec, SolenoidTransverseField, StringCurrent,
                              StringField, SumField, SurfaceCurrent,
                              TransformedPotentialField, gauge_gradient,
                              gauge_label, gauge_value, landau_link1,
                              landau_link2, landau_potential, solenoid_b_field,
                              solenoid_transverse_potential, string_flux,
                              system_delta_sources, transformed_potential)
from .ab_phase import (GaugeScanRow, PhaseProbe, PhaseReport, VelocitySample,
                       energy_cancellation, gauge_dependence_scan,
                       interaction_energy, interference_shift, loop_phase,
                       open_path_phase)
from .biot_savart import (BiotSavartResult, NumericBiotSavartField,
                          QuadratureConfig, numeric_b_field, numeric_potential)
from .calculus import (CirculationReport, DiffConfig, HelmholtzReport,
                       NumericCurlField, ShrinkingLoopReport, disc_flux,
                       helmholtz_classify, line_integral, numeric_curl,
                       numeric_divergence, shrinking_loop_circulation,
                       stokes_residual)
from .geometry import (DiscSpec, LoopSpec, PathSpec, Point, azimuth_change,
                       endpoint_azimuths, winding_number)

__version__ = "0.1.0"
