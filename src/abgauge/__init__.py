"""Gauge-field analysis toolkit for the ideal solenoid and the Landau system.

Closed-form potentials and gauge functions, direct quadrature of the
solenoid current integral, numerical vector calculus, phase functionals,
and a scenario runner that verifies the quantitative identities among them.
"""

from .analytic_fields import (BawinBurnelGauge, CallableField, FieldExpr,
                              GaugeGradientField, LandauField, PolynomialGauge,
                              SingularSolenoidGauge, SolenoidBField,
                              SolenoidSpec, SolenoidTransverseField, StringField,
                              SumField, TransformedPotentialField, gauge_label,
                              landau_link1, landau_link2)
from .ab_phase import (PhaseProbe, PhaseReport, VelocitySample,
                       energy_cancellation, gauge_dependence_scan,
                       interaction_energy, interference_shift, loop_phase,
                       open_path_phase)
from .biot_savart import (BiotSavartResult, NumericBiotSavartField, numeric_b_field,
                          numeric_potential)
from .calculus import (CirculationReport, DiffConfig, HelmholtzReport,
                       NumericCurlField, ShrinkingLoopReport, disc_flux,
                       helmholtz_classify, line_integral, numeric_curl,
                       numeric_divergence, shrinking_loop_circulation,
                       stokes_residual)
from .geometry import (DiscSpec, LoopSpec, PathSpec, azimuth_change,
                       endpoint_azimuths, winding_number)

__version__ = "0.1.0"
