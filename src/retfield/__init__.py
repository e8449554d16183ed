"""Time-domain retarded electric fields of compact current sources.

Evaluates the field of a prescribed, separable current density through two
integral representations -- an explicit near/intermediate/far zone
decomposition and the retarded charge/current (Jefimenko) form -- and
provides the analysis tools to compare them, check light-front causality,
and track waveform features along a ray.
"""

from .analysis import (
    FeatureNotFoundError,
    FrontCheckResult,
    VelocityProfile,
    WaveformSeries,
    feature_arrival_times,
    front_times,
    light_front_check,
    local_velocity,
    sample_waveforms,
    zone_scaling_fit,
)
from .domains import Ball, Box, Domain
from .evaluators import (
    EVALUATORS,
    FieldDecomposition,
    ObservationPoint,
    PointDipole,
    dipole_oracle_field,
    jefimenko_field,
    refined_field,
    representation_residual,
    zone_field,
)
from .geometry import (
    NATURAL,
    SI,
    PhysicalConstants,
    double_gradient_kernel,
    far_kernel,
)
from .quadrature import ConvergenceError, QuadratureRule, build_rule
from .sources import (
    DifferentiatedGaussianPulse,
    GaussianEnvelope,
    SineSquaredPulse,
    SourceModel,
    TruncatedGaussianEnvelope,
    make_envelope,
    make_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "ConvergenceError",
    "DifferentiatedGaussianPulse",
    "Domain",
    "EVALUATORS",
    "FeatureNotFoundError",
    "FieldDecomposition",
    "FrontCheckResult",
    "GaussianEnvelope",
    "NATURAL",
    "ObservationPoint",
    "PhysicalConstants",
    "PointDipole",
    "QuadratureRule",
    "SI",
    "SineSquaredPulse",
    "SourceModel",
    "TruncatedGaussianEnvelope",
    "VelocityProfile",
    "WaveformSeries",
    "build_rule",
    "dipole_oracle_field",
    "double_gradient_kernel",
    "far_kernel",
    "feature_arrival_times",
    "front_times",
    "jefimenko_field",
    "light_front_check",
    "local_velocity",
    "make_envelope",
    "make_profile",
    "refined_field",
    "representation_residual",
    "sample_waveforms",
    "zone_field",
    "zone_scaling_fit",
]
