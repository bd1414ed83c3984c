"""Detector response for quantum superpositions of accelerated trajectories.

An Unruh-deWitt detector switched on with a Gaussian window travels in a
superposition of classical uniformly accelerated worldlines. This package
computes its excitation probabilities (closed saddle-point forms and direct
oscillatory quadrature), instantaneous transition rates, and the conditional
detector state after measuring the control degree of freedom, with the
regulated correlators and their pointlike limit handled explicitly.
"""

from .closed_form import (ClosedFormResult, DetectorParams, p_antiparallel,
                          p_differing, p_local, p_parallel, xi_prefactor,
                          zeta_prefactor)
from .config import OutputSpec, ScenarioConfig, validate_config
from .correlators import (denominator_factors, lightcone_roots, pair_spectrum,
                          scenario_correlator, wightman_local, wightman_schlicht,
                          wightman_thermal_cross, wightman_thermal_local)
from .errors import (ConfigError, ConvergenceError, HyperbolicRangeError,
                     IndeterminateRatioError, SingularParameterError,
                     ValidityError)
from .kinematics import (FAMILIES, Event, FourVector, TrajectoryScenario,
                         four_velocity, horizon_crossing_time,
                         minkowski_interval, worldline_event)
from .quadrature import (DEFAULT_EPS_LADDER, QuadratureConfig,
                         RegulatorSchedule, default_schedule,
                         epsilon_extrapolate)
from .response import (KMSReport, ProbabilityResult, RateResult,
                       excitation_probability_contour,
                       excitation_probability_quadrature, kappa_scale,
                       kms_check, planck_rate, rate_table, transition_rate,
                       transition_rates, window_halfwidth)
from .superposition import (ControlState, DetectorDensityMatrix,
                            WightmanIntegrals, compute_wightman_integrals,
                            conditional_density_matrix,
                            phase_envelope, visibility_scan)
from .validity import beta_bound_violation, beta_parameter

__version__ = "0.1.0"

__all__ = [
    "ClosedFormResult",
    "ConfigError",
    "ControlState",
    "ConvergenceError",
    "DEFAULT_EPS_LADDER",
    "DetectorDensityMatrix",
    "DetectorParams",
    "Event",
    "FAMILIES",
    "FourVector",
    "HyperbolicRangeError",
    "IndeterminateRatioError",
    "KMSReport",
    "OutputSpec",
    "ProbabilityResult",
    "QuadratureConfig",
    "RateResult",
    "RegulatorSchedule",
    "ScenarioConfig",
    "SingularParameterError",
    "TrajectoryScenario",
    "ValidityError",
    "WightmanIntegrals",
    "beta_bound_violation",
    "beta_parameter",
    "compute_wightman_integrals",
    "conditional_density_matrix",
    "default_schedule",
    "denominator_factors",
    "epsilon_extrapolate",
    "excitation_probability_contour",
    "excitation_probability_quadrature",
    "four_velocity",
    "horizon_crossing_time",
    "kappa_scale",
    "kms_check",
    "lightcone_roots",
    "minkowski_interval",
    "p_antiparallel",
    "p_differing",
    "p_local",
    "p_parallel",
    "pair_spectrum",
    "phase_envelope",
    "planck_rate",
    "rate_table",
    "scenario_correlator",
    "transition_rate",
    "transition_rates",
    "validate_config",
    "visibility_scan",
    "wightman_local",
    "wightman_schlicht",
    "wightman_thermal_cross",
    "wightman_thermal_local",
    "window_halfwidth",
    "worldline_event",
    "xi_prefactor",
    "zeta_prefactor",
]
