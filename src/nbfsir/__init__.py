"""Simulation and analysis of SIR epidemics over networks whose
interaction matrix reacts to the epidemic state.

The model tracks susceptible and infected fractions x, y per
subpopulation under

    dx/dt = -diag(x) A(x,y) y
    dy/dt =  diag(x) A(x,y) y - gamma * y

with a nonnegative, state-dependent interaction matrix A.  The package
integrates the flow without leaving the feasible set, classifies
disease-free equilibria by the dominant eigenvalue of diag(x*) A(x*,0)
against gamma, maps two-node stability regions with their optimal
boundary points, and analyzes the aggregate infection curve for
single- versus multi-wave behavior.
"""

from .config import (AnalysisOptions, PRESET_NAMES, ScenarioConfig,
                     config_from_dict, load_config, preset, with_overrides)
from .core import (FEASIBILITY_TOL, EpidemicState, ModelParams, is_feasible,
                   vector_field)
from .errors import (ConfigurationError, EvaluationError,
                     ExpressionSyntaxError, IntegrationFailureError,
                     ModelValidityError, NBFSIRError, NumericalError,
                     StiffnessError, UsageError)
from .integrate import (IntegratorOptions, TerminalStatus, Trajectory,
                        integrate, limit_equilibrium, trajectory_to_csv)
from .interaction import (Affine, Constant, ExpressionFunction,
                          ExpressionMatrix, FunctionSpec, HypothesesReport,
                          HypothesisFailure, InteractionSpec,
                          MonotonicityReport, MonotonicityViolation,
                          OuterProduct, Rank1Local, ReciprocalAffine,
                          ScalarScaled, check_monotonicity_conditions,
                          check_unimodality_hypotheses, function_from_config,
                          interaction_from_config)
from .stability import (Classification, DominantEigen, RegionScan,
                        StabilityReport, classify_equilibrium,
                        dominant_eigen, jacobian_at_equilibrium,
                        region_to_json, region_to_svg, scan_region)
from .transient import (AggregateCurve, Extremum, SearchReport, Shape,
                        UnimodalityReport, aggregate_curve,
                        aggregate_values, curve_to_csv, detect_unimodality,
                        force_of_infection, search_multimodal_ic,
                        verify_unimodality)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AnalysisOptions", "PRESET_NAMES", "ScenarioConfig", "config_from_dict",
    "load_config", "preset", "with_overrides",
    "FEASIBILITY_TOL", "EpidemicState", "ModelParams", "is_feasible",
    "vector_field",
    "ConfigurationError", "EvaluationError", "ExpressionSyntaxError",
    "IntegrationFailureError", "ModelValidityError", "NBFSIRError",
    "NumericalError", "StiffnessError", "UsageError",
    "IntegratorOptions", "TerminalStatus", "Trajectory", "integrate",
    "limit_equilibrium", "trajectory_to_csv",
    "Affine", "Constant", "ExpressionFunction", "ExpressionMatrix",
    "FunctionSpec", "HypothesesReport", "HypothesisFailure",
    "InteractionSpec", "MonotonicityReport", "MonotonicityViolation",
    "OuterProduct", "Rank1Local", "ReciprocalAffine", "ScalarScaled",
    "check_monotonicity_conditions", "check_unimodality_hypotheses",
    "function_from_config", "interaction_from_config",
    "Classification", "DominantEigen", "RegionScan", "StabilityReport",
    "classify_equilibrium", "dominant_eigen", "jacobian_at_equilibrium",
    "region_to_json", "region_to_svg", "scan_region",
    "AggregateCurve", "Extremum", "SearchReport", "Shape",
    "UnimodalityReport", "aggregate_curve", "aggregate_values",
    "curve_to_csv", "detect_unimodality", "force_of_infection",
    "search_multimodal_ic", "verify_unimodality",
]
