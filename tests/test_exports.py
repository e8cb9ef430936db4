"""The exported surface: the package's public names and each module's."""

from __future__ import annotations

import importlib

import pytest

import nbfsir
import nbfsir.interaction
import nbfsir.transient

MODULES = ("cli", "config", "core", "expr", "integrate",
           "interaction", "stability", "transient")

PUBLIC = [
    "Affine", "AggregateCurve", "AnalysisOptions", "Classification",
    "ConfigurationError", "Constant", "DominantEigen", "EpidemicState",
    "EvaluationError", "ExpressionFunction", "ExpressionMatrix",
    "ExpressionSyntaxError", "Extremum", "FEASIBILITY_TOL", "FunctionSpec",
    "HypothesesReport", "HypothesisFailure", "IntegrationFailureError",
    "IntegratorOptions", "InteractionSpec", "ModelParams",
    "ModelValidityError", "MonotonicityReport", "MonotonicityViolation",
    "NBFSIRError", "NumericalError", "OuterProduct", "PRESET_NAMES",
    "Rank1Local", "ReciprocalAffine", "RegionScan", "ScalarScaled",
    "ScenarioConfig", "SearchReport", "Shape", "StabilityReport",
    "StiffnessError", "TerminalStatus", "Trajectory", "UnimodalityReport",
    "UsageError", "__version__", "aggregate_curve", "aggregate_values",
    "check_monotonicity_conditions", "check_unimodality_hypotheses",
    "classify_equilibrium", "config_from_dict", "curve_to_csv",
    "detect_unimodality", "dominant_eigen", "force_of_infection",
    "function_from_config", "integrate", "interaction_from_config",
    "is_feasible", "jacobian_at_equilibrium", "limit_equilibrium",
    "load_config", "preset", "region_to_json", "region_to_svg",
    "scan_region", "search_multimodal_ic", "trajectory_to_csv",
    "vector_field", "verify_unimodality", "with_overrides",
]


def test_package_exports_are_pinned():
    assert sorted(nbfsir.__all__) == PUBLIC
    assert len(set(nbfsir.__all__)) == len(nbfsir.__all__)


@pytest.mark.parametrize("name", ("nbfsir",) + tuple(f"nbfsir.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_aggregate_values_has_one_definition():
    assert (nbfsir.aggregate_values is nbfsir.transient.aggregate_values
            is nbfsir.interaction.aggregate_values)
