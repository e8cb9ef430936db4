"""One number rule for every count and tolerance.

Config fields and library arguments are read by the same two readers:
a bool, a fraction where a count belongs, or a non-number is refused,
and a value with a lower bound must also be finite.  Each row below is
an input that used to return a wrong answer, crash inside numpy or pass
unchecked; now it raises a one-line error that names the argument.
"""

from __future__ import annotations

import numpy as np
import pytest

from nbfsir import (Affine, AnalysisOptions, ExpressionFunction, IntegratorOptions,
                    ModelParams, OuterProduct, Rank1Local, ReciprocalAffine, check_monotonicity_conditions,
                    check_unimodality_hypotheses, classify_equilibrium, preset,
                    config_from_dict, scan_region)
from nbfsir.errors import ConfigurationError, UsageError

NAN = float("nan")
# u g(u) = u (1 - 2u) falls past u = 1/4, so the default check fails
_FALLING_GAIN = Rank1Local((ExpressionFunction("1 - 2*u"),), (ExpressionFunction("1"),))


def _p2b():
    return preset("example2b").params()


def _example3():
    return preset("example3").interaction


@pytest.mark.parametrize("call, error, name", [
    (lambda: check_unimodality_hypotheses(_FALLING_GAIN, tol=NAN), UsageError, "tol"),
    (lambda: check_monotonicity_conditions(OuterProduct(1.0, 2), tol=NAN),
     UsageError, "tol"),
    (lambda: classify_equilibrium(_p2b(), [0.2, 0.2], marginal_band=NAN),
     UsageError, "marginal_band"),
    (lambda: scan_region(_p2b(), 21, tie_tol=-1e-3), UsageError, "tie_tol"),
    (lambda: scan_region(_p2b(), 21, tie_tol=NAN), UsageError, "tie_tol"),
    (lambda: scan_region(_p2b(), 21, boundary_tol=NAN), UsageError, "boundary_tol"),
    (lambda: scan_region(_p2b(), 21, marginal_band=NAN), UsageError, "marginal_band"),
    (lambda: check_unimodality_hypotheses(_example3(), samples=3.5), UsageError, "samples"),
    (lambda: check_monotonicity_conditions(_example3(), grid_resolution=2.5),
     UsageError, "grid_resolution"),
    (lambda: check_monotonicity_conditions(_example3(), max_violations=1.5),
     UsageError, "max_violations"),
    (lambda: scan_region(_p2b(), 21.5), UsageError, "resolution"),
    (lambda: _example3().validate(samples=0), UsageError, "samples"),
    (lambda: OuterProduct(1.0, 2.5), ConfigurationError, "size"),
    (lambda: OuterProduct(1.0, True), ConfigurationError, "size"),
    (lambda: ModelParams(True, _example3()), ConfigurationError, "gamma"),
    (lambda: IntegratorOptions(max_step=True), ConfigurationError, "max_step"),
    (lambda: IntegratorOptions(t_max=True), ConfigurationError, "t_max"),
    (lambda: IntegratorOptions(t_max="5"), ConfigurationError, "t_max"),
    (lambda: OuterProduct(True, 2), ConfigurationError, "scale"),
    (lambda: Affine(True, 1.0), ConfigurationError, "affine form p"),
    (lambda: ReciprocalAffine(1.0, True), ConfigurationError, "alpha"),
    (lambda: AnalysisOptions(trials=NAN), ConfigurationError, "analysis.trials"),
    (lambda: AnalysisOptions(seed=True), ConfigurationError, "analysis.seed"),
    (lambda: config_from_dict({"model": {"n": 1, "gamma": 10 ** 400, "interaction": {
        "kind": "constant", "matrix": [[1.0]]}}}), ConfigurationError, "model.gamma"),
], ids=["hypotheses-tol-nan", "monotonicity-tol-nan", "classify-band-nan",
        "scan-tie-negative", "scan-tie-nan", "scan-boundary-nan", "scan-band-nan",
        "hypotheses-samples-fraction", "monotonicity-grid-fraction",
        "monotonicity-cap-fraction", "scan-resolution-fraction",
        "validate-samples-zero", "outer-size-fraction", "outer-size-bool",
        "params-gamma-bool", "integrator-max-step-bool", "integrator-t-max-bool",
        "integrator-t-max-text", "outer-scale-bool", "affine-p-bool",
        "reciprocal-alpha-bool", "analysis-trials-nan",
        "analysis-seed-bool", "config-gamma-beyond-float"])
def test_bad_numbers_are_refused_by_name(call, error, name):
    with pytest.raises(error, match=name):
        call()


def test_in_range_values_keep_working():
    # zero tolerances in the library, integral floats and numpy scalars
    scan = scan_region(_p2b(), np.int64(21), boundary_tol=0.0, tie_tol=0.0,
                       marginal_band=0.0)
    assert scan.resolution == 21 and type(scan.resolution) is int
    assert np.array_equal(scan.x_star_set, [[1.0, 0.0]])
    assert AnalysisOptions(grid_resolution=21.0).grid_resolution == 21
    assert OuterProduct(1.0, np.int64(3)).size == 3
    assert IntegratorOptions(t_max=float("inf")).t_max == float("inf")
    assert not check_monotonicity_conditions(_FALLING_GAIN, tol=-1.0).holds
