"""Interaction matrix families, config round trips, structural checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbfsir.core import ModelParams, vector_field
from nbfsir.errors import (
    ConfigurationError,
    EvaluationError,
    ModelValidityError,
    UsageError,
)
from nbfsir.interaction import (
    Affine,
    Constant,
    ExpressionFunction,
    ExpressionMatrix,
    OuterProduct,
    Rank1Local,
    ReciprocalAffine,
    ScalarScaled,
    aggregate_values,
    check_monotonicity_conditions,
    check_unimodality_hypotheses,
    function_from_config,
    interaction_from_config,
)


class TestNodeFunctions:
    def test_affine_values(self):
        f = Affine(1.0, 2.0)
        assert f(0.0) == 1.0
        assert np.array_equal(f(np.array([0.0, 0.5, 1.0])), [1.0, 2.0, 3.0])

    def test_reciprocal_affine_values(self):
        f = ReciprocalAffine(2.0, 1.0)
        assert f(0.0) == 2.0
        assert f(1.0) == 1.0

    def test_reciprocal_affine_rejects_alpha_at_most_minus_one(self):
        with pytest.raises(ConfigurationError, match="alpha > -1"):
            ReciprocalAffine(1.0, -1.0)

    def test_expression_function_normalizes_source(self):
        f = ExpressionFunction("1+1.5 * x")
        assert f.source == "1 + 1.5*u"
        assert f(2.0) == pytest.approx(4.0)

    def test_expression_function_equality(self):
        assert ExpressionFunction("1 + u") == ExpressionFunction("1+x")
        assert ExpressionFunction("1 + u") != ExpressionFunction("2 + u")

    def test_function_from_config_string(self):
        f = function_from_config("2 - u")
        assert isinstance(f, ExpressionFunction)
        assert f(0.5) == 1.5

    def test_function_from_config_tagged_forms(self):
        f = function_from_config({"form": "affine", "p": 1.0, "q": 0.5})
        assert f == Affine(1.0, 0.5)
        g = function_from_config({"form": "reciprocal_affine", "p": 1.0, "alpha": 1.5})
        assert g == ReciprocalAffine(1.0, 1.5)

    def test_function_from_config_rejects_unknown_form(self):
        with pytest.raises(ConfigurationError, match="unknown function form"):
            function_from_config({"form": "quadratic", "p": 1.0})

    def test_function_from_config_rejects_extra_fields(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            function_from_config({"form": "affine", "p": 1.0, "q": 0.5, "r": 2.0})

    def test_function_from_config_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError, match="missing fields"):
            function_from_config({"form": "affine", "p": 1.0})

    def test_function_from_config_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            function_from_config(42)


class TestConstant:
    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError, match="square"):
            Constant(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ModelValidityError, match="negative"):
            Constant(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_evaluate_broadcasts(self):
        spec = Constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        a = spec.evaluate(np.zeros((5, 2)), np.zeros((5, 2)))
        assert a.shape == (5, 2, 2)
        assert np.array_equal(a[3], [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_is_read_only(self):
        spec = Constant(np.eye(2))
        with pytest.raises(ValueError):
            spec.matrix[0, 0] = 5.0

    def test_not_rank1_local(self):
        spec = Constant(np.eye(2))
        assert not isinstance(spec, Rank1Local)
        with pytest.raises(UsageError):
            aggregate_values(spec, [0.1, 0.1])


class TestRank1Local:
    def test_matches_explicit_outer_product(self):
        g = (ExpressionFunction("1 + u"), Affine(2.0, 0.5))
        f = (ReciprocalAffine(1.0, 1.5), ExpressionFunction("1 / (1 + u)"))
        spec = Rank1Local(g, f)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, size=(1000, 2))
        y = rng.uniform(0.0, 1.0, size=(1000, 2)) * (1.0 - x)
        a = spec.evaluate(x, y)
        gv = np.stack([g[0](x[:, 0]), g[1](x[:, 1])], axis=-1)
        fv = np.stack([f[0](y[:, 0]), f[1](y[:, 1])], axis=-1)
        expected = gv[:, :, None] * fv[:, None, :]
        assert np.array_equal(a, expected)

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ConfigurationError, match="matching g/f"):
            Rank1Local((Affine(1, 0),), (Affine(1, 0), Affine(1, 0)))

    def test_negative_product_raises_on_evaluate(self):
        spec = Rank1Local((ExpressionFunction("1 + u"),),
                          (ExpressionFunction("u - 2"),))
        with pytest.raises(ModelValidityError, match=r"A\[1,1\]"):
            spec.evaluate(np.array([0.5]), np.array([0.0]))

    def test_validate_reports_witness_state(self):
        spec = Rank1Local((ExpressionFunction("1 + u"), ExpressionFunction("1 + u")),
                          (ExpressionFunction("u - 2"), ExpressionFunction("u - 2")))
        with pytest.raises(ModelValidityError, match="at x="):
            spec.validate(samples=512)


class TestScalarScaled:
    def test_values_match_manual_computation(self):
        spec = ScalarScaled(
            (ExpressionFunction("2 - u"), ExpressionFunction("2 - u")),
            "1 + y1 + y2")
        x = np.array([0.25, 0.5])
        y = np.array([0.1, 0.3])
        a = spec.evaluate(x, y)
        den = 1.0 + 0.1 + 0.3
        expected = np.array([[1.75, 1.75], [1.5, 1.5]]) / den
        assert np.allclose(a, expected, rtol=0, atol=1e-15)

    def test_denominator_must_use_only_y(self):
        with pytest.raises(ConfigurationError, match="only y"):
            ScalarScaled((Affine(1, 0), Affine(1, 0)), "1 + x1")

    def test_denominator_index_in_range(self):
        with pytest.raises(ConfigurationError):
            ScalarScaled((Affine(1, 0), Affine(1, 0)), "1 + y3")

    def test_zero_denominator_raises(self):
        spec = ScalarScaled((Affine(1, 0), Affine(1, 0)), "y1 + y2")
        with pytest.raises(EvaluationError, match="zero"):
            spec.evaluate(np.array([0.5, 0.5]), np.array([0.0, 0.0]))


class TestOuterProduct:
    def test_matches_formula(self):
        spec = OuterProduct(0.8, 3)
        x = np.array([0.2, 0.5, 0.9])
        y = np.array([0.1, 0.2, 0.05])
        expected = 0.8 * np.outer(1.0 - x, y)
        assert np.allclose(spec.evaluate(x, y), expected, rtol=0, atol=1e-16)

    def test_equals_equivalent_rank1_spec(self):
        spec = OuterProduct(0.8, 3)
        manual = Rank1Local(tuple(Affine(0.8, -0.8) for _ in range(3)),
                            tuple(Affine(0.0, 1.0) for _ in range(3)))
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, size=(200, 3))
        y = rng.uniform(0.0, 1.0, size=(200, 3)) * (1.0 - x)
        assert np.allclose(spec.evaluate(x, y), manual.evaluate(x, y),
                           rtol=0, atol=1e-15)

    def test_is_a_rank1_local_with_factor_functions(self):
        spec = OuterProduct(2.0, 2)
        assert isinstance(spec, Rank1Local)
        assert spec.g[0](0.25) == pytest.approx(1.5)
        assert spec.f[1](0.3) == pytest.approx(0.3)

    def test_equality_immutability_and_config_form(self):
        spec = OuterProduct(0.8, 3)
        assert spec == OuterProduct(0.8, 3)
        assert spec != OuterProduct(0.8, 4)
        assert spec != Rank1Local(spec.g, spec.f)
        assert hash(spec) == hash(OuterProduct(0.8, 3))
        assert (spec.kind, spec.scale, spec.size, spec.n) == ("outer_product", 0.8, 3, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.scale = 2.0
        assert spec.to_config() == {"kind": "outer_product", "scale": 0.8, "n": 3}
        assert interaction_from_config(spec.to_config(), 3) == spec

    def test_rejects_negative_scale(self):
        with pytest.raises(ModelValidityError):
            OuterProduct(-1.0, 2)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            OuterProduct(1.0, 0)


class TestExpressionMatrix:
    def test_entries_evaluate(self):
        spec = ExpressionMatrix([["1 + x1", "y2"], ["x2 * y1", "2"]])
        a = spec.evaluate(np.array([0.5, 0.25]), np.array([0.1, 0.2]))
        assert np.allclose(a, [[1.5, 0.2], [0.025, 2.0]], rtol=0, atol=1e-16)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError, match="square"):
            ExpressionMatrix([["1", "2"]])

    def test_entry_error_names_position(self):
        spec = ExpressionMatrix([["1", "1"], ["1", "1 / y1"]])
        with pytest.raises(EvaluationError, match=r"A\[2,2\]"):
            spec.evaluate(np.array([0.5, 0.5]), np.array([0.0, 0.1]))


def _feasible_states(n: int, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(rows, n))
    y = rng.uniform(0.0, 1.0, size=(rows, n)) * (1.0 - x)
    return x, y


_INCIDENCE_SPECS = {
    "constant": Constant(np.random.default_rng(1).uniform(0.0, 2.0, size=(3, 3))),
    "rank1_local": Rank1Local(
        (ExpressionFunction("1 + u"), Affine(2.0, 0.5), ReciprocalAffine(1.5, 0.5)),
        (ReciprocalAffine(1.0, 1.5), ExpressionFunction("1 / (1 + u)"), Affine(0.5, 1.0))),
    "scalar_scaled": ScalarScaled(
        (ExpressionFunction("2 - u"), Affine(1.0, 0.5), ReciprocalAffine(1.0, 1.0)),
        "1 + y1 + y2*y3"),
    "outer_product": OuterProduct(8.0, 3),
    "outer_product_9": OuterProduct(0.8, 9),
    "expression_matrix": ExpressionMatrix([["1 + x1", "y2", "x3*y1"],
                                           ["x2", "2", "1 / (1 + y3)"],
                                           ["y1 + y2", "x1*x2", "exp(-y3)"]]),
}


def _incidence_via_matrix(spec, x, y):
    return x * (spec.evaluate(x, y) * y[..., None, :]).sum(-1)


class TestIncidence:
    @pytest.mark.parametrize("name", sorted(_INCIDENCE_SPECS))
    def test_agrees_with_the_matrix_product(self, name):
        spec = _INCIDENCE_SPECS[name]
        x, y = _feasible_states(spec.n, 500, seed=21)
        got = spec.incidence(x, y)
        expected = _incidence_via_matrix(spec, x, y)
        assert got.shape == (500, spec.n)
        assert np.allclose(got, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", ["constant", "expression_matrix"])
    def test_matrix_kinds_keep_their_arithmetic(self, name):
        spec = _INCIDENCE_SPECS[name]
        x, y = _feasible_states(spec.n, 500, seed=22)
        assert np.array_equal(spec.incidence(x, y), _incidence_via_matrix(spec, x, y))

    @pytest.mark.parametrize("name", sorted(_INCIDENCE_SPECS))
    def test_every_row_matches_its_own_call(self, name):
        spec = _INCIDENCE_SPECS[name]
        x, y = _feasible_states(spec.n, 40, seed=23)
        batch = spec.incidence(x, y, check=False)
        for r in range(len(x)):
            assert np.array_equal(batch[r], spec.incidence(x[r:r + 1], y[r:r + 1])[0])
            assert np.array_equal(batch[r], spec.incidence(x[r], y[r], check=False))

    @pytest.mark.parametrize("check", [True, False])
    def test_shape_mismatch_names_n(self, check):
        spec = _INCIDENCE_SPECS["rank1_local"]
        with pytest.raises(ConfigurationError, match="n=3"):
            spec.incidence(np.zeros((4, 2)), np.zeros((4, 2)), check=check)

    def test_outer_product_matrix_is_the_closed_form(self):
        spec = OuterProduct(0.8, 5)
        x, y = _feasible_states(5, 500, seed=24)
        closed = 0.8 * (1.0 - x)[..., :, None] * y[..., None, :]
        assert np.array_equal(spec.evaluate(x, y), closed)
        ybar = np.zeros(500)
        for j in range(5):
            ybar = ybar + y[:, j] * y[:, j]
        assert np.array_equal(aggregate_values(spec, y), ybar)

    def test_zero_denominator_reaches_the_flow_unchecked(self):
        spec = ScalarScaled((Affine(1, 0), Affine(1, 0)), "y1 + y2")
        params = ModelParams(gamma=1.0, interaction=spec)
        with pytest.raises(EvaluationError, match="zero"):
            vector_field(params, np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]),
                         check=False)

    def test_checked_flow_reports_the_negative_entry(self):
        spec = Rank1Local((ExpressionFunction("u - 0.5"), ExpressionFunction("1 + u")),
                          (Affine(1.0, 0.0), Affine(1.0, 0.0)))
        params = ModelParams(gamma=1.0, interaction=spec)
        x = np.array([0.2, 0.9])
        y = np.array([0.1, 0.05])
        with pytest.raises(ModelValidityError, match=r"A\[1,1\] = -0.3"):
            vector_field(params, x, y)
        dx, dy = vector_field(params, x, y, check=False)
        assert dx[0] > 0.0  # the negative gain drives x up; nothing validated it


class TestConfigRoundTrip:
    @pytest.mark.parametrize("spec", [
        Constant(np.array([[1.0, 2.0], [3.0, 4.0]])),
        Rank1Local((ExpressionFunction("1 + u"), Affine(2.0, 0.0)),
                   (ReciprocalAffine(1.0, 1.5), ExpressionFunction("1/(1+u)"))),
        ScalarScaled((ExpressionFunction("2 - u"), Affine(1.0, 0.0)),
                     "1 + y1 + y2"),
        OuterProduct(0.8, 5),
        ExpressionMatrix([["1 + x1", "y2"], ["x2", "2"]]),
    ])
    def test_to_config_then_rebuild_evaluates_identically(self, spec):
        rebuilt = interaction_from_config(spec.to_config(), spec.n)
        assert rebuilt.kind == spec.kind
        assert rebuilt.n == spec.n
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1.0, size=(50, spec.n))
        y = rng.uniform(0.0, 1.0, size=(50, spec.n)) * (1.0 - x)
        assert np.array_equal(spec.evaluate(x, y), rebuilt.evaluate(x, y))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown interaction kind"):
            interaction_from_config({"kind": "banded"}, 2)

    def test_extra_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            interaction_from_config(
                {"kind": "constant", "matrix": [[1]], "scale": 2}, 1)

    def test_size_cross_check(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            interaction_from_config({"kind": "constant", "matrix": [[1]]}, 2)

    def test_scalar_function_broadcast_to_all_nodes(self):
        spec = interaction_from_config(
            {"kind": "rank1_local", "g": "1 + u", "f": "1", "n": 3}, 3)
        assert spec.n == 3
        assert len(set(spec.g)) == 1


class TestMonotonicityConditions:
    def test_constant_specs_always_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            spec = Constant(rng.uniform(0.0, 4.0, size=(n, n)))
            report = check_monotonicity_conditions(spec, grid_resolution=21)
            assert report.holds
            assert report.violations == ()

    def test_example_presets_hold(self):
        rising = Rank1Local(
            (ExpressionFunction("1 + u"), ExpressionFunction("1 + u")),
            (ExpressionFunction("1 / (1 + 1.5*u)"),
             ExpressionFunction("1 / (1 + 1.5*u)")))
        fatigue = ScalarScaled(
            (ExpressionFunction("2 - u"), ExpressionFunction("2 - u")),
            "1 + y1 + y2")
        assert check_monotonicity_conditions(rising).holds
        assert check_monotonicity_conditions(fatigue).holds

    def test_self_term_violation_detected(self):
        # g(u) = 1 - u gives self term (1 - 2u) f, negative for u > 1/2
        spec = Rank1Local((ExpressionFunction("1 - u"),),
                          (ExpressionFunction("1"),))
        report = check_monotonicity_conditions(spec, grid_resolution=51)
        assert not report.holds
        v = report.violations[0]
        assert v.condition == "self_term"
        assert v.x[v.k] > 0.5

    def test_cross_derivative_violation_detected(self):
        spec = ExpressionMatrix([["1 - x2", "1"], ["1", "1"]])
        report = check_monotonicity_conditions(spec, grid_resolution=21)
        assert not report.holds
        assert any(v.condition == "cross_derivative" and v.i == 0 and v.k == 1
                   for v in report.violations)

    def test_parameter_validation(self):
        spec = Constant(np.eye(2))
        with pytest.raises(UsageError):
            check_monotonicity_conditions(spec, grid_resolution=1)
        with pytest.raises(UsageError):
            check_monotonicity_conditions(spec, fd_step=0.01)


class TestUnimodalityHypotheses:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_accepts_positive_affine_gain_with_saturating_transmission(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        g = tuple(Affine(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 3.0)))
                  for _ in range(n))
        f = tuple(ReciprocalAffine(float(rng.uniform(0.1, 3.0)),
                                   float(rng.uniform(0.0, 5.0)))
                  for _ in range(n))
        report = check_unimodality_hypotheses(Rank1Local(g, f))
        assert report.holds, report.failures

    def test_rejects_vanishing_susceptibility_family(self):
        # g(u) = c*(1-u) hits zero at u = 1, so positivity fails
        report = check_unimodality_hypotheses(OuterProduct(0.8, 5))
        assert not report.holds
        failure = report.failures[0]
        assert failure.hypothesis == "g_positive"
        assert failure.u == pytest.approx(1.0)

    def test_rejects_convex_transmission_load(self):
        # u * (1 + 2u^2) has positive second difference
        spec = Rank1Local((Affine(1.0, 0.0),),
                          (ExpressionFunction("1 + 2*u^2"),))
        report = check_unimodality_hypotheses(spec)
        assert not report.holds
        assert any(f.hypothesis == "u_f_concave" for f in report.failures)

    def test_rejects_decreasing_gain(self):
        # u * (1 - u) decreases beyond u = 1/2
        spec = Rank1Local((ExpressionFunction("1 - u"),),
                          (Affine(1.0, 0.0),))
        report = check_unimodality_hypotheses(spec)
        assert not report.holds
        assert any(f.hypothesis in ("u_g_increasing", "g_positive")
                   for f in report.failures)

    def test_requires_rank1_local_spec(self):
        with pytest.raises(UsageError, match="rank-1"):
            check_unimodality_hypotheses(Constant(np.eye(2)))

    def test_requires_enough_samples(self):
        with pytest.raises(UsageError):
            check_unimodality_hypotheses(OuterProduct(1.0, 2), samples=2)
