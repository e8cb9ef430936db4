"""Interaction matrix families, config round trips, structural checks."""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbfsir.expr
import nbfsir.interaction
from nbfsir.config import config_from_dict
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
    FunctionSpec,
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
from nbfsir.interaction import _FORMS, _corners, _grouped

from conftest import deadline


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

    @given(st.sampled_from(sorted(_FORMS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_closed_form_is_its_ratio(self, tag, data):
        # (p + q u) / (1 + alpha u) from _ratio() is the node's own value
        # on [0, 1], which the rank-one bounds rely on, and the form's
        # config tag and fields rebuild it
        form = _FORMS[tag]
        fn = form(**{f.name: data.draw(
            st.floats(-1.0, 1e3, exclude_min=True) if f.name == "alpha"
            else st.floats(-1e3, 1e3), label=f.name)
            for f in dataclasses.fields(form)})
        p, q, alpha = fn._ratio()
        assert q * alpha == 0.0
        u = np.linspace(0.0, 1.0, 101)
        want = (p + q * u) / (1.0 + alpha * u)
        assert np.allclose(fn(u), want, rtol=4 * np.finfo(float).eps, atol=0.0)
        assert fn.to_config()["form"] == tag
        assert function_from_config(fn.to_config()) == fn

    @pytest.mark.parametrize("obj", [{"form": {}}, {"form": ["affine"]}])
    def test_an_unhashable_form_is_unknown(self, obj):
        with pytest.raises(ConfigurationError, match="unknown function form"):
            function_from_config(obj)


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

    def test_the_gain_vertex_holds_at_extreme_coefficients(self):
        # u g(u) = u (p + q u) peaks at -p / 2q: 0.5 where 2q overflows,
        # and past every x (inf) where q is so small that the vertex
        # overflows, with no warning either way
        spec = Rank1Local((Affine(1e308, -1e308), Affine(1.0, -1e-310), Affine(1.0, 2.0)),
                          (Affine(1.0, 0.0),) * 3)
        assert spec._vertex.tolist() == [0.5, np.inf, np.inf]

    def test_rejects_mismatched_lists(self):
        with pytest.raises(ConfigurationError, match="matching g/f"):
            Rank1Local((Affine(1, 0),), (Affine(1, 0), Affine(1, 0)))

    def test_rejects_a_number_as_a_node_function(self):
        with pytest.raises(ConfigurationError, match=r"^g\[0\] must be a FunctionSpec"):
            Rank1Local((1.0,), (1.0,))

    def test_rejects_a_number_as_the_node_function_list(self):
        with pytest.raises(ConfigurationError,
                           match=r"^g must be a sequence of node functions, got 1\.0"):
            Rank1Local(1.0, 1.0)

    def test_rejects_a_string_as_a_node_function(self):
        with pytest.raises(ConfigurationError, match=r"^g\[0\] must be a FunctionSpec"):
            Rank1Local(("1+u",), ("u",))

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


class TestCorners:
    def test_two_nodes_give_the_distinct_clamped_corners_in_order(self):
        # the 16 corners of [0, 1]^4 with y clamped to 1 - x, first
        # occurrences kept: 9 vertices, each node at (0, 0), (0, 1), (1, 0)
        assert _corners(2).tolist() == [
            [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 1],
            [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1],
            [1, 1, 0, 0]]

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_up_to_ten_nodes_every_vertex_once(self, n):
        u = _corners(n)
        assert len(u) == 3 ** n
        assert len(np.unique(u, axis=0)) == 3 ** n
        assert (u[:, :n] + u[:, n:] <= 1.0).all()

    def test_beyond_ten_nodes_every_pair_of_nodes_meets_all_nine_pairs(self):
        u = _corners(13)
        assert u.shape == (3 ** 10, 26)
        assert len(np.unique(u, axis=0)) == 3 ** 10
        digits = (2 * u[:, :13] + u[:, 13:]).astype(int)
        for i in range(13):
            for j in range(i):
                pairs = np.unique(3 * digits[:, i] + digits[:, j], return_counts=True)
                assert pairs[0].tolist() == list(range(9))
                assert (pairs[1] == 3 ** 8).all()


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

    def test_rejects_a_number_as_a_numerator(self):
        with pytest.raises(ConfigurationError,
                           match=r"^numerators\[0\] must be a FunctionSpec"):
            ScalarScaled((1.0,), "1 + y1")

    def test_rejects_one_function_as_the_numerator_list(self):
        with pytest.raises(ConfigurationError,
                           match=r"^numerators must be a sequence of node functions"):
            ScalarScaled(Affine(1, 0), "y1")

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


@pytest.mark.parametrize("build", [
    lambda: Constant([[np.nan, 1.0], [1.0, 1.0]]),
    lambda: Constant([[1.0, 1.0], [-np.inf, 1.0]]),
    lambda: OuterProduct(np.nan, 3),
    lambda: OuterProduct(np.inf, 3),
    lambda: Affine(np.nan, 0.0),
    lambda: Affine(1.0, -np.inf),
    lambda: ReciprocalAffine(np.inf, 1.0),
    lambda: ReciprocalAffine(1.0, np.nan),
], ids=["constant-nan", "constant-neg-inf", "outer-nan", "outer-inf",
        "affine-p-nan", "affine-q-neg-inf", "reciprocal-p-inf",
        "reciprocal-alpha-nan"])
def test_non_finite_coefficients_are_refused(build):
    # NaN passes every sign check, so without this a NaN scale loads and
    # the integrator never reaches t_max
    with pytest.raises(ConfigurationError, match="non-finite|finite coefficients"):
        build()


@pytest.mark.parametrize("build, size", [
    (lambda: Constant(np.zeros((0, 0))), r"\(0, 0\)"),
    (lambda: ScalarScaled((), "1"), "node, got 0"),
    (lambda: Rank1Local((), ()), "0/0"),
    (lambda: ExpressionMatrix([]), "nonempty"),
], ids=["constant", "scalar-scaled", "rank1-local", "expression-matrix"])
def test_a_spec_with_no_nodes_is_refused_by_its_size(build, size):
    with pytest.raises(ConfigurationError, match=size):
        build()


class TestExpressionMatrix:
    def test_entries_evaluate(self):
        spec = ExpressionMatrix([["1 + x1", "y2"], ["x2 * y1", "2"]])
        a = spec.evaluate(np.array([0.5, 0.25]), np.array([0.1, 0.2]))
        assert np.allclose(a, [[1.5, 0.2], [0.025, 2.0]], rtol=0, atol=1e-16)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError, match="square"):
            ExpressionMatrix([["1", "2"]])

    def test_rejects_a_row_that_is_not_a_sequence_of_strings(self):
        with pytest.raises(ConfigurationError,
                           match=r"^entries\[0\] must be a sequence of expression strings"):
            ExpressionMatrix([1.0])

    def test_rejects_a_number_as_the_entries(self):
        with pytest.raises(ConfigurationError,
                           match=r"^entries must be a sequence of rows, got 1\.0"):
            ExpressionMatrix(1.0)

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


def _spec_of_size(kind: str, n: int):
    """One spec of each kind at size n; the rank-one one mixes every node
    form, with an exp expression among them."""
    def cycle(*funcs):
        return tuple(funcs[i % len(funcs)] for i in range(n))

    if kind == "constant":
        return Constant(np.random.default_rng(n).uniform(0.0, 2.0, size=(n, n)))
    if kind == "outer_product":
        return OuterProduct(0.8, n)
    if kind == "rank1_local":
        return Rank1Local(
            cycle(Affine(1.2, 0.5), ExpressionFunction("exp(-u) + u"),
                  ReciprocalAffine(2.0, 0.7)),
            cycle(ReciprocalAffine(1.0, 1.5), ExpressionFunction("1 / (1 + u)"),
                  Affine(0.5, 1.0)))
    if kind == "scalar_scaled":
        return ScalarScaled(cycle(Affine(1.0, 0.5), ExpressionFunction("2 - u")),
                            " + ".join(["1"] + [f"y{j + 1}" for j in range(n)]))
    return ExpressionMatrix([[f"{1 + i + j} / (1 + x{i + 1} + y{j + 1})"
                              for j in range(n)] for i in range(n)])


class TestMemoryOrder:
    # the integrator hands the interaction F-ordered (B, n) views of its
    # (2n, B) state; numpy groups a sum of 8 or more terms differently on a
    # strided axis than on a contiguous one, so n = 9 and 17 catch a node
    # sum that follows the memory order
    @pytest.mark.parametrize("n", [3, 9, 17])
    @pytest.mark.parametrize("kind", ["constant", "outer_product", "rank1_local",
                                      "scalar_scaled", "expression_matrix"])
    def test_incidence_does_not_depend_on_memory_order(self, kind, n):
        spec = _spec_of_size(kind, n)
        x, y = _feasible_states(n, 64, seed=40 + n)
        xf, yf = np.asfortranarray(x), np.asfortranarray(y)
        assert not yf.flags.c_contiguous
        assert np.array_equal(spec._incidence(xf, yf), spec._incidence(x, y))
        if isinstance(spec, Rank1Local):
            assert np.array_equal(aggregate_values(spec, yf), aggregate_values(spec, y))


class _Cubic(FunctionSpec):
    """u^3 + 1, a node function of a form the grouping does not know;
    records the shape of every argument it is called with."""

    def __init__(self):
        self.shapes = []

    def __call__(self, u):
        self.shapes.append(np.shape(u))
        return u ** 3 + 1.0

    def to_config(self):
        return "u^3 + 1"


def _mixed_nodes():
    """Affine, reciprocal-affine, a shared and a distinct expression, and
    a custom node, interleaved so that no family is contiguous."""
    shared = "1 / (1 + 1.5*u)"
    return (Affine(1.2, 0.5), ExpressionFunction(shared), ReciprocalAffine(2.0, 0.7),
            ExpressionFunction("exp(-u) + u"), _Cubic(), Affine(0.3, 2.0),
            ExpressionFunction(shared), ReciprocalAffine(0.5, -0.4))


def _per_node(funcs, u):
    return np.stack([fn(u[..., i]) for i, fn in enumerate(funcs)], axis=-1)


class TestGroupedEvaluation:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["n", "B-n", "B1-B2-n"])
    def test_equals_the_per_node_stack_bit_for_bit(self, shape):
        funcs = _mixed_nodes()
        u = np.random.default_rng(31).uniform(0.0, 1.0, size=shape + (len(funcs),))
        got = _grouped(funcs)(u)
        assert got.shape == u.shape
        assert np.array_equal(got, _per_node(funcs, u))
        # the custom node still sees its own column, once per call
        assert funcs[4].shapes == [shape, shape]

    @pytest.mark.parametrize("funcs", [
        (Affine(1.0, 0.5),) * 4,
        (ReciprocalAffine(1.5, 0.3), ReciprocalAffine(1.0, 2.0)),
        (ExpressionFunction("1 + u"),) * 3,
        (ExpressionFunction("2"),) * 3,
    ], ids=["affine", "reciprocal", "shared-expression", "constant-expression"])
    def test_single_family_specs(self, funcs):
        u = np.random.default_rng(32).uniform(0.0, 1.0, size=(5, len(funcs)))
        assert np.array_equal(_grouped(funcs)(u), _per_node(funcs, u))
        assert np.array_equal(_grouped(funcs)(u[0]), _per_node(funcs, u[0]))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)], ids=["n", "B-n", "B1-B2-n"])
    def test_scalar_scaled_numerators(self, shape):
        funcs = _mixed_nodes()
        spec = ScalarScaled(funcs, "1 + y1")
        rng = np.random.default_rng(33)
        x = rng.uniform(0.0, 1.0, size=shape + (spec.n,))
        num, _ = spec._factors(x, np.zeros_like(x))
        assert np.array_equal(num, _per_node(funcs, x))

    def test_domain_fault_names_the_expression(self):
        spec = Rank1Local((ExpressionFunction("log(u)"), Affine(1.0, 0.0),
                           ExpressionFunction("log(u)")),
                          (Affine(1.0, 0.0),) * 3)
        with pytest.raises(EvaluationError, match=r"log\(u\)"):
            spec.incidence(np.array([[0.5, 0.5, 0.0]]), np.full((1, 3), 0.1),
                           check=False)

    @pytest.mark.parametrize("name", ["rank1_local", "scalar_scaled", "outer_product"])
    def test_specs_still_pickle(self, name):
        spec = _INCIDENCE_SPECS[name]
        copy = pickle.loads(pickle.dumps(spec))
        x, y = _feasible_states(spec.n, 20, seed=34)
        assert copy == spec
        assert np.array_equal(copy.incidence(x, y), spec.incidence(x, y))

    def test_a_broadcast_expression_is_evaluated_once(self, monkeypatch):
        spec = interaction_from_config(
            {"kind": "rank1_local", "n": 4, "g": "1 + u", "f": "1"})
        calls = []
        evaluate = nbfsir.expr.evaluate

        def counting(node, x, y):
            calls.append(node)
            return evaluate(node, x, y)

        monkeypatch.setattr(nbfsir.expr, "evaluate", counting)
        gains = spec._gains(np.full((6, 4), 0.25))
        assert len(calls) == 1
        assert np.array_equal(gains, np.full((6, 4), 1.25))


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

    # a spec's fields are what to_config writes; parsed trees and grouped
    # node functions are derived from them
    @pytest.mark.parametrize("name", sorted(_INCIDENCE_SPECS))
    def test_config_round_trip_gives_an_equal_spec(self, name):
        spec = _INCIDENCE_SPECS[name]
        copy = interaction_from_config(spec.to_config(), spec.n)
        assert copy == spec and hash(copy) == hash(spec)

    @pytest.mark.parametrize("name", sorted(_INCIDENCE_SPECS))
    def test_a_pickled_spec_equals_its_original(self, name):
        spec = _INCIDENCE_SPECS[name]
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)

    def test_sources_are_held_in_printed_form(self):
        spec = ScalarScaled((Affine(1.0, 0.0),), "1+2 * y1")
        assert spec.denominator == "1 + 2*y1" == spec.to_config()["denominator"]
        assert spec == ScalarScaled((Affine(1.0, 0.0),), "(1) + 2*(y1)")
        matrix = ExpressionMatrix([["1+x1", "y2"], ["x2*(y1)", "2"]])
        assert matrix.entries == (("1 + x1", "y2"), ("x2*y1", "2"))
        assert matrix.to_config()["entries"] == [["1 + x1", "y2"], ["x2*y1", "2"]]

    @pytest.mark.parametrize("build", [
        lambda: ExpressionFunction(3),
        lambda: ScalarScaled((Affine(1.0, 0.0),), 2.0),
        lambda: ExpressionMatrix([[1.0]]),
    ], ids=["function", "denominator", "entry"])
    def test_a_non_string_source_is_refused(self, build):
        with pytest.raises(ConfigurationError, match="must be a string"):
            build()

    @pytest.mark.parametrize("obj", ["constant", [1, 2], None])
    def test_a_non_object_is_rejected(self, obj):
        with pytest.raises(ConfigurationError, match="tagged object"):
            interaction_from_config(obj, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown interaction kind"):
            interaction_from_config({"kind": "banded"}, 2)

    @pytest.mark.parametrize("kind", [["constant"], {}])
    def test_an_unhashable_kind_is_unknown(self, kind):
        with pytest.raises(ConfigurationError, match="unknown interaction kind"):
            interaction_from_config({"kind": kind}, 2)

    def test_extra_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            interaction_from_config(
                {"kind": "constant", "matrix": [[1]], "scale": 2}, 1)

    def test_size_cross_check(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            interaction_from_config({"kind": "constant", "matrix": [[1]]}, 2)

    @pytest.mark.parametrize("kind, fields", [
        ("rank1_local", {"g": "1 + u", "f": "1"}),
        ("scalar_scaled", {"numerator": "1", "denominator": "1"}),
        ("outer_product", {"scale": 1.0})])
    def test_the_node_count_is_checked_before_it_sizes_the_spec(self, kind, fields):
        # 1e308 nodes would overflow [fn] * n, or the tuples OuterProduct builds
        with pytest.raises(ConfigurationError,
                           match=r"interaction.n = 1e\+308 does not match model n=2"):
            interaction_from_config({"kind": kind, "n": 1e308, **fields}, 2)

    @pytest.mark.parametrize("obj, listed", [
        ({"kind": "rank1_local", "g": ["1 + u", "2", "1"], "f": "u"}, "g"),
        ({"kind": "scalar_scaled", "numerator": ["1", "2", "3"],
          "denominator": "1"}, "numerator")],
        ids=["rank1-local", "scalar-scaled"])
    def test_node_count_comes_from_a_per_node_list(self, obj, listed):
        # with n neither in the object nor given, the list sets the size
        assert interaction_from_config(obj).n == 3
        with pytest.raises(ConfigurationError, match=r"missing fields.*\['n'\]"):
            interaction_from_config({**obj, listed: "1"})

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

    @pytest.mark.parametrize("cap", [0, -3])
    def test_a_violation_cap_below_one_is_refused(self, cap):
        # with room for no violation, a violating spec would report holds
        spec = ExpressionMatrix([["2 - x1", "1"], ["1", "2 - 3*x2"]])
        assert not check_monotonicity_conditions(spec).holds
        with pytest.raises(UsageError, match="max_violations"):
            check_monotonicity_conditions(spec, max_violations=cap)


class TestMemoryBlocks:
    """Evaluations over a point set hold A for a bounded block of points at
    once, and report what one block over every point reports."""

    @pytest.mark.parametrize("cap", [1, 7, 40, 100, 10_000])
    def test_a_blocked_check_reports_the_one_block_check(self, monkeypatch, cap):
        # self-term and cross-term violations on every axis, all over the grid
        spec = ExpressionMatrix([["1 - x1", "1 - x3", "1"],
                                 ["1", "2 - 3*x2", "1 - x1"],
                                 ["1 - x2", "1", "0.5 - x3"]])
        whole = check_monotonicity_conditions(spec, grid_resolution=11, max_violations=cap)
        monkeypatch.setattr(nbfsir.interaction, "_ENTRIES", 9 * 7)
        blocked = check_monotonicity_conditions(spec, grid_resolution=11,
                                                max_violations=cap)
        assert blocked == whole
        assert whole.n_points == 125 and len(whole.violations) == min(cap, 575)
        assert cap < 575 or len({(v.condition, v.k) for v in whole.violations}) == 6

    @pytest.mark.parametrize("entry, rows, state", [
        ("0.1 - x1*y2", 5, "x=[1.0, 0.0], y=[0.0, 1.0]"),
        ("0.1 - x1", 1, "x=[1.0, 0.0], y=[0.0, 0.0]"),
    ])
    def test_a_blocked_validation_names_the_one_block_witness(self, monkeypatch, entry,
                                                              rows, state):
        # entries are negative over much of the set, and most negative at
        # vertices, which come after the quasi-random states; the first of
        # three tied vertices is the witness
        spec = ExpressionMatrix([[entry, "1"], ["1", "1"]])

        def witness():
            with pytest.raises(ModelValidityError) as info:
                spec.validate(samples=64)
            return str(info.value)

        whole = witness()
        monkeypatch.setattr(nbfsir.interaction, "_ENTRIES", 4 * rows)
        assert witness() == whole
        assert whole.endswith(f"= -0.9 is negative at {state}")

    def test_two_validations_in_a_row_name_the_same_witness(self):
        # the entry is most negative near (x1, y1) = (0.3, 0.2), so the
        # witness is a quasi-random state; were the cached set scaled in
        # place, the second validation would meet other states
        spec = ExpressionMatrix([["(x1 - 0.3)^2 + (y1 - 0.2)^2 - 0.01", "1"], ["1", "1"]])

        def witness():
            with pytest.raises(ModelValidityError) as info:
                spec.validate(samples=256)
            return str(info.value)

        first = witness()
        assert witness() == first
        assert "= -0.00851403 is negative at x=[0.27734375, " in first

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    @pytest.mark.parametrize("work, n, limit_mb", [("check", 14, 100), ("load", 20, 150)])
    def test_peak_memory(self, tmp_path, work, n, limit_mb):
        # A for every point at once peaked at about 200 MB and 270 MB.  The
        # peak is VmHWM, as getrusage's ru_maxrss would count this process's
        # resident set, which the child inherits through fork and exec.  The
        # loaded spec is a rank1_local, which validation samples
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"n": n, "gamma": 1.0, "interaction": {
            "kind": "rank1_local", "n": n, "g": "1 - 0.5*u", "f": "u"}}}))
        run = {"check": "from nbfsir import OuterProduct, check_monotonicity_conditions\n"
                        f"check_monotonicity_conditions(OuterProduct(0.8, {n}))",
               "load": f"from nbfsir.config import load_config\nload_config({str(config)!r})"}
        proc = subprocess.run(
            [sys.executable, "-c", run[work] + "\nprint(next(line.split()[1] for line in "
             "open('/proc/self/status') if line.startswith('VmHWM:')))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 < limit_mb

    def test_a_spec_nonnegative_by_construction_is_not_sampled(self):
        # an outer_product config of 1000 nodes took 134 s and 2.4 GB to
        # load, nearly all of it sampling an A that its constructor had
        # proved nonnegative; a Constant refuses a negative entry
        with deadline(5.0):
            config = config_from_dict({"model": {"n": 1000, "gamma": 1.0, "interaction": {
                "kind": "outer_product", "scale": 1.0}}})
            Constant(np.ones((1000, 1000))).validate()
        assert config.n == 1000


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
