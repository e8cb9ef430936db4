"""State containers, feasibility, and the vector field."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbfsir import (
    Constant,
    EpidemicState,
    ModelParams,
    Rank1Local,
    is_feasible,
    vector_field,
)
from nbfsir.errors import ConfigurationError, ModelValidityError
from nbfsir.interaction import ExpressionFunction


class TestFeasibility:
    def test_interior_point(self):
        assert is_feasible([0.3, 0.4], [0.2, 0.1])

    def test_boundary_points(self):
        assert is_feasible([0.0, 1.0], [0.0, 0.0])
        assert is_feasible([0.5], [0.5])

    def test_negative_component_rejected(self):
        assert not is_feasible([-0.01], [0.5])
        assert not is_feasible([0.5], [-0.01])

    def test_mass_overflow_rejected(self):
        assert not is_feasible([0.7], [0.31])

    def test_tolerance_slack(self):
        assert is_feasible([-1e-10], [0.5])
        assert is_feasible([0.7], [0.3 + 1e-10])
        assert not is_feasible([-1e-8], [0.5], tol=1e-9)


class TestEpidemicState:
    def test_arrays_are_copied_and_frozen(self):
        x = np.array([0.5, 0.2])
        state = EpidemicState(x, np.array([0.1, 0.1]))
        x[0] = 0.9
        assert state.x[0] == 0.5
        with pytest.raises(ValueError):
            state.x[0] = 0.7

    def test_removed_fraction(self):
        state = EpidemicState(np.array([0.5]), np.array([0.2]))
        assert state.z[0] == pytest.approx(0.3)

    def test_infeasible_state_rejected(self):
        with pytest.raises(ModelValidityError, match="feasible"):
            EpidemicState(np.array([0.8]), np.array([0.3]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            EpidemicState(np.array([0.5, 0.5]), np.array([0.1]))
        with pytest.raises(ConfigurationError):
            EpidemicState(np.array([[0.5]]), np.array([[0.1]]))


class TestModelParams:
    def test_gamma_must_be_positive_finite(self):
        spec = Constant(np.eye(2))
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="gamma"):
                ModelParams(gamma=gamma, interaction=spec)

    def test_n_comes_from_interaction(self):
        assert ModelParams(gamma=1.0, interaction=Constant(np.eye(3))).n == 3


class TestVectorField:
    def test_hand_computed_example(self):
        params = ModelParams(
            gamma=1.0, interaction=Constant(np.array([[1.0, 2.0], [3.0, 4.0]])))
        state = EpidemicState(np.array([0.5, 0.4]), np.array([0.1, 0.2]))
        dx, dy = vector_field(params, state.x, state.y)
        # A y = (0.5, 1.1); incidence = x * A y = (0.25, 0.44)
        assert np.allclose(dx, [-0.25, -0.44], rtol=0, atol=1e-15)
        assert np.allclose(dy, [0.15, 0.24], rtol=0, atol=1e-15)

    def test_disease_free_states_are_equilibria(self):
        params = ModelParams(
            gamma=0.7, interaction=Constant(np.array([[1.0, 2.0], [3.0, 4.0]])))
        for x in ([0.0, 0.0], [1.0, 1.0], [0.3, 0.9]):
            state = EpidemicState(np.array(x), np.zeros(2))
            dx, dy = vector_field(params, state.x, state.y)
            assert np.array_equal(dx, [0.0, 0.0])
            assert np.array_equal(dy, [0.0, 0.0])

    def test_state_size_must_match_model(self):
        params = ModelParams(gamma=1.0, interaction=Constant(np.eye(2)))
        state = EpidemicState(np.array([0.5]), np.array([0.1]))
        with pytest.raises(ConfigurationError, match="n="):
            vector_field(params, state.x, state.y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_transfer_conservation_and_sign_structure(self, seed):
        """dx <= 0 componentwise and dx + dy == -gamma*y exactly."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.2, 3.0))
        if rng.random() < 0.5:
            spec = Constant(rng.uniform(0.0, 4.0, size=(n, n)))
        else:
            spec = Rank1Local(
                tuple(ExpressionFunction("1 + u") for _ in range(n)),
                tuple(ExpressionFunction("1 / (1 + u)") for _ in range(n)))
        params = ModelParams(gamma=gamma, interaction=spec)
        x = rng.uniform(0.0, 1.0, size=n)
        y = rng.uniform(0.0, 1.0, size=n) * (1.0 - x)
        state = EpidemicState(x, y)
        dx, dy = vector_field(params, state.x, state.y)
        assert (dx <= 0.0).all()
        # the compartment transfer is computed once, so the identity holds
        # to machine precision relative to the transfer size
        scale = 1.0 + np.max(np.abs(dx)) + gamma
        assert np.max(np.abs(dx + dy + gamma * y)) <= 1e-14 * scale

    def test_raw_vector_field_allows_probe_states(self):
        params = ModelParams(gamma=1.0, interaction=Constant(np.eye(1)))
        dx, dy = vector_field(params, np.array([1.2]), np.array([-0.1]),
                              check=False)
        assert np.isfinite(dx).all() and np.isfinite(dy).all()
