"""Adaptive integration: accuracy, feasibility guards, terminal logic."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbfsir import (
    Classification,
    Constant,
    EpidemicState,
    IntegratorOptions,
    ModelParams,
    Rank1Local,
    TerminalStatus,
    aggregate_values,
    classify_equilibrium,
    integrate,
    limit_equilibrium,
    preset,
    trajectory_to_csv,
)
from nbfsir.errors import (
    ConfigurationError,
    EvaluationError,
    IntegrationFailureError,
    ModelValidityError,
    StiffnessError,
    UsageError,
)
from nbfsir.integrate import (
    _A,
    _B,
    _D,
    _E3,
    _E5,
    BatchRuns,
    _combo,
    _interpolate,
    _rhs,
    _stages,
    integrate_batch,
)
from nbfsir.interaction import (
    Affine,
    ExpressionFunction,
    FunctionSpec,
    OuterProduct,
    ReciprocalAffine,
)

from conftest import rk4_reference, scalar_final_size


def scalar_params(beta: float = 3.0, gamma: float = 1.0) -> ModelParams:
    return ModelParams(gamma=gamma,
                       interaction=Constant(np.array([[beta]])))


class TestOptions:
    def test_rejects_nonpositive_values(self):
        for field in ("rel_tol", "abs_tol", "max_step", "clamp_eps",
                      "y_converged_threshold"):
            with pytest.raises(ConfigurationError, match=field):
                IntegratorOptions(**{field: 0.0})

    def test_rejects_loose_tolerances(self):
        with pytest.raises(ConfigurationError, match="unreliable"):
            IntegratorOptions(rel_tol=1e-2)

    def test_rejects_nonpositive_t_max(self):
        with pytest.raises(ConfigurationError, match="t_max"):
            IntegratorOptions(t_max=0.0)

    def test_default_horizon_scales_with_recovery_rate(self):
        assert IntegratorOptions().resolved_t_max(2.0) == 5e3
        assert IntegratorOptions(t_max=7.0).resolved_t_max(2.0) == 7.0


class TestScalarEpidemic:
    def test_final_size_matches_fixed_point_oracle(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])))
        assert traj.terminal is TerminalStatus.CONVERGED
        oracle = scalar_final_size(0.99, 0.01, beta=3.0, gamma=1.0)
        assert oracle == pytest.approx(0.059, abs=1e-3)
        assert abs(traj.x[-1, 0] - oracle) < 1e-6

    def test_limit_equilibrium_reports_the_same_root(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])))
        eq = limit_equilibrium(traj)
        assert np.array_equal(eq.y, [0.0])
        oracle = scalar_final_size(0.99, 0.01, beta=3.0, gamma=1.0)
        assert abs(eq.x[0] - oracle) < 1e-6


class TestDegenerateStart:
    def test_disease_free_start_returns_single_sample(self):
        params = scalar_params()
        traj = integrate(params, EpidemicState(np.array([0.42]), np.array([0.0])))
        assert len(traj) == 1
        assert traj.terminal is TerminalStatus.CONVERGED
        assert traj.t_final == 0.0
        assert traj.n_evaluations == 0
        assert np.array_equal(traj.x[0], [0.42])

    def test_limit_equilibrium_of_disease_free_start_is_identity(self):
        params = scalar_params()
        initial = EpidemicState(np.array([0.42]), np.array([0.0]))
        eq = limit_equilibrium(integrate(params, initial))
        assert np.array_equal(eq.x, initial.x)


class TestStopsOnlyWhereNotUnstable:
    """A run ends below y_converged_threshold only where the disease-free
    state is not unstable: lambda(diag(x) A(x, 0)) <= gamma."""

    def test_an_outbreak_that_starts_below_the_threshold_runs(self):
        # node 2 is infected only through a coupling of 1e-25, so every y
        # passes below 1e-10 long before its outbreak; the run used to
        # stop at t = 19.4 with x = (0.5, 0.99), where lambda = 2.97
        params = ModelParams(gamma=1.0, interaction=Constant([[0.0, 0.0], [1e-25, 3.0]]))
        traj = integrate(params, EpidemicState(np.array([0.5, 0.99]),
                                               np.array([1e-3, 0.0])))
        assert traj.terminal is TerminalStatus.CONVERGED
        # a DOP853 run at rel_tol 1e-10 (scipy) ends with x2 = 0.061
        assert traj.x[-1, 0] == 0.5 and abs(traj.x[-1, 1] - 0.061) < 2e-3
        assert classify_equilibrium(params, traj.x[-1]).classification is \
            Classification.STABLE

    def test_a_start_below_the_threshold_at_an_unstable_state_runs(self):
        # lambda = 1.8 at x = 0.9: the start used to come back as it was
        params = scalar_params(beta=2.0)
        traj = integrate(params, EpidemicState(np.array([0.9]), np.array([5e-11])))
        assert traj.terminal is TerminalStatus.CONVERGED
        assert len(traj) > 10
        expected = scalar_final_size(0.9, 5e-11, beta=2.0, gamma=1.0)
        assert abs(traj.x[-1, 0] - expected) < 1e-6
        assert 2.0 * traj.x[-1, 0] < 1.0

    def test_a_start_below_the_threshold_counts_the_nodes_it_can_reach(self):
        # node 1 alone has lambda = 0.09, but it infects node 2, and
        # together they have lambda = 2.79
        params = ModelParams(gamma=1.0, interaction=Constant([[0.1, 3.0], [3.0, 0.1]]))
        traj = integrate(params, EpidemicState(np.array([0.9, 0.9]), np.array([5e-11, 0.0])))
        assert traj.terminal is TerminalStatus.CONVERGED
        assert traj.x[-1].max() < 0.1

    def test_an_unstable_group_the_infection_cannot_reach_does_not_count(self):
        # two groups with no contact: group 2 (lambda = 2.7) never sees the
        # infection, so the run ends as group 1's epidemic dies out rather
        # than stepping on to t_max
        params = ModelParams(gamma=1.0, interaction=Constant([[1.5, 0.0], [0.0, 3.0]]))
        traj = integrate(params, EpidemicState(np.array([0.9, 0.9]), np.array([0.05, 0.0])))
        assert traj.terminal is TerminalStatus.CONVERGED
        assert traj.t_final < 100.0 and traj.n_accepted < 100
        assert traj.x[-1, 1] == 0.9 and np.array_equal(traj.y[:, 1], np.zeros(len(traj)))
        expected = scalar_final_size(0.9, 0.05, beta=1.5, gamma=1.0)
        assert abs(traj.x[-1, 0] - expected) < 1e-6

    @pytest.mark.parametrize("x, y", [(0.4, 5e-11), (0.9, 0.0)],
                             ids=["stable-below-threshold", "disease-free"])
    def test_a_start_at_rest_returns_as_it_is(self, x, y):
        traj = integrate(scalar_params(beta=2.0),
                         EpidemicState(np.array([x]), np.array([y])))
        assert len(traj) == 1 and traj.n_evaluations == 0
        assert traj.terminal is TerminalStatus.CONVERGED

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    # a row starting at x = 0.533 under A = 1.88, so lambda - gamma = 1.4e-3,
    # with y = 2.8e-14: its outbreak is still rising at t_max = 1e4
    @example(n=1, seed=19842531)
    # a row whose outbreak has peaked but is still waning at t_max, with
    # y = 7.4e-10 at x = 0.438, where the disease-free state is stable
    @example(n=1, seed=71857266)
    def test_every_converged_row_ends_at_a_state_that_is_not_unstable(self, n, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams(gamma=1.0,
                             interaction=Constant(rng.uniform(0.0, 3.0, size=(n, n))))
        x = rng.uniform(0.0, 1.0, size=(16, n))
        # infections from 1e-14 up, some nodes not infected at all
        y = 10.0 ** rng.uniform(-14.0, -1.0, size=(16, n)) * (1.0 - x)
        y[rng.uniform(size=(16, n)) < 0.3] = 0.0
        runs = integrate_batch(params, np.hstack([x, y]))
        last = runs.samples[runs.offsets[1:] - 1]
        for r in range(16):
            report = classify_equilibrium(params, np.clip(last[r, :n], 0, 1))
            unstable = report.classification is Classification.UNSTABLE
            if runs.converged[r]:
                assert not (y[r].any() and unstable)
            else:
                # a row runs on to t_max only while its outbreak lasts:
                # its infection is above the threshold, or below it but
                # growing from a state that is unstable
                assert runs.times[runs.offsets[r + 1] - 1] >= 1e4
                assert last[r, n:].max() >= 1e-10 or unstable

    def test_a_run_that_reaches_t_max_ends_on_it(self):
        # t + (t_max - t) may round to either side of t_max: one ulp short,
        # the next step was one ulp long and underflowed; one ulp long, the
        # run ended past t_max
        rng = np.random.default_rng(2026)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            spec = (Constant(rng.uniform(0.0, 3.0, size=(n, n))) if rng.random() < 0.5
                    else OuterProduct(float(rng.uniform(0.0, 5.0)), n))
            t_max = float(10.0 ** rng.uniform(-3.0, 3.0))
            options = IntegratorOptions(t_max=t_max,
                                        max_step=float(rng.choice([0.05, 1.0, 100.0])))
            x = rng.uniform(0.0, 1.0, size=(64, n))
            y = rng.uniform(0.0, 1.0, size=(64, n)) * (1.0 - x)
            params = ModelParams(gamma=float(rng.uniform(0.2, 2.0)), interaction=spec)
            runs = integrate_batch(params, np.hstack([x, y]), options)
            ends = runs.times[runs.offsets[1:] - 1]
            assert (ends <= t_max).all()
            assert (ends[~runs.converged] == t_max).all()


class TestAgainstFixedStepReference:
    def test_two_node_feedback_model_matches_rk4(self):
        spec = Rank1Local(
            tuple(ExpressionFunction("1 + u") for _ in range(2)),
            tuple(ExpressionFunction("1 / (1 + 1.5*u)") for _ in range(2)))
        params = ModelParams(gamma=1.0, interaction=spec)
        x0 = np.array([0.9, 0.9])
        y0 = np.array([0.05, 0.05])
        # stop mid-epidemic so the endpoint is a genuine interior state
        traj = integrate(params, EpidemicState(x0, y0),
                         IntegratorOptions(t_max=8.0, max_step=0.25))
        assert traj.terminal is TerminalStatus.REACHED_T_MAX
        ref_x, ref_y = rk4_reference(params, x0, y0, t_end=8.0, n_steps=40_000)
        assert np.allclose(traj.x[-1], ref_x, rtol=0, atol=1e-7)
        assert np.allclose(traj.y[-1], ref_y, rtol=0, atol=1e-7)


class TestTrajectoryStructure:
    def test_samples_no_coarser_than_max_step(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])),
                         IntegratorOptions(max_step=0.5))
        assert np.max(np.diff(traj.times)) <= 0.5 + 1e-12

    def test_counters_and_accessors(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])))
        assert traj.n_accepted > 0
        assert traj.n_evaluations >= 12 * traj.n_accepted
        assert traj.final_state.n == 1
        assert len(traj.states) == len(traj)

    def test_mismatched_initial_size(self):
        with pytest.raises(ConfigurationError):
            integrate(scalar_params(),
                      EpidemicState(np.array([0.5, 0.5]), np.array([0.1, 0.1])))


class TestLimitEquilibrium:
    def test_requires_converged_trajectory(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])),
                         IntegratorOptions(t_max=0.5))
        assert traj.terminal is TerminalStatus.REACHED_T_MAX
        with pytest.raises(UsageError, match="reached_t_max"):
            limit_equilibrium(traj)

    def test_bounded_by_initial_susceptibles(self):
        params = ModelParams(gamma=1.0, interaction=Constant(
            np.array([[2.0, 1.0], [1.0, 2.0]])))
        initial = EpidemicState(np.array([0.8, 0.6]), np.array([0.1, 0.2]))
        eq = limit_equilibrium(integrate(params, initial), initial)
        assert (eq.x >= 0.0).all()
        assert (eq.x <= initial.x).all()


class TestSelfConsistency:
    def test_halving_tolerances_barely_moves_the_limit(self):
        params = ModelParams(gamma=1.0, interaction=Constant(
            np.array([[2.0, 1.5], [0.5, 2.5]])))
        initial = EpidemicState(np.array([0.7, 0.8]), np.array([0.05, 0.02]))
        loose = IntegratorOptions()
        tight = IntegratorOptions(rel_tol=loose.rel_tol / 2,
                                  abs_tol=loose.abs_tol / 2)
        xa = limit_equilibrium(integrate(params, initial, loose)).x
        xb = limit_equilibrium(integrate(params, initial, tight)).x
        assert np.max(np.abs(xa - xb)) < 10 * loose.abs_tol * 1e4


class TestFeasibilityInvariance:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_trajectories_stay_feasible_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.5, 2.0))
        spec = Constant(rng.uniform(0.0, 3.0, size=(n, n)))
        params = ModelParams(gamma=gamma, interaction=spec)
        x0 = rng.uniform(0.0, 1.0, size=n)
        y0 = rng.uniform(0.0, 1.0, size=n) * (1.0 - x0)
        traj = integrate(params, EpidemicState(x0, y0))
        eps = 1e-9
        assert (traj.x >= -eps).all() and (traj.y >= -eps).all()
        assert ((traj.x + traj.y) <= 1.0 + eps).all()
        # x and x + y never increase beyond integration tolerance
        assert (np.diff(traj.x, axis=0) <= 1e-7).all()
        assert (np.diff(traj.x + traj.y, axis=0) <= 1e-7).all()

    def test_slow_tail_never_drives_positive_mass_to_zero(self):
        # Frozen case where one infected component decays to ~1e-11
        # while another still rides above the convergence threshold.
        # The error controller alone would sanction a landing inside
        # the clamp band (mass below abs_tol is invisible to it), so
        # step acceptance must also gate on positivity: every sample
        # of a positive-origin component stays strictly positive.
        params = ModelParams(gamma=0.5169370294939124,
                             interaction=OuterProduct(2.9970956338070516, 4))
        x0 = np.array([0.9438231225445581, 0.8661130612868826,
                       0.9144034811441767, 0.9759179016373056])
        y0 = np.array([1.1781455906489133e-05, 0.0009252303434804243,
                       0.036225221165127226, 0.006047960470295876])
        traj = integrate(params, EpidemicState(x0, y0),
                         IntegratorOptions(t_max=2000.0))
        assert traj.terminal is TerminalStatus.CONVERGED
        assert (traj.y > 0.0).all()
        assert traj.n_rejected >= 1  # the gate fired and the retry cured it
        assert traj.n_rejected_gate >= 1
        assert traj.n_rejected == (traj.n_rejected_fault + traj.n_rejected_error
                                   + traj.n_rejected_gate)


    def test_a_clamped_step_is_followed_by_a_fresh_slope(self, monkeypatch):
        # node 1 is nearly depleted, x_1 = 1e-13, under a strong gain, so
        # accepted steps overshoot it below zero by less than clamp_eps; its
        # y_1 starts at 0 and at the convergence threshold.  After a clamp
        # the step's last stage no longer is the slope at the state, so the
        # next step must start from a slope evaluated there: every step's
        # first slope equals the vector field at its state, bit for bit
        module = sys.modules["nbfsir.integrate"]
        params = ModelParams(gamma=1.0, interaction=Rank1Local(
            (Affine(1e3, 0.0), Affine(2.0, 0.0)), (Affine(1.0, 0.0),) * 2))
        starts = np.array([[1e-13, 0.9, 0.0, 0.05], [1e-13, 0.9, 1e-10, 0.05]])
        clamped, steps = [], []
        gate, stages = module._gate, module._stages

        def gate_spy(u, y_from, n, eps):
            end, grade = gate(u, y_from, n, eps)
            if grade is not None:
                clamped.append(int(((end != u).any(axis=0) & (grade == 0)).sum()))
            return end, grade

        def stages_spy(params, u, h, k, a):
            if len(a) == 12 and len(k) == 1:  # a step, not its dense output
                steps.append(np.array_equal(k[0], _rhs(params, u)))
            return stages(params, u, h, k, a)

        monkeypatch.setattr(module, "_gate", gate_spy)
        monkeypatch.setattr(module, "_stages", stages_spy)
        runs = integrate_batch(params, starts)
        assert runs.converged.all()
        assert sum(clamped) >= 2
        assert len(steps) > 10 and all(steps)


class _UnitOnNonnegatives(FunctionSpec):
    """f(u) = 1 with domain u >= 0: any negative argument is a domain
    fault, counted in faults.  Trial stages of long steps through a
    decaying tail dip below zero; accepted states never do."""

    def __init__(self):
        self.faults = 0

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if (u < 0.0).any():
            self.faults += 1
            raise EvaluationError("negative argument")
        return np.ones_like(u)

    def to_config(self):
        return "1"


class _ThreeAboveHalf(FunctionSpec):
    """g(u) = 3 with domain u >= 0.5, a wall the susceptible fraction of
    a supercritical epidemic runs into."""

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if (u < 0.5).any():
            raise EvaluationError("below the wall")
        return np.full_like(u, 3.0)

    def to_config(self):
        return "3"


class _UnitWithOnePoisonedValue(FunctionSpec):
    """f(u) = 1, recording every argument it sees; an argument equal to
    poison is a domain fault.  A row's arithmetic does not depend on the
    batch, so a value recorded in one run recurs, bit for bit, in the
    same row's stage of another run, and in no other stage."""

    def __init__(self, poison: float | None = None):
        self.poison = poison
        self.calls = []

    def __call__(self, u):
        u = np.array(u, dtype=float)
        self.calls.append(u.ravel())
        if (u == self.poison).any():
            raise EvaluationError("poisoned argument")
        return np.ones_like(u)

    def to_config(self):
        return "1"


def _fault_params(f: FunctionSpec) -> ModelParams:
    return ModelParams(gamma=1.0,
                       interaction=Rank1Local((Affine(1.5, 0.0),), (f,)))


class TestFailurePaths:
    def test_domain_fault_in_a_trial_stage_is_retried(self):
        f = _UnitOnNonnegatives()
        traj = integrate(_fault_params(f),
                         EpidemicState(np.array([0.3]), np.array([0.5])))
        assert f.faults > 0
        assert traj.terminal is TerminalStatus.CONVERGED
        assert traj.n_rejected >= 1
        assert traj.n_rejected_fault >= 1
        assert traj.n_rejected == (traj.n_rejected_fault + traj.n_rejected_error
                                   + traj.n_rejected_gate)
        assert (traj.y > 0.0).all()

    def test_domain_fault_in_a_dense_stage_rejects_the_step(self):
        options = IntegratorOptions(max_step=0.05)
        start = EpidemicState(np.array([0.3]), np.array([0.5]))
        # max_step sets the samples, not the steps, so the calls a run with
        # no dense samples does not make are the dense stages
        plain, dense = _UnitWithOnePoisonedValue(), _UnitWithOnePoisonedValue()
        integrate(_fault_params(plain), start, IntegratorOptions(max_step=1e3))
        clean = integrate(_fault_params(dense), start, options)
        first = next(i for i, (a, b) in enumerate(zip(plain.calls, dense.calls))
                     if not np.array_equal(a, b))
        # the slope at the start, the step-size probe and the first step's
        # 12 stages come first: the first step has dense samples
        assert first == 14 and clean.n_rejected_fault == 0
        f = _UnitWithOnePoisonedValue(dense.calls[first][0])
        traj = integrate(_fault_params(f), start, options)
        assert traj.terminal is TerminalStatus.CONVERGED
        assert traj.n_rejected_fault == 1
        assert traj.n_rejected == clean.n_rejected + 1
        assert f.calls[:first + 1] == dense.calls[:first + 1]
        # the retry starts over from y(0) = 0.5 with a fifth of the step
        assert f.calls[first + 1][0] - 0.5 == pytest.approx(
            0.2 * (dense.calls[2][0] - 0.5), rel=1e-12)
        # in a batch, only the poisoned row faults; each row is its own run
        other = EpidemicState(np.array([0.999]), np.array([1e-6]))
        alone = [traj, integrate(_fault_params(f), other, options)]
        assert alone[1].n_rejected_fault == 0
        runs = integrate_batch(_fault_params(f), [[0.3, 0.5], [0.999, 1e-6]], options)
        for r, own in enumerate(alone):
            times, samples = _row(runs, r)
            assert np.array_equal(times, own.times)
            assert np.array_equal(samples[:, 1:], own.y)
            assert runs.counts[:, r].tolist() == [
                own.n_accepted, own.n_evaluations, own.n_rejected_fault,
                own.n_rejected_error, own.n_rejected_gate]

    def test_step_size_underflow_carries_time_and_state(self):
        params = ModelParams(gamma=1.0, interaction=Rank1Local(
            (_ThreeAboveHalf(),), (Affine(1.0, 0.0),)))
        with pytest.raises(StiffnessError, match="underflowed") as info:
            integrate(params, EpidemicState(np.array([0.99]), np.array([0.01])))
        x, y = info.value.state
        assert info.value.t > 0.0
        assert x[0] >= 0.5 and 0.0 < y[0] < 1.0

    def test_leaving_the_feasible_set_at_every_step_size_fails(self):
        # a negative entry (integration skips the nonnegativity check)
        # drives y_1 below zero from y_1 = 0 at a rate no step size
        # brings inside clamp_eps
        spec = Rank1Local((Affine(-1e6, 0.0), Affine(1.0, 0.0)),
                          (Affine(1.0, 0.0), Affine(1.0, 0.0)))
        params = ModelParams(gamma=1.0, interaction=spec)
        with pytest.raises(IntegrationFailureError, match="feasible set") as info:
            integrate(params, EpidemicState(np.array([0.5, 0.5]),
                                            np.array([0.0, 0.2])))
        assert not isinstance(info.value, StiffnessError)


def _starts(seed: int, n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(count, n))
    y = rng.uniform(0.0, 1.0, size=(count, n)) * (1.0 - x)
    return np.concatenate([x, y], axis=1)


def _mixed_rank1() -> Rank1Local:
    """Every node-function form at n = 3, with one expression shared by
    two nodes that are not neighbours."""
    shared = ExpressionFunction("1 / (1 + 1.5*u)")
    return Rank1Local(
        (Affine(1.2, 0.5), ExpressionFunction("1 + u"), ReciprocalAffine(2.0, 0.7)),
        (shared, ReciprocalAffine(1.5, 2.0), shared))


def _row(runs: BatchRuns, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r's sample times and samples in the flat record."""
    rows = slice(runs.offsets[r], runs.offsets[r + 1])
    return runs.times[rows], runs.samples[rows]


def _assert_row_is_its_own_run(params, runs, r, start):
    n = params.n
    alone = integrate(params, EpidemicState(start[:n], start[n:]))
    times, samples = _row(runs, r)
    assert np.array_equal(times, alone.times)
    assert np.array_equal(samples[:, :n], alone.x)
    assert np.array_equal(samples[:, n:], alone.y)
    assert runs.converged[r] == (alone.terminal is TerminalStatus.CONVERGED)
    accepted, evaluations, fault, error, gate = runs.counts[:, r]
    assert accepted == alone.n_accepted
    assert fault + error + gate == alone.n_rejected
    assert evaluations == alone.n_evaluations
    assert fault == alone.n_rejected_fault
    assert error == alone.n_rejected_error
    assert gate == alone.n_rejected_gate


def _assert_same_runs(got: BatchRuns, expected: BatchRuns):
    for field in dataclasses.fields(BatchRuns):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert np.array_equal(a, b), field.name


class TestBatch:
    @pytest.mark.parametrize("params, starts", [
        (preset("example3").params(), _starts(3, 2, 16)),
        (preset("example4").params(), _starts(4, 2, 16)),
        (ModelParams(gamma=1.0, interaction=_mixed_rank1()), _starts(6, 3, 16)),
        (ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 5)), _starts(10, 5, 20)),
    ], ids=["example3", "example4", "mixed-rank1", "outer-product-8"])
    def test_every_row_matches_its_own_run(self, params, starts):
        n = params.n
        starts[0, n:] = 0.0  # one disease-free start
        runs = integrate_batch(params, starts)
        # some row is rejected on a step where a row that runs at least
        # as long is accepted, so both branches of the step update run
        rejected = runs.counts[2:].sum(axis=0)
        lifetime = runs.counts[0] + rejected
        assert any(lifetime[s] >= lifetime[r]
                   for r in np.flatnonzero(rejected)
                   for s in np.flatnonzero(rejected == 0))
        for r, start in enumerate(starts):
            _assert_row_is_its_own_run(params, runs, r, start)

    @pytest.mark.parametrize("spec", [OuterProduct(8.0, 5), _mixed_rank1()],
                             ids=["outer-product-8", "mixed-rank1"])
    def test_wide_batch_rows_match_their_own_runs(self, spec):
        # a search-sized batch: the state is stepped as (2n, 1024), and
        # eight seeded rows must still be their one-row runs bit for bit
        params = ModelParams(gamma=1.0, interaction=spec)
        starts = _starts(10, spec.n, 1024)
        runs = integrate_batch(params, starts)
        for r in np.random.default_rng(11).choice(len(starts), 8, replace=False):
            _assert_row_is_its_own_run(params, runs, r, starts[r])

    def test_start_layouts_give_identical_runs(self):
        params = ModelParams(gamma=1.0, interaction=_mixed_rank1())
        starts = _starts(12, 3, 12)
        big = np.zeros((12, 12))
        big[:, ::2] = starts
        reference = integrate_batch(params, starts)
        for layout in (np.asfortranarray(starts), big[:, ::2]):
            _assert_same_runs(integrate_batch(params, layout), reference)
        shapes = []

        def observe(u):
            shapes.append(u.shape)
            return np.array(u)

        _assert_same_runs(integrate_batch(params, starts, observe=observe), reference)
        # observe sees blocks of rows, one state per row, whatever the layout
        # the integrator steps internally
        assert len(shapes) > 1 and all(len(s) == 2 and s[1] == 6 for s in shapes)

    def test_domain_fault_rejects_only_the_faulting_row(self):
        # with t_max = 30 the first start reaches its decaying tail and
        # faults there; the second is still growing and never faults
        f = _UnitOnNonnegatives()
        params = _fault_params(f)
        options = IntegratorOptions(t_max=30.0)
        starts = np.array([[0.3, 0.5], [0.999, 1e-6]])
        alone, faults = [], []
        for start in starts:
            f.faults = 0
            alone.append(integrate(params, EpidemicState(start[:1], start[1:]),
                                   options))
            faults.append(f.faults)
        assert faults[0] > 0 and faults[1] == 0
        runs = integrate_batch(params, starts, options)
        for r, traj in enumerate(alone):
            times, samples = _row(runs, r)
            assert np.array_equal(times, traj.times)
            assert np.array_equal(samples[:, 1:], traj.y)
            assert runs.counts[2:, r].sum() == traj.n_rejected
            assert runs.counts[1, r] == traj.n_evaluations
            assert runs.counts[2, r] == traj.n_rejected_fault

    def test_observe_records_derived_samples(self):
        params = preset("example3").params()
        starts = _starts(8, 2, 4)
        runs = integrate_batch(params, starts,
                               observe=lambda u: u[:, 2:].sum(axis=1))
        full = integrate_batch(params, starts)
        assert np.array_equal(runs.offsets, full.offsets)
        assert np.array_equal(runs.samples, full.samples[:, 2:].sum(axis=1))

    def test_settled_rows_leave_with_their_records_so_far(self):
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 3))
        starts = _starts(7, 3, 24)
        full = integrate_batch(params, starts)
        running = set(range(24))

        def settled(ids, u):
            assert u.shape == (len(ids), 6) and set(ids.tolist()) <= running
            # even rows retire once their infected mass is below 1e-4
            done = (ids % 2 == 0) & (u[:, 3:].sum(axis=1) < 1e-4)
            running.difference_update(ids[done].tolist())
            return done

        runs = integrate_batch(params, starts, settled=settled)
        for r in range(24):
            times, samples = _row(runs, r)
            full_times, full_samples = _row(full, r)
            assert np.array_equal(times, full_times[:len(times)])
            assert np.array_equal(samples, full_samples[:len(samples)])
            if r % 2:
                assert len(times) == len(full_times) and runs.converged[r]
                assert np.array_equal(runs.counts[:, r], full.counts[:, r])
            else:
                assert len(times) < len(full_times) and not runs.converged[r]
                assert samples[-1, 3:].sum() < 1e-4
                assert (runs.counts[:, r] <= full.counts[:, r]).all()
        assert running == set(range(1, 24, 2))

    def test_flat_record_invariants(self):
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 5))
        starts = _starts(5, 5, 20)
        starts[3, 5:] = 0.0  # disease-free: a record of one sample
        # dense samples at most 0.25 apart give a long record
        options = IntegratorOptions(max_step=0.25)
        runs = integrate_batch(params, starts, options)
        assert runs.offsets[0] == 0
        assert runs.offsets[-1] == len(runs.times) == len(runs.samples)
        lengths = np.diff(runs.offsets)
        assert lengths[3] == 1 and lengths.max() > 100
        rejected = runs.counts[2:].sum(axis=0)
        assert rejected.any()
        for r, start in enumerate(starts):
            times, _ = _row(runs, r)
            assert times[0] == 0.0
            assert (np.diff(times) > 0).all()
            alone = integrate(params, EpidemicState(start[:5], start[5:]), options)
            assert rejected[r] == alone.n_rejected

    def test_rejects_misshaped_starts(self):
        with pytest.raises(ConfigurationError, match="shape"):
            integrate_batch(scalar_params(), np.array([0.5, 0.1]))

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5, np.nan, 0.1],
        [0.5, np.inf, 0.1, 0.1],
        [0.9, 0.9, 0.2, 0.2],
        [0.5, 0.5, -0.1, 0.1],
    ], ids=["nan", "inf", "above-one", "negative"])
    def test_rejects_starts_outside_the_feasible_set(self, bad):
        # rejected before the first step, naming the row: stepped, a nan
        # start passes the convergence test and an infeasible one fails
        # the feasibility gate at t ~ 1e-13
        starts = [[0.5, 0.5, 0.1, 0.1], [0.6, 0.7, 0.2, 0.3], bad]
        with pytest.raises(ModelValidityError, match="start 2 outside the feasible set"):
            integrate_batch(preset("example3").params(), starts)


def _ordered_sum(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """((0 + w0 k0) + w1 k1) + ..., one product at a time."""
    total = np.zeros(k.shape[1:])
    for w, term in zip(weights, k):
        total = total + w * term
    return total


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStageSums:
    """Every row's trajectory rests on these bits: a numpy whose einsum
    fuses the multiply-add, or sums in another order, fails here."""

    @pytest.mark.parametrize("width", [1, 7, 2048])
    def test_combo_is_the_ordered_sum(self, width):
        rng = np.random.default_rng(width)
        tableau = [*_A[1:], _E5, _E3, *_D]
        slots = max(len(w) for w in tableau)
        for weights in tableau + [rng.normal(size=s) for s in range(1, slots + 1)]:
            k = rng.normal(size=(slots, 10, width)) * 10.0 ** rng.integers(
                -30, 30, size=(slots, 10, width))
            zeros = rng.random(k.shape) < 0.2
            k[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
            k[:, 0] = -0.0  # a sum of negative zeros is +0.0, as the reduce gives
            assert _same_bits(_combo(weights, k), _ordered_sum(weights, k))

    def test_last_stage_argument_is_the_eighth_order_end(self):
        # f is 1 on y >= 0 only: the long steps fault in a trial stage
        params = _fault_params(_UnitOnNonnegatives())
        u = np.array([[0.1] * 8, [0.01] * 8])
        h = np.array([10.0, 0.1, 0.2, 12.0, 0.3, 0.05, 11.0, 0.4])
        k, _, fault, end = _stages(params, u, h, _rhs(params, u)[None], _A[1:13])
        assert fault.tolist() == [h_r > 1.0 for h_r in h]
        want = u + h * np.add.reduce(_B[:, None, None] * k[:12], axis=0)
        assert _same_bits(end[:, ~fault], want[:, ~fault])
        # a wide batch with no fault
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 5))
        u = _starts(13, 5, 300).T.copy()
        h = np.random.default_rng(14).uniform(1e-3, 0.5, size=300)
        k, _, fault, end = _stages(params, u, h, _rhs(params, u)[None], _A[1:13])
        assert not fault.any()
        want = u + h * np.add.reduce(_B[:, None, None] * k[:12], axis=0)
        assert _same_bits(end, want)


# DOP853's nodes c_s, the times of its stages as fractions of the step
_ROOT6 = np.sqrt(6.0)
_NODES = np.array([0.0, 2.0 * (6.0 - _ROOT6) / 135.0, (6.0 - _ROOT6) / 45.0,
                   (6.0 - _ROOT6) / 30.0, (6.0 + _ROOT6) / 30.0, 1 / 3, 1 / 4,
                   4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0, 1 / 10, 1 / 5, 7 / 9])


class TestTableau:
    """The typed constants against the conditions they must meet."""

    def test_each_stage_weights_sum_to_its_node(self):
        assert len(_A) == len(_NODES) == 16
        for s, weights in enumerate(_A):
            assert len(weights) == s
            assert weights.sum() == pytest.approx(_NODES[s], rel=0, abs=1e-15)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_weights_integrate_polynomials_to_degree_seven(self, q):
        assert (_B * _NODES[:12] ** (q - 1)).sum() == pytest.approx(1.0 / q, abs=4e-15)

    @pytest.mark.parametrize("q", range(1, 9))
    def test_linear_flow_step_is_the_exponential_to_eighth_order(self, q):
        # for u' = lambda u a step multiplies u by sum_q b A^(q-1) 1 (h lambda)^q,
        # which must match exp(h lambda) through q = 8
        a = np.zeros((12, 12))
        for s in range(1, 12):
            a[s, :s] = _A[s]
        term = _B @ np.linalg.matrix_power(a, q - 1) @ np.ones(12)
        assert term == pytest.approx(1.0 / math.factorial(q), rel=1e-12, abs=1e-15)

    def test_error_estimates_vanish_on_constant_slopes(self):
        assert len(_E5) == len(_E3) == 12
        assert abs(_E5.sum()) < 1e-15
        assert abs(_E3.sum()) < 1e-15

    def _step(self, h):
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 5))
        u = _starts(13, 5, 300).T.copy()
        h = np.full(u.shape[1], h)
        k, _, fault, end = _stages(params, u, h, _rhs(params, u)[None], _A[1:13])
        k, _, dense_fault, _ = _stages(params, u, h, k, _A[1:])
        assert not fault.any() and not dense_fault.any()
        return params, u, h, k, end

    def test_interpolant_meets_both_ends_of_the_step(self):
        _, u, h, k, end = self._step(0.05)
        rows = np.arange(u.shape[1])
        one = _interpolate(u, end, k, h, rows, np.ones(len(rows)))
        assert np.abs(one - end).max() <= 2.0 ** -52
        assert _same_bits(_interpolate(u, end, k, h, rows, np.zeros(len(rows))), u)

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_interpolant_is_of_seventh_order(self, theta):
        # against the eighth-order end of a step of length theta * h: the
        # gap falls by more than 2^7 when h halves
        gaps = []
        for h in (0.05, 0.025):
            params, u, h, k, end = self._step(h)
            rows = np.arange(u.shape[1])
            inner = _interpolate(u, end, k, h, rows, np.full(len(rows), theta))
            *_, short = _stages(params, u, theta * h, _rhs(params, u)[None], _A[1:13])
            gaps.append(np.abs(inner - short).max())
        assert gaps[1] < 1e-9
        assert gaps[0] > 2.0 ** 7 * gaps[1]


class TestCsv:
    def test_header_and_row_count(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])))
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x_1,y_1"
        assert len(lines) == len(traj) + 1

    def test_aggregate_column_only_for_factored_specs(self):
        spec = Rank1Local((Affine(3.0, 0.0),), (Affine(1.0, 0.0),))
        params = ModelParams(gamma=1.0, interaction=spec)
        traj = integrate(params, EpidemicState(np.array([0.99]), np.array([0.01])))
        with_col = trajectory_to_csv(traj, spec)
        without = trajectory_to_csv(traj, Constant(np.array([[3.0]])))
        assert with_col.splitlines()[0].endswith(",ybar")
        assert not without.splitlines()[0].endswith(",ybar")

    def test_aggregate_column_is_aggregate_values(self):
        # nine nodes: np.sum would add pairwise, aggregate_values adds in order
        n = 9
        spec = Rank1Local(tuple(Affine(1.0 + 0.1 * i, 0.5) for i in range(n)),
                          tuple(ReciprocalAffine(1.0, 0.3 * i) for i in range(n)))
        params = ModelParams(gamma=1.0, interaction=spec)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 0.9, n)
        traj = integrate(params, EpidemicState(x, rng.uniform(0.0, 0.1, n) * (1.0 - x)))
        column = [line.rsplit(",", 1)[1]
                  for line in trajectory_to_csv(traj, spec).splitlines()[1:]]
        assert column == [f"{v:.17g}" for v in aggregate_values(spec, traj.y)]

    def test_values_round_trip_through_repr(self):
        traj = integrate(scalar_params(),
                         EpidemicState(np.array([0.99]), np.array([0.01])))
        row = trajectory_to_csv(traj).splitlines()[1].split(",")
        assert float(row[1]) == traj.x[0, 0]
