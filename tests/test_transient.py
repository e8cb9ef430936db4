"""Aggregate infection curves: shape detection, verification, search."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbfsir import (
    Affine,
    EpidemicState,
    Extremum,
    IntegratorOptions,
    ModelParams,
    OuterProduct,
    Rank1Local,
    Shape,
    aggregate_curve,
    aggregate_values,
    curve_to_csv,
    detect_unimodality,
    force_of_infection,
    integrate,
    is_feasible,
    preset,
    search_multimodal_ic,
    vector_field,
    verify_unimodality,
)
from nbfsir import transient
from nbfsir.errors import EvaluationError, UsageError
from nbfsir.integrate import integrate_batch
from nbfsir.interaction import ExpressionFunction, FunctionSpec
from nbfsir.transient import classify_curves


def _rank1(g: str, f: str, n: int = 2) -> Rank1Local:
    return Rank1Local(tuple(ExpressionFunction(g) for _ in range(n)),
                      tuple(ExpressionFunction(f) for _ in range(n)))


def _one_core(monkeypatch):
    """Make the screen see one usable core, so it runs in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


class TestDetectUnimodality:
    def test_falling_curve(self):
        shape, peak, extrema = detect_unimodality(
            [0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 4.0, 3.0, 2.0, 1.0])
        assert shape is Shape.MONOTONE_DECREASING
        assert peak == 0.0
        assert extrema == ()

    def test_single_peak_with_quadratic_refinement(self):
        shape, peak, extrema = detect_unimodality(
            [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 1.0, 0.5])
        assert shape is Shape.UNIMODAL
        # vertex of the parabola through (0,1), (1,3), (2,2)
        assert peak == pytest.approx(7.0 / 6.0, abs=1e-12)
        assert len(extrema) == 1
        assert extrema[0].kind == "max"
        assert extrema[0].index == 1

    def test_two_waves(self):
        shape, peak, extrema = detect_unimodality(
            [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 1.0, 3.0, 1.0],
            noise_tol=1e-3)
        assert shape is Shape.MULTIMODAL
        assert peak is None
        assert [e.kind for e in extrema] == ["max", "min", "max"]

    def test_still_rising_at_the_end(self):
        shape, peak, extrema = detect_unimodality(
            [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert shape is Shape.MONOTONE_INCREASING_TRUNCATED
        assert peak is None
        assert extrema == ()

    def test_hysteresis_ignores_sub_threshold_ripple(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        ripple = [1.0, 3.0, 2.0, 2.0005, 1.0, 0.5]
        shape, _, extrema = detect_unimodality(times, ripple, noise_tol=1e-3)
        assert shape is Shape.UNIMODAL
        assert len(extrema) == 1
        # the same wiggle above threshold is a genuine second wave
        bump = [1.0, 3.0, 2.0, 2.5, 1.0, 0.5]
        shape, _, _ = detect_unimodality(times, bump, noise_tol=1e-3)
        assert shape is Shape.MULTIMODAL

    def test_input_validation(self):
        with pytest.raises(UsageError, match="at least 3"):
            detect_unimodality([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(UsageError, match="strictly increasing"):
            detect_unimodality([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UsageError, match="finite"):
            detect_unimodality([0.0, 1.0, 2.0], [1.0, np.nan, 3.0])
        with pytest.raises(UsageError, match="noise_tol"):
            detect_unimodality([0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
                               noise_tol=-1e-6)
        with pytest.raises(UsageError, match="matching"):
            detect_unimodality([0.0, 1.0, 2.0], [1.0, 2.0])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-20, 20))
    def test_classification_is_scale_invariant(self, seed, k):
        """Multiplying a curve by a positive constant changes nothing.

        Power-of-two scales keep every comparison bit-identical, so shape,
        peak, and extremum indices must match exactly.
        """
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 40))
        times = np.cumsum(rng.uniform(0.1, 1.0, size=m))
        values = np.abs(np.cumsum(rng.normal(size=m)))
        scale = 2.0 ** k
        shape1, peak1, ext1 = detect_unimodality(times, values)
        shape2, peak2, ext2 = detect_unimodality(times, values * scale)
        assert shape1 is shape2
        assert peak1 == peak2
        assert [e.index for e in ext1] == [e.index for e in ext2]


def _one_curve_reference(times, values, noise_tol):
    """The hysteresis rule written as a plain loop over one curve."""
    theta = noise_tol * max(float(values.max()), 0.0)
    direction, hi, lo = 0, 0, 0
    extrema = []
    for k in range(1, len(values)):
        v = values[k]
        if v > values[hi]:
            hi = k
        if v < values[lo]:
            lo = k
        if direction != 1 and v - values[lo] > theta:
            if direction == -1:
                extrema.append(Extremum("min", lo, float(times[lo]), float(values[lo])))
            direction, hi = 1, k
        elif direction != -1 and values[hi] - v > theta:
            if direction == 1:
                extrema.append(Extremum("max", hi, float(times[hi]), float(values[hi])))
            direction, lo = -1, k
    if not extrema:
        if direction == 1:
            return Shape.MONOTONE_INCREASING_TRUNCATED, None, ()
        return Shape.MONOTONE_DECREASING, float(times[0]), ()
    if [e.kind for e in extrema] == ["max"]:
        return Shape.UNIMODAL, "refined", tuple(extrema)
    return Shape.MULTIMODAL, None, tuple(extrema)


class TestBatchedHysteresis:
    @pytest.mark.parametrize("noise_tol", [0.0, 1e-6, 0.05])
    def test_rows_of_unequal_length_match_the_one_curve_rule(self, noise_tol):
        rng = np.random.default_rng(2024)
        curves = []
        for r in range(60):
            m = int(rng.integers(3, 50))
            times = np.cumsum(rng.uniform(0.1, 1.0, size=m))
            if r % 3 == 0:  # smooth one- and two-wave curves
                waves = 1 + r % 2
                values = np.sin(np.linspace(0.0, waves * np.pi, m)) ** 2
            else:
                values = np.abs(np.cumsum(rng.normal(size=m)))
            curves.append((times, values))
        size = max(len(t) for t, _ in curves)

        def padded(arrays):
            return np.array([np.concatenate([a, np.full(size - len(a), a[-1])])
                             for a in arrays])

        all_times = padded([t for t, _ in curves])
        all_values = padded([v for _, v in curves])
        verdicts = classify_curves(all_times, all_values, noise_tol)
        # the screen reads each row's shape and maxima from the scan alone
        turns = transient._scan_turns(all_values, noise_tol)
        codes, maxima = transient._shapes(turns)
        for r in range(len(curves)):
            shape, _, extrema = transient._verdict(all_times[r], all_values[r], turns, r)
            assert tuple(Shape)[codes[r]] is shape
            assert maxima[r] == sum(e.kind == "max" for e in extrema)
        shapes = set()
        for (times, values), (shape, peak, extrema) in zip(curves, verdicts):
            want = detect_unimodality(times, values, noise_tol)
            assert (shape, peak, extrema) == want
            ref_shape, ref_peak, ref_extrema = _one_curve_reference(
                times, values, noise_tol)
            assert (shape, extrema) == (ref_shape, ref_extrema)
            if ref_peak != "refined":
                assert peak == ref_peak
            shapes.add(shape)
        assert Shape.MULTIMODAL in shapes and Shape.UNIMODAL in shapes


class TestAggregateValues:
    def test_constant_transmission_is_a_weighted_sum(self):
        spec = Rank1Local(
            (ExpressionFunction("1"), ExpressionFunction("1")),
            (ExpressionFunction("2"), ExpressionFunction("3")))
        y = np.random.default_rng(3).uniform(0.0, 0.5, size=(7, 2))
        assert np.array_equal(aggregate_values(spec, y),
                              2.0 * y[:, 0] + 3.0 * y[:, 1])

    def test_saturating_transmission(self):
        spec = preset("example3").interaction
        got = aggregate_values(spec, [0.2, 0.4])
        want = 0.2 / (1 + 1.5 * 0.2) + 0.4 / (1 + 1.5 * 0.4)
        assert got == pytest.approx(want, abs=1e-15)

    def test_batched_shapes(self):
        spec = preset("example3").interaction
        y = np.random.default_rng(5).uniform(0.0, 0.4, size=(4, 5, 2))
        out = aggregate_values(spec, y)
        assert out.shape == (4, 5)

    def test_rejects_unfactored_interactions(self):
        with pytest.raises(UsageError, match="rank-1"):
            aggregate_values(preset("example2a").interaction, [0.1, 0.1])


class TestForceOfInfection:
    def test_hand_values(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        h = force_of_infection(spec, [0.4, 0.2], [0.1, 0.3])
        rows = np.array([0.4 * 1.4, 0.2 * 1.2])
        cols = np.array([0.1 / 1.15, 0.3 / 1.45])
        assert np.allclose(h, np.outer(rows, cols), rtol=0, atol=1e-15)

    def test_outer_product_rows_use_the_closed_form_gain(self):
        # c*(1 - x) as in the flow, not Affine's c + (-c)*x, which loses
        # relative accuracy as x nears 1
        spec = OuterProduct(0.8, 5)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, size=(2000, 5))
        y = rng.uniform(0.0, 1.0, size=(2000, 5)) * (1.0 - x)
        h = force_of_infection(spec, x, y)
        assert np.allclose(h.sum(axis=-1), spec.incidence(x, y), rtol=1e-14, atol=0.0)

    def test_row_sums_recover_the_incidence(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        params = ModelParams(gamma=0.7, interaction=spec)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(0.0, 0.6, size=2)
            y = rng.uniform(0.0, 0.4, size=2)
            h = force_of_infection(spec, x, y)
            dx, dy = vector_field(params, x, y)
            incidence = dy + 0.7 * y
            assert np.allclose(h.sum(axis=-1), incidence, rtol=0, atol=1e-12)
            assert np.allclose(h.sum(axis=-1), -dx, rtol=0, atol=1e-12)

    def test_rejects_unfactored_interactions(self):
        with pytest.raises(UsageError, match="rank-1"):
            force_of_infection(preset("example2c").interaction,
                               [0.1, 0.1], [0.1, 0.1])


class TestAggregateCurve:
    def test_scalar_epidemic_peaks_at_the_threshold_crossing(self):
        # with A = 3 and gamma = 1 the prevalence curve turns exactly
        # where susceptibility crosses 1/3
        spec = _rank1("3", "1", n=1)
        params = ModelParams(gamma=1.0, interaction=spec)
        traj = integrate(params, EpidemicState([0.99], [0.01]),
                         IntegratorOptions(t_max=60.0, max_step=0.05))
        curve = aggregate_curve(traj, spec)
        assert curve.shape is Shape.UNIMODAL
        x_at_peak = np.interp(curve.peak_time, traj.times, traj.x[:, 0])
        assert x_at_peak == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_rising_caution_preset_is_single_peaked(self):
        cfg = preset("example3")
        traj = integrate(cfg.params(), cfg.require_initial())
        curve = aggregate_curve(traj, cfg.interaction)
        assert curve.shape is Shape.UNIMODAL
        assert curve.n_maxima == 1
        assert curve.peak_time > 0.0

    def test_peak_time_matches_a_finely_sampled_run(self):
        # the default record samples the peak about 0.4 apart; the
        # quartic through five samples keeps its time as close to a
        # max_step 0.01 record as the parabola did on denser samples
        cfg = preset("example3")
        peaks = []
        for max_step in (1.0, 0.01):
            options = IntegratorOptions(max_step=max_step)
            traj = integrate(cfg.params(), cfg.require_initial(), options)
            peaks.append(aggregate_curve(traj, cfg.interaction).peak_time)
        assert abs(peaks[0] - peaks[1]) < 3.5e-3

    def test_peak_is_the_quartic_maximum_with_a_parabola_at_the_ends(self):
        # t exp(-t) peaks at t = 1, between samples 0.4 apart
        times = np.linspace(0.0, 2.8, 8)
        values = times * np.exp(-times)
        shape, peak, _ = detect_unimodality(times, values)
        assert shape is Shape.UNIMODAL
        assert abs(peak - 1.0) < 1e-3
        # with one sample left of the maximum sample, the vertex of the
        # parabola through the three around it, which misses by 20 times
        # as much
        t0, t1, t2 = times[2:5]
        v0, v1, v2 = values[2:5]
        s1, s2 = (v1 - v0) / (t1 - t0), (v2 - v1) / (t2 - t1)
        vertex = 0.5 * (t0 + t1) - s1 / (2.0 * (s2 - s1) / (t2 - t0))
        assert transient._refine_peak(times[2:], values[2:], 1) == vertex
        assert abs(vertex - 1.0) > 1.9e-2

    def test_subcritical_saturation_preset_only_decays(self):
        cfg = preset("example5")
        traj = integrate(cfg.params(), cfg.require_initial())
        curve = aggregate_curve(traj, cfg.interaction)
        assert curve.shape is Shape.MONOTONE_DECREASING
        assert curve.peak_time == traj.times[0]

    def test_disease_free_record_is_classified_from_its_endpoints(self):
        cfg = preset("example3")
        traj = integrate(cfg.params(), EpidemicState([0.5, 0.5], [0.0, 0.0]))
        curve = aggregate_curve(traj, cfg.interaction)
        assert curve.shape is Shape.MONOTONE_DECREASING
        assert curve.extrema == ()

    def test_as_dict_round_trips_extrema(self):
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        values = np.array([1.0, 3.0, 2.0, 1.0, 0.5])
        shape, peak, extrema = detect_unimodality(times, values)
        assert extrema[0].as_dict() == {
            "kind": "max", "index": 1, "time": 1.0, "value": 3.0}


class TestAggregateCurves:
    def test_padding_matches_a_per_row_loop(self):
        spec = preset("example3").interaction
        params = ModelParams(gamma=1.0, interaction=spec)
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 1.0, size=(9, 2))
        starts = np.concatenate([x, rng.uniform(0.0, 1.0, size=(9, 2)) * (1.0 - x)],
                                axis=1)
        starts[4, 2:] = 0.0  # disease-free: a record of one sample
        options = IntegratorOptions()
        times, values, lengths, turns = transient._aggregate_curves(
            params, starts, 1e-6, options)

        # reference: each row's record copied in and padded with its last
        # sample, one row at a time
        runs = integrate_batch(params, starts, options,
                               observe=lambda u: aggregate_values(spec, u[:, 2:]))
        size = np.diff(runs.offsets).max()
        want_t, want_v = np.empty((9, size)), np.empty((9, size))
        for r in range(9):
            rows = slice(runs.offsets[r], runs.offsets[r + 1])
            t, v = runs.times[rows], runs.samples[rows]
            want_t[r, :len(t)], want_t[r, len(t):] = t, t[-1]
            want_v[r, :len(v)], want_v[r, len(v):] = v, v[-1]
        assert np.array_equal(lengths, np.diff(runs.offsets))
        assert lengths[4] == 1 and lengths.max() > 10
        assert np.array_equal(times, want_t)
        assert np.array_equal(values, want_v)
        verdicts = [transient._verdict(times[r], values[r], turns, r) for r in range(9)]
        assert verdicts == classify_curves(want_t, want_v, 1e-6)


@pytest.mark.parametrize("noise_tol", [-0.5, np.nan], ids=["negative", "nan"])
class TestNoiseTolIsChecked:
    def test_detect_unimodality(self, noise_tol):
        with pytest.raises(UsageError, match="noise_tol"):
            detect_unimodality([0.0, 1.0, 2.0], [1.0, 2.0, 1.0], noise_tol)

    def test_aggregate_curve(self, noise_tol):
        cfg = preset("example3")
        traj = integrate(cfg.params(), cfg.require_initial(),
                         IntegratorOptions(t_max=1.0))
        with pytest.raises(UsageError, match="noise_tol"):
            aggregate_curve(traj, cfg.interaction, noise_tol)

    def test_verify_unimodality(self, noise_tol):
        # a negative tolerance counts every wiggle as a turn, and a nan
        # tolerance none
        with pytest.raises(UsageError, match="noise_tol"):
            verify_unimodality(preset("example3").interaction, 1.0, 20, 1,
                               noise_tol=noise_tol)

    def test_search_multimodal_ic(self, noise_tol):
        with pytest.raises(UsageError, match="noise_tol"):
            search_multimodal_ic(OuterProduct(8.0, 3), 1.0, 50, 1,
                                 noise_tol=noise_tol)


class TestSeedIsChecked:
    def test_verify_unimodality(self):
        with pytest.raises(UsageError, match="seed"):
            verify_unimodality(preset("example3").interaction, 1.0, 20, -1)

    def test_search_multimodal_ic(self):
        with pytest.raises(UsageError, match="seed"):
            search_multimodal_ic(OuterProduct(8.0, 3), 1.0, 50, -1)


@pytest.mark.parametrize("value", [2.5, True, "4", None],
                         ids=["fraction", "bool", "text", "none"])
@pytest.mark.parametrize("run, name", [
    (verify_unimodality, "trials"), (verify_unimodality, "seed"),
    (search_multimodal_ic, "budget"), (search_multimodal_ic, "seed")],
    ids=["verify-trials", "verify-seed", "search-budget", "search-seed"])
def test_counts_must_be_integers(run, name, value):
    # a fraction used to reach numpy, which raised a bare TypeError
    counts = [4, 1]
    counts[name == "seed"] = value
    with pytest.raises(UsageError, match=f"{name} must be an integer"):
        run(_rank1("1 + u", "1 / (1 + 1.5*u)"), 1.0, *counts)


class TestVerifyUnimodality:
    def test_saturating_feedback_is_always_single_peaked(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        report = verify_unimodality(spec, gamma=1.0, trials=20, seed=42)
        assert report.all_unimodal
        assert report.counterexamples == ()
        assert report.trials == 20
        assert sum(report.shape_counts.values()) == 20
        assert set(report.shape_counts) <= {"MonotoneDecreasing", "Unimodal"}

    def test_deterministic_for_a_seed(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        a = verify_unimodality(spec, gamma=1.0, trials=8, seed=7)
        b = verify_unimodality(spec, gamma=1.0, trials=8, seed=7)
        assert a.shape_counts == b.shape_counts

    def test_rejects_specs_outside_the_hypotheses(self):
        # the outer-product kernel's g(u) = scale * (1 - u) vanishes at
        # full susceptibility whatever the scale, violating positivity
        with pytest.raises(UsageError, match="g_positive"):
            verify_unimodality(OuterProduct(0.8, 5), gamma=1.0,
                               trials=5, seed=0)

    def test_rejects_bad_trial_counts(self):
        spec = _rank1("1 + u", "1")
        with pytest.raises(UsageError, match="trials"):
            verify_unimodality(spec, gamma=1.0, trials=0, seed=0)

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        # at t_max 1 some curves are still rising: counterexamples to report
        widths = []

        def spy(params, starts, *args):
            widths.append(len(starts))
            return aggregate_curves(params, starts, *args)

        def run(block):
            monkeypatch.setattr(transient, "_BLOCK", block)
            widths.clear()
            return verify_unimodality(_rank1("1 + u", "1 / (1 + 1.5*u)"), 1.0, 40,
                                      3, options=IntegratorOptions(t_max=1.0))

        aggregate_curves = transient._aggregate_curves
        monkeypatch.setattr(transient, "_aggregate_curves", spy)
        # blocks on a pool never reach the spy in this process
        _one_core(monkeypatch)
        small = run(7)
        assert max(widths) <= 7 and sum(widths) == 40
        whole = run(41)
        assert widths == [40]
        assert small.shape_counts == whole.shape_counts
        assert len(small.shape_counts) == 3 and small.counterexamples
        assert [(s.x.tolist(), s.y.tolist()) for s in small.counterexamples] == [
            (s.x.tolist(), s.y.tolist()) for s in whole.counterexamples]

    def test_starts_without_both_masses_are_drawn_again(self, monkeypatch):
        counts = []

        def draw(rng, count, n):
            starts = uniform_starts(rng, count, n)
            if not counts:
                starts[1, n:] = 0.0  # no infected mass
                starts[3, :n] = 0.0  # no susceptible mass
            counts.append(count)
            return starts

        uniform_starts = transient._uniform_starts
        monkeypatch.setattr(transient, "_uniform_starts", draw)
        report = verify_unimodality(_rank1("1 + u", "1 / (1 + 1.5*u)"), 1.0, 5, 1)
        assert counts == [5, 2]
        assert sum(report.shape_counts.values()) == 5

    def test_report_as_dict(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        doc = verify_unimodality(spec, gamma=1.0, trials=4, seed=1).as_dict()
        assert doc["all_unimodal"] is True
        assert doc["trials"] == 4
        assert doc["counterexamples"] == []


class TestSearchMultimodalIC:
    def test_strong_fatigue_shows_repeated_waves(self):
        report = search_multimodal_ic(OuterProduct(8.0, 5), gamma=1.0,
                                      budget=3000, seed=7)
        assert report.n_maxima >= 2
        assert report.curve.shape is Shape.MULTIMODAL
        assert is_feasible(report.best_state.x, report.best_state.y)

    def test_single_peak_dynamics_yield_no_second_wave(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        report = search_multimodal_ic(spec, gamma=1.0, budget=60, seed=3)
        assert report.n_maxima <= 1
        assert report.budget == 60

    def test_deterministic_for_a_seed(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        a = search_multimodal_ic(spec, gamma=1.0, budget=40, seed=9)
        b = search_multimodal_ic(spec, gamma=1.0, budget=40, seed=9)
        assert np.array_equal(a.best_state.x, b.best_state.x)
        assert np.array_equal(a.best_state.y, b.best_state.y)
        assert a.n_maxima == b.n_maxima

    def test_one_node_spec(self):
        # the mixture's share of active nodes ranged over [1/n, 0.6], which
        # numpy refused at n = 1
        report = search_multimodal_ic(OuterProduct(2.0, 1), gamma=1.0,
                                      budget=50, seed=3)
        assert report.budget == 50
        assert is_feasible(report.best_state.x, report.best_state.y)

    def test_validation(self):
        spec = _rank1("1 + u", "1")
        with pytest.raises(UsageError, match="budget"):
            search_multimodal_ic(spec, gamma=1.0, budget=0, seed=0)
        with pytest.raises(UsageError, match="rank-1"):
            search_multimodal_ic(preset("example2a").interaction,
                                 gamma=1.0, budget=5, seed=0)

    def test_integrator_options_are_honoured(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        report = search_multimodal_ic(spec, gamma=1.0, budget=12, seed=2,
                                      options=IntegratorOptions(t_max=0.5))
        assert report.curve.times[-1] <= 0.5

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        def run(block):
            monkeypatch.setattr(transient, "_BLOCK", block)
            return search_multimodal_ic(OuterProduct(8.0, 3), gamma=1.0,
                                        budget=300, seed=7)

        small, whole = run(7), run(301)
        assert np.array_equal(small.best_state.x, whole.best_state.x)
        assert np.array_equal(small.best_state.y, whole.best_state.y)
        assert np.array_equal(small.curve.times, whole.curve.times)
        assert np.array_equal(small.curve.values, whole.curve.values)
        assert small.n_maxima == whole.n_maxima
        assert small.curve.shape is whole.curve.shape

    def test_report_as_dict_keys(self):
        spec = _rank1("1 + u", "1 / (1 + 1.5*u)")
        doc = search_multimodal_ic(spec, gamma=1.0, budget=12,
                                   seed=2).as_dict()
        assert set(doc) == {"budget", "n_maxima", "best_ic", "shape",
                            "peak_time", "extrema"}
        assert len(doc["best_ic"]["x"]) == 2


class _RefusesAbove(FunctionSpec):
    """g(u) = 1 + u, which refuses any u above limit and names the
    largest, so each block that fails fails in its own words."""

    def __init__(self, limit):
        self.limit = limit

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if (u > self.limit).any():
            raise EvaluationError(f"u = {float(u.max())!r} is above {self.limit}")
        return 1.0 + u

    def to_config(self):
        return "1 + u"


class TestScreenWorkers:
    """The screen's blocks run on one forked worker per usable core; every
    result, and every error, is the in-process run's."""

    def test_pool_and_in_process_runs_agree(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(len(args[1]))
            return aggregate_curves(*args)

        def run():
            calls.clear()
            search = search_multimodal_ic(OuterProduct(8.0, 3), 1.0, 300, 7)
            # at t_max 1 some curves are still rising: counterexamples
            verify = verify_unimodality(_rank1("1 + u", "1 / (1 + 1.5*u)"), 1.0, 40,
                                        3, options=IntegratorOptions(t_max=1.0))
            assert not multiprocessing.active_children()
            return search, verify, len(calls)

        aggregate_curves = transient._aggregate_curves
        monkeypatch.setattr(transient, "_aggregate_curves", spy)
        monkeypatch.setattr(transient, "_BLOCK", 7)
        cores = len(os.sched_getaffinity(0))
        search, verify, here = run()
        _one_core(monkeypatch)
        search_1, verify_1, here_1 = run()
        # on more than one core, the pool screened blocks this process did not
        assert here < here_1 if cores > 1 else here == here_1
        assert np.array_equal(search.best_state.x, search_1.best_state.x)
        assert np.array_equal(search.best_state.y, search_1.best_state.y)
        assert np.array_equal(search.curve.times, search_1.curve.times)
        assert np.array_equal(search.curve.values, search_1.curve.values)
        assert search.as_dict() == search_1.as_dict()
        assert verify.shape_counts == verify_1.shape_counts
        assert len(verify.shape_counts) == 3 and verify.counterexamples
        assert [(s.x.tolist(), s.y.tolist()) for s in verify.counterexamples] == [
            (s.x.tolist(), s.y.tolist()) for s in verify_1.counterexamples]

    def test_a_failing_block_raises_its_own_error_in_the_caller(self, monkeypatch):
        # at seed 7 the first start with some x above 0.998 is in block 17
        # of 43; blocks 22 and 24 hold others
        spec = Rank1Local((_RefusesAbove(0.998),) * 3, (Affine(1.0, 0.0),) * 3)
        monkeypatch.setattr(transient, "_BLOCK", 7)

        def message():
            with pytest.raises(EvaluationError) as info:
                search_multimodal_ic(spec, 1.0, 300, 7)
            assert not multiprocessing.active_children()
            return str(info.value)

        pooled = message()
        _one_core(monkeypatch)
        assert pooled == message()

    def test_a_daemonic_caller_screens_in_process(self, monkeypatch):
        monkeypatch.setattr(transient, "_BLOCK", 7)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def search():
            try:
                report = search_multimodal_ic(OuterProduct(8.0, 3), 1.0, 60, 7)
                writer.send((report.best_state.x, report.best_state.y))
            except Exception as error:  # sent to the test, which fails on it
                writer.send(repr(error))

        child = context.Process(target=search, daemon=True)
        child.start()
        try:
            assert reader.poll(120)
            got = reader.recv()
        finally:
            child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert not isinstance(got, str), got
        _one_core(monkeypatch)
        report = search_multimodal_ic(OuterProduct(8.0, 3), 1.0, 60, 7)
        assert np.array_equal(got[0], report.best_state.x)
        assert np.array_equal(got[1], report.best_state.y)


class TestCurveCsv:
    def test_format_and_round_trip(self):
        cfg = preset("example3")
        traj = integrate(cfg.params(), cfg.require_initial(),
                         IntegratorOptions(t_max=5.0))
        curve = aggregate_curve(traj, cfg.interaction)
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "t,ybar"
        assert len(lines) == len(curve.times) + 1
        t, v = lines[3].split(",")
        assert float(t) == curve.times[2]
        assert float(v) == curve.values[2]
