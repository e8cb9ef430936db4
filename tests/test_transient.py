"""Aggregate infection curves: shape detection, verification, search."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import sys

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
    ReciprocalAffine,
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

from conftest import rk4_path


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
        maxima = turns[5]
        for r in range(len(curves)):
            _, _, extrema = transient._verdict(all_times[r], all_values[r], turns, r)
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

    @pytest.mark.parametrize("times, values", [
        # the slopes overflow to +-inf, so the curvature is not finite
        ([0.0, 1e-300, 2e-300], [0.0, 1e10, 0.0]),
        # the slopes underflow to +-0, so the curvature is -0.0
        ([0.0, 1e300, 2e300], [0.0, 1e-300, 0.0]),
    ])
    def test_a_parabola_lost_to_the_float_range_peaks_at_its_sample(self, times, values):
        # each parabola is symmetric about its middle sample, its vertex
        shape, peak, _ = detect_unimodality(times, values)
        assert shape is Shape.UNIMODAL
        assert peak == times[1]

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
        doc = small.as_dict()
        assert doc["all_unimodal"] is False
        assert doc["counterexamples"] == [{"x": s.x.tolist(), "y": s.y.tolist()}
                                          for s in small.counterexamples]
        assert json.loads(json.dumps(doc)) == doc

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

    def test_a_single_block_screen_starts_no_pool(self):
        # on two usable cores, ten trials are one block: the screen neither
        # counts the cores nor imports what a pool needs
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from nbfsir import preset, verify_unimodality\n"
            "cfg = preset('example3')\n"
            "report = verify_unimodality(cfg.interaction, cfg.gamma, 10, 1)\n"
            "assert report.trials == 10\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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


class TestScreenPartition:
    """_screen cuts its rows into the fewest equal contiguous blocks of at
    most _BLOCK rows, as many as a multiple of the workers on the pool."""

    @pytest.mark.parametrize("cores, fork", [(1, True), (2, True), (3, True),
                                             (4, True), (4, False)])
    def test_equal_blocks_in_a_multiple_of_the_workers(self, monkeypatch, cores, fork):
        monkeypatch.setattr(transient, "_BLOCK", 7)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        workers = cores if fork else 1
        assert transient._workers() == workers
        for rows in range(1, 51):
            spans = transient._spans(rows, workers if rows > 7 else 1)
            # the spans cover the rows in order
            assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == rows
            sizes = [hi - lo for lo, hi in spans]
            assert max(sizes) - min(sizes) <= 1 and 1 <= min(sizes) and max(sizes) <= 7
            fewest = math.ceil(rows / 7)
            on_pool = fewest > 1 and workers > 1
            assert len(spans) == (math.ceil(fewest / workers) * workers if on_pool
                                  else fewest), (rows, spans)

    def test_without_an_affinity_mask_every_core_counts(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert transient._workers() == (3 if hasattr(os, "fork") else 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert transient._workers() == 1

    def test_ten_thousand_rows_on_two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spans = transient._spans(10_000, transient._workers())
        assert len(spans) == 6 and {hi - lo for lo, hi in spans} == {1666, 1667}
        _one_core(monkeypatch)
        workers = transient._workers()
        assert [hi - lo for lo, hi in transient._spans(10_000, workers)] == [2000] * 5
        assert [hi - lo for lo, hi in transient._spans(2049, workers)] == [1024, 1025]


def _closed_form_family(name: str, n: int, rng) -> Rank1Local:
    """A spec whose node functions all have a tail bound, nonnegative on
    [0, 1]; the affine g's reach their vertex inside [0, 1] when q < 0."""
    if name == "outer-product":
        return OuterProduct(float(rng.uniform(2.0, 8.0)), n)
    if name == "affine":
        g = [Affine(p, p * q) for p, q in rng.uniform([0.5, -0.9], [2.0, 1.5], (n, 2))]
        f = [Affine(p, p * q) for p, q in rng.uniform([0.5, -0.9], [2.0, 1.0], (n, 2))]
    else:
        g = [ReciprocalAffine(p, a) for p, a in rng.uniform([0.5, -0.5], [3.0, 2.0], (n, 2))]
        f = [ReciprocalAffine(p, a) for p, a in rng.uniform([0.5, -0.5], [2.0, 3.0], (n, 2))]
    return Rank1Local(tuple(g), tuple(f))


def _ensemble_spec(n: int, seed: int) -> Rank1Local:
    """A spec like the twelve of the benchmark's unimodality ensemble: g_i
    = p + q u with p in [0.5, 2], q in [0, 2], and f_j = p / (1 + alpha u)
    with p in [0.5, 2], alpha in [0, 3]."""
    gp, gq, fp, fa = np.random.default_rng(seed).uniform(
        [0.5, 0.0, 0.5, 0.0], [2.0, 2.0, 2.0, 3.0], (n, 4)).T
    return Rank1Local(tuple(map(Affine, gp, gq)), tuple(map(ReciprocalAffine, fp, fa)))


def _no_certificate(spec: Rank1Local, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A _fall_bound that proves nothing: B = inf at every state."""
    return np.full(len(x), np.inf)


def _mixture_starts(rng, count: int, n: int) -> np.ndarray:
    """count starts [x, y] from the search's mixture sampler."""
    return np.concatenate(transient._sample_mixture(rng, count, n), axis=1)


def _full_curves(params: ModelParams, starts: np.ndarray, settled=None) -> tuple:
    """What _aggregate_curves gives with no row retired, or with each row
    that settled retires ending there and never run again."""
    n = params.n
    runs = integrate_batch(params, starts, IntegratorOptions(),
                           lambda u: aggregate_values(params.interaction, u[:, n:]),
                           settled=settled)
    return transient._padded(runs.times, runs.samples, runs.offsets[:-1],
                             np.diff(runs.offsets), 1e-6)


def _verdicts(batch: tuple) -> tuple:
    times, values, lengths, turns = batch
    codes, maxima = turns[4:]
    return (codes.tolist(), maxima.tolist(), values.max(axis=1).tolist(),
            [transient._verdict(times[r], values[r], turns, r) for r in range(len(lengths))])


class TestTailRetirement:
    """A screened row retires once a proven tail bound settles its verdict,
    which is then the verdict of its full run."""

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("family", ["outer-product", "affine", "reciprocal"])
    def test_a_retired_row_has_the_verdict_of_its_full_run(self, family, n, seed):
        rng = np.random.default_rng(seed)
        params = ModelParams(gamma=1.0, interaction=_closed_form_family(family, n, rng))
        starts = _mixture_starts(rng, 64, n)
        batch = transient._aggregate_curves(params, starts, 1e-6, IntegratorOptions())
        full = _full_curves(params, starts)
        retired = batch[2] < full[2]
        assert retired.sum() >= 16
        assert _verdicts(batch) == _verdicts(full)
        for r in range(64):
            # a retired row's curve is the start of its full run's
            own = slice(0, batch[2][r])
            assert np.array_equal(batch[0][r, own], full[0][r, own])
            assert np.array_equal(batch[1][r, own], full[1][r, own])

    @pytest.mark.parametrize("family", ["outer-product", "affine", "reciprocal"])
    def test_the_closed_forms_are_the_sups(self, family):
        rng = np.random.default_rng(2)
        spec = _closed_form_family(family, 3, rng)
        x = rng.uniform(size=(6, 3))
        s = np.array([1e-9, 1e-4, 0.01, 0.2, 0.7, 0.95])
        abar, f = spec._tail_bound(x, s)
        grid = np.linspace(0.0, 1.0, 20001)[:, None, None]
        # u g_i(u) over [0, x_i] and f_j over [0, s], sampled finely
        u = grid * x
        want_abar = np.maximum(u * spec._gains(u), 0.0).max(axis=0).sum(axis=1)
        v = np.broadcast_to(grid * s[:, None], (len(grid), 6, 3))
        want_f = spec._infectivities(v).max(axis=(0, 2))
        assert (abar >= want_abar * (1 - 1e-12)).all() and np.allclose(abar, want_abar, rtol=1e-8)
        assert (f >= want_f * (1 - 1e-12)).all() and np.allclose(f, want_f, rtol=1e-8)
        if family == "affine":
            # some g_i is concave with its vertex inside some [0, x_i]
            vertex = np.array([-g.p / (2 * g.q) if g.q < 0 else np.inf for g in spec.g])
            assert (vertex < x).any()

    def test_the_rule_retires_exactly_where_the_bound_holds(self, monkeypatch):
        # OuterProduct(1e4, 2)'s node functions as a plain Rank1Local, with
        # its falling certificate switched off (B = inf proves nothing), so
        # the tail bound decides alone: abar = 1e4 sum_i m (1 - m) with
        # m = min(x_i, 1/2), and F = S; every start has ybar = 0.25, so the
        # limit is noise_tol * 0.25 = 2.5e-7
        monkeypatch.setattr(Rank1Local, "_fall_bound", _no_certificate)
        params = ModelParams(gamma=1.0, interaction=Rank1Local(
            (Affine(1e4, -1e4),) * 2, (Affine(0.0, 1.0),) * 2))
        settled, retired = transient._tail_rule(
            params, np.tile([0.5, 0.5, 0.5, 0.0], (5, 1)), 1e-6)
        states = np.array([
            [0.5, 0.5, 1e-4, 0.0],     # abar F = 0.5 and F S = 1e-8: settled
            [0.5, 0.5, 3e-4, 0.0],     # F S = 9e-8, but abar F = 1.5
            [0.01, 0.01, 1e-3, 0.0],   # abar F = 0.198, but F S = 1e-6
            [0.01, 0.01, 3e-4, 3e-4],  # ybar = 1.8e-7 < 2.5e-7 <= F S = 3.6e-7
        ])
        assert settled(np.arange(4), states).tolist() == [True, False, False, False]
        assert retired.tolist() == [True, False, False, False, False]
        # a higher step end raises its row's running maximum, 0.74, and so
        # its limit, 7.4e-7, above F S = 3.6e-7
        assert settled(np.array([4]), np.array([[0.01, 0.01, 0.7, 0.5]])).tolist() == [False]
        assert settled(np.array([3, 4]), states[[3, 3]]).tolist() == [False, True]
        assert retired.tolist() == [True, False, False, False, True]

    def test_the_falling_certificate_is_the_sup(self):
        # B = c sum_j sup over [0, x_j] of u (1 - u) (m_j - u), with
        # m_j = min(x_j + y_j, 1), against the cubics sampled finely
        rng = np.random.default_rng(8)
        spec = OuterProduct(3.0, 3)
        x = rng.uniform(size=(40, 3))
        y = (1.0 - x) * rng.uniform(size=(40, 3)) ** rng.uniform(1.0, 12.0, (40, 1))
        x[:5], y[:5] = 1e-9 * x[:5], 1e-9 * y[:5]  # m_j near 0
        y[5:10] = 1.0 - x[5:10]                     # m_j = 1
        m = np.minimum(x + y, 1.0)
        u = np.linspace(0.0, 1.0, 200001)[:, None, None] * x
        want = 3.0 * (u * (1.0 - u) * (m - u)).max(axis=0).sum(axis=1)
        got = spec._fall_bound(x, y)
        assert (got >= want * (1 - 1e-12)).all()
        assert np.allclose(got, want, rtol=1e-8, atol=0.0)
        # the smaller root of h' sits inside some [0, x_j], as it must for
        # the sup to be interior
        r = m / ((1.0 + m) + np.sqrt(1.0 - m + m * m))
        assert (r < x).any() and (r > x).any()
        assert Rank1Local((Affine(1.0, 1.0),), (ExpressionFunction("u"),))._fall is None

    def test_the_rank_one_certificate_terms_are_the_sups(self):
        # one f_j of each form: alpha > 0, alpha < 0, q > 0, q < 0, p = 0;
        # the g_i's peak inside [0, x_i] or at an end
        spec = Rank1Local(
            (Affine(1.0, 0.5), Affine(2.0, -1.5), ReciprocalAffine(1.0, -0.5),
             ReciprocalAffine(0.7, 1.0), Affine(0.5, 0.0)),
            (ReciprocalAffine(1.5, 2.0), ReciprocalAffine(0.8, -0.6), Affine(1.0, 0.7),
             Affine(1.2, -0.5), Affine(0.0, 1.3)))
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(40, 5))
        y = (1.0 - x) * rng.uniform(size=(40, 5)) ** rng.uniform(1.0, 12.0, (40, 1))
        x[:5], y[:5] = 1e-9 * x[:5], 1e-9 * y[:5]  # m_j near 0
        y[5:10] = 1.0 - x[5:10]                     # m_j = 1
        m = np.minimum(x + y, 1.0)
        slope, kappa = spec._fall_terms(m)
        # phi_j(u) = u f_j(u) finely sampled over (0, m_j], its derivative
        # by central differences, and phi_j'(0) = f_j(0)
        t = np.concatenate([np.logspace(-9.0, -4.0, 500), np.linspace(0.0, 1.0, 20001)[1:]])
        u = t[:, None, None] * m

        def phi(v):
            return v * spec._infectivities(v)

        dphi = (phi(u * (1.0 + 1e-6)) - phi(u * (1.0 - 1e-6))) / (2e-6 * u)
        want_slope = np.maximum(dphi.max(axis=0), spec._infectivities(np.zeros(5)))
        want_kappa = (dphi * u / phi(u)).min(axis=0)
        assert (slope >= want_slope * (1 - 1e-9)).all()
        assert np.allclose(slope, want_slope, rtol=1e-6, atol=0.0)
        assert (kappa <= want_kappa * (1 + 1e-9)).all()
        assert np.allclose(kappa, want_kappa, rtol=1e-6, atol=0.0)
        # abar_j, the sup of u g_i(u) over [0, x_i], finely sampled
        v = np.linspace(0.0, 1.0, 20001)[:, None, None] * x
        want_abar = (v * spec._gains(v)).max(axis=0)
        abar = spec._gain_sups(x)
        assert (abar >= want_abar * (1 - 1e-12)).all()
        assert np.allclose(abar, want_abar, rtol=1e-8, atol=0.0)
        assert np.allclose(spec._fall_bound(x, y),
                           (want_slope * want_abar).sum(axis=1) / want_kappa.min(axis=1),
                           rtol=1e-6, atol=0.0)
        # each sup or inf is at an end of [0, m_j] somewhere, and inside
        # it elsewhere: alpha < 0 and q > 0 raise the slope from p, alpha
        # > 0 and q < 0 lower kappa below 1, p = 0 keeps it at 2
        assert (slope[:, [1, 2]] > [0.8, 1.0]).all() and (kappa[:, [1, 2, 4]] >= [1, 1, 2]).all()
        assert (kappa[10:, [0, 3]] < 1.0).all() and (kappa[:, 4] == 2.0).all()
        vertex = 2.0 / 3.0  # of u g_2(u) = u (2 - 1.5 u)
        assert (x[:, 1] > vertex).any() and (x[:, 1] < vertex).any()

    def test_the_rank_one_certificate_fails_where_phi_falls(self):
        # phi(u) = u (1 - 0.8 u) falls from u = 0.625 on, so B is inf where
        # m_1 is above it, and finite below
        spec = Rank1Local((Affine(1.0, 0.5),) * 2, (Affine(1.0, -0.8), Affine(1.0, 0.0)))
        x = np.array([[0.3, 0.5], [0.5, 0.5], [0.6, 0.5], [0.2, 0.9]])
        y = np.array([[0.2, 0.1], [0.2, 0.1], [0.02, 0.1], [0.5, 0.05]])
        bound = spec._fall_bound(x, y)
        assert np.isfinite(bound).tolist() == [True, False, True, False]
        assert (spec._fall_terms(np.minimum(x + y, 1.0))[1][:, 0] > 0).tolist() == [
            True, False, True, False]
        # phi falling at its m_j = 0.625 exactly: kappa = 0, so B is inf
        assert spec._fall_bound(np.array([[0.5, 0.5]]), np.array([[0.125, 0.1]])) == np.inf
        # a negative f falls from 0 on
        assert (Rank1Local((Affine(1.0, 0.5),), (ReciprocalAffine(-1.0, 0.5),))
                ._fall_bound(x[:, :1], y[:, :1]) == np.inf).all()

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 3), ratio=st.floats(0.05, 0.98),
           seed=st.integers(0, 2**31 - 1))
    def test_ybar_never_rises_where_the_rank_one_certificate_holds(self, n, ratio, seed):
        # closed-form g_i >= 0 and f_j >= 0 with phi_j' >= 0 on [0, 1], so B
        # is finite everywhere; gamma = B / ratio > B, and a fine RK4 run
        # from the state never raises ybar over three recovery times
        rng = np.random.default_rng(seed)
        def node(gain: bool):
            # p in [0.2, 2], q in [-p, 1.5 p] for a g and [-0.45 p, 2 p] for
            # an f, alpha in (-1, 3]; one f in five is q u with q in (0, 2]
            p, q, alpha, form = rng.uniform(size=4)
            p = 0.2 + 1.8 * p
            if form < 0.5:
                return ReciprocalAffine(p, 3.9 * alpha - 0.9)
            if gain:
                return Affine(p, (2.5 * q - 1.0) * p)
            return Affine(0.0, 2.0 - 2.0 * q) if form > 0.9 else Affine(p, (2.45 * q - 0.45) * p)

        spec = Rank1Local(tuple(node(True) for _ in range(n)),
                          tuple(node(False) for _ in range(n)))
        x = rng.uniform(size=n) ** rng.uniform(0.2, 5.0)
        y = (1.0 - x) * rng.uniform(1e-3, 1.0, size=n)
        bound = float(spec._fall_bound(x[None], y[None])[0])
        assert 0.0 < bound < np.inf
        gamma = bound / ratio
        # the flow's rates are below 2 n P G + gamma, with P the sup of
        # |phi_j'| and G that of |u g_i| plus that of |(u g_i)'| over [0, 1]
        # (ybar <= n P); RK4 steps of at most 0.5 / rate keep the run stable
        u = np.linspace(0.0, 1.0, 2001)
        grid = np.broadcast_to(u[:, None], (2001, n))
        gain = grid * spec._gains(grid)
        top_gain = np.abs(gain).max() + np.abs(np.gradient(gain, u, axis=0)).max()
        top_slope = np.abs(np.gradient(grid * spec._infectivities(grid), u, axis=0)).max()
        rate = 2.0 * n * top_slope * top_gain + gamma
        t_end = min(3.0 / gamma, 10_000.0 / rate)
        _, _, ys = rk4_path(ModelParams(gamma=gamma, interaction=spec), x, y,
                            t_end, max(1000, math.ceil(2.0 * rate * t_end)))
        ybar = aggregate_values(spec, ys)
        assert (np.diff(ybar) <= 1e-13 * ybar[:-1]).all()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3), scale=st.floats(0.5, 20.0),
           ratio=st.floats(0.05, 0.98), seed=st.integers(0, 2**31 - 1))
    def test_ybar_never_rises_where_the_certificate_holds(self, n, scale, ratio, seed):
        # gamma = B / ratio > B: a fine RK4 run from the state never raises
        # ybar = sum_j y_j^2 over three recovery times
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=n) ** rng.uniform(0.2, 5.0)
        y = (1.0 - x) * rng.uniform(1e-3, 1.0, size=n)
        spec = OuterProduct(scale, n)
        gamma = float(spec._fall_bound(x, y)) / ratio
        # every rate of this flow is below 2 c n + gamma, and the RK4 steps
        # are at most 0.5 / rate long, so the fixed-step run stays stable;
        # 20 000 such steps cut the horizon short only where x is nearly 0,
        # which makes B, and gamma, tiny against the flow's rates
        rate = 2.0 * scale * n + gamma
        t_end = min(3.0 / gamma, 10_000.0 / rate)
        _, _, ys = rk4_path(ModelParams(gamma=gamma, interaction=spec), x, y,
                            t_end, max(1000, math.ceil(2.0 * rate * t_end)))
        ybar = (ys * ys).sum(axis=1)
        assert (np.diff(ybar) <= 1e-13 * ybar[:-1]).all()

    def test_the_certificate_retires_a_row_after_its_start_or_a_closed_maximum(self):
        # OuterProduct(1, 1) at gamma 1: B <= 4/27 < gamma at every state,
        # so only the running maximum decides; noise_tol 0.1 and ybar = y^2
        params = ModelParams(gamma=1.0, interaction=OuterProduct(1.0, 1))
        starts = np.array([[0.5, 0.5], [0.5, 0.1], [0.5, 0.1], [0.5, 0.1]])
        settled, retired = transient._tail_rule(params, starts, 0.1)

        def step(*ys):
            ids = np.arange(len(ys))[[y is not None for y in ys]]
            u = np.array([[0.5, ys[r]] for r in ids])
            return dict(zip(ids.tolist(), settled(ids, u).tolist()))

        # row 0 falls from its start, its maximum, and retires at once; rows
        # 1-3 rise to a new maximum, 0.04, and wait
        assert step(0.49, 0.2, 0.2, 0.2) == {0: True, 1: False, 2: False, 3: False}
        # row 1 falls below 0.04 by more than 0.1 of it, row 2 by less, and
        # row 3 rises again: one step end after each maximum
        assert step(None, 0.18, 0.199, 0.21) == {1: False, 2: False, 3: False}
        # two step ends after row 1's closed maximum; row 2's is not closed
        assert step(None, 0.17, 0.198, 0.2) == {1: True, 2: False, 3: False}
        assert step(None, None, 0.15, 0.15) == {2: True, 3: True}
        assert retired.all()
        # at noise_tol 0 neither the certificate nor the tail bound is used
        settled, retired = transient._tail_rule(params, starts, 0.0)
        assert settled is None and not retired.any()

    def test_the_certificate_waits_two_step_ends_after_a_closed_crest(self):
        # OuterProduct(20, 1) at gamma 1, noise_tol 0.1, ybar = y^2: B is
        # about 1.9 at x = 0.3 and about 0.01 at x = 1e-3.  Both rows start
        # at ybar 0.25, their maximum M, so the margin is 0.025
        params = ModelParams(gamma=1.0, interaction=OuterProduct(20.0, 1))
        settled, retired = transient._tail_rule(params, np.array([[0.3, 0.5]] * 2), 0.1)

        def step(x, *ys):
            u = np.array([[x, y] for y in ys])
            return settled(np.arange(len(ys)), u).tolist()

        # both fall to 0.2025 where B > gamma
        assert step(0.3, 0.45, 0.45) == [False, False]
        # row 0 rises above its trough by more than the margin, to 0.2304,
        # below its start: a new crest, so it keeps stepping although
        # B < gamma; row 1 rises by less, to 0.207, and retires
        assert step(1e-3, 0.48, 0.455) == [False, True]
        # row 0 falls from its crest by more than the margin: closed, one
        # step end after it, then two
        assert step(1e-3, 0.45) == [False]
        assert step(1e-3, 0.44) == [True]
        assert retired.all()

    def test_a_row_rising_at_its_last_step_end_is_not_run_again(self):
        # rows 0 and 10 of these rose inside the step that the certificate
        # closed when only the running maximum was followed
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 3))
        starts = _mixture_starts(np.random.default_rng(3), 48, 3)
        settled, retired = transient._tail_rule(params, starts, 1e-6)
        batch = _full_curves(params, starts, settled)
        assert retired.all()
        assert transient._unsure(batch, retired).tolist() == []
        assert _verdicts(batch) == _verdicts(_full_curves(params, starts))

    @pytest.mark.parametrize("spec", [OuterProduct(8.0, 5), preset("example5").interaction,
                                      _ensemble_spec(5, 7)],
                             ids=["strong", "example5", "ensemble"])
    def test_a_certified_screen_has_the_verdicts_of_its_full_runs(self, spec, monkeypatch):
        params = ModelParams(gamma=1.0, interaction=spec)
        starts = _mixture_starts(np.random.default_rng(6), 300, 5)
        batch = transient._aggregate_curves(params, starts, 1e-6, IntegratorOptions())
        full = _full_curves(params, starts)
        # the tail bound alone: the spec without its falling certificate
        with monkeypatch.context() as patched:
            patched.setattr(type(spec), "_fall_bound", _no_certificate)
            tail = _full_curves(params, starts, transient._tail_rule(params, starts, 1e-6)[0])
        assert _verdicts(batch) == _verdicts(full)
        # every curve ends no later than under the tail bound alone, and
        # most end sooner
        assert (batch[2] <= tail[2]).all()
        assert (batch[2] < tail[2]).mean() > 0.5
        for r in range(300):
            own = slice(0, batch[2][r])
            assert np.array_equal(batch[1][r, own], full[1][r, own])

    def test_a_screen_at_noise_tol_0_is_one_full_run(self, monkeypatch):
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 5))
        starts = _mixture_starts(np.random.default_rng(6), 40, 5)
        calls = []

        def batch_spy(*args, settled=None, **kwargs):
            calls.append(settled)
            return integrate_batch(*args, settled=settled, **kwargs)

        monkeypatch.setattr(transient, "integrate_batch", batch_spy)
        zero = transient._aggregate_curves(params, starts, 0.0, IntegratorOptions())
        assert calls == [None]
        full = _full_curves(params, starts)
        assert np.array_equal(zero[2], full[2])
        assert np.array_equal(zero[1], full[1])

    def test_an_expression_spec_is_never_retired(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(5, 2))
        for spec in (_rank1("1 + u", "1 / (1 + 1.5*u)"),
                     Rank1Local((Affine(1.0, 1.0), ExpressionFunction("1 + u")),
                                (Affine(1.0, 0.0),) * 2),
                     Rank1Local((_RefusesAbove(2.0),) * 2, (Affine(1.0, 0.0),) * 2)):
            assert spec._fall is None
            params = ModelParams(gamma=1.0, interaction=spec)
            starts = _mixture_starts(rng, 32, 2)
            settled, retired = transient._tail_rule(params, starts, 1e-6)
            assert settled is None and not retired.any()
            batch = transient._aggregate_curves(params, starts, 1e-6, IntegratorOptions())
            full = _full_curves(params, starts)
            assert np.array_equal(batch[2], full[2])
            assert np.array_equal(batch[1], full[1])

    def test_unsure_rows_were_rising_or_have_a_short_peak(self):
        # noise_tol 0.1, so the margin is 0.1 of each row's maximum
        rows = [
            [1.0, 0.5, 0.0, 0.15, 0.16],  # rising again when it retired
            [1.0, 0.5, 0.0, 0.8, 0.3],    # falling from its second maximum
            [0.2, 0.5, 1.0, 0.05],        # a single peak with one sample after it
            [0.2, 0.5, 1.0, 0.6, 0.05],   # a single peak with two samples after it
            [0.2, 0.5, 1.0, 0.05],        # the third row, not retired
        ]
        lengths = np.array([len(r) for r in rows])
        first = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        times = np.concatenate([np.arange(len(r), dtype=float) for r in rows])
        batch = transient._padded(times, np.concatenate(rows), first, lengths, 0.1)
        assert np.array_equal(batch[1][2], rows[2] + [0.05])
        retired = np.array([True, True, True, True, False])
        assert transient._unsure(batch, retired).tolist() == [0, 2]

    def test_unsure_rows_are_run_again_in_full(self, monkeypatch):
        params = ModelParams(gamma=1.0, interaction=OuterProduct(8.0, 3))
        starts = _mixture_starts(np.random.default_rng(3), 48, 3)
        runs, named = [], []

        def batch_spy(params, batch_starts, *args, **kwargs):
            runs.append([int(np.flatnonzero((starts == u).all(axis=1))[0])
                         for u in batch_starts])
            return integrate_batch(params, batch_starts, *args, **kwargs)

        # every third retired row is declared unsure, besides the rows that
        # _unsure names
        unsure = transient._unsure

        def forced(batch, retired):
            named.append(np.union1d(unsure(batch, retired), np.flatnonzero(retired)[::3]))
            return named[-1]

        monkeypatch.setattr(transient, "integrate_batch", batch_spy)
        monkeypatch.setattr(transient, "_unsure", forced)
        batch = transient._aggregate_curves(params, starts, 1e-6, IntegratorOptions())
        full = _full_curves(params, starts)
        # one screen of every row, then one full run of the named rows
        first, second = runs
        assert first == list(range(48))
        assert second == named[0].tolist() and 0 < len(second) < 48
        assert _verdicts(batch) == _verdicts(full)
        # each row run again is its full run, sample for sample, and every
        # curve is the start of its full run's
        for r in range(48):
            own = slice(0, batch[2][r])
            if r in second:
                assert batch[2][r] == full[2][r]
            assert np.array_equal(batch[0][r, own], full[0][r, own])
            assert np.array_equal(batch[1][r, own], full[1][r, own])

    def test_a_retiring_search_is_the_same_on_one_and_two_cores(self, monkeypatch):
        def run(cores):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
            search = search_multimodal_ic(OuterProduct(8.0, 5), 1.0, 4500, 1)
            rng = np.random.default_rng(2)
            spec = _closed_form_family("reciprocal", 3, rng)
            screen = transient._screen(ModelParams(gamma=1.0, interaction=spec),
                                       _mixture_starts(rng, 4500, 3), 1e-6,
                                       IntegratorOptions(), 8)
            assert not multiprocessing.active_children()
            return search, screen

        # 4500 rows are three blocks: on two cores, two workers screen them
        (search_1, (codes_1, top_1)), (search_2, (codes_2, top_2)) = run(1), run(2)
        assert search_1.as_dict() == search_2.as_dict()
        assert np.array_equal(search_1.curve.times, search_2.curve.times)
        assert np.array_equal(search_1.curve.values, search_2.curve.values)
        assert search_1.n_maxima >= 2
        assert np.array_equal(codes_1, codes_2)
        assert list(top_1) == list(top_2)
        assert all(np.array_equal(top_1[r].values, top_2[r].values) for r in top_1)


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
