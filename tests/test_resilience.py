from __future__ import annotations

import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopres.report import report_json_dict, write_json
from coopres.resilience import (
    EPS,
    TRIGGER_THRESHOLD,
    CurvePair,
    Milestones,
    assemble_variables,
    detect_triggers,
    fold_events,
    partition_windows,
    resilience_pipeline,
    summary_metric,
)
from coopres.timeseries import TimeSeries


def pair_from(p, r, t0=0):
    return CurvePair(performance=TimeSeries(p, t0=t0), reference=TimeSeries(r, t0=t0))


def flat_pair(horizon, p_level=1.0, r_level=1.0, t0=0):
    return pair_from([p_level] * horizon, [r_level] * horizon, t0)


def milestones_of(pair, schedule, event=0):
    """``(t_i, t_f, t_r, window_start)`` the pipeline finds for one event of ``pair``."""
    m = resilience_pipeline({"v": pair}, schedule).per_variable["v"].events[event].milestones
    return (m.t_i, m.t_f, m.t_r, m.window_start)


# Exact rational mirror of the metric, written from README's stage
# definitions, used as the independent oracle for the float pipeline.

GUARD = Fraction(EPS)


def frac_trapezoid(values, a, b):
    return sum((values[t] + values[t + 1]) / 2 for t in range(a, b)) if a < b else Fraction(0)


def frac_ratio(num, den):
    """A reference below the guard gives 1 if the performance is below it too, else 2."""
    if den >= GUARD:
        return num / den
    return Fraction(1) if num < GUARD else Fraction(2)


def frac_clamp(x):
    return min(max(x, Fraction(0)), Fraction(1))


def oracle_event_score(p_vals, r_vals, window_start, t_i, t_f, t_r):
    f = frac_ratio(frac_trapezoid(p_vals, t_i, t_f), frac_trapezoid(r_vals, t_i, t_f))
    g = frac_ratio(frac_trapezoid(p_vals, t_f, t_r), frac_trapezoid(r_vals, t_f, t_r))
    pre = Fraction(t_i - window_start)
    dt_f = Fraction(t_f - t_i)
    dt_r = Fraction(t_r - t_f)
    return (pre + f * dt_f + g * dt_r) / (pre + dt_f + dt_r)


def oracle_pipeline(performance, reference, triggers):
    """The four stages in exact rationals, over curves whose first tick is 0.

    ``performance`` and ``reference`` map each variable to its values.
    Returns ``J`` and, per variable, the folded score and each event's
    ``((t_i, t_f, t_r, window_start), score)``.
    """
    horizon = len(next(iter(performance.values())))
    # One window per event, from the previous window's end (0 for the first)
    # to the next event's trigger (the horizon for the last).
    starts, ends = [0] + triggers[1:], triggers[1:] + [horizon]
    per_variable = {}
    for name, p in performance.items():
        r = reference[name]
        events = []
        for t_i, start, end in zip(triggers, starts, ends):
            ratios = [frac_ratio(p[t], r[t]) for t in range(t_i, end)]
            t_f, t_r = t_i + ratios.index(min(ratios)), end - 1  # the first exact minimum
            events.append(((t_i, t_f, t_r, start),
                           oracle_event_score(p, r, start, t_i, t_f, t_r)))
        # Every score is clamped into [0, 1] before it enters the fold.
        acc, *rest = (frac_clamp(j) for _, j in events)
        for j in rest:
            acc = frac_clamp((acc + j) / 2 * (1 + (j - acc)))
        per_variable[name] = (acc, events)
    folded = [f for f, _ in per_variable.values()]
    j = 0 if 0 in folded else len(folded) / sum(1 / f for f in folded)
    return Fraction(j), per_variable


def assert_pipeline_matches_oracle(performance, reference, triggers):
    """``resilience_pipeline`` on the float curves agrees with ``oracle_pipeline``, returned.

    The curves hold multiples of 1/8 up to 2, so each per-tick ratio is a/b
    with b <= 16: equal exact ratios divide to equal floats and distinct
    ones to distinct floats, and the milestones must match exactly.
    """
    pairs = {name: pair_from([float(v) for v in p], [float(v) for v in reference[name]])
             for name, p in performance.items()}
    report = resilience_pipeline(pairs, triggers)
    exact_j, exact = oracle_pipeline(performance, reference, triggers)
    for name, (folded, events) in exact.items():
        vr = report.per_variable[name]
        for ev, (milestones, j) in zip(vr.events, events, strict=True):
            m = ev.milestones
            assert (m.t_i, m.t_f, m.t_r, m.window_start) == milestones
            assert math.isclose(ev.j_value, j, rel_tol=1e-12), (name, milestones)
        assert math.isclose(vr.folded, folded, rel_tol=1e-12), name
    assert math.isclose(report.assembled, exact_j, rel_tol=1e-12)
    return exact_j, exact


EIGHTHS = st.integers(0, 16).map(lambda k: Fraction(k, 8))


@st.composite
def oracle_inputs(draw):
    """Curves on multiples of 1/8 in [0, 2], zero-heavy, with 1-4 variables and 1-4 triggers."""
    horizon = draw(st.integers(4, 60))

    def curve():
        # Runs of one level; zero runs make both ratio guard branches fire.
        runs = draw(st.lists(st.tuples(st.just(Fraction(0)) | EIGHTHS, st.integers(1, horizon)),
                             min_size=1, max_size=6))
        values = [v for v, n in runs for _ in range(n)]
        return [values[t % len(values)] for t in range(horizon)]

    names = [f"v{k}" for k in range(draw(st.integers(1, 4)))]
    curves = {name: (curve(), curve()) for name in names}
    triggers = []
    for t in sorted(draw(st.sets(st.integers(0, horizon - 2), min_size=1, max_size=4))):
        if not triggers or t - triggers[-1] >= 2:  # windows of at least 2 ticks
            triggers.append(t)
    return ({name: p for name, (p, _) in curves.items()},
            {name: r for name, (_, r) in curves.items()}, triggers)


class TestPartitionWindows:
    def test_single_event_spans_everything(self):
        assert partition_windows([250], 1500) == [(0, 1500)]

    def test_three_events(self):
        assert partition_windows([50, 250, 400], 1500) == [
            (0, 250), (250, 400), (400, 1500)]

    def test_empty_schedule(self):
        assert partition_windows([], 1500) == []

    def test_duplicate_triggers_rejected(self):
        with pytest.raises(ValueError, match="share trigger"):
            partition_windows([50, 50], 1500)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            partition_windows([250, 50], 1500)

    def test_trigger_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            partition_windows([1500], 1500)

    def test_windows_lie_on_the_curves_ticks(self):
        assert partition_windows([22], 20, t0=5) == [(5, 25)]
        assert partition_windows([8, 22], 20, t0=5) == [(5, 22), (22, 25)]

    @pytest.mark.parametrize("trigger", [4, 25])
    def test_trigger_outside_the_curves_ticks_rejected(self, trigger):
        with pytest.raises(ValueError, match=r"\[5, 25\)"):
            partition_windows([trigger], 20, t0=5)


class TestDetectMilestones:
    """The failure tick and recovery reference the pipeline picks in each window."""

    def test_identical_curves_fail_at_incident(self):
        assert milestones_of(flat_pair(100), [10]) == (10, 10, 99, 0)

    def test_unique_dip(self):
        p = [1.0] * 200
        p[120] = 0.2
        assert milestones_of(pair_from(p, [1.0] * 200), [100])[1] == 120

    def test_recovery_reference_is_window_end(self):
        assert milestones_of(flat_pair(150, t0=250), [250]) == (250, 250, 399, 250)
        assert milestones_of(flat_pair(500), [100, 250, 400], event=1) == (250, 250, 399, 250)

    def test_declining_reference_not_mistaken_for_failure(self):
        # performance falls, but the reference falls just as fast: ratio flat
        p = [1.0 - 0.01 * t for t in range(50)]
        assert milestones_of(pair_from(p, p), [5])[1] == 5

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            milestones_of(flat_pair(1, t0=3), [3])

    def test_trigger_outside_window_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 50\)"):
            milestones_of(flat_pair(50), [50])


class TestProfiles:
    def test_identity_failure_profile(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60), m).f_profile == 1.0

    def test_total_failure(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60, p_level=0.0), m).f_profile == 0.0

    def test_linear_collapse_is_half(self):
        p = [1.0] * 10 + [1.0 - 0.1 * k for k in range(11)] + [0.0] * 39
        m = Milestones(t_i=10, t_f=20, t_r=59, window_start=0)
        assert summary_metric(pair_from(p, [1.0] * 60), m).f_profile == pytest.approx(0.5)

    def test_zero_length_failure_interval(self):
        m = Milestones(t_i=10, t_f=10, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60, p_level=0.3), m).f_profile == 1.0

    def test_identity_recovery_profile(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60), m).g_profile == 1.0

    def test_proportional_recovery(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60, p_level=0.5), m).g_profile == pytest.approx(0.5)

    def test_exceeding_expectations(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60, p_level=1.2), m).g_profile == pytest.approx(1.2)

    def test_zero_length_recovery_interval(self):
        m = Milestones(t_i=10, t_f=50, t_r=50, window_start=0)
        assert summary_metric(flat_pair(60, p_level=0.3), m).g_profile == 1.0

    @pytest.mark.parametrize("p_level, profile", [(0.5, 2.0), (0.0, 1.0)])
    def test_vanished_reference(self, p_level, profile):
        # A report's F or G of exactly 2.0 marks a reference that vanished.
        ev = summary_metric(flat_pair(60, p_level=p_level, r_level=0.0),
                            Milestones(t_i=10, t_f=20, t_r=50, window_start=0))
        assert (ev.f_profile, ev.g_profile) == (profile, profile)


class TestSummaryMetric:
    def test_identity_curves_score_one(self):
        m = Milestones(t_i=30, t_f=45, t_r=90, window_start=10)
        ev = summary_metric(flat_pair(100), m)
        assert ev.j_value == pytest.approx(1.0)
        assert ev.f_profile == 1.0 and ev.g_profile == 1.0

    def test_total_collapse_leaves_pre_incident_weight(self):
        # t_i' = 10, dt_f = 5, dt_r = 10, F = G = 0 -> 10/25
        m = Milestones(t_i=10, t_f=15, t_r=25, window_start=0)
        p = [1.0] * 10 + [0.0] * 20
        ev = summary_metric(pair_from(p, [1.0] * 30), m)
        assert ev.j_value == pytest.approx(0.4)

    def test_weighted_profile_combination(self):
        # t_i' = 0, dt_f = 4 with F = 0.5, dt_r = 6 with G = 0.8 -> 0.68
        p = [1.0, 0.75, 0.5, 0.25, 0.0, 1.2, 0.8, 0.8, 0.8, 0.8, 0.8]
        m = Milestones(t_i=0, t_f=4, t_r=10, window_start=0)
        ev = summary_metric(pair_from(p, [1.0] * 11), m)
        assert ev.f_profile == pytest.approx(0.5)
        assert ev.g_profile == pytest.approx(0.8)
        assert ev.j_value == pytest.approx(0.68)

    def test_degenerate_window_rejected(self):
        m = Milestones(t_i=5, t_f=5, t_r=5, window_start=5)
        with pytest.raises(ValueError, match="degenerate"):
            summary_metric(flat_pair(10), m)

    # Zero-length spans have no area to compute, so nothing else reads the
    # ticks: the range check must come first.
    @pytest.mark.parametrize("t0, m", [
        (0, Milestones(t_i=200, t_f=200, t_r=200, window_start=0)),
        (0, Milestones(t_i=50, t_f=60, t_r=100, window_start=0)),
        (10, Milestones(t_i=3, t_f=3, t_r=3, window_start=0)),
    ], ids=["past_the_last_tick", "recovery_one_past_the_end", "incident_before_t0"])
    def test_milestones_outside_the_curves_refused(self, t0, m):
        with pytest.raises(ValueError, match="outside the curves' ticks"):
            summary_metric(flat_pair(100, t0=t0), m)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_identity_for_any_milestones(self, data):
        horizon = data.draw(st.integers(min_value=4, max_value=60))
        ws = data.draw(st.integers(min_value=0, max_value=horizon - 4))
        t_i = data.draw(st.integers(min_value=ws, max_value=horizon - 3))
        t_f = data.draw(st.integers(min_value=t_i, max_value=horizon - 2))
        t_r = data.draw(st.integers(min_value=t_f, max_value=horizon - 1))
        vals = data.draw(st.lists(st.floats(min_value=0.1, max_value=100),
                                  min_size=horizon, max_size=horizon))
        if t_i - ws + t_r - t_i == 0:
            return
        pair = pair_from(vals, vals)
        ev = summary_metric(pair, Milestones(t_i=t_i, t_f=t_f, t_r=t_r, window_start=ws))
        assert abs(ev.j_value - 1.0) <= 1e-9

    def test_monotone_in_profiles(self):
        m = Milestones(t_i=10, t_f=20, t_r=40, window_start=0)
        scores = [summary_metric(flat_pair(50, p_level=lvl), m).j_value
                  for lvl in (0.2, 0.5, 0.8, 1.0)]
        assert scores == sorted(scores)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_dominance(self, data):
        horizon = 30
        base = data.draw(st.lists(st.floats(min_value=0, max_value=10),
                                  min_size=horizon, max_size=horizon))
        bumps = data.draw(st.lists(st.floats(min_value=0, max_value=5),
                                   min_size=horizon, max_size=horizon))
        higher = [b + d for b, d in zip(base, bumps)]
        ref = [5.0] * horizon
        m = Milestones(t_i=5, t_f=12, t_r=25, window_start=0)
        j_low = summary_metric(pair_from(base, ref), m).j_value
        j_high = summary_metric(pair_from(higher, ref), m).j_value
        assert j_low <= j_high + 1e-12


class TestFoldEvents:
    def test_constant_pair_keeps_value(self):
        assert fold_events([0.8, 0.8]) == pytest.approx(0.8)

    def test_degradation_penalized(self):
        assert fold_events([0.9, 0.5]) == 0.42

    def test_improvement_rewarded(self):
        assert fold_events([0.5, 0.9]) == ((0.5 + 0.9) / 2) * (1 + (0.9 - 0.5))
        assert fold_events([0.5, 0.9]) == pytest.approx(0.98, abs=1e-12)

    def test_three_event_fold(self):
        assert fold_events([0.2, 0.9, 0.9]) == pytest.approx(0.8853875, abs=1e-12)

    def test_single_value_clamped(self):
        assert fold_events([0.7]) == 0.7
        assert fold_events([1.4]) == 1.0

    def test_saturation_at_one(self):
        assert fold_events([0.5, 1.5]) == 1.0

    def test_saturation_at_zero(self):
        assert fold_events([1.0, 0.0]) == 0.0  # 0.5 * (1 - 1) = 0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            fold_events([])
        with pytest.raises(ValueError):
            fold_events([0.5, -0.1])

    def test_every_score_is_clamped_before_the_fold(self):
        # Unclamped, a first score of 1.4 folded with 1.0 read 0.72.
        assert fold_events([1.4, 1.0]) == 1.0
        assert fold_events([1.0, 1.0]) == 1.0

    def test_not_monotone_in_an_earlier_score(self):
        assert fold_events([0.9, 0.9]) == pytest.approx(0.9, abs=1e-12)
        assert fold_events([0.95, 0.9]) == pytest.approx(0.87875, abs=1e-12)

    @given(st.lists(st.floats(min_value=0, allow_infinity=False), min_size=1, max_size=12))
    @settings(max_examples=500)
    def test_output_in_unit_interval(self, values):
        assert 0.0 <= fold_events(values) <= 1.0

    @given(st.floats(min_value=0, max_value=3), st.integers(min_value=1, max_value=8))
    def test_constant_list_folds_to_clamp(self, value, n):
        assert fold_events([value] * n) == min(value, 1.0)


class TestAssembleVariables:
    def test_all_perfect(self):
        assert assemble_variables({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}) == 1.0

    def test_zero_dominates(self):
        assert assemble_variables({"a": 0.0, "b": 0.9}) == 0.0

    def test_harmonic_mean_value(self):
        # 2 / (1/0.2 + 1/0.8) = 0.32
        assert assemble_variables({"a": 0.2, "b": 0.8}) == pytest.approx(0.32)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            assemble_variables({})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            assemble_variables({"a": 1.2})

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.floats(min_value=0, max_value=1),
                           min_size=1, max_size=8))
    @settings(max_examples=500)
    def test_harmonic_below_arithmetic(self, folded):
        h = assemble_variables(folded)
        assert h <= sum(folded.values()) / len(folded) + 1e-12


class TestDetectTriggers:
    def test_finds_ratio_drop(self):
        p = [1.0] * 30 + [0.5] * 30
        r = [1.0] * 60
        assert detect_triggers(pair_from(p, r)) == [30]

    def test_quiet_curves_have_no_triggers(self):
        assert detect_triggers(flat_pair(50)) == []

    def test_initial_depression_is_a_trigger(self):
        p = [0.5] * 10 + [1.0] * 10
        assert detect_triggers(pair_from(p, [1.0] * 20)) == [0]

    def test_ticks_count_from_t0(self):
        p = [0.5] * 5 + [1.0] * 5 + [0.5] * 10
        pair = CurvePair(performance=TimeSeries(p, t0=7), reference=TimeSeries([1.0] * 20, t0=7))
        assert detect_triggers(pair) == [7, 17]

    def test_benchmark_plants_dips_against_the_same_threshold(self):
        # bench/inputs.py keeps its own copy of the threshold to compute the
        # triggers it expects; the two must not drift apart.
        path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("bench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        assert inputs.DETECT_THRESHOLD == TRIGGER_THRESHOLD


class TestPipeline:
    def test_identity_end_to_end(self):
        values = [2.0 + (t % 7) * 0.25 for t in range(1500)]
        pairs = {name: pair_from(values, values)
                 for name in ("apples_pc", "trees_pc", "gini_equality", "hunger_index")}
        for schedule in ([250], [50, 250], [50, 250, 400]):
            report = resilience_pipeline(pairs, schedule)
            assert abs(report.assembled - 1.0) <= 1e-9
            for vr in report.per_variable.values():
                for ev in vr.events:
                    assert abs(ev.j_value - 1.0) <= 1e-9

    @given(data=st.data(), shift=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200)
    def test_shifting_t0_and_triggers_leaves_j_unchanged(self, data, shift):
        horizon = data.draw(st.integers(min_value=4, max_value=80))
        level = st.integers(min_value=0, max_value=1000).map(lambda k: k / 100)
        curve = st.lists(level, min_size=horizon, max_size=horizon)
        curves = {name: (data.draw(curve), data.draw(curve)) for name in ("a", "b")}
        triggers = []
        for t in sorted(data.draw(st.sets(st.integers(1, horizon - 2), min_size=1,
                                          max_size=4))):
            if not triggers or t - triggers[-1] >= 2:  # windows of at least 2 ticks
                triggers.append(t)

        def score(t0):
            pairs = {n: CurvePair(performance=TimeSeries(p, t0=t0),
                                  reference=TimeSeries(r, t0=t0))
                     for n, (p, r) in curves.items()}
            return resilience_pipeline(pairs, [t + t0 for t in triggers])

        base, shifted = score(0), score(shift)
        assert shifted.assembled == base.assembled
        for name, vr in base.per_variable.items():
            for ev, moved in zip(vr.events, shifted.per_variable[name].events):
                assert moved.j_value == ev.j_value
                m, mm = ev.milestones, moved.milestones
                assert (mm.window_start, mm.t_i, mm.t_f, mm.t_r) == (
                    m.window_start + shift, m.t_i + shift, m.t_f + shift, m.t_r + shift)

    def test_mismatched_t0_rejected(self):
        a = CurvePair(performance=TimeSeries([1.0] * 20, t0=5),
                      reference=TimeSeries([1.0] * 20, t0=5))
        with pytest.raises(ValueError, match="t0"):
            resilience_pipeline({"a": a, "b": flat_pair(20)}, [10])

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="no disruptive events"):
            resilience_pipeline({"v": flat_pair(100)}, [])

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            resilience_pipeline({"a": flat_pair(100), "b": flat_pair(90)}, [10])

    def test_single_event_dip_matches_rational_oracle(self):
        horizon, trigger = 100, 20
        p_fr = [Fraction(1)] * 20 + [Fraction(1) - Fraction(6, 100) * k for k in range(11)]
        p_fr += [p_fr[-1] + Fraction(2, 100) * k for k in range(1, 31)]
        p_fr += [p_fr[-1]] * (horizon - len(p_fr))
        r_fr = [Fraction(1)] * horizon
        pair = pair_from([float(v) for v in p_fr], [float(v) for v in r_fr])
        report = resilience_pipeline({"v": pair}, [trigger])
        ev = report.per_variable["v"].events[0]
        assert (ev.milestones.t_i, ev.milestones.t_f, ev.milestones.t_r) == (20, 30, 99)
        expected = oracle_event_score(p_fr, r_fr, 0, 20, 30, 99)
        assert abs(ev.j_value - float(expected)) <= 1e-6

    def test_report_invariants(self):
        rng = random.Random(5)
        pairs = {}
        for name in ("a", "b", "c"):
            p = [max(0.0, 1.0 + rng.uniform(-0.5, 0.1)) for _ in range(300)]
            r = [1.0] * 300
            pairs[name] = pair_from(p, r)
        report = resilience_pipeline(pairs, [40, 160])
        folded = [vr.folded for vr in report.per_variable.values()]
        assert report.assembled <= max(folded) + 1e-12
        assert report.event_count == 2
        assert report.variable_count == 3
        if any(f == 0 for f in folded):
            assert report.assembled == 0.0

    def test_deterministic(self):
        p = [1.0] * 50 + [0.4] * 20 + [0.9] * 130
        pair = pair_from(p, [1.0] * 200)
        a = report_json_dict(resilience_pipeline({"v": pair}, [50]))
        b = report_json_dict(resilience_pipeline({"v": pair}, [50]))
        assert a == b

    @given(data=st.data(), c=st.floats(min_value=1e-2, max_value=1e2))
    @settings(max_examples=200)
    def test_scaling_both_curves_leaves_j_unchanged(self, data, c):
        horizon = data.draw(st.integers(min_value=8, max_value=80))
        # Levels in [0.01, 10] keep every area far above the eps guard.
        level = st.integers(min_value=1, max_value=1000).map(lambda k: k / 100)
        curve = st.lists(level, min_size=horizon, max_size=horizon)
        curves = {name: (data.draw(curve), data.draw(curve)) for name in ("a", "b")}
        triggers = []
        for t in sorted(data.draw(st.sets(st.integers(1, horizon - 2), min_size=1,
                                          max_size=3))):
            if not triggers or t - triggers[-1] >= 2:  # windows of at least 2 ticks
                triggers.append(t)
        # The failure tick is an argmin of per-tick ratios.  Distinct (p, r)
        # pairs whose ratios tie up to rounding may swap order once scaled,
        # which moves the failure tick; such inputs are outside the property.
        for p, r in curves.values():
            for trigger, (_, end) in zip(triggers, partition_windows(triggers, horizon)):
                ticks = range(trigger, end)
                lowest = min(p[t] / r[t] for t in ticks)
                near = {(p[t], r[t]) for t in ticks if p[t] / r[t] <= lowest * (1 + 1e-9)}
                assume(len(near) == 1)
        base = resilience_pipeline({n: pair_from(p, r) for n, (p, r) in curves.items()},
                                   triggers)
        scaled = resilience_pipeline(
            {n: pair_from(np.array(p) * c, np.array(r) * c) for n, (p, r) in curves.items()},
            triggers)
        assert abs(scaled.assembled - base.assembled) <= 1e-12


class TestPipelineOracle:
    """The whole float pipeline against ``oracle_pipeline``."""

    @given(oracle_inputs())
    @settings(max_examples=100, deadline=None)
    def test_pipeline_matches_exact_oracle(self, inputs):
        assert_pipeline_matches_oracle(*inputs)

    def test_failure_at_the_trigger(self):
        p = [Fraction(1)] * 10 + [Fraction(1, 2)] * 10
        _, exact = assert_pipeline_matches_oracle({"v": p}, {"v": [Fraction(1)] * 20}, [10])
        assert exact["v"][1][0][0] == (10, 10, 19, 0)  # t_f = t_i

    def test_reference_zero_through_a_window(self):
        r = [Fraction(1)] * 12 + [Fraction(0)] * 8
        performance = {"alive": [Fraction(1)] * 12 + [Fraction(1, 2)] * 8,
                       "gone": [Fraction(1)] * 12 + [Fraction(0)] * 8}
        _, exact = assert_pipeline_matches_oracle(performance, {"alive": r, "gone": r}, [5, 12])
        # The whole window [12, 20) scores on the guard: 2 with the performance alive, 1 without.
        assert [exact[name][1][1][1] for name in ("alive", "gone")] == [2, 1]

    def test_first_event_score_above_one(self):
        p = [Fraction(1)] * 4 + [Fraction(2)] * 8 + [Fraction(1, 2)] * 8
        _, exact = assert_pipeline_matches_oracle({"v": p}, {"v": [Fraction(1)] * 20}, [4, 12])
        first, second = (j for _, j in exact["v"][1])
        assert first == Fraction(18, 11) and second < 1


class TestReportSerialization:
    def test_json_round_trip_is_exact(self, tmp_path):
        p = [1.0] * 40 + [0.3] * 30 + [0.8] * 130
        pair = pair_from(p, [1.0] * 200)
        report = resilience_pipeline({"apples_pc": pair, "trees_pc": flat_pair(200)},
                                     [40, 120])
        path = tmp_path / "report.json"
        write_json(report_json_dict(report), path)
        assert json.loads(path.read_text()) == report_json_dict(report)
