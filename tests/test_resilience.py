from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopres.resilience import (
    CurvePair,
    Milestones,
    assemble_variables,
    detect_milestones,
    detect_triggers,
    failure_profile,
    fold_events,
    partition_windows,
    recovery_profile,
    resilience_pipeline,
    summary_metric,
)
from coopres.timeseries import TimeSeries, Window


def pair_from(p, r):
    return CurvePair(performance=TimeSeries(p), reference=TimeSeries(r))


def flat_pair(horizon, p_level=1.0, r_level=1.0):
    return pair_from([p_level] * horizon, [r_level] * horizon)


# Exact rational mirror of the event-score arithmetic, used as the
# independent oracle for the float pipeline.

def frac_trapezoid(values, a, b):
    return sum((values[t] + values[t + 1]) / 2 for t in range(a, b)) if a < b else Fraction(0)


def frac_ratio(num, den):
    if den > 0:
        return num / den
    return Fraction(1) if num == 0 else Fraction(2)


def oracle_event_score(p_vals, r_vals, window_start, t_i, t_f, t_r):
    f = frac_ratio(frac_trapezoid(p_vals, t_i, t_f), frac_trapezoid(r_vals, t_i, t_f))
    g = frac_ratio(frac_trapezoid(p_vals, t_f, t_r), frac_trapezoid(r_vals, t_f, t_r))
    pre = Fraction(t_i - window_start)
    dt_f = Fraction(t_f - t_i)
    dt_r = Fraction(t_r - t_f)
    return (pre + f * dt_f + g * dt_r) / (pre + dt_f + dt_r)


class TestPartitionWindows:
    def test_single_event_spans_everything(self):
        assert partition_windows([250], 1500) == [Window(0, 1500)]

    def test_three_events(self):
        assert partition_windows([50, 250, 400], 1500) == [
            Window(0, 250), Window(250, 400), Window(400, 1500)]

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
        assert partition_windows([22], 20, t0=5) == [Window(5, 25)]
        assert partition_windows([8, 22], 20, t0=5) == [Window(5, 22), Window(22, 25)]

    @pytest.mark.parametrize("trigger", [4, 25])
    def test_trigger_outside_the_curves_ticks_rejected(self, trigger):
        with pytest.raises(ValueError, match=r"\[5, 25\)"):
            partition_windows([trigger], 20, t0=5)


class TestDetectMilestones:
    def test_identical_curves_fail_at_incident(self):
        m = detect_milestones(flat_pair(100), trigger=10, window=Window(0, 100))
        assert (m.t_i, m.t_f, m.t_r, m.window_start) == (10, 10, 99, 0)

    def test_unique_dip(self):
        p = [1.0] * 200
        p[120] = 0.2
        m = detect_milestones(pair_from(p, [1.0] * 200), trigger=100, window=Window(0, 200))
        assert m.t_f == 120

    def test_recovery_reference_is_window_end(self):
        m = detect_milestones(flat_pair(500), trigger=250, window=Window(250, 400))
        assert (m.t_i, m.t_r) == (250, 399)

    def test_declining_reference_not_mistaken_for_failure(self):
        # performance falls, but the reference falls just as fast: ratio flat
        p = [1.0 - 0.01 * t for t in range(50)]
        m = detect_milestones(pair_from(p, p), trigger=5, window=Window(0, 50))
        assert m.t_f == 5

    def test_short_window_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            detect_milestones(flat_pair(10), trigger=3, window=Window(3, 4))

    def test_trigger_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            detect_milestones(flat_pair(100), trigger=50, window=Window(0, 50))


class TestProfiles:
    def test_identity_failure_profile(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert failure_profile(flat_pair(60), m) == 1.0

    def test_total_failure(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert failure_profile(flat_pair(60, p_level=0.0), m) == 0.0

    def test_linear_collapse_is_half(self):
        p = [1.0] * 10 + [1.0 - 0.1 * k for k in range(11)] + [0.0] * 39
        m = Milestones(t_i=10, t_f=20, t_r=59, window_start=0)
        assert failure_profile(pair_from(p, [1.0] * 60), m) == pytest.approx(0.5)

    def test_zero_length_failure_interval(self):
        m = Milestones(t_i=10, t_f=10, t_r=50, window_start=0)
        assert failure_profile(flat_pair(60, p_level=0.3), m) == 1.0

    def test_identity_recovery_profile(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert recovery_profile(flat_pair(60), m) == 1.0

    def test_proportional_recovery(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert recovery_profile(flat_pair(60, p_level=0.5), m) == pytest.approx(0.5)

    def test_exceeding_expectations(self):
        m = Milestones(t_i=10, t_f=20, t_r=50, window_start=0)
        assert recovery_profile(flat_pair(60, p_level=1.2), m) == pytest.approx(1.2)

    def test_zero_length_recovery_interval(self):
        m = Milestones(t_i=10, t_f=50, t_r=50, window_start=0)
        assert recovery_profile(flat_pair(60, p_level=0.3), m) == 1.0


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

    @given(st.lists(st.floats(min_value=0, max_value=2), min_size=1, max_size=12))
    @settings(max_examples=500)
    def test_output_in_unit_interval(self, values):
        assert 0.0 <= fold_events(values) <= 1.0

    @given(st.floats(min_value=0, max_value=2), st.integers(min_value=1, max_value=8))
    def test_constant_list_folds_to_clamp(self, value, n):
        expected = min(max(value, 0.0), 1.0)
        assert fold_events([value] * n) == pytest.approx(expected)


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
        a = resilience_pipeline({"v": pair}, [50]).to_json_dict()
        b = resilience_pipeline({"v": pair}, [50]).to_json_dict()
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
            for trigger, window in zip(triggers, partition_windows(triggers, horizon)):
                ticks = range(trigger, window.end)
                lowest = min(p[t] / r[t] for t in ticks)
                near = {(p[t], r[t]) for t in ticks if p[t] / r[t] <= lowest * (1 + 1e-9)}
                assume(len(near) == 1)
        base = resilience_pipeline({n: pair_from(p, r) for n, (p, r) in curves.items()},
                                   triggers)
        scaled = resilience_pipeline(
            {n: pair_from(np.array(p) * c, np.array(r) * c) for n, (p, r) in curves.items()},
            triggers)
        assert abs(scaled.assembled - base.assembled) <= 1e-12


class TestReportSerialization:
    def test_json_round_trip_is_exact(self, tmp_path):
        p = [1.0] * 40 + [0.3] * 30 + [0.8] * 130
        pair = pair_from(p, [1.0] * 200)
        report = resilience_pipeline({"apples_pc": pair, "trees_pc": flat_pair(200)},
                                     [40, 120])
        path = tmp_path / "report.json"
        report.to_json(path)
        assert json.loads(path.read_text()) == report.to_json_dict()
