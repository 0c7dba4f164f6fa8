from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import gzip
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coopres.cli
import coopres.harness
import coopres.resilience
import coopres.world
from coopres.cli import main
from coopres.disruptions import parse_schedule
from coopres.harness import (
    CONFIG_KEYS,
    PRESETS,
    ExperimentGrid,
    ScenarioConfig,
    bots_preset,
    parse_scenario_config,
    run_episode,
    run_grid,
)
from coopres.report import emit_report
from coopres.world import write_trace_jsonl

from conftest import write_raw_curve

TINY_CONFIG = """\
[events]
schedule =
    apple_vanish 60 0.6
[pipeline]
episode_length = 220
episodes = 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return path


def write_curves(tmp_path, p_values, r_values):
    return (write_raw_curve(tmp_path / "p.csv", p_values),
            write_raw_curve(tmp_path / "r.csv", r_values))


def write_schedule(tmp_path, *triggers):
    path = tmp_path / "sched.txt"
    path.write_text("".join(f"{t}\n" for t in triggers))
    return path


class TestValidate:
    def test_good_config(self, tiny_config, capsys):
        assert main(["validate", "--config", str(tiny_config)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_trigger_beyond_horizon(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[events]\nschedule = apple_vanish 500 0.5\n"
                        "[pipeline]\nepisode_length = 400\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:config:")

    @pytest.mark.parametrize("events, message", [
        (["apple_vanish 100 0.3 0.0"], "can never fire"),
        (["apple_vanish 200 0.3", "apple_vanish 201 0.3", "apple_vanish 202 0.3"],
         r"window \[201, 202\) is shorter than 2 ticks"),
        (["apple_vanish 0 0.3", "apple_vanish 1 0.3"],
         r"window \[0, 1\) is shorter than 2 ticks"),
        ([], "scenario 'bad' has no events to score"),
    ], ids=["never_fires", "windows_one_tick_apart", "first_window_one_tick", "no_events"])
    def test_schedule_that_cannot_be_scored_is_refused_before_running(
            self, tmp_path, capsys, events, message):
        path = tmp_path / "bad.ini"
        path.write_text("[events]\nschedule =\n" + "".join(f"    {e}\n" for e in events)
                        + "[pipeline]\nepisode_length = 400\nepisodes = 1\n")
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:config:")
            assert re.search(message, err)
        assert not (tmp_path / "out").exists()

    def test_two_triggers_one_tick_apart_validate(self, tmp_path, capsys):
        # The first window starts at tick 0, so only later windows can be too short.
        path = tmp_path / "close.ini"
        path.write_text("[events]\nschedule =\n    apple_vanish 200 0.3\n"
                        "    apple_vanish 201 0.3\n[pipeline]\nepisode_length = 400\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert "ok (5 agents, 2 events" in capsys.readouterr().out

    # Output files are named after the id, so `../escaped` once wrote
    # `escaped_*.csv` next to --out, and a multi-line value once named files
    # `a\nb_performance.csv`.
    @pytest.mark.parametrize("scenario_id",
                             ["../escaped", "a/b", "a\\b", "..", ".", "", "a\nb", "a\tb"],
                             ids=["parent", "slash", "backslash", "dotdot", "dot", "empty",
                                  "newline", "tab"])
    def test_scenario_id_must_be_a_plain_file_name(self, tmp_path, capsys, monkeypatch,
                                                   scenario_id):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        path = tmp_path / "bad.ini"
        # An indented line continues the value: `a` then `    b` reads as "a\nb".
        path.write_text(TINY_CONFIG + "scenario_id = " + scenario_id.replace("\n", "\n    ") + "\n")
        out = tmp_path / "sub" / "out"
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error:config: scenario_id {scenario_id!r} must be a plain file name "
                "component\n")
        assert episodes == []
        assert not (tmp_path / "sub").exists()

    # Each was once accepted: `run` scored 5 episodes, read no schedule file,
    # or took the [DEFAULT] episode count.
    @pytest.mark.parametrize("text, message", [
        (TINY_CONFIG + "episode = 1\n", "unknown key 'episode' in [pipeline]"),
        ("[world]\nepisodes = 1\n" + TINY_CONFIG, "unknown key 'episodes' in [world]"),
        (TINY_CONFIG.replace("[pipeline]", "schedule_file = nonexistent.txt\n[pipeline]"),
         "schedule and schedule_file both set the schedule"),
        ("[DEFAULT]\nepisodes = 1\n" + TINY_CONFIG, "unknown sections ['DEFAULT']"),
        ("[DEFAULT]\n" + TINY_CONFIG, "unknown sections ['DEFAULT']"),
    ], ids=["unknown_key", "key_in_another_section", "schedule_twice", "default_section",
            "empty_default_section"])
    def test_bad_key_refused_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                                 text, message):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        path = tmp_path / "bad.ini"
        path.write_text(text)
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error:config: {path}: {message}\n"
        assert episodes == []
        assert not (tmp_path / "out").exists()

    def test_percent_sign_is_literal(self, tmp_path, capsys):
        path = tmp_path / "pct.ini"
        path.write_text(TINY_CONFIG + "scenario_id = run100%\n")
        assert main(["validate", "--config", str(path)]) == 0
        assert parse_scenario_config(path).scenario_id == "run100%"

    def test_map_without_apples_refused_before_any_episode(self, tmp_path, capsys,
                                                            monkeypatch):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        (tmp_path / "bare.txt").write_text("#####\n#S.S#\n#...#\n#####\n")
        path = tmp_path / "bare.ini"
        path.write_text("[world]\nmap = bare.txt\n[agents]\npolicies = greedy, random\n"
                        "[events]\nschedule = apple_vanish 30 0.5\n"
                        "[pipeline]\nepisode_length = 60\nepisodes = 2\n")
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == "error:config: map: has no apple cell\n"
        assert episodes == []
        assert not (tmp_path / "out").exists()

    # The simulator restates none of these rules, so this is where each is kept.
    @pytest.mark.parametrize("text, message", [
        (TINY_CONFIG + "[world]\nregrowth_table = 0.0, 1.5\n",
         "regrowth_table must be probabilities in [0, 1]"),
        (TINY_CONFIG.replace("= 220", "= 1"), "episode_length must be >= 2"),
        (TINY_CONFIG + "h_max = 0\n", "h_max must be >= 1"),
        ("[events]\nschedule = apple_vanish -3 0.5\n",
         "{path}: schedule line 1: trigger tick must be >= 0"),
        ("[events]\nschedule = bot_intrusion 30 10 -1\n",
         "{path}: schedule line 1: bot count must be >= 0"),
        (TINY_CONFIG + "episodes\n", "{path}: line 7: not a key = value line"),
        ("episodes = 2\n" + TINY_CONFIG, "{path}: line 1: a key before any [section] header"),
        (TINY_CONFIG + "[pipeline]\nh_max = 5\n", "{path}: line 7: repeated section [pipeline]"),
        (TINY_CONFIG + "episodes = 3\n", "{path}: line 7: repeated key 'episodes' in [pipeline]"),
        (TINY_CONFIG + "indicators = hunger_index, apples_pc, apples_pc\n",
         "repeated indicators: ['apples_pc']"),
        ("[world]\nmap = empty.txt\n" + TINY_CONFIG, "map: map is empty"),
        ("[pipeline]\nepisode_length = 60\nepisodes = 2\n",
         "scenario 'bad' has no events to score"),
        ("[events]\nschedule = apple_vanish 30 0.5\n"
         "[pipeline]\nepisode_length = 5592406\nepisodes = 1\n",
         "an episode's row buffer would take 1073741952 bytes; the limit is 1073741824"),
        ("[events]\nschedule = apple_vanish 30 0.5\n"
         "[pipeline]\nepisode_length = 1000\nepisodes = 33555\n",
         "a twin's curves would take 1073760000 bytes; the limit is 1073741824"),
        # Five agents and four bots on the default map's eight spawn points.
        ("[events]\nschedule = bot_intrusion 30 10 4\n"
         "[pipeline]\nepisode_length = 60\nepisodes = 2\n",
         "map has 8 spawn points; 5 agents and up to 4 bots at once need 9"),
    ], ids=["regrowth_above_one", "one_tick_episode", "h_max_zero", "negative_trigger",
            "negative_bot_count", "line_without_equals", "key_before_any_section",
            "repeated_section", "repeated_key", "repeated_indicator", "empty_map", "no_events",
            "row_buffer_over_memory_limit", "curves_over_memory_limit", "too_many_bots"])
    def test_boundary_rule_refused_before_any_episode(self, tmp_path, capsys, monkeypatch,
                                                       text, message):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        (tmp_path / "empty.txt").write_text("")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        for argv in (["validate", "--config", str(path)],
                     ["run", "--config", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error:config: {message.format(path=str(path))}\n"
        assert episodes == []
        assert not (tmp_path / "out").exists()

    # The default map's rows are 6 + 3 * 5 + 3 = 24 ints, 192 bytes a tick; the four
    # curves of one episode take 32 bytes a tick.  One tick or episode more is refused.
    @pytest.mark.parametrize("pipeline", ["episode_length = 5592405\nepisodes = 1\n",
                                          "episode_length = 1000\nepisodes = 33554\n"],
                             ids=["row_buffer", "curves"])
    def test_config_at_the_memory_limit_validates(self, tmp_path, capsys, pipeline):
        path = tmp_path / "big.ini"
        path.write_text("[events]\nschedule = apple_vanish 30 0.5\n[pipeline]\n" + pipeline)
        assert main(["validate", "--config", str(path)]) == 0
        assert ": ok (5 agents, 1 events" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == 1
        assert capsys.readouterr().err.startswith("error:config:")


class TestMeasure:
    def test_identity_curves_score_one(self, tmp_path, capsys):
        p_path, r_path = write_curves(tmp_path, [1.0] * 100, [1.0] * 100)
        sched = tmp_path / "sched.txt"
        sched.write_text("40\n")
        out = tmp_path / "report.json"
        code = main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(sched), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["J"] == pytest.approx(1.0, abs=1e-9)
        assert report["L"] == 1
        assert "J = 1.000000" in capsys.readouterr().out

    def test_schedule_lines_may_be_full_events(self, tmp_path):
        p = [1.0] * 50 + [0.5] * 50
        p_path, r_path = write_curves(tmp_path, p, [1.0] * 100)
        sched = tmp_path / "sched.txt"
        sched.write_text("apple_vanish 50 0.7\n")
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(sched), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["per_variable"]["value"]["events"][0]["t_i"] == 50

    # `2 3` once read as trigger 3, the out-of-range event was taken for its
    # trigger, and `x` was refused without naming the file or the line.
    @pytest.mark.parametrize("body, message", [
        ("50\n2 3\n", "schedule line 2: unknown event kind '2'"),
        ("apple_vanish 2 9.9 7\n", "schedule line 1: p_s must be in [0, 1]"),
        ("apple_vanish 2 9.9\n", "schedule line 1: v_s must be in [0, 1]"),
        ("# triggers\n\nx\n", "schedule line 3: invalid literal for int() with base 10: 'x'"),
        ("bot_intrusion 50 10\n",
         "schedule line 1: expected: bot_intrusion <trigger> <duration> <bot_count> [p_s]"),
        ("# none\n", "no trigger ticks"),
    ], ids=["two_ticks", "p_s_out_of_range", "v_s_out_of_range", "not_a_tick", "short_event",
            "no_ticks"])
    def test_bad_schedule_line_rejected(self, tmp_path, capsys, body, message):
        p_path, r_path = write_curves(tmp_path, [1.0] * 50 + [0.5] * 50, [1.0] * 100)
        sched = tmp_path / "sched.txt"
        sched.write_text(body)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(sched), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error:input: {sched}: {message}\n"
        assert not out.exists()

    def test_trigger_detection_without_schedule(self, tmp_path):
        p = [1.0] * 30 + [0.4] * 70
        p_path, r_path = write_curves(tmp_path, p, [1.0] * 100)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["per_variable"]["value"]["events"][0]["t_i"] == 30

    # Each of these once scored silently (J = 0.875, J = 1.0) or failed late.
    @pytest.mark.parametrize("tick, bad", [(10, "nan"), (30, "nan"), (30, "inf")])
    def test_non_finite_curve_rejected_up_front(self, tmp_path, capsys, tick, bad):
        p = ["1.0"] * 20 + ["0.5"] * 20
        p[tick] = bad
        p_path = write_raw_curve(tmp_path / "p.csv", p)
        r_path = write_raw_curve(tmp_path / "r.csv", ["1.0"] * 40)
        sched = tmp_path / "sched.txt"
        sched.write_text("20\n")
        out = tmp_path / "report.json"
        code = main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(sched), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:input:") and "finite" in err and "p.csv" in err
        assert not out.exists()

    def test_negative_curve_value_refused(self, tmp_path, capsys):
        p_path, r_path = write_curves(tmp_path, [1.0] * 20 + [-0.5] + [1.0] * 19, [1.0] * 40)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(write_schedule(tmp_path, 20)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error:input: curves must be non-negative (positive-orientation indicators)\n")
        assert not out.exists()

    # Each once exited 0 with `Infinity` in its JSON (the first) or a wrong
    # J (the last), or failed late on a NaN fold, with RuntimeWarnings on stderr.
    @pytest.mark.parametrize("p, r, triggers, message", [
        (["1e-8", "1e-8", "1e302", "1e302"], ["1e-8"] * 4, (1,),
         "event score at tick 1 exceeds the float64 range (F = 1.0, G = inf)"),
        (["1e-8", "1e302", "1e302"] * 2, ["1e-8"] * 6, (0, 3),
         "event score at tick 0 exceeds the float64 range (F = 1.0, G = inf)"),
        (["1e308"] + ["1.7e308"] * 3, ["1e308"] * 4, (1,),
         "event score at tick 1 exceeds the float64 range (F = 1.0, G = nan)"),
        (["0.8e308"] * 4, ["1.7e308"] * 4, (1,),
         "event score at tick 1 exceeds the float64 range (F = 1.0, G = nan)"),
    ], ids=["quotient_overflow", "quotient_overflow_of_two_events", "area_overflow",
            "reference_area_overflow"])
    def test_score_past_the_float64_range_refused(self, tmp_path, capsys, p, r, triggers,
                                                  message):
        p_path, r_path = write_curves(tmp_path, p, r)
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                         "--schedule", str(write_schedule(tmp_path, *triggers)),
                         "--out", str(out)])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == f"error:input: {message}\n"
        assert not out.exists()

    def test_curves_starting_at_tick_5(self, tmp_path):
        # 20 rows on ticks 5..24; the trigger at tick 22 lies inside the data.
        p = [1.0] * 17 + [0.5, 0.6, 0.9]
        reports = {}
        for t0, trigger in ((5, 22), (0, 17)):
            run_dir = tmp_path / f"t0_{t0}"
            run_dir.mkdir()
            p_path, r_path = run_dir / "p.csv", run_dir / "r.csv"
            write_raw_curve(p_path, p, t0=t0)
            write_raw_curve(r_path, [1.0] * 20, t0=t0)
            (run_dir / "sched.txt").write_text(f"{trigger}\n")
            out = run_dir / "report.json"
            assert main(["measure", "--performance", str(p_path), "--reference",
                         str(r_path), "--schedule", str(run_dir / "sched.txt"),
                         "--out", str(out)]) == 0
            reports[t0] = json.loads(out.read_text())
        event = reports[5]["per_variable"]["value"]["events"][0]
        assert (event["window_start"], event["t_i"], event["t_f"], event["t_r"]) == (5, 22, 22, 24)
        assert reports[5]["J"] == reports[0]["J"] < 1.0

    def test_detected_triggers_on_curves_starting_at_tick_5(self, tmp_path):
        p_path, r_path = tmp_path / "p.csv", tmp_path / "r.csv"
        write_raw_curve(p_path, [1.0] * 10 + [0.4] * 10, t0=5)
        write_raw_curve(r_path, [1.0] * 20, t0=5)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--out", str(out)]) == 0
        event = json.loads(out.read_text())["per_variable"]["value"]["events"][0]
        assert (event["window_start"], event["t_i"], event["t_r"]) == (5, 15, 24)

    def test_quiet_curves_without_schedule_fail(self, tmp_path, capsys):
        p_path, r_path = write_curves(tmp_path, [1.0] * 50, [1.0] * 50)
        code = main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error:input: no disruption detected in the curves and no schedule given\n")

    # Without the grid check these scored J = 0.756410 (L=1) and exited 0.
    def test_curves_on_shifted_ticks_refused(self, tmp_path, capsys):
        p_path = write_raw_curve(tmp_path / "p.csv", [1.0] * 20 + [0.5] * 20)
        r_path = write_raw_curve(tmp_path / "r.csv", [1.0] * 40, t0=1)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(write_schedule(tmp_path, 20)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error:input: performance and reference curves must share the grid\n")
        assert not out.exists()

    def test_out_in_a_new_directory(self, tmp_path):
        p_path, r_path = write_curves(tmp_path, [1.0] * 20 + [0.5] * 20, [1.0] * 40)
        out = tmp_path / "new" / "dir" / "r.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--schedule", str(write_schedule(tmp_path, 20)), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["L"] == 1

    # A window of one tick has no failure-recovery span: refused while the
    # windows are laid out, before any event is scored.
    @pytest.mark.parametrize("p, schedule, window", [
        ([1.0] * 20 + [0.5] * 40, "20\n30\n31\n", "[30, 31)"),
        ([1.0] * 10 + [0.5] * 10 + [1.0] * 39 + [0.5], None, "[59, 60)"),
    ], ids=["scheduled", "detected_on_the_last_tick"])
    def test_one_tick_window_refused_before_scoring(self, tmp_path, capsys, monkeypatch,
                                                    p, schedule, window):
        def no_scoring(*args, **kwargs):
            raise AssertionError("event scored for an unscorable layout")
        monkeypatch.setattr(coopres.resilience, "summary_metric", no_scoring)
        p_path, r_path = write_curves(tmp_path, p, [1.0] * 60)
        argv = ["measure", "--performance", str(p_path), "--reference", str(r_path)]
        if schedule is not None:
            (tmp_path / "sched.txt").write_text(schedule)
            argv += ["--schedule", str(tmp_path / "sched.txt")]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error:input: event window {window} is shorter than 2 ticks; "
                       "space the triggers at least 2 ticks apart\n")
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        ("", "no data rows"),
        ("0,1.0\n1.5,2.0\n", "line 3: could not convert string '1.5' to int64"),
        ("0,1.0\nabc,2.0\n", "line 3: could not convert string 'abc' to int64"),
        ("0,1.0\n1\n", "line 3: expected 2 columns, got 1"),
        ("0,1.0\n\n1,x\n", "line 4: could not convert string 'x' to float64"),
        ("0,1.0\n99999999999999999999,2.0\n",
         "line 3: could not convert string '99999999999999999999' to int64"),
        # Bytes are the whole file, header included.
        (gzip.compress(b"tick,value\n0,1.0\n1,2.0\n"), "can't decode byte 0x8b"),
        (b"tick,value\n0,1.0\n1,\xff\n", "can't decode byte 0xff"),
    ], ids=["header_only", "fractional_tick", "non_numeric_tick", "short_row",
            "bad_value_after_a_blank_line", "tick_beyond_int64", "gzip_bytes",
            "undecodable_byte_in_a_row"])
    def test_bad_curve_file_rejected(self, tmp_path, capsys, body, message):
        p_path = tmp_path / "p.csv"
        p_path.write_bytes(body if isinstance(body, bytes)
                           else ("tick,value\n" + body).encode())
        r_path = write_raw_curve(tmp_path / "r.csv", [1.0] * 2)
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["measure", "--performance", str(p_path), "--reference",
                         str(r_path), "--schedule", str(write_schedule(tmp_path, "0")),
                         "--out", str(out)])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error:input: {p_path}: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("header, newline", [
        ("tick,value", "\r\n"), ('"tick","value"', "\n"), ("tick,value,note", "\n"),
    ], ids=["crlf", "quoted_header", "extra_column"])
    def test_curve_file_variants_parse(self, tmp_path, header, newline):
        p = [1.0] * 20 + [0.5] * 20
        p_path = tmp_path / "p.csv"
        p_path.write_bytes((header + newline + "".join(
            f"{t},{v}{',x' if 'note' in header else ''}{newline}"
            for t, v in enumerate(p))).encode())
        r_path = write_raw_curve(tmp_path / "r.csv", [1.0] * 40)
        reports = []
        for perf in (p_path, write_raw_curve(tmp_path / "plain.csv", p)):
            out = tmp_path / f"{perf.stem}.json"
            assert main(["measure", "--performance", str(perf), "--reference", str(r_path),
                         "--schedule", str(write_schedule(tmp_path, "20")),
                         "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    # numpy opens a name with one of these suffixes through a decompressor,
    # so such a curve file is refused even when it holds plain text.
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_refused(self, tmp_path, capsys, suffix):
        p_path = write_raw_curve(tmp_path / f"p.csv{suffix}", [1.0] * 20 + [0.5] * 20)
        r_path = write_raw_curve(tmp_path / "r.csv", [1.0] * 40)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error:input: {p_path}: ") and f"'{suffix}'" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_long_curve_pair_report_pinned(self, tmp_path, capsys):
        # Pinned like RUN_DIGESTS: a reader that returns any value or tick
        # other than float() and int() of its field moves the digest.
        p_path, r_path, dips = write_seeded_curve_pair(tmp_path)
        out = tmp_path / "report.json"
        assert main(["measure", "--performance", str(p_path), "--reference", str(r_path),
                     "--out", str(out)]) == 0
        assert f"(L={dips})" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == MEASURE_DIGEST


def write_seeded_curve_pair(tmp_path, ticks=100_000, dips=12, t0=37):
    """Write a seeded curve pair from tick ``t0`` with ``dips`` detectable dips.

    Performance values are written by ``repr`` at full precision with LF line
    endings; reference values are rounded to six decimals first and written
    with CRLF line endings.  Outside the dips the ratio stays above 0.97.
    """
    rng = np.random.default_rng(15)
    reference = rng.uniform(0.5, 2.0, ticks)
    factor = rng.uniform(0.97, 1.03, ticks)
    segment = ticks // dips
    for start in range(segment // 4, ticks, segment):
        width = int(rng.integers(segment // 10, segment // 2))
        factor[start:start + width] = np.linspace(rng.uniform(0.2, 0.8), 1.0, width)
    for path, values, newline in ((tmp_path / "p.csv", reference * factor, "\n"),
                                  (tmp_path / "r.csv", np.round(reference, 6), "\r\n")):
        path.write_bytes(("tick,value" + newline + "".join(
            f"{t0 + i},{v!r}{newline}" for i, v in enumerate(values.tolist()))).encode())
    return tmp_path / "p.csv", tmp_path / "r.csv", dips


MEASURE_DIGEST = "a887d60456aefc180937ae1b3133f76041f42cba048eff6b913be258694f8dde"

RUN_DIGESTS = {
    "report.json": "b401576d47482ed30bdfa5a06bb7545378dfb00d9304876beec365bb3eb2161e",
    "trace_performance_ep0.jsonl":
        "987418f19d3d0d7f82073684d17d255fd12242e3c48f01c9b413ea322c4e3334",
    "trace_performance_ep1.jsonl":
        "1c4374a84e6a9b5f3c997fccc3ad396664bdab024482b4e4605a03b830035d1f",
    "trace_performance_ep2.jsonl":
        "3f3f74c7f0a216a5490b38326159fcf9e1186eb068831481f6b9f06476588e1a",
    "trace_reference_ep0.jsonl":
        "280793b34ed54dd03242c1543517222434e68fbdb96a9f2a067cb8b6235782a2",
    "trace_reference_ep1.jsonl":
        "beb1e11a22e7db65af0578666ab827a7e83351327b6e4e80f1c14dc3f1bb9424",
    "trace_reference_ep2.jsonl":
        "2e9d337417f55ba48c0552ba15d9fdbe36fea5837a306270caffc3632896235e",
}


# sha256 of every file that `run --traces` writes for PIN_CONFIG, as written
# by CPython 3.11.7 with numpy 2.4.6: the indicator CSVs and the traces are
# pinned byte for byte, across a BLOCK_TICKS boundary with bots on the
# map.
PIN_CONFIG = """\
[events]
schedule =
    apple_vanish 200 0.5
    bot_intrusion 240 40 2
[pipeline]
episode_length = 320
episodes = 2
"""

RUN_TRACES_DIGESTS = {
    "heatmap.svg": "c3c1b0eccbe896113353fba1f0a2cda4548842c903a58da5bb506cba294ab078",
    "pin_performance.csv": "2607a1d4c77d883e6e3cb8bc3579c7e0084bfcc05d378782fe859b47b8be685f",
    "pin_performance_std.csv":
        "c2f99649289b9fd5b7ce8f6ea8aacc806e2ce79a7a79b46d1708ff2dcaf19748",
    "pin_reference.csv": "5f483693a9b35d9ac6c05a0848db2d692f0870d85d403e4d819c3d71488f9308",
    "pin_reference_std.csv": "793568009f9d09b166207b1b12715721251c274c414bd7b659a7d3de58f774b6",
    "report.csv": "8225e8e1c313c17140b35a22c69c3191757d29db98b9cc5665cadb5342503d9e",
    "report.json": "4b4ced21c9b72173c5b28bf3eb1e6db50bd5afd875ad6d3bc2bf22f22fc542fb",
    "trace_performance_ep0.jsonl":
        "5c017be2b6fb2adca23475b12e01cb5dd8b9abf44dc0f6df91f5b34d08ca3a04",
    "trace_performance_ep1.jsonl":
        "d25d8b48df032b9230c96612b2b4bd3878d4e235f8fd4ce9e7e60ea6e471745c",
    "trace_reference_ep0.jsonl":
        "1880f38bd4c368021ec833ddb9d1832879aa88619e52a92d7fad285dad1fa756",
    "trace_reference_ep1.jsonl":
        "9591fde4f47f1a5aee4f3aabd5a544ce1be3ff8d726bfdc357ce91090747177a",
}


class TestRun:
    def test_outputs_land_under_out_dir(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        for name in ("report.csv", "report.json", "heatmap.svg",
                     "tiny_performance.csv", "tiny_reference.csv"):
            assert (out / name).exists(), name
        assert "J = " in capsys.readouterr().out

    def test_format_selection(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config), "--out", str(out),
                     "--format", "json"]) == 0
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()

    def test_traces_dumped_on_request(self, tiny_config, tmp_path):
        out = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config), "--out", str(out),
                     "--traces"]) == 0
        assert (out / "trace_performance_ep0.jsonl").exists()
        assert (out / "trace_reference_ep1.jsonl").exists()

    def test_traces_equal_standalone_episodes(self, tmp_path):
        # Late events, the first a coin flip: each performance trace is
        # continued from its reference at the first scheduled trigger.
        path = tmp_path / "late.ini"
        path.write_text("[events]\nschedule =\n    apple_vanish 120 0.6 0.5\n"
                        "    bot_intrusion 150 20 2\n"
                        "[pipeline]\nepisode_length = 220\nepisodes = 3\n")
        config = parse_scenario_config(path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
        assert len(list(out.glob("trace_*.jsonl"))) == 2 * config.episodes
        for k in range(config.episodes):
            for label, with_events in (("performance", True), ("reference", False)):
                alone = tmp_path / f"alone_{label}_ep{k}.jsonl"
                write_trace_jsonl(run_episode(config, config.base_seed + k, with_events),
                                  alone)
                assert (out / f"trace_{label}_ep{k}.jsonl").read_bytes() == alone.read_bytes()

    def test_each_seed_traces_written_before_the_next_seed_runs(self, tmp_path, monkeypatch):
        # run --traces holds one seed's traces at a time: both files of
        # episode k are on disk before seed k + 1's first episode starts.
        monkeypatch.setenv("COOPRES_THREADS", "1")
        log = []
        run_real, write_real = coopres.harness.run_episode, coopres.world.write_trace_jsonl

        def logged_run(config, seed, *args, **kwargs):
            log.append(("episode", seed))
            return run_real(config, seed, *args, **kwargs)

        def logged_write(trace, path):
            write_real(trace, path)
            log.append(("write", path.name))

        monkeypatch.setattr(coopres.harness, "run_episode", logged_run)
        monkeypatch.setattr(coopres.world, "write_trace_jsonl", logged_write)
        path = tmp_path / "three.ini"
        path.write_text(TINY_CONFIG.replace("episodes = 2", "episodes = 3"))
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
        seed = parse_scenario_config(path).base_seed
        for k in range(3):
            written = [log.index(("write", f"trace_{label}_ep{k}.jsonl"))
                       for label in ("performance", "reference")]
            assert log.index(("episode", seed + k)) < min(written)
            if k < 2:
                assert max(written) < log.index(("episode", seed + k + 1))
        assert sorted(p.name for p in out.glob("trace_*")) == sorted(
            name for event, name in log if event == "write")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trace_write_failure_is_an_input_error(self, tiny_config, tmp_path, capsys,
                                                   monkeypatch, threads):
        # The sink runs outside the episode's error wrapping, in a pool
        # worker too (workers are forked, so they see the patch).
        def full(trace, path):
            raise OSError(f"no space left writing {path.name}")

        monkeypatch.setattr(coopres.world, "write_trace_jsonl", full)
        monkeypatch.setenv("COOPRES_THREADS", threads)
        out = tmp_path / "results"
        code = main(["run", "--config", str(tiny_config), "--out", str(out), "--traces"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:input: no space left writing trace_performance_ep")
        assert not (out / "report.json").exists()

    def test_no_event_fired_writes_the_report_and_the_traces(self, tmp_path, capsys):
        # Seeds 42 and 43 draw no firing of a p_s = 0.01 event.
        path = tmp_path / "quiet.ini"
        path.write_text(TINY_CONFIG.replace("apple_vanish 60 0.6", "apple_vanish 60 0.6 0.01"))
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
        assert capsys.readouterr().out == "J = n/a (no event fired in 2 episodes)\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["heatmap.svg", "report.csv", "report.json"]
            + [f"quiet_{twin}{std}.csv" for twin in ("performance", "reference")
               for std in ("", "_std")]
            + [f"trace_{label}_ep{k}.jsonl" for label in ("performance", "reference")
               for k in range(2)])

    # Base seeds 4 and 5 draw no firing in either episode; seeds 1, 2, 3 and 6 do.
    @pytest.mark.parametrize("seed", [4, 5])
    def test_no_event_fired_is_reported_with_j_null(self, tmp_path, capsys, seed):
        path = tmp_path / "half.ini"
        path.write_text("[events]\nschedule = apple_vanish 30 0.5 0.5\n"
                        "[pipeline]\nepisode_length = 60\nepisodes = 2\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--seed", str(seed)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("J = n/a (no event fired in 2 episodes)\n", "")
        cell = json.loads((out / "report.json").read_text())["cells"][0]
        assert (cell["J"], cell["L"], cell["per_variable"]) == (None, 0, {})
        assert cell["per_episode_J"] == [None, None]
        assert (out / "report.csv").read_bytes() == b"scenario,variable,event,J_jl,F,G,J_j,J\r\n"
        assert ">n/a</text>" in (out / "heatmap.svg").read_text()
        for twin in ("performance", "reference"):
            assert (out / f"half_{twin}.csv").read_text().count("\n") == 61

    def test_seed_override_changes_results(self, tiny_config, tmp_path):
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        main(["run", "--config", str(tiny_config), "--out", str(out_a), "--seed", "1"])
        main(["run", "--config", str(tiny_config), "--out", str(out_b), "--seed", "1"])
        main(["run", "--config", str(tiny_config), "--out", str(out_c), "--seed", "2"])
        a = (out_a / "report.json").read_text()
        assert a == (out_b / "report.json").read_text()
        assert a != (out_c / "report.json").read_text()

    @pytest.mark.parametrize("command", ["run", "run_traces", "grid"])
    def test_negative_seed_refused_before_any_episode(self, tiny_config, tmp_path, capsys,
                                                      monkeypatch, command):
        # random.Random(-1) seeds as Random(1): seeds -1.. would repeat episodes of 1..
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        argv = {"run": ["run", "--config", str(tiny_config)],
                "run_traces": ["run", "--config", str(tiny_config), "--traces"],
                "grid": ["grid", "--preset", "bots"]}[command]
        assert main([*argv, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error:config: base_seed -1 must be >= 0\n"
        assert episodes == []
        assert not (tmp_path / "o").exists()

    def test_negative_config_seed_refused_and_seed_0_runs(self, tmp_path, capsys):
        path = tmp_path / "negative.ini"
        path.write_text(TINY_CONFIG + "base_seed = -2\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error:config: base_seed -2 must be >= 0\n"
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
        assert (out / "report.json").exists()

    def test_indicator_columns_in_canonical_order(self, tmp_path):
        path = tmp_path / "subset.ini"
        path.write_text(TINY_CONFIG + "indicators = hunger_index, apples_pc\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report["cells"][0]["per_variable"]) == ["apples_pc", "hunger_index"]
        for name in ("subset_performance.csv", "subset_reference_std.csv"):
            with open(out / name, newline="") as fh:
                assert next(csv.reader(fh)) == ["tick", "apples_pc", "hunger_index"]
        with open(out / "report.csv", newline="") as fh:
            variables = [row["variable"] for row in csv.DictReader(fh)]
        assert variables == ["apples_pc", "hunger_index"]

    def test_one_episode_runs_without_a_pool(self, tmp_path, monkeypatch):
        # A pool of one worker once forked and pickled the seed's result back.
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one episode")

        path = tmp_path / "one.ini"
        path.write_text(TINY_CONFIG.replace("episodes = 2", "episodes = 1"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        outputs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("COOPRES_THREADS", threads)
            out = tmp_path / f"threads_{threads}"
            assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["4"] == outputs["1"]

    @pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
    def test_output_bytes_pinned(self, tmp_path, monkeypatch, threads):
        # sha256 of report.json and of every trace as written by CPython
        # 3.11.7 with numpy 2.4.6, so that no change to how `run` executes
        # moves an output byte.  Three episodes of a coin-flip vanish and a
        # bot intrusion, continued from their references.
        if threads is None:
            monkeypatch.delenv("COOPRES_THREADS", raising=False)
        else:
            monkeypatch.setenv("COOPRES_THREADS", threads)
        path = tmp_path / "pin.ini"
        path.write_text("[events]\nschedule =\n    apple_vanish 120 0.6 0.5\n"
                        "    bot_intrusion 150 20 2\n"
                        "[pipeline]\nepisode_length = 220\nepisodes = 3\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()
                   if p.name == "report.json" or p.name.startswith("trace_")}
        assert digests == RUN_DIGESTS

    def test_every_output_file_pinned(self, tmp_path):
        path = tmp_path / "pin.ini"
        path.write_text(PIN_CONFIG)
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--traces"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == RUN_TRACES_DIGESTS

    def test_heatmap_is_well_formed_for_any_scenario_id(self, tmp_path):
        path = tmp_path / "tiny.ini"
        path.write_text(TINY_CONFIG + "scenario_id = a<b&c\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out), "--format", "svg"]) == 0
        texts = [el.text for el in ElementTree.parse(out / "heatmap.svg").iter()
                 if el.tag.endswith("text")]
        assert "a<b&c resilience" in texts and "a<b&c" in texts

    def test_unknown_format_rejected(self, tiny_config, tmp_path, capsys, monkeypatch):
        # Refused before any episode runs, so not even report.csv is written.
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        for command in (["run", "--config", str(tiny_config)], ["grid", "--preset", "bots"]):
            for formats in ("pdf", "csv,pdf", "csv,csv,json"):
                code = main([*command, "--out", str(tmp_path / "o"), "--format", formats])
                assert code == 1
                assert capsys.readouterr().err.startswith("error:config:")
        assert episodes == []
        assert not (tmp_path / "o").exists()


EVENT_LINES = {
    "apple_vanish": st.tuples(st.sampled_from([0.3, 0.7, 1.0])),
    "bot_intrusion": st.tuples(st.integers(1, 30), st.integers(0, 4)),
}


@st.composite
def small_scenarios(draw):
    """INI text of a small scenario: 40-80 ticks, 1-2 episodes, one or two events."""
    length = draw(st.integers(40, 80))
    triggers = sorted(draw(st.sets(st.integers(0, length), min_size=1, max_size=2)))
    lines = []
    for trigger in triggers:
        kind = draw(st.sampled_from(sorted(EVENT_LINES)))
        fields = draw(EVENT_LINES[kind])
        # p_s = 0.5 about half the time: an event that may fire in no episode.
        p_s = draw(st.one_of(st.just(0.5), st.sampled_from([0.0, 0.1, 0.9, 1.0])))
        lines.append(" ".join(map(str, [kind, trigger, *fields, p_s])))
    return ("[events]\nschedule =\n" + "".join(f"    {line}\n" for line in lines)
            + f"[pipeline]\nepisode_length = {length}\n"
            + f"episodes = {draw(st.integers(1, 2))}\nbase_seed = {draw(st.integers(0, 50))}\n")


class TestRunNeverFailsLate:
    @given(text=small_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_run_scores_or_refuses_before_any_episode(self, text):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_episode(*args, **kwargs)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            mp.setattr(coopres.harness, "run_episode", counted)
            path, out = Path(tmp) / "s.ini", Path(tmp) / "out"
            path.write_text(text)
            code = main(["run", "--config", str(path), "--out", str(out)])
            if code == 0:
                cell = json.loads((out / "report.json").read_text())["cells"][0]
                for j in [cell["J"], *cell["per_episode_J"]]:
                    assert j is None or 0.0 <= j <= 1.0
            else:
                assert code == 1 and err.getvalue().startswith("error:config:")
                assert calls == [] and not out.exists()


# Finite values at float64's ends and zeros of both signs.
CURVE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-8, 1.0, 1e302, 1e308, 1.7e308]),
                         st.floats(0.0, 2.0))


@st.composite
def curve_files(draw):
    """Performance and reference CSV text on the same ticks, now and then one row short,
    with blank lines among the rows; and a trigger file, or none."""
    t0, n = draw(st.integers(0, 3)), draw(st.integers(0, 8))

    def text(rows):
        lines = ["tick,value"]
        for t in range(t0, t0 + rows):
            lines += [""] * draw(st.sampled_from([0, 0, 0, 1]))
            lines.append(f"{t},{draw(CURVE_VALUES)!r}")
        return "\n".join(lines) + "\n"

    files = {"p.csv": text(n), "r.csv": text(n - draw(st.sampled_from([0] * 5 + [1])))}
    if draw(st.booleans()):
        files["s.txt"] = "".join(
            (f"apple_vanish {t} 0.5\n" if draw(st.booleans()) else f"{t}\n")
            for t in draw(st.lists(st.integers(t0 - 1, t0 + n), max_size=3)))
    return files


def measure_cases():
    return curve_files().map(lambda files: (
        ["measure", "--performance", "{dir}/p.csv", "--reference", "{dir}/r.csv",
         *(["--schedule", "{dir}/s.txt"] if "s.txt" in files else []), "--out", "{dir}/o.json"],
        files))


# Per key of CONFIG_KEYS, values valid and not, extremes included.
INTS = ["-1", "0", "1", "2", "60", "1000000000000", "9223372036854775808", "1e3", "x"]
CONFIG_VALUES = {
    ("world", "map"): ["default", "tiny.map", "missing.map"],
    ("world", "regrowth_table"): ["0.0, 0.01, 0.05, 0.1", "0.0, 1.5", "5e-324", "1e308", "-0.0",
                                  "nan", "x"],
    ("agents", "policies"): ["greedy", "sustainable, greedy", "random, unsustainable_bot",
                             "nobody", ""],
    ("events", "schedule"): ["apple_vanish 30 0.5", "bot_intrusion 30 10 2", "apple_vanish 30 1",
                             "apple_vanish 1e308 0.5", "apple_vanish 99999999999999999999 0.5",
                             "bot_intrusion 30 99999999999999999999 1",
                             "apple_vanish 30 5e-324 1e-300", ""],
    ("events", "schedule_file"): ["missing.txt"],
    ("pipeline", "scenario_id"): ["s", "", "a/b", "..", "\u00e9"],
    **{("pipeline", key): INTS for key in ("episode_length", "episodes", "base_seed", "h_max")},
    ("pipeline", "indicators"): ["apples_pc", "gini_equality, trees_pc", "nope", "",
                                 "hunger_index, apples_pc, apples_pc"],
}
MAPS = ["#####\n#1S.#\n#####\n", "#####\n#.S.#\n#####\n", "", "#1\n#\n"]
# The legend's glyphs, tree labels among them, and glyphs that ``load_map`` refuses.
LEGEND = "#.AS19"
OFF_LEGEND = ["0", "x", "@", " ", "\t", "\u00e9"]
NOW_AND_THEN = st.sampled_from([False, False, False, True])


@st.composite
def map_texts(draw):
    """Map text of at most 8x8 legend glyphs: often without an apple cell or with fewer
    spawn points than agents, and now and then with a tree walled off in its corner, a
    glyph outside the legend, a ragged row or blank lines."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = [list(draw(st.text(st.sampled_from(LEGEND), min_size=width, max_size=width)))
            for _ in range(height)]
    if height >= 3 and width >= 3 and draw(st.booleans()):
        for r, walled in enumerate(["###", "#1#", "###"]):
            rows[r][:3] = walled
    if draw(NOW_AND_THEN):
        rows[draw(st.integers(0, height - 1))][draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(OFF_LEGEND))
    lines = ["".join(row) for row in rows]
    if draw(NOW_AND_THEN):
        r = draw(st.integers(0, height - 1))
        lines[r] = lines[r][:-1] if draw(st.booleans()) else lines[r] + "."
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    return "".join(f"{line}\n" for line in lines)


ANY_MAP = st.sampled_from(MAPS) | map_texts()


@st.composite
def validate_cases(draw):
    """``validate`` on INI text of keys from ``CONFIG_KEYS`` with drawn values, a schedule
    among them."""
    keys = [("events", "schedule"),
            *draw(st.lists(st.sampled_from(sorted(set(CONFIG_VALUES) - {("events", "schedule")})),
                           unique=True))]
    sections: dict[str, list[str]] = {}
    for section, key in keys:
        sections.setdefault(section, []).append(
            f"{key} = {draw(st.sampled_from(CONFIG_VALUES[section, key]))}")
    text = "".join(f"[{section}]\n" + "".join(f"{line}\n" for line in lines)
                   for section, lines in sections.items())
    return ["validate", "--config", "{dir}/s.ini"], {"s.ini": text, "tiny.map": draw(ANY_MAP)}


@st.composite
def map_cases(draw):
    """``validate`` on a config that reads a drawn map, with 1-6 agents and one event."""
    policies = ", ".join(["greedy"] * draw(st.integers(1, 6)))
    event = draw(st.sampled_from(["apple_vanish 30 0.5", "bot_intrusion 30 10 2"]))
    text = (f"[world]\nmap = tiny.map\n[agents]\npolicies = {policies}\n"
            f"[events]\nschedule = {event}\n")
    return ["validate", "--config", "{dir}/s.ini"], {"s.ini": text, "tiny.map": draw(ANY_MAP)}


def preset_cases():
    return st.lists(st.sampled_from([*sorted(PRESETS), "", "nope", "TABLE2"]), max_size=2).map(
        lambda names: (["preset", *names], {}))


def _no_constant(name):
    raise AssertionError(f"JSON holds {name}")


class _EpisodeStarted(BaseException):
    """Raised by the patched ``run_episode``: it passes ``main``'s ``except Exception``."""


def _start_episode(*args, **kwargs):
    raise _EpisodeStarted


@st.composite
def grid_cases(draw):
    """``grid`` arguments and ``COOPRES_THREADS``, each valid or not, and whether all are."""
    preset = draw(st.sampled_from([*sorted(PRESETS), "nope"]))
    formats = draw(st.none() | st.lists(st.sampled_from(["csv", "json", "svg", "pdf"]),
                                        min_size=1, max_size=3))
    out = draw(st.sampled_from(["fresh", "a_file", "a_file/sub", ""]))
    seed = draw(st.none() | st.integers(-3, 2 ** 64))
    threads = draw(st.sampled_from([None, "1", "0", "-1", "abc", "1.5"]))
    argv = ["grid", "--preset", preset, "--out", f"{{dir}}/{out}" if out else "",
            *(["--format", ",".join(formats)] if formats is not None else []),
            *(["--seed", str(seed)] if seed is not None else [])]
    valid = (preset in PRESETS and "pdf" not in (formats or [])
             and len(set(formats or [])) == len(formats or []) and out == "fresh"
             and (seed is None or seed >= 0) and threads in (None, "1"))
    return argv, threads, valid


class TestNeverFailsLate:
    @given(case=st.one_of(measure_cases(), validate_cases(), map_cases(), preset_cases()))
    @settings(max_examples=200, deadline=None)
    # Once exited 0 with "J_jl": Infinity in its JSON.
    @example(case=(["measure", "--performance", "{dir}/p.csv", "--reference", "{dir}/r.csv",
                    "--schedule", "{dir}/s.txt", "--out", "{dir}/o.json"],
                   {"p.csv": "tick,value\n0,1e-8\n1,1e-8\n2,1e302\n3,1e302\n",
                    "r.csv": "tick,value\n0,1e-8\n1,1e-8\n2,1e-8\n3,1e-8\n", "s.txt": "1\n"}))
    def test_measure_validate_preset_score_or_refuse(self, case):
        argv, files = case
        calls = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            mp.setattr(coopres.harness, "run_episode", lambda *args, **kw: calls.append(args))
            for name, text in files.items():
                (Path(tmp) / name).write_text(text)
            out = Path(tmp) / "o.json"
            code = main([arg.format(dir=tmp) for arg in argv])
            assert caught == [] and calls == []
            if code == 0:
                assert err.getvalue() == ""
                if argv[0] == "measure":
                    report = json.loads(out.read_text(), parse_constant=_no_constant)
                    assert 0.0 <= report["J"] <= 1.0
            else:
                prefixes = {1: ("error:config:", "error:cli:"), 2: ("error:input:",)}[code]
                assert err.getvalue().startswith(prefixes)
                assert len(err.getvalue().splitlines()) == 1 and not out.exists()

    @given(case=grid_cases())
    @settings(max_examples=100, deadline=None)
    def test_grid_starts_its_episodes_or_refuses(self, case):
        argv, threads, valid = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            mp.setattr(coopres.harness, "run_episode", _start_episode)
            if threads is None:
                mp.delenv("COOPRES_THREADS", raising=False)
            else:
                mp.setenv("COOPRES_THREADS", threads)
            (Path(tmp) / "a_file").write_text("")
            try:
                code = main([arg.format(dir=tmp) for arg in argv])
            except _EpisodeStarted:
                assert valid
                return
            assert not valid
            prefixes = {1: ("error:config:", "error:cli:"), 2: ("error:input:",)}[code]
            assert err.getvalue().startswith(prefixes)
            assert len(err.getvalue().splitlines()) == 1
            assert list(Path(tmp).rglob("*")) == [Path(tmp) / "a_file"]
            assert (Path(tmp) / "a_file").read_text() == ""

    def test_every_config_key_is_drawn(self):
        assert CONFIG_VALUES.keys() == CONFIG_KEYS.keys()


class TestGrid:
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_count_rejected_before_any_episode(self, tiny_config, tmp_path,
                                                          capsys, monkeypatch, value):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        monkeypatch.setenv("COOPRES_THREADS", value)
        for command in (["grid", "--preset", "bots"], ["run", "--config", str(tiny_config)],
                        ["run", "--config", str(tiny_config), "--traces"]):
            code = main([*command, "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error:config: COOPRES_THREADS must be a positive integer, got {value!r}\n")
        assert episodes == []
        assert not (tmp_path / "o").exists()

    def test_cell_without_a_fired_event_prints_n_a(self, tmp_path, capsys, monkeypatch):
        # A p_s = 0.01 event fires in none of seeds 42-46; the other cell's always fires.
        base = ScenarioConfig(episode_length=60)
        cells = {(0, c): replace(base, scenario_id=f"E{c + 1}", schedule=parse_schedule(line))
                 for c, line in enumerate(["apple_vanish 30 0.5", "apple_vanish 30 0.5 0.01"])}
        grid = ExperimentGrid(grid_id="quiet", row_labels=["r"], col_labels=["a", "b"],
                              cells=cells)
        monkeypatch.setitem(coopres.cli.PRESETS, "quiet", lambda base: grid)
        assert main(["grid", "--preset", "quiet", "--out", str(tmp_path / "o")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"E1: J = [01]\.\d{6}", lines[0])
        assert lines[1:] == ["E2: J = n/a (no event fired in 5 episodes)"]
        cells = json.loads((tmp_path / "o" / "report.json").read_text())["cells"]
        assert [cell["J"] is None for cell in cells] == [False, True]

    def test_seed_is_the_preset_base(self, tmp_path, capsys):
        assert main(["grid", "--preset", "bots", "--seed", "3", "--format", "json",
                     "--out", str(tmp_path / "cli")]) == 0
        emit_report(run_grid(bots_preset(ScenarioConfig(base_seed=3))), tmp_path, ["json"])
        assert ((tmp_path / "cli" / "report.json").read_bytes()
                == (tmp_path / "report.json").read_bytes())


class TestPreset:
    def test_listing(self, capsys):
        assert main(["preset"]) == 0
        out = capsys.readouterr().out
        assert "table2: 9 scenarios" in out
        assert "bots: 3 scenarios" in out

    def test_show_table2(self, capsys):
        assert main(["preset", "table2"]) == 0
        assert capsys.readouterr().out == (
            "E1 [1 event | v_s=0.3]: apple_vanish@250 v_s=0.3\n"
            "E2 [1 event | v_s=0.5]: apple_vanish@250 v_s=0.5\n"
            "E3 [1 event | v_s=0.7]: apple_vanish@250 v_s=0.7\n"
            "E4 [2 events | v_s=0.3]: apple_vanish@50 v_s=0.3; apple_vanish@250 v_s=0.3\n"
            "E5 [2 events | v_s=0.5]: apple_vanish@50 v_s=0.5; apple_vanish@250 v_s=0.5\n"
            "E6 [2 events | v_s=0.7]: apple_vanish@50 v_s=0.7; apple_vanish@250 v_s=0.7\n"
            "E7 [3 events | v_s=0.3]: apple_vanish@50 v_s=0.3; apple_vanish@250 v_s=0.3; "
            "apple_vanish@400 v_s=0.3\n"
            "E8 [3 events | v_s=0.5]: apple_vanish@50 v_s=0.5; apple_vanish@250 v_s=0.5; "
            "apple_vanish@400 v_s=0.5\n"
            "E9 [3 events | v_s=0.7]: apple_vanish@50 v_s=0.7; apple_vanish@250 v_s=0.7; "
            "apple_vanish@400 v_s=0.7\n")

    def test_show_bots(self, capsys):
        assert main(["preset", "bots"]) == 0
        assert capsys.readouterr().out == (
            "E1 [2 bots | 25 ticks]: bots@100 x2 for 25\n"
            "E2 [2 bots | 50 ticks]: bots@100 x2 for 50\n"
            "E3 [2 bots | 75 ticks]: bots@100 x2 for 75\n")

    def test_unknown_preset(self, capsys):
        assert main(["preset", "meteor"]) == 1
        assert capsys.readouterr().err.startswith("error:config:")

    def test_runs_as_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(coopres.harness.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "coopres", "preset"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "bots: 3 scenarios (1x3)\ntable2: 9 scenarios (3x3)\n"


class TestArgsAndExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["validate", "--config", "x", "--frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error:cli:")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == 1

    # An --out that cannot be made was once refused only when the outputs
    # were written, after every episode had run.
    @pytest.mark.parametrize("command, out", [
        (["run", "--config", "{config}", "--traces"], "a_file"),
        (["run", "--config", "{config}"], "a_file/sub"),
        (["grid", "--preset", "bots"], "a_file"),
        (["grid", "--preset", "table2"], "a_file/sub/deeper"),
        (["measure", "--performance", "p.csv", "--reference", "r.csv"], "a_dir"),
        (["measure", "--performance", "p.csv", "--reference", "r.csv"], "a_file/r.json"),
        (["run", "--config", "{config}"], ""),
        (["grid", "--preset", "bots"], ""),
        (["measure", "--performance", "p.csv", "--reference", "r.csv"], ""),
    ], ids=["run_file", "run_under_file", "grid_file", "grid_under_file", "measure_dir",
            "measure_under_file", "run_empty", "grid_empty", "measure_empty"])
    def test_unusable_out_refused_before_any_work(self, tiny_config, tmp_path, capsys,
                                                  monkeypatch, command, out):
        def never(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(coopres.harness, "run_episode", never)
        monkeypatch.setattr(coopres.cli.TimeSeries, "from_csv", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = [arg.format(config=tiny_config) for arg in command]
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"error:input: --out {out}" if out else "error:input: --out is empty\n")
        assert sorted(tmp_path.rglob("*")) == before
