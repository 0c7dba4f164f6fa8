from __future__ import annotations

import csv
import json

import pytest

import coopres.harness
from coopres.cli import main
from coopres.harness import parse_scenario_config, run_episode
from coopres.timeseries import TimeSeries
from coopres.world import write_trace_jsonl

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
    p_path, r_path = tmp_path / "p.csv", tmp_path / "r.csv"
    TimeSeries(p_values).to_csv(p_path)
    TimeSeries(r_values).to_csv(r_path)
    return p_path, r_path


def write_raw_curve(path, values):
    path.write_text("tick,value\n" + "".join(f"{t},{v}\n" for t, v in enumerate(values)))
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

    def test_curves_starting_at_tick_5(self, tmp_path):
        # 20 rows on ticks 5..24; the trigger at tick 22 lies inside the data.
        p = [1.0] * 17 + [0.5, 0.6, 0.9]
        reports = {}
        for t0, trigger in ((5, 22), (0, 17)):
            run_dir = tmp_path / f"t0_{t0}"
            run_dir.mkdir()
            p_path, r_path = run_dir / "p.csv", run_dir / "r.csv"
            TimeSeries(p, t0=t0).to_csv(p_path)
            TimeSeries([1.0] * 20, t0=t0).to_csv(r_path)
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
        TimeSeries([1.0] * 10 + [0.4] * 10, t0=5).to_csv(p_path)
        TimeSeries([1.0] * 20, t0=5).to_csv(r_path)
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
        assert capsys.readouterr().err.startswith("error:input:")


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

    def test_seed_override_changes_results(self, tiny_config, tmp_path):
        out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
        main(["run", "--config", str(tiny_config), "--out", str(out_a), "--seed", "1"])
        main(["run", "--config", str(tiny_config), "--out", str(out_b), "--seed", "1"])
        main(["run", "--config", str(tiny_config), "--out", str(out_c), "--seed", "2"])
        a = (out_a / "report.json").read_text()
        assert a == (out_b / "report.json").read_text()
        assert a != (out_c / "report.json").read_text()

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

    def test_unknown_format_rejected(self, tiny_config, tmp_path, capsys):
        code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                     "--format", "pdf"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:config:")


class TestGrid:
    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_thread_count_rejected_before_any_episode(self, tmp_path, capsys,
                                                          monkeypatch, value):
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        monkeypatch.setenv("COOPRES_THREADS", value)
        code = main(["grid", "--preset", "bots", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error:config: COOPRES_THREADS must be a positive integer, got {value!r}\n")
        assert episodes == []


class TestPreset:
    def test_listing(self, capsys):
        assert main(["preset"]) == 0
        out = capsys.readouterr().out
        assert "table2: 9 scenarios" in out
        assert "bots: 3 scenarios" in out

    def test_show_table2(self, capsys):
        assert main(["preset", "table2"]) == 0
        out = capsys.readouterr().out
        assert "E9" in out and "v_s=0.7" in out

    def test_unknown_preset(self, capsys):
        assert main(["preset", "meteor"]) == 1
        assert capsys.readouterr().err.startswith("error:config:")


class TestArgsAndExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["validate", "--config", "x", "--frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error:cli:")

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["dance"]) == 1
