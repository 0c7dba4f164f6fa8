"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from coopres.disruptions import Event, EventKind, EventSchedule  # noqa: E402
from coopres.harness import ScenarioConfig, parse_scenario_config  # noqa: E402
from coopres.resilience import CurvePair, detect_triggers  # noqa: E402
from coopres.timeseries import TimeSeries  # noqa: E402


def spans_of(rows):
    """Span arrays from (name id, start ns, end ns, parent index) rows."""
    name, start, end, parent = (np.array(col) for col in zip(*rows))
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = spans_of([(0, 0, 10_000_000_000, -1),   # outer, 10 s
                      (1, 1_000_000_000, 4_000_000_000, 0),   # child, 3 s
                      (2, 2_000_000_000, 3_000_000_000, 1),   # grandchild, 1 s
                      (1, 5_000_000_000, 7_000_000_000, 0)])  # child, 2 s
    totals = tracer.span_totals(spans, ["outer", "child", "leaf"])
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert totals["child"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert totals["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in
    [*tracer.SPANS, *tracer.COUNTERS, tracer.POLICY_SPAN, tracer.EPISODE_SPAN]])
def test_every_traced_name_resolves(module, attr):
    owner, leaf = tracer._resolve(module, attr)
    assert callable(getattr(owner, leaf))


class Box:
    @classmethod
    def make(cls, x):
        return ("made", x)


def outer(x):
    return inner(x) + inner(x)


def inner(x):
    return x + 1


def test_recorder_links_nested_spans_and_keeps_classmethods():
    rec = tracer.Recorder()
    module = sys.modules[__name__]
    saved = (module.outer, module.inner, Box.__dict__["make"])
    try:
        tracer._replace(rec, __name__, "outer", lambda fn: rec.spanned(fn, "outer"))
        tracer._replace(rec, __name__, "inner", lambda fn: rec.spanned(fn, "inner"))
        tracer._replace(rec, __name__, "Box.make", lambda fn: rec.counted(fn, "make"))
        tracer._replace(rec, __name__, "absent", lambda fn: fn)
        assert outer(1) == 4
        assert Box.make(3) == ("made", 3)
    finally:
        module.outer, module.inner = saved[:2]
        Box.make = saved[2]
    assert [rec.names[i] for i in rec.name] == ["outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 0]
    assert all(s <= e for s, e in zip(rec.start, rec.end))
    assert rec.counts == {"make": 1}
    assert rec.unwrapped == [f"{__name__}.absent"]


def test_layer_metrics_from_a_dumped_trace(tmp_path):
    rec = tracer.Recorder()
    episode = rec.noted_episode(lambda config, seed, with_events: types.SimpleNamespace(
        fired_triggers=[50] if with_events else []))
    episode = rec.spanned(episode, "harness.run_episode")
    vanish = Event(kind=EventKind.APPLE_VANISH, trigger_tick=50, v_s=0.5)
    config = ScenarioConfig(episode_length=100, schedule=EventSchedule(events=[vanish]))
    for with_events in (False, True, False):
        episode(config, 1, with_events=with_events)
    rec.dump(tmp_path / "spans")
    spans, meta = tracer.load(tmp_path / "spans")
    meta["out_bytes"] = 7
    m = tracer.layer_metrics(spans, meta)
    assert m["harness.run_episode.calls"] == (3, "count")
    assert m["harness.run_episode.ticks"] == (300, "count")
    assert m["harness.distinct_episode_share"] == (2 / 3, "ratio")
    assert m["harness.prefix_share"] == (0.5, "ratio")
    assert m["harness.out_bytes"] == (7, "bytes")
    assert m["world.build_view.calls"] == (0, "count")
    assert "harness.run_episode.p90_ms" in m


class FakeBench:
    """Stands in for run.Bench: every traced run dumps the given recorders in turn."""

    def __init__(self, tmp_path, recorders):
        self.tmp_path, self.recorders, self.n = tmp_path, list(recorders), 0

    def run_command(self, job, threads, trace):
        self.n += 1
        out = self.tmp_path / f"out-{self.n}"
        out.mkdir()
        result = run.Run(wall_s=1.0, command_cpu_s=1.0, out=out, digest="same")
        if trace:
            result.spans = self.tmp_path / f"spans-{self.n}"
            self.recorders.pop(0).dump(result.spans)
        return result


def traced_recorder(line_of_sight_calls, unwrapped=()):
    rec = tracer.Recorder()
    rec.counts["world.line_of_sight"] = line_of_sight_calls
    rec.unwrapped.extend(unwrapped)
    return rec


def measure_twice(tmp_path, monkeypatch, recorders):
    monkeypatch.setattr(run, "loop", lambda seconds, once: [once(), once()])
    workload = run.WORKLOADS["measure-long"]
    return run.measure_layers(FakeBench(tmp_path, recorders), workload, run.Job([]), 0.0)


def test_traced_counts_that_repeat_pass(tmp_path, monkeypatch):
    outcome = measure_twice(tmp_path, monkeypatch, [traced_recorder(5), traced_recorder(5)])
    assert outcome.failed == 0
    assert outcome.metrics["world.line_of_sight.calls"] == (5, "count")


def test_traced_counts_that_differ_fail_the_run(tmp_path, monkeypatch):
    outcome = measure_twice(tmp_path, monkeypatch, [traced_recorder(5), traced_recorder(6)])
    assert outcome.failed == 1
    assert "world.line_of_sight.calls" in outcome.runs[-1].error


def test_unwrapped_trace_target_fails_the_run(tmp_path, monkeypatch):
    outcome = measure_twice(tmp_path, monkeypatch,
                            [traced_recorder(5), traced_recorder(5, ["coopres.x.gone"])])
    assert outcome.failed == 1
    assert "coopres.x.gone" in outcome.runs[-1].error
    assert outcome.metrics == {}


def test_long_curves_depend_only_on_the_seed():
    a = inputs.long_curves(7, 20_000, 4)
    b = inputs.long_curves(7, 20_000, 4)
    c = inputs.long_curves(8, 20_000, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_curve_csv_round_trips_and_planted_triggers_are_detected(tmp_path):
    expected = inputs.write_long_curves(tmp_path, 3, tiny=True)
    text = (tmp_path / "performance.csv").read_text()
    assert "np.float64" not in text
    perf = TimeSeries.from_csv(tmp_path / "performance.csv")
    ref = TimeSeries.from_csv(tmp_path / "reference.csv")
    assert np.array_equal(perf.values, inputs.long_curves(3, 5_000, 3)[0])
    assert len(expected) == 3
    assert detect_triggers(CurvePair(performance=perf, reference=ref)) == expected


def test_late_scenario_is_a_valid_config(tmp_path):
    episodes = inputs.write_late_scenario(tmp_path / "late.ini", 9)
    config = parse_scenario_config(tmp_path / "late.ini")
    config.validate()
    assert (episodes, config.episodes, config.base_seed) == (5, 5, 9)
    assert [e.trigger_tick for e in config.schedule] == [900, 1100]


def write_report(out: Path, report: dict) -> None:
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report))


def test_check_output_accepts_a_consistent_grid_report(tmp_path):
    report = {"cells": [{"J": 0.5, "per_episode_J": [0.4, None]}, {"J": 1.0}]}
    write_report(tmp_path, report)
    error, digest = run.check_output(run.Job([]), tmp_path,
                                     "E1: J = 0.500000\nE2: J = 1.000000\n")
    assert error is None
    assert digest == run.digest([tmp_path / "report.json"])


@pytest.mark.parametrize("report, stdout, reason", [
    ({"cells": [{"J": 1.5}]}, "E1: J = 1.500000\n", "outside"),
    ({"cells": [{"J": 0.5, "per_episode_J": [-0.1]}]}, "E1: J = 0.500000\n", "outside"),
    ({"cells": [{"J": 0.5}]}, "E1: J = 0.600000\n", "stdout"),
    ({"cells": []}, "", "missing"),
])
def test_check_output_rejects_bad_reports(tmp_path, report, stdout, reason):
    write_report(tmp_path, report)
    error, digest = run.check_output(run.Job([]), tmp_path, stdout)
    assert reason in error and digest is None


def test_check_output_counts_traces_and_checks_detected_triggers(tmp_path):
    write_report(tmp_path, {"J": 0.9, "per_variable": {"value": {"events": [{"t_i": 5}]}}})
    assert "trace files" in run.check_output(run.Job([], trace_files=2), tmp_path,
                                             "J = 0.900000 (L=1)")[0]
    assert "triggers" in run.check_output(run.Job([], triggers=[6]), tmp_path,
                                          "J = 0.900000 (L=1)")[0]
    assert run.check_output(run.Job([], triggers=[5]), tmp_path,
                            "J = 0.900000 (L=1)")[0] is None


def test_runs_with_a_different_digest_fail():
    runs = [run.Run(digest="a"), run.Run(digest="a"), run.Run(digest="b")]
    assert run.check_digests(runs) == "a"
    assert [r.error is None for r in runs] == [True, True, False]


def test_smoke_prints_every_metric_of_benchmark_json():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "measure-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
