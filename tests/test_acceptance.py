"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its runtime.

The trend criteria (7-9) run the full named experiment grids at the
default seed; the tolerance bands mirror the behavior the scripted-agent
dynamics are expected to reproduce qualitatively.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from coopres.disruptions import apply_apple_vanish
from coopres.harness import ScenarioConfig, bots_preset, run_episode, run_grid, table2_preset
from coopres.report import emit_report, export_indicators, grid_json_dict
from coopres.resilience import (
    CurvePair,
    Milestones,
    assemble_variables,
    fold_events,
    resilience_pipeline,
    summary_metric,
)
from coopres.timeseries import TimeSeries
from coopres.world import load_map, make_world

from test_resilience import oracle_event_score


def report_line(num: int, name: str, elapsed: float, ok: bool = True):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status} ({elapsed:.2f}s): {name}")
    assert ok


@pytest.fixture(scope="module")
def table2_result():
    start = time.perf_counter()
    result = run_grid(table2_preset())
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def bots_result():
    start = time.perf_counter()
    result = run_grid(bots_preset())
    return result, time.perf_counter() - start


def test_criterion_1_metric_identity():
    start = time.perf_counter()
    values = [3.0 + 0.5 * np.sin(t / 40.0) + 0.01 * (t % 11) for t in range(1500)]
    pairs = {name: CurvePair(performance=TimeSeries(values), reference=TimeSeries(values))
             for name in ("apples_pc", "trees_pc", "gini_equality", "hunger_index")}
    ok = True
    for schedule in ([250], [50, 250], [50, 250, 400]):
        report = resilience_pipeline(pairs, schedule)
        ok &= abs(report.assembled - 1.0) <= 1e-9
        ok &= all(abs(ev.j_value - 1.0) <= 1e-9
                  for vr in report.per_variable.values() for ev in vr.events)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report_line(1, "identity curves score J = 1 on every event layout", elapsed, ok)


def test_criterion_2_closed_form_oracle():
    start = time.perf_counter()
    rng = random.Random(12345)
    checked = 0
    worst = 0.0
    while checked < 50:
        horizon = rng.randrange(20, 120)
        ws = rng.randrange(0, horizon - 10)
        t_i = rng.randrange(ws, horizon - 3)
        t_f = rng.randrange(t_i, horizon - 2)
        t_r = rng.randrange(t_f, horizon - 1)
        if (t_i - ws) + (t_r - t_i) == 0:
            continue
        # dyadic rationals expressible exactly in binary floating point
        p_fr = [Fraction(rng.randrange(0, 257), 64) for _ in range(horizon)]
        r_fr = [Fraction(rng.randrange(32, 257), 64) for _ in range(horizon)]
        pair = CurvePair(performance=TimeSeries([float(v) for v in p_fr]),
                         reference=TimeSeries([float(v) for v in r_fr]))
        m = Milestones(t_i=t_i, t_f=t_f, t_r=t_r, window_start=ws)
        got = summary_metric(pair, m).j_value
        expected = float(oracle_event_score(p_fr, r_fr, ws, t_i, t_f, t_r))
        worst = max(worst, abs(got - expected))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report_line(2, f"event scores match the rational oracle on {checked} instances "
                   f"(worst |err| = {worst:.2e})", elapsed, ok)


def test_criterion_3_fold_behavior():
    start = time.perf_counter()
    ok = fold_events([0.9, 0.5]) == 0.42
    ok &= fold_events([0.5, 0.9]) == ((0.5 + 0.9) / 2) * (1 + (0.9 - 0.5))
    ok &= abs(fold_events([0.5, 0.9]) - 0.98) < 1e-12
    rng = random.Random(777)
    for _ in range(10_000):
        seq = [rng.uniform(0, 2) for _ in range(rng.randrange(1, 9))]
        folded = fold_events(seq)
        if not 0.0 <= folded <= 1.0:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(3, "fold matches hand-derived values and stays in [0, 1] "
                   "over 10k random sequences", elapsed, ok)


def test_criterion_4_harmonic_assembly():
    start = time.perf_counter()
    rng = random.Random(4242)
    ok = True
    for _ in range(10_000):
        n = rng.randrange(1, 9)
        folded = {f"v{i}": rng.uniform(0, 1) for i in range(n)}
        if rng.random() < 0.1:
            folded["v0"] = 0.0
        assembled = assemble_variables(folded)
        if any(v == 0.0 for v in folded.values()):
            ok &= assembled == 0.0
        ok &= assembled <= sum(folded.values()) / n + 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(4, "harmonic assembly never exceeds the mean and zeroes on any "
                   "zero variable (10k draws)", elapsed, ok)


def test_criterion_5_vanish_event_constraint():
    start = time.perf_counter()
    rng = random.Random(99)
    state = make_world(load_map("########\n#AAAAAA#\n#S.....#\n########"), 0, (0.0,))
    total_survivors = 0
    trials = 10_000
    ok = True
    for _ in range(trials):
        for cell in state.grid.trees[0]:
            if cell not in state.live_apples:
                state.revive_apple(cell)
        apply_apple_vanish(state, 0.7, rng)
        live = state.stock[0]
        ok &= live >= 1
        total_survivors += live
    mean = total_survivors / trials
    expected = 1 + 5 * (1 - 0.7)
    band = 3 * (5 * 0.7 * 0.3 / trials) ** 0.5
    elapsed = time.perf_counter() - start
    ok &= abs(mean - expected) <= band and elapsed < 10.0
    report_line(5, f"10k vanish events: no tree below 1 apple, mean survivors "
                   f"{mean:.4f} within {expected:.2f} +/- {band:.4f}", elapsed, ok)


def test_criterion_6_simulator_conservation():
    start = time.perf_counter()
    config = ScenarioConfig()  # default 1500-tick episode, 5 agents
    trace = run_episode(config, seed=42, with_events=True)
    live = trace.apples_per_tree.sum(axis=1).astype(np.int64)
    initial = live[0] + trace.ledger_consumed[0] + trace.ledger_event_vanished[0] \
        - trace.ledger_regrown[0]
    balance = (trace.ledger_consumed + trace.ledger_event_vanished + live
               - trace.ledger_regrown - initial)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(balance == 0)) and elapsed < 2.0
    report_line(6, "apple ledger balances exactly at every tick of a "
                   "1500-tick episode", elapsed, ok)


def _rows_within_band(heatmap: np.ndarray, band: float = 0.05) -> int:
    return sum(bool(np.all(np.diff(row) <= band)) for row in heatmap)


def _assembled(result) -> np.ndarray:
    """Each cell's assembled score, rows x cols, as the report's heatmap shows it."""
    return np.array([[result.results[(r, c)].report.assembled
                      for c in range(len(result.grid.col_labels))]
                     for r in range(len(result.grid.row_labels))])


def test_criterion_7_magnitude_and_count_trend(table2_result):
    result, elapsed = table2_result
    hm = _assembled(result)
    rows_ok = _rows_within_band(hm)
    strict = hm[2, 2] < hm[0, 0]
    ok = rows_ok >= 2 and strict and elapsed < 60.0
    report_line(7, f"3x3 vanish grid: {rows_ok}/3 rows non-increasing within 0.05, "
                   f"E9 ({hm[2, 2]:.3f}) < E1 ({hm[0, 0]:.3f})", elapsed, ok)


def test_criterion_8_bot_duration_trend(bots_result):
    result, elapsed = bots_result
    row = _assembled(result)[0]
    ok = bool(np.all(np.diff(row) <= 0.05)) and elapsed < 30.0
    report_line(8, "bot grid J non-increasing in duration within 0.05: "
                   + np.array2string(row, precision=3), elapsed, ok)


def test_criterion_9_determinism(table2_result, bots_result):
    start = time.perf_counter()
    again_table2 = run_grid(table2_preset())
    again_bots = run_grid(bots_preset())
    ok = grid_json_dict(again_table2) == grid_json_dict(table2_result[0])
    ok &= grid_json_dict(again_bots) == grid_json_dict(bots_result[0])
    elapsed = time.perf_counter() - start
    report_line(9, "re-running both grids reproduces bit-identical reports", elapsed, ok)


# sha256 of every output file of the default-seed grids, as written by
# CPython 3.11.7 with numpy 2.4.6: report.json alone, then all files
# concatenated in sorted name order.  A change to any reported number or
# output byte shows here.
OUTPUT_DIGESTS = {
    "table2": (39, "9d80904464c1659b9465e99457b92a5af6f721b0328ea12c0ebe20bcccb98ee2",
               "c2b860829ff7bb88bd0d0d84bfb8dfe3048231266df24add799235b4b4bccea4"),
    "bots": (15, "450d4cd8fc0ab5cda5ed5dc733df9474c08c6b42e4b2c725044e2eb0af113883",
             "6ba4d4a41068b217724680bec6976f91b7e7587c1c4b86e4e5fb14cc23fc8f92"),
}


@pytest.mark.parametrize("preset", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned(preset, request, tmp_path):
    result, _ = request.getfixturevalue(f"{preset}_result")
    emit_report(result, tmp_path, ("csv", "json", "svg"))
    export_indicators(result, tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    everything = hashlib.sha256(b"".join((tmp_path / f).read_bytes() for f in files))
    count, report_digest, all_digest = OUTPUT_DIGESTS[preset]
    assert len(files) == count
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == report_digest
    assert everything.hexdigest() == all_digest


@pytest.mark.parametrize("preset", sorted(OUTPUT_DIGESTS))
def test_output_bytes_pinned_at_two_workers(preset, tmp_path, monkeypatch):
    build = {"table2": table2_preset, "bots": bots_preset}[preset]
    monkeypatch.setenv("COOPRES_THREADS", "2")
    emit_report(run_grid(build()), tmp_path, ("json",))
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == OUTPUT_DIGESTS[preset][1]
