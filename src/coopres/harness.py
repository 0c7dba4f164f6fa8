"""Scenario execution: seeded episode pairs, experiment grids, reports.

A scenario scores ``episodes`` seeded pairs of episodes — one with the
event schedule live (performance) and one with it disabled (reference) —
by feeding their averaged indicator curves through the resilience
pipeline.

One seed is the unit of work.  Both twins draw their agent decisions
from the same seeded stream (common random numbers), so they agree tick
for tick until the first trigger.  For each seed the reference episode
is therefore simulated once and shared by every cell of a grid; it is
snapshotted at the start of each cell's first trigger tick, and each
performance episode continues from its snapshot with the reference's
rows before it.  A cell with no events reuses the reference outright.
Traces are reduced to indicator curves as soon as they are simulated,
unless the caller keeps them.
"""

from __future__ import annotations

import concurrent.futures
import configparser
import csv
import functools
import json
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .disruptions import Event, EventEngine, EventKind, EventSchedule, parse_schedule
from .indicators import (
    INDICATOR_NAMES,
    EpisodeTrace,
    IndicatorConfig,
    compute_indicators,
    consolidate,
    write_indicator_csv,
)
from .resilience import CurvePair, ResilienceReport, resilience_pipeline
from .timeseries import TimeSeries, pointwise_std
from .world import (
    DEFAULT_MAP,
    DEFAULT_REGROWTH_TABLE,
    GridMap,
    PolicyKind,
    WorldState,
    build_view,
    load_map,
    make_world,
    policy_action,
    step_world,
)


class ConfigError(ValueError):
    """A scenario or grid configuration failed validation."""


DEFAULT_POLICIES = (PolicyKind.SUSTAINABLE, PolicyKind.SUSTAINABLE,
                    PolicyKind.SUSTAINABLE, PolicyKind.GREEDY, PolicyKind.GREEDY)
DEFAULT_SEED = 42


@functools.lru_cache(maxsize=1)
def _grid_for(map_text: str) -> GridMap:
    # One entry suffices: every command runs scenarios on a single map.
    return load_map(map_text)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str = "scenario"
    map_text: str = DEFAULT_MAP
    policies: tuple[PolicyKind, ...] = DEFAULT_POLICIES
    episode_length: int = 1500
    episodes: int = 5
    schedule: EventSchedule = field(default_factory=EventSchedule)
    base_seed: int = DEFAULT_SEED
    regrowth_table: tuple[float, ...] = DEFAULT_REGROWTH_TABLE
    h_max: int = 100
    indicators: tuple[str, ...] = INDICATOR_NAMES

    @property
    def n_agents(self) -> int:
        return len(self.policies)

    def validate(self) -> None:
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if not self.policies:
            raise ConfigError("at least one agent policy is required")
        if self.episode_length < 2:
            raise ConfigError("episode_length must be >= 2")
        if self.schedule.events and self.episode_length <= self.schedule.max_trigger() + 1:
            raise ConfigError(
                f"episode_length {self.episode_length} must exceed the last "
                f"trigger + 1 ({self.schedule.max_trigger() + 1})")
        if self.h_max < 1:
            raise ConfigError("h_max must be >= 1")
        if not self.regrowth_table or any(not 0.0 <= p <= 1.0 for p in self.regrowth_table):
            raise ConfigError("regrowth_table must be probabilities in [0, 1]")
        try:
            IndicatorConfig(names=self.indicators, h_max=self.h_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            grid = _grid_for(self.map_text)
        except ValueError as exc:
            raise ConfigError(f"map: {exc}") from None
        if len(grid.spawn_points) < self.n_agents:
            raise ConfigError(
                f"map has {len(grid.spawn_points)} spawn points, "
                f"{self.n_agents} agents configured")


@dataclass
class ScenarioResult:
    scenario_id: str
    performance: dict[str, TimeSeries]
    reference: dict[str, TimeSeries]
    per_episode_performance: list[dict[str, TimeSeries]]
    per_episode_reference: list[dict[str, TimeSeries]]
    report: ResilienceReport
    per_episode_j: list[float | None]
    # (performance, reference) per episode, only when the run was asked to keep them
    traces: list[tuple[EpisodeTrace, EpisodeTrace]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = self.report.to_json_dict()
        d["scenario"] = self.scenario_id
        d["per_episode_J"] = self.per_episode_j
        return d


@dataclass(frozen=True)
class Snapshot:
    """An episode at the start of ``tick``, before that tick's events fire.

    ``trace`` is the episode's own trace; its rows before ``tick`` are final.
    """

    tick: int
    state: WorldState
    rng_state: tuple
    trace: EpisodeTrace


def run_episode(config: ScenarioConfig, seed: int, with_events: bool, *,
                snapshots: dict[int, Snapshot | None] | None = None,
                start: Snapshot | None = None) -> EpisodeTrace:
    """Step one seeded episode and record its trace.

    Each tick's row is recorded after any events scheduled for that tick
    have fired and before agents act, so tick 0 shows the pristine world
    and an event's impact is visible from its trigger tick onward.

    ``snapshots`` lists ticks by its keys; the episode's state at the
    start of each is stored under it.  ``start`` continues from such a
    snapshot of the same seed, copying the rows before it.  That equals
    stepping from tick 0 as long as none of the events triggers before
    the snapshot's tick: the event stream is drawn from only at trigger
    ticks, so it is still fresh there.
    """
    grid = _grid_for(config.map_text)
    rng = random.Random(seed)
    # Events draw from their own stream so that the with/without-events twin
    # runs keep identical agent stochasticity wherever the world state agrees.
    event_rng = random.Random(f"coopres-events-{seed}")
    engine = EventEngine(config.schedule) if with_events else None

    h = config.episode_length
    n = config.n_agents
    trace = EpisodeTrace(
        n_agents=n, apples_per_tree=np.zeros((h, len(grid.trees)), dtype=np.int32),
        consumed=np.zeros((h, n), dtype=np.int64),
        hunger_ticks=np.zeros((h, n), dtype=np.int64),
        ledger_consumed=np.zeros(h, dtype=np.int64),
        ledger_regrown=np.zeros(h, dtype=np.int64),
        ledger_event_vanished=np.zeros(h, dtype=np.int64),
        positions=np.zeros((h, n, 2), dtype=np.int32))
    if start is None:
        t0 = 0
        state = make_world(grid, n, config.regrowth_table)
    else:
        t0 = start.tick
        if engine is not None and any(e.trigger_tick < t0 for e in config.schedule):
            raise ValueError(f"cannot continue from tick {t0}: an event triggers before it")
        state = start.state.copy()
        rng.setstate(start.rng_state)
        for name in ("apples_per_tree", "consumed", "hunger_ticks", "positions",
                     "ledger_consumed", "ledger_regrown", "ledger_event_vanished"):
            getattr(trace, name)[:t0] = getattr(start.trace, name)[:t0]
        trace.bot_records.extend(start.trace.bot_records[:t0])

    apples, consumed, hunger = trace.apples_per_tree, trace.consumed, trace.hunger_ticks
    positions, bot_records = trace.positions, trace.bot_records
    led_consumed, led_regrown = trace.ledger_consumed, trace.ledger_regrown
    led_vanished = trace.ledger_event_vanished
    for t in range(t0, h):
        if snapshots is not None and t in snapshots:
            snapshots[t] = Snapshot(tick=t, state=state.copy(), rng_state=rng.getstate(),
                                    trace=trace)
        if engine is not None:
            engine.fire_events(state, t, event_rng)

        apples[t] = [tree.live for tree in state.trees]
        welfare = [state.agents[i] for i in range(n)]
        consumed[t] = [a.cumulative_consumed for a in welfare]
        hunger[t] = [a.ticks_since_meal for a in welfare]
        positions[t] = [a.position for a in welfare]
        led_consumed[t] = state.total_consumed
        led_regrown[t] = state.total_regrown
        led_vanished[t] = state.total_event_vanished
        bot_records.append([(b.id, b.position, b.cumulative_consumed)
                            for b in state.bots()])

        actions = {}
        for agent_id in sorted(state.agents):
            agent = state.agents[agent_id]
            policy = (PolicyKind.UNSUSTAINABLE_BOT if agent.is_bot
                      else config.policies[agent_id])
            actions[agent_id] = policy_action(policy, build_view(state, agent_id), rng)
        step_world(state, actions, rng)

    trace.fired_triggers = tuple(engine.fired_triggers()) if engine is not None else ()
    trace.validate()
    return trace


@dataclass
class _Episode:
    """One seed of one scenario, reduced to what scoring needs."""

    performance: dict[str, TimeSeries]
    reference: dict[str, TimeSeries]
    fired_triggers: tuple[int, ...]
    traces: tuple[EpisodeTrace, EpisodeTrace] | None = None


def _run_seed(cells: list[tuple[tuple[int, int] | None, ScenarioConfig]], k: int,
              keep_traces: bool = False) -> list[_Episode]:
    """Episode ``k`` of every cell, which differ only in their schedules.

    The reference is simulated once; each performance episode continues
    from it at the cell's first trigger.  A failure raises ``RuntimeError``
    naming the cell being run (the first while the reference runs), unless
    the cell is ``None`` or the failure is a ``ConfigError``.
    """
    cell, config = cells[0]
    seed = config.base_seed + k
    icfg = IndicatorConfig(names=config.indicators, h_max=config.h_max)

    def curves(trace: EpisodeTrace) -> dict[str, TimeSeries]:
        return compute_indicators([trace], icfg)[1][0]

    snapshots: dict[int, Snapshot | None] = {
        cfg.schedule.events[0].trigger_tick: None for _, cfg in cells if cfg.schedule.events}
    episodes = []
    try:
        reference = run_episode(config, seed, with_events=False, snapshots=snapshots)
        ref_curves = curves(reference)
        for cell, cfg in cells:
            if cfg.schedule.events:
                performance = run_episode(cfg, seed, with_events=True,
                                          start=snapshots[cfg.schedule.events[0].trigger_tick])
                perf_curves = curves(performance)
            else:
                performance, perf_curves = reference, ref_curves
            episodes.append(_Episode(perf_curves, ref_curves, performance.fired_triggers,
                                     (performance, reference) if keep_traces else None))
    except ConfigError:
        raise
    except Exception as exc:
        if cell is None:
            raise
        raise RuntimeError(f"grid cell {cell} failed: {exc}") from exc
    return episodes


def _score(config: ScenarioConfig, episodes: list[_Episode]) -> ScenarioResult:
    """Consolidate one scenario's episodes and score its resilience."""
    per_ep_perf = [ep.performance for ep in episodes]
    per_ep_ref = [ep.reference for ep in episodes]
    performance = consolidate(per_ep_perf)
    reference = consolidate(per_ep_ref)

    # Events that fired in any episode define the scenario's window layout;
    # with p_s = 1 this is simply the schedule.
    triggers = sorted({t for ep in episodes for t in ep.fired_triggers})
    pairs = {name: CurvePair(performance=curve, reference=reference[name])
             for name, curve in performance.items()}
    report = resilience_pipeline(pairs, triggers)

    per_episode_j: list[float | None] = []
    for ep in episodes:
        if not ep.fired_triggers:
            per_episode_j.append(None)
            continue
        ep_pairs = {name: CurvePair(performance=curve, reference=ep.reference[name])
                    for name, curve in ep.performance.items()}
        per_episode_j.append(resilience_pipeline(ep_pairs, ep.fired_triggers).assembled)

    return ScenarioResult(scenario_id=config.scenario_id, performance=performance,
                          reference=reference, per_episode_performance=per_ep_perf,
                          per_episode_reference=per_ep_ref, report=report,
                          per_episode_j=per_episode_j,
                          traces=[ep.traces for ep in episodes if ep.traces is not None])


def run_scenario(config: ScenarioConfig, keep_traces: bool = False) -> ScenarioResult:
    """Run the paired episodes, consolidate curves, score resilience.

    With ``keep_traces`` the result also holds every episode's traces.
    """
    config.validate()
    cells = [(None, config)]
    return _score(config, [_run_seed(cells, k, keep_traces)[0]
                           for k in range(config.episodes)])


@dataclass
class ExperimentGrid:
    grid_id: str
    row_labels: list[str]
    col_labels: list[str]
    cells: dict[tuple[int, int], ScenarioConfig]

    def validate(self) -> None:
        if not self.cells:
            raise ConfigError("experiment grid has no cells")
        # Cells share their reference episodes, so all else must agree.
        cells = self.sorted_cells()
        first = cells[0][1]
        for cell, cfg in cells:
            if replace(cfg, scenario_id=first.scenario_id, schedule=first.schedule) != first:
                raise ConfigError(
                    f"grid cell {cell} must share every setting with the others; "
                    "only the scenario id and the schedule may differ")
            cfg.validate()

    def sorted_cells(self) -> list[tuple[tuple[int, int], ScenarioConfig]]:
        return sorted(self.cells.items())


@dataclass
class GridResult:
    grid_id: str
    row_labels: list[str]
    col_labels: list[str]
    results: dict[tuple[int, int], ScenarioResult]

    def heatmap(self) -> np.ndarray:
        """Assembled resilience score per cell, rows x cols; NaN where absent."""
        out = np.full((len(self.row_labels), len(self.col_labels)), np.nan)
        for (r, c), res in self.results.items():
            out[r, c] = res.report.assembled
        return out

    def scenario_results(self) -> list[ScenarioResult]:
        return [res for _, res in sorted(self.results.items())]


def run_grid(grid: ExperimentGrid, workers: int | None = None) -> GridResult:
    """Run every cell of the grid, one seed at a time.

    Each seed's reference episode is simulated once and shared by all
    cells (see the module docstring).  Seeds run in order, or spread
    over at most ``workers`` processes; ``workers`` defaults to the
    COOPRES_THREADS environment variable (sequential when unset).
    Either way a failing episode raises ``RuntimeError`` naming its cell,
    and a ``ConfigError`` passes through unchanged.
    """
    if workers is None:
        raw = os.environ.get("COOPRES_THREADS", "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(f"COOPRES_THREADS must be a positive integer, got {raw!r}")
    grid.validate()
    cells = grid.sorted_cells()
    seeds = range(cells[0][1].episodes)
    run_seed = functools.partial(_run_seed, cells)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(seeds))) as pool:
            per_seed = list(pool.map(run_seed, seeds))
    else:
        per_seed = [run_seed(k) for k in seeds]
    results = {cell: _score(cfg, [episodes[i] for episodes in per_seed])
               for i, (cell, cfg) in enumerate(cells)}
    return GridResult(grid_id=grid.grid_id, row_labels=grid.row_labels,
                      col_labels=grid.col_labels, results=results)


# ---------------------------------------------------------------------------
# Named presets

TABLE2_TRIGGERS = {1: (250,), 2: (50, 250), 3: (50, 250, 400)}
TABLE2_MAGNITUDES = (0.3, 0.5, 0.7)
BOT_DURATIONS = (25, 50, 75)
BOT_TRIGGER = 100
BOT_COUNT = 2


def table2_preset(base: ScenarioConfig | None = None) -> ExperimentGrid:
    """The 3x3 apple-vanish grid: 1-3 events times magnitudes 0.3/0.5/0.7."""
    base = base or ScenarioConfig()
    cells = {}
    for r, n_events in enumerate(sorted(TABLE2_TRIGGERS)):
        for c, v_s in enumerate(TABLE2_MAGNITUDES):
            events = [Event(kind=EventKind.APPLE_VANISH, trigger_tick=t, v_s=v_s)
                      for t in TABLE2_TRIGGERS[n_events]]
            scenario_id = f"E{r * len(TABLE2_MAGNITUDES) + c + 1}"
            cells[(r, c)] = replace(base, scenario_id=scenario_id,
                                    schedule=EventSchedule(events=events))
    return ExperimentGrid(
        grid_id="table2",
        row_labels=[f"{n} event{'s' if n > 1 else ''}" for n in sorted(TABLE2_TRIGGERS)],
        col_labels=[f"v_s={v}" for v in TABLE2_MAGNITUDES],
        cells=cells)


def bots_preset(base: ScenarioConfig | None = None) -> ExperimentGrid:
    """Bot-intrusion scenarios: two bots entering at tick 100 for 25/50/75 ticks."""
    base = base or ScenarioConfig()
    cells = {}
    for c, duration in enumerate(BOT_DURATIONS):
        event = Event(kind=EventKind.BOT_INTRUSION, trigger_tick=BOT_TRIGGER,
                      duration=duration, bot_count=BOT_COUNT)
        cells[(0, c)] = replace(base, scenario_id=f"E{c + 1}",
                                schedule=EventSchedule(events=[event]))
    return ExperimentGrid(grid_id="bots", row_labels=[f"{BOT_COUNT} bots"],
                          col_labels=[f"{d} ticks" for d in BOT_DURATIONS],
                          cells=cells)


PRESETS = {"table2": table2_preset, "bots": bots_preset}


# ---------------------------------------------------------------------------
# Scenario config files (INI format)

def parse_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario from a sectioned key-value file.

    Sections: ``[world]`` (map, regrowth_table), ``[agents]`` (policies),
    ``[events]`` (schedule or schedule_file), ``[pipeline]``
    (scenario_id, episode_length, episodes, base_seed, h_max, indicators).
    Every key is optional; defaults mirror ScenarioConfig.
    """
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known = {"world", "agents", "events", "pipeline"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")

    kwargs: dict = {"scenario_id": path.stem}
    try:
        if parser.has_option("world", "map"):
            raw = parser.get("world", "map").strip()
            if raw == "default":
                kwargs["map_text"] = DEFAULT_MAP
            else:
                map_path = Path(raw)
                if not map_path.is_absolute():
                    map_path = path.parent / map_path
                kwargs["map_text"] = map_path.read_text()
        if parser.has_option("world", "regrowth_table"):
            kwargs["regrowth_table"] = tuple(
                float(x) for x in parser.get("world", "regrowth_table").split(","))
        if parser.has_option("agents", "policies"):
            names = [p.strip() for p in parser.get("agents", "policies").split(",")]
            kwargs["policies"] = tuple(PolicyKind(name) for name in names)
        if parser.has_option("events", "schedule"):
            kwargs["schedule"] = parse_schedule(parser.get("events", "schedule"))
        elif parser.has_option("events", "schedule_file"):
            sched_path = Path(parser.get("events", "schedule_file").strip())
            if not sched_path.is_absolute():
                sched_path = path.parent / sched_path
            kwargs["schedule"] = parse_schedule(sched_path.read_text())
        if parser.has_option("pipeline", "scenario_id"):
            kwargs["scenario_id"] = parser.get("pipeline", "scenario_id").strip()
        for key in ("episode_length", "episodes", "base_seed", "h_max"):
            if parser.has_option("pipeline", key):
                kwargs[key] = parser.getint("pipeline", key)
        if parser.has_option("pipeline", "indicators"):
            kwargs["indicators"] = tuple(
                s.strip() for s in parser.get("pipeline", "indicators").split(","))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# Report emission

def _long_rows(results: list[ScenarioResult]) -> list[list]:
    rows = []
    for res in results:
        rep = res.report
        for name, vr in rep.per_variable.items():
            for l, ev in enumerate(vr.events, start=1):
                rows.append([res.scenario_id, name, l,
                             repr(ev.j_value), repr(ev.f_profile), repr(ev.g_profile),
                             repr(vr.folded), repr(rep.assembled)])
    return rows


def _heat_color(j: float) -> tuple[str, str]:
    """Fill and text color for a score: darker cell = lower resilience."""
    j = min(max(j, 0.0), 1.0)
    dark = (8, 48, 107)
    light = (222, 235, 247)
    rgb = tuple(round(d + (l - d) * j) for d, l in zip(dark, light))
    text = "#000000" if j > 0.55 else "#ffffff"
    return "#{:02x}{:02x}{:02x}".format(*rgb), text


def _heatmap_svg(result: GridResult) -> str:
    cell_w, cell_h = 96, 64
    left, top = 110, 56
    rows, cols = len(result.row_labels), len(result.col_labels)
    width = left + cols * cell_w + 20
    height = top + rows * cell_h + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left + cols * cell_w / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{result.grid_id} resilience</text>',
    ]
    for c, label in enumerate(result.col_labels):
        parts.append(
            f'<text x="{left + c * cell_w + cell_w / 2}" y="{top - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{label}</text>')
    for r, label in enumerate(result.row_labels):
        parts.append(
            f'<text x="{left - 8}" y="{top + r * cell_h + cell_h / 2 + 4}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12">{label}</text>')
    for (r, c), res in sorted(result.results.items()):
        x, y = left + c * cell_w, top + r * cell_h
        fill, text = _heat_color(res.report.assembled)
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                     f'fill="{fill}" stroke="#ffffff"/>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="{text}">'
            f'{res.report.assembled:.2f}</text>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="{text}">'
            f'{res.scenario_id}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def grid_json_dict(result: GridResult) -> dict:
    return {
        "grid_id": result.grid_id,
        "row_labels": list(result.row_labels),
        "col_labels": list(result.col_labels),
        "cells": [
            {"row": r, "col": c, **result.results[(r, c)].to_json_dict()}
            for (r, c) in sorted(result.results)
        ],
    }


def emit_report(results: GridResult | ScenarioResult, format: str,
                path: str | Path) -> None:
    """Write a report as long-format CSV, nested JSON, or an SVG heatmap."""
    if isinstance(results, ScenarioResult):
        results = GridResult(grid_id=results.scenario_id, row_labels=[""],
                             col_labels=[""], results={(0, 0): results})
    if not results.results:
        raise ValueError("no results to emit")
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "variable", "event", "J_jl", "F", "G",
                             "J_j", "J"])
            writer.writerows(_long_rows(results.scenario_results()))
    elif format == "json":
        with open(path, "w") as fh:
            json.dump(grid_json_dict(results), fh, indent=2)
            fh.write("\n")
    elif format == "svg_heatmap":
        path.write_text(_heatmap_svg(results))
    else:
        raise ValueError(f"unknown report format {format!r}")


def export_indicators(result: ScenarioResult, out_dir: str | Path) -> None:
    """Per-scenario indicator CSVs: averaged curves plus dispersion companions."""
    out = Path(out_dir)
    write_indicator_csv(result.performance, out / f"{result.scenario_id}_performance.csv")
    write_indicator_csv(result.reference, out / f"{result.scenario_id}_reference.csv")
    for label, episodes in (("performance", result.per_episode_performance),
                            ("reference", result.per_episode_reference)):
        std = {name: pointwise_std([curves[name] for curves in episodes])
               for name in episodes[0]}
        write_indicator_csv(std, out / f"{result.scenario_id}_{label}_std.csv")
