"""Scenario execution: seeded episode pairs, experiment grids, presets, config files.

A scenario scores ``episodes`` seeded pairs of episodes — one with the
event schedule live (performance) and one with it disabled (reference) —
by feeding their averaged indicator curves through the resilience
pipeline.  A single scenario runs as a one-cell grid.

One seed is the unit of work.  Every episode of a seed draws its agent
decisions from one seeded stream (common random numbers) and its events
from another, so two episodes agree tick for tick until the first trigger
past the longest prefix their schedules share.  The reference (the empty
schedule) is simulated once per seed and shared by every cell of a grid;
each performance episode continues from a snapshot of the episode, run
before it, with the longest prefix in common.  Traces are reduced to
indicator curves as soon as they are simulated, and passed to the trace
sink, if any, as their seed ends.
"""

from __future__ import annotations

import configparser
import functools
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .disruptions import Event, EventEngine, EventKind, EventSchedule, parse_schedule
from .indicators import (DEFAULT_H_MAX, INDICATOR_NAMES, EpisodeTrace, compute_indicators,
                         stack_episodes)
from .resilience import CurvePair, ResilienceReport, partition_windows, resilience_pipeline
from .timeseries import TimeSeries
from .world import (
    DEFAULT_MAP,
    DEFAULT_REGROWTH_TABLE,
    Action,
    GridMap,
    PolicyKind,
    WorldState,
    build_view,
    load_map,
    make_world,
    policy_action,
    step_world,
    wander,
)


class ConfigError(ValueError):
    """A scenario or grid configuration failed validation."""


DEFAULT_POLICIES = (PolicyKind.SUSTAINABLE, PolicyKind.SUSTAINABLE,
                    PolicyKind.SUSTAINABLE, PolicyKind.GREEDY, PolicyKind.GREEDY)
DEFAULT_SEED = 42
# The most bytes one episode's row buffer, or one twin's kept curves, may take.
MEMORY_LIMIT = 1 << 30
# Called as sink(cell, k, performance, reference) with episode k's traces of a grid cell.
TraceSink = Callable[[tuple[int, int], int, EpisodeTrace, EpisodeTrace], None]


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
    h_max: int = DEFAULT_H_MAX
    indicators: tuple[str, ...] = INDICATOR_NAMES

    @property
    def n_agents(self) -> int:
        return len(self.policies)

    def validate(self) -> None:
        # The id names files under --out and prints on one line: no separator or control character.
        sid = self.scenario_id
        if sid in ("", ".", "..") or not sid.isprintable() or any(ch in sid for ch in "/\\"):
            raise ConfigError(f"scenario_id {sid!r} must be a plain file name component")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        # random.Random(-s) seeds as Random(s): a negative seed would repeat a positive one.
        if self.base_seed < 0:
            raise ConfigError(f"base_seed {self.base_seed} must be >= 0")
        if not self.policies:
            raise ConfigError("at least one agent policy is required")
        if self.episode_length < 2:
            raise ConfigError("episode_length must be >= 2")
        # The schedule's triggers rise strictly, so the last is the latest.
        triggers = [e.trigger_tick for e in self.schedule]
        if triggers and self.episode_length <= triggers[-1] + 1:
            raise ConfigError(
                f"episode_length {self.episode_length} must exceed the last "
                f"trigger + 1 ({triggers[-1] + 1})")
        # Scoring windows the whole schedule; events that do not fire only
        # merge windows, so a layout that passes here passes for any subset.
        try:
            partition_windows(triggers, self.episode_length)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        never = [e.trigger_tick for e in self.schedule if e.p_s == 0.0]
        if never:
            raise ConfigError(f"event at tick {never[0]} has p_s = 0 and can never fire")
        if self.h_max < 1:
            raise ConfigError("h_max must be >= 1")
        if not self.regrowth_table or any(not 0.0 <= p <= 1.0 for p in self.regrowth_table):
            raise ConfigError("regrowth_table must be probabilities in [0, 1]")
        if not self.indicators:
            raise ConfigError("at least one indicator must be selected")
        unknown = set(self.indicators) - set(INDICATOR_NAMES)
        if unknown:
            raise ConfigError(f"unknown indicators: {sorted(unknown)}")
        repeated = sorted({name for name in self.indicators if self.indicators.count(name) > 1})
        if repeated:
            raise ConfigError(f"repeated indicators: {repeated}")
        try:
            grid = _grid_for(self.map_text)
        except ValueError as exc:
            raise ConfigError(f"map: {exc}") from None
        # Without apples no event can move a welfare curve, so J would read 1 for any schedule.
        if not grid.trees:
            raise ConfigError("map: has no apple cell")
        # Both are sized before any episode runs: refuse here what could not be allocated.
        h, width = self.episode_length, len(grid.trees) + 3 * self.n_agents + 3
        for what, size in (("an episode's row buffer", h * width * 8),
                           ("a twin's curves", self.episodes * h * len(self.indicators) * 8)):
            if size > MEMORY_LIMIT:
                raise ConfigError(f"{what} would take {size} bytes; the limit is {MEMORY_LIMIT}")
        # Bots enter on free spawn cells.  Counting every intrusion as firing,
        # the most present at once is reached at some intrusion's trigger.
        bots = [e for e in self.schedule if e.kind is EventKind.BOT_INTRUSION]
        peak = max((sum(b.bot_count for b in bots
                        if b.trigger_tick <= e.trigger_tick < b.trigger_tick + b.duration)
                    for e in bots), default=0)
        if len(grid.spawn_points) < self.n_agents + peak:
            raise ConfigError(
                f"map has {len(grid.spawn_points)} spawn points; {self.n_agents} agents "
                f"and up to {peak} bots at once need {self.n_agents + peak}")


@dataclass
class ScenarioResult:
    scenario_id: str
    # One (episodes, horizon) array per indicator; row k is episode k.  The
    # reference arrays, every cell's, are ``GridResult.reference``.
    performance: dict[str, np.ndarray]
    report: ResilienceReport
    per_episode_j: list[float | None]


@dataclass(frozen=True)
class Snapshot:
    """An episode at the start of ``tick``, before that tick's events fire.

    ``rows`` and ``bot_records`` copy the episode's rows (see ``run_episode``)
    and bot records before ``tick``.  ``engine`` copies its event engine:
    the schedule (whose events before ``tick`` are the ones applied), the
    triggers fired and the bot removals still pending.
    """

    tick: int
    state: WorldState
    rng_state: tuple
    event_rng_state: tuple
    engine: EventEngine
    rows: np.ndarray
    bot_records: list


def run_episode(config: ScenarioConfig, seed: int, with_events: bool, *,
                snapshots: dict[int, Snapshot | None] | None = None,
                start: Snapshot | None = None) -> EpisodeTrace:
    """Step one seeded episode and record its trace.

    Each tick's row is recorded after any events scheduled for that tick
    have fired and before agents act, so tick 0 shows the pristine world
    and an event's impact is visible from its trigger tick onward.  The
    rows fill one int64 buffer, laid out as ``EpisodeTrace.rows``.

    Agents decide in id order, each as ``policy_action`` on its
    ``build_view`` would, with the same draws.  An agent whose policy has
    an idle coin (``explore_idle_prob > 0``) and no target in view (no live
    apple on a tree holding at least the policy's ``min_stock``) skips both
    calls: it draws its idle coin and, only if it moves, wanders.
    ``step_world`` gets the actions other than ``NOOP``.  The tick after
    one with none is quiet if it revived no apple and no event is due:
    nothing in its row has moved, so its row is copied from the one before
    it, and it keeps the stock vector and each agent's has-a-target flag.

    ``snapshots`` lists ticks by its keys; the episode's state at the
    start of each is stored under it.  ``start`` continues from such a
    snapshot of the same seed, copying the rows before it.  That equals
    stepping from tick 0, since ``_run_seed`` forks at ``_fork_tick``: the
    events before it are those the snapshot's episode applied.
    """
    grid = _grid_for(config.map_text)
    rng = random.Random(seed)
    # Events draw from their own stream so that the with/without-events twin
    # runs keep identical agent stochasticity wherever the world state agrees.
    event_rng = random.Random(f"coopres-events-{seed}")
    schedule = config.schedule if with_events else EventSchedule()

    h, n, nt = config.episode_length, config.n_agents, len(grid.trees)
    rows = np.empty((h, nt + 3 * n + 3), dtype=np.int64)
    if start is None:
        t0, engine = 0, EventEngine(schedule)
        state = make_world(grid, n, config.regrowth_table)
        bot_records = []
    else:
        t0, engine = start.tick, EventEngine(schedule, start.engine.fired,
                                             start.engine.removals, start.tick)
        state = start.state.copy()
        rng.setstate(start.rng_state)
        event_rng.setstate(start.event_rng_state)
        rows[:t0] = start.rows
        bot_records = start.bot_records.copy()

    # The welfare agents keep their objects for the whole episode; bots come after them.
    agents, welfare = state.agents, [state.agents[i] for i in range(n)]
    visible, live, noop, draw = grid.visible, state.live_apples, Action.NOOP, rng.random
    deciders = [(i, welfare[i], p) for i, p in enumerate(config.policies)]
    quiet = False
    for t in range(t0, h):
        if snapshots is not None and t in snapshots:
            snapshots[t] = Snapshot(
                tick=t, state=state.copy(), rng_state=rng.getstate(),
                event_rng_state=event_rng.getstate(),
                engine=EventEngine(engine.schedule, engine.fired, engine.removals, t),
                rows=rows[:t].copy(), bot_records=bot_records[:t])
        if t == engine.next_due:
            engine.fire_events(state, t, event_rng)
            quiet = False

        if not quiet:
            # Every decision comes before step_world: one stock vector serves them all.
            stocks = state.stock.copy()
            row = stocks.copy()
            for a in welfare:
                row += a.cumulative_consumed, *a.position
            row += state.total_consumed, state.total_regrown, state.total_event_vanished
            rows[t] = row
            present = ([(i, a.position, a.cumulative_consumed) for i, a in agents.items() if i >= n]
                       if len(agents) > n else [])
            # Each decider with whether it explores: its policy has an idle
            # coin and it has no target in view.
            plan = [(agent_id, agent, policy, policy.explore_idle_prob > 0.0 and not (
                        (seen := visible[agent.position])
                        and any(stocks[i] >= policy.min_stock for c, i in seen if c in live)))
                    for agent_id, agent, policy in (
                        deciders if len(agents) == n else
                        deciders + [(i, agents[i], PolicyKind.UNSUSTAINABLE_BOT)
                                    for i in sorted(agents) if i >= n])]
        else:
            rows[t] = rows[t - 1]
        bot_records.append(present)

        actions = {}
        for agent_id, agent, policy, blind in plan:
            if blind:
                # No target in view: policy_action would explore, idle coin first.
                if draw() < policy.explore_idle_prob:
                    continue
                action = wander(state, agent.position, rng, live)
            else:
                action = policy_action(policy, state, agent_id,
                                       build_view(state, agent_id, stocks), rng)
            if action is not noop:
                actions[agent_id] = action
        regrown = state.total_regrown
        step_world(state, actions, rng)
        quiet = not actions and state.total_regrown == regrown

    trace = EpisodeTrace(n_agents=n, rows=rows, fired_triggers=tuple(engine.fired),
                         bot_records=bot_records)
    trace.validate()
    return trace


@dataclass
class _Episode:
    """One seed of one scenario, reduced to what scoring needs."""

    performance: dict[str, np.ndarray]
    fired_triggers: tuple[int, ...]


def _fork_tick(a: tuple[Event, ...], b: tuple[Event, ...], h: int) -> int:
    """The trigger of the first event past the prefix ``a`` and ``b`` share; ``h`` if none."""
    p = next((p for p, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return min([s[p].trigger_tick for s in (a, b) if p < len(s)], default=h)


def _run_seed(cells: list[tuple[tuple[int, int], ScenarioConfig]], k: int,
              sink: TraceSink | None = None
              ) -> tuple[dict[str, np.ndarray], list[_Episode]]:
    """The reference curves of seed ``k``, and episode ``k`` of every cell.

    Cells differ only in their schedules.  Each performance episode forks
    from the episode run before it (the reference first) that shares the
    longest prefix of its schedule, the first such on a tie, at
    ``_fork_tick``.  Snapshots are held until the seed ends.
    A failure raises ``RuntimeError`` naming the cell being run (the first
    while the reference runs; configs are validated before).  Then
    ``sink``, if given, gets each cell's traces; what it raises passes through.
    """
    cell, config = cells[0]
    seed, h = config.base_seed + k, config.episode_length

    def curves(trace: EpisodeTrace) -> dict[str, np.ndarray]:
        return compute_indicators(trace, config.indicators, config.h_max)

    # Episode 0 is the reference, i > 0 cell i - 1's.  Sorted by their events'
    # reprs, each schedule runs before those it is a prefix of, so that they
    # can fork from it.  forks[i] = (tick, j) continues i from j.  A schedule
    # equal to j's gets tick h, at which no snapshot is stored: it runs from 0.
    schedules = [()] + [tuple(cfg.schedule) for _, cfg in cells]
    order = sorted(range(len(schedules)), key=lambda i: [repr(e) for e in schedules[i]])
    forks = {i: max(((_fork_tick(schedules[j], schedules[i], h), j) for j in order[:n]),
                    key=lambda fork: fork[0]) for n, i in enumerate(order) if n}
    snapshots: list[dict[int, Snapshot | None]] = [
        {tick: None for tick, j in forks.values() if j == i}
        for i in range(len(schedules))]
    episodes: dict[int, _Episode] = {}
    traces: dict[int, EpisodeTrace | None] = {}  # kept only for the sink
    try:
        for n, i in enumerate(order):
            cell, cfg = cells[max(i - 1, 0)]
            fork = forks.get(i)  # None for the reference, which runs first
            start = None if fork is None else snapshots[fork[1]][fork[0]]
            trace = run_episode(cfg, seed, with_events=n > 0, snapshots=snapshots[i], start=start)
            episodes[i] = _Episode(curves(trace), trace.fired_triggers)
            traces[i] = trace if sink is not None else None
    except Exception as exc:
        raise RuntimeError(f"grid cell {cell} failed: {exc}") from exc
    if sink is not None:
        for i in range(1, len(schedules)):
            sink(cells[i - 1][0], k, traces[i], traces[0])
    return episodes[0].performance, [episodes[i] for i in range(1, len(schedules))]


def _score(config: ScenarioConfig, episodes: list[_Episode],
           reference: dict[str, np.ndarray]) -> ScenarioResult:
    """Score one scenario on its averaged curves, and each episode on its own.

    ``reference`` holds the episodes' reference curves, already stacked;
    every cell of a grid shares it.  When no event fired in any episode the
    scenario is not scored: its report has ``J`` None and ``L`` 0.
    """
    performance = stack_episodes([ep.performance for ep in episodes])

    def pairs(rows) -> dict[str, CurvePair]:
        return {name: CurvePair(performance=TimeSeries(rows(curves)),
                                reference=TimeSeries(rows(reference[name])))
                for name, curves in performance.items()}

    # Events that fired in any episode define the scenario's window layout;
    # with p_s = 1 this is simply the schedule.
    triggers = sorted({t for ep in episodes for t in ep.fired_triggers})
    report = (resilience_pipeline(pairs(lambda curves: curves.mean(axis=0)), triggers)
              if triggers else ResilienceReport({}, None, 0, len(performance)))
    per_episode_j = [resilience_pipeline(pairs(lambda curves: curves[k]),
                                         ep.fired_triggers).assembled
                     if ep.fired_triggers else None
                     for k, ep in enumerate(episodes)]

    return ScenarioResult(scenario_id=config.scenario_id, performance=performance,
                          report=report, per_episode_j=per_episode_j)


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
        first = next(iter(self.cells.values()))
        for cell, cfg in self.cells.items():
            if replace(cfg, scenario_id=first.scenario_id, schedule=first.schedule) != first:
                raise ConfigError(
                    f"grid cell {cell} must share every setting with the others; "
                    "only the scenario id and the schedule may differ")
            cfg.validate()
            # Every score is taken over event windows.
            if not cfg.schedule.events:
                raise ConfigError(f"scenario {cfg.scenario_id!r} has no events to score")
        # A cell's id names its output files.
        owners: dict[str, tuple[int, int]] = {}
        for cell, cfg in self.cells.items():
            if owners.setdefault(cfg.scenario_id, cell) != cell:
                raise ConfigError(f"grid cells {owners[cfg.scenario_id]} and {cell} "
                                  f"have the same scenario id {cfg.scenario_id!r}")

    @classmethod
    def single(cls, config: ScenarioConfig) -> ExperimentGrid:
        """The one-cell grid that runs ``config`` alone, as cell (0, 0)."""
        return cls(grid_id=config.scenario_id, row_labels=[""], col_labels=[""],
                   cells={(0, 0): config})


@dataclass
class GridResult:
    grid: ExperimentGrid
    reference: dict[str, np.ndarray]
    results: dict[tuple[int, int], ScenarioResult]  # in cell order: sorted by (row, col)


def run_scenario(config: ScenarioConfig, sink: TraceSink | None = None) -> GridResult:
    """Run one scenario as a one-cell grid; its result is ``.results[(0, 0)]``."""
    return run_grid(ExperimentGrid.single(config), sink)


def run_grid(grid: ExperimentGrid, sink: TraceSink | None = None) -> GridResult:
    """Run every cell of the grid, one seed at a time.

    Each seed's reference episode is simulated once and shared by all
    cells (see the module docstring).  Seeds run in order, or spread over
    at most COOPRES_THREADS processes (sequential when it is unset).
    Either way a failing episode raises ``RuntimeError`` naming its cell.
    ``sink``, if given, gets each cell's traces of a seed as soon as the
    seed is done, in the process that ran it (so it must pickle), and what
    it raises passes through.
    """
    raw = os.environ.get("COOPRES_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"COOPRES_THREADS must be a positive integer, got {raw!r}")
    grid.validate()
    cells = sorted(grid.cells.items())
    seeds = range(cells[0][1].episodes)
    run_seed = functools.partial(_run_seed, cells, sink=sink)
    workers = min(workers, len(seeds))
    if workers > 1:
        # Imported here: it pulls in logging, which one-worker runs never use.
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(run_seed, seeds))
    else:
        per_seed = [run_seed(k) for k in seeds]
    # Every cell shares one reference stack.  Popping a cell's episodes frees
    # their curves once they are stacked.
    reference = stack_episodes([ref_curves for ref_curves, _ in per_seed])
    results = {cell: _score(cfg, [episodes.pop(0) for _, episodes in per_seed], reference)
               for cell, cfg in cells}
    return GridResult(grid=grid, reference=reference, results=results)


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

def _value(read: Callable[[str], object]) -> Callable[[str, Path], object]:
    return lambda raw, here: read(raw)


def _listed(read: Callable[[str], object]) -> Callable[[str, Path], tuple]:
    return lambda raw, here: tuple(read(item.strip()) for item in raw.split(","))


# (section, key) -> (the ScenarioConfig field it sets, its reader).  A reader gets the
# literal value and the config's directory, which a relative path is joined to.
CONFIG_KEYS: dict[tuple[str, str], tuple[str, Callable[[str, Path], object]]] = {
    ("world", "map"): ("map_text", lambda raw, here:
                       DEFAULT_MAP if raw == "default" else (here / raw).read_text()),
    ("world", "regrowth_table"): ("regrowth_table", _listed(float)),
    ("agents", "policies"): ("policies", _listed(PolicyKind)),
    ("events", "schedule"): ("schedule", _value(parse_schedule)),
    ("events", "schedule_file"): ("schedule", lambda raw, here:
                                  parse_schedule((here / raw).read_text())),
    ("pipeline", "scenario_id"): ("scenario_id", _value(str)),
    **{("pipeline", key): (key, _value(int))
       for key in ("episode_length", "episodes", "base_seed", "h_max")},
    ("pipeline", "indicators"): ("indicators", _listed(str)),
}


def parse_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a scenario from an INI file keyed as ``CONFIG_KEYS``; the id defaults to its stem."""
    path = Path(path)
    # No header can name the default section "", so [DEFAULT] is one more unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: a key before any [section] header") from None
    except configparser.ParsingError as exc:  # lists every bad line: the first is named
        raise ConfigError(f"{path}: line {exc.errors[0][0]}: not a key = value line") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: repeated section [{exc.section}]") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}: repeated key {exc.option!r} in [{exc.section}]") from None
    unknown = set(parser.sections()) - {section for section, _ in CONFIG_KEYS}
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    kwargs: dict = {"scenario_id": path.stem}
    set_by: dict[str, str] = {}  # field -> the key that set it
    try:
        for section in parser.sections():
            for key, raw in parser.items(section):
                if (section, key) not in CONFIG_KEYS:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                name, read = CONFIG_KEYS[section, key]
                if name in set_by:
                    raise ValueError(f"{set_by[name]} and {key} both set the {name}")
                set_by[name] = key
                kwargs[name] = read(raw, path.parent)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return ScenarioConfig(**kwargs)
