from __future__ import annotations

import csv
import json
import pickle
import random
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import coopres.harness
from coopres.disruptions import Event, EventEngine, EventKind, EventSchedule
from coopres.harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentGrid,
    ScenarioConfig,
    bots_preset,
    parse_scenario_config,
    run_episode,
    run_grid,
    run_scenario,
    table2_preset,
)
from coopres.report import (emit_report, export_indicators, grid_json_dict, report_json_dict,
                            write_indicator_csv)
from coopres.indicators import INDICATOR_NAMES, EpisodeTrace, compute_indicators
from coopres.world import (
    DEFAULT_MAP,
    DEFAULT_REGROWTH_TABLE,
    PolicyKind,
    build_view,
    load_map,
    make_world,
    policy_action,
    step_world,
)


def _failing_episode_for(scenario_id):
    """``run_episode`` that fails like a runtime error in one cell's performance episode."""
    def episode(config, seed, with_events, **kwargs):
        if with_events and config.scenario_id == scenario_id:
            raise ValueError("bot intrusion needs 8 free spawn cells, found 3")
        return run_episode(config, seed, with_events, **kwargs)
    return episode


def bots(trigger, duration, count, p_s=1.0):
    return Event(kind=EventKind.BOT_INTRUSION, trigger_tick=trigger, duration=duration,
                 bot_count=count, p_s=p_s)


def vanish(trigger, v_s, p_s=1.0):
    return Event(kind=EventKind.APPLE_VANISH, trigger_tick=trigger, v_s=v_s, p_s=p_s)


def quick_config(**overrides):
    base = dict(episode_length=300, episodes=2,
                schedule=EventSchedule(events=[vanish(60, 0.7)]))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig().validate()

    def test_episodes_must_be_positive(self):
        with pytest.raises(ConfigError, match="episodes"):
            quick_config(episodes=0).validate()

    def test_trigger_must_fit_in_episode(self):
        cfg = quick_config(episode_length=61)
        with pytest.raises(ConfigError, match="exceed"):
            cfg.validate()

    def test_too_many_agents_for_map(self):
        cfg = quick_config(policies=(PolicyKind.GREEDY,) * 9)
        with pytest.raises(ConfigError, match="spawn"):
            cfg.validate()

    def test_bad_map_rejected(self):
        with pytest.raises(ConfigError, match="map"):
            quick_config(map_text="##\n#x#").validate()

    def test_map_without_apples_rejected(self):
        # Loadable, but every event would score J = 1 on it.
        with pytest.raises(ConfigError, match="^map: has no apple cell$"):
            quick_config(map_text="#####\n#S.S#\n#...#\n#####\n",
                         policies=(PolicyKind.GREEDY, PolicyKind.RANDOM)).validate()

    def test_unknown_indicator_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(indicators=("apples_pc", "mood")).validate()

    def test_no_policy_rejected(self):
        with pytest.raises(ConfigError, match="^at least one agent policy is required$"):
            quick_config(policies=()).validate()

    def test_no_indicator_rejected(self):
        with pytest.raises(ConfigError, match="at least one indicator"):
            quick_config(indicators=()).validate()

    # The default map has 8 spawn cells and 5 agents.  Every intrusion
    # counts as firing, whatever its p_s.
    @pytest.mark.parametrize("events", [
        [bots(0, 25, 4)],
        [bots(100, 50, 2), bots(120, 50, 2)],
        [bots(100, 50, 2), bots(149, 10, 2)],
        [vanish(50, 0.5), bots(100, 50, 4, p_s=0.5)],
    ], ids=["tick-0", "overlapping", "overlap-on-the-last-tick", "coin-flip"])
    def test_more_bots_than_free_spawn_cells_rejected(self, events):
        cfg = quick_config(schedule=EventSchedule(events=events))
        with pytest.raises(ConfigError, match="8 spawn points; 5 agents and up to 4 bots"):
            cfg.validate()

    @pytest.mark.parametrize("events", [
        [bots(0, 25, 3)],
        [bots(100, 50, 2), bots(120, 50, 1)],
        [bots(100, 50, 2), bots(150, 50, 3)],
    ], ids=["tick-0", "overlapping", "back-to-back"])
    def test_bots_that_fit_exactly_accepted(self, events):
        quick_config(schedule=EventSchedule(events=events)).validate()


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        sched = tmp_path / "events.txt"
        sched.write_text("apple_vanish 60 0.5\napple_vanish 120 0.5\n")
        cfg_file = tmp_path / "demo.ini"
        cfg_file.write_text(
            "[world]\n"
            "map = default\n"
            "regrowth_table = 0, 0.01, 0.02, 0.05\n"
            "[agents]\n"
            "policies = sustainable, greedy, random\n"
            "[events]\n"
            f"schedule_file = {sched.name}\n"
            "[pipeline]\n"
            "scenario_id = demo-a\n"
            "episode_length = 400\n"
            "episodes = 3\n"
            "base_seed = 7\n"
            "h_max = 50\n"
            "indicators = apples_pc, hunger_index\n")
        cfg = parse_scenario_config(cfg_file)
        assert cfg.scenario_id == "demo-a"
        assert cfg.policies == (PolicyKind.SUSTAINABLE, PolicyKind.GREEDY, PolicyKind.RANDOM)
        assert cfg.regrowth_table == (0.0, 0.01, 0.02, 0.05)
        assert [e.trigger_tick for e in cfg.schedule] == [60, 120]
        assert (cfg.episode_length, cfg.episodes, cfg.base_seed, cfg.h_max) == (400, 3, 7, 50)
        assert cfg.indicators == ("apples_pc", "hunger_index")
        cfg.validate()

    def test_inline_schedule(self, tmp_path):
        cfg_file = tmp_path / "inline.ini"
        cfg_file.write_text(
            "[events]\n"
            "schedule =\n"
            "    apple_vanish 50 0.3\n"
            "    bot_intrusion 100 25 2\n")
        cfg = parse_scenario_config(cfg_file)
        kinds = [e.kind for e in cfg.schedule]
        assert kinds == [EventKind.APPLE_VANISH, EventKind.BOT_INTRUSION]

    def test_unknown_section_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text("[universe]\nanswer = 42\n")
        with pytest.raises(ConfigError, match="unknown sections"):
            parse_scenario_config(cfg_file)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_scenario_config(tmp_path / "absent.ini")

    def test_bad_policy_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text("[agents]\npolicies = sneaky\n")
        with pytest.raises(ConfigError):
            parse_scenario_config(cfg_file)


@st.composite
def schedules(draw):
    """A valid schedule of both event kinds, some with a ``p_s``."""
    triggers = sorted(draw(st.sets(st.integers(0, 3000), max_size=4)))
    p_s = st.floats(0.0, 1.0)
    return EventSchedule(events=[
        draw(st.one_of(
            st.builds(vanish, st.just(t), st.floats(0.0, 1.0), p_s),
            st.builds(bots, st.just(t), st.integers(1, 200), st.integers(0, 9), p_s)))
        for t in triggers])


def render_event(e: Event) -> str:
    values = [e.v_s] if e.kind is EventKind.APPLE_VANISH else [e.duration, e.bot_count]
    return " ".join(str(x) for x in [e.kind.value, e.trigger_tick, *values, repr(e.p_s)])


class TestConfigKeys:
    def test_every_field_has_a_key(self):
        assert ({name for name, _ in CONFIG_KEYS.values()}
                == {f.name for f in fields(ScenarioConfig)})

    @given(
        scenario_id=st.text("abcXYZ019-_.%", min_size=1, max_size=12),
        map_file=st.booleans(),
        policies=st.lists(st.sampled_from(list(PolicyKind)), min_size=1, max_size=6),
        regrowth=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
        schedule=schedules(),
        schedule_file=st.booleans(),
        ints=st.tuples(*[st.integers(-10, 10**6)] * 4),
        indicators=st.lists(st.sampled_from(INDICATOR_NAMES), min_size=1, unique=True))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rendered_config_parses_back(self, tmp_path, scenario_id, map_file, policies,
                                         regrowth, schedule, schedule_file, ints, indicators):
        config = ScenarioConfig(
            scenario_id=scenario_id, map_text="#####\n#S1S#\n#A.2#\n#####\n" if map_file
            else DEFAULT_MAP, policies=tuple(policies), regrowth_table=tuple(regrowth),
            schedule=schedule, indicators=tuple(indicators),
            **dict(zip(("episode_length", "episodes", "base_seed", "h_max"), ints)))
        events = "".join(f"\n    {render_event(e)}" for e in schedule)
        (tmp_path / "map.txt").write_text(config.map_text)
        (tmp_path / "events.txt").write_text(events)
        path = tmp_path / "round.ini"
        path.write_text(
            "[world]\n"
            f"map = {'map.txt' if map_file else 'default'}\n"
            f"regrowth_table = {', '.join(map(repr, regrowth))}\n"
            "[agents]\n"
            f"policies = {', '.join(p.value for p in policies)}\n"
            "[events]\n"
            + ("schedule_file = events.txt\n" if schedule_file else f"schedule ={events}\n")
            + "[pipeline]\n"
            f"scenario_id = {scenario_id}\n"
            + "".join(f"{key} = {getattr(config, key)}\n"
                      for key in ("episode_length", "episodes", "base_seed", "h_max"))
            + f"indicators = {', '.join(indicators)}\n")
        assert parse_scenario_config(path) == config

    def test_readme_example_is_the_default_setup(self, tmp_path):
        # Its inline comments once made the map a missing file of that name.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "demo.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        config = parse_scenario_config(path)
        assert config.schedule.events == [vanish(250, 0.7), bots(400, 25, 2)]
        assert (replace(config, scenario_id="scenario", schedule=EventSchedule())
                == ScenarioConfig())

    def test_relative_paths_are_read_from_the_config_directory(self, tmp_path,
                                                               monkeypatch):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "events.txt").write_text("apple_vanish 40 0.5\n")
        (tmp_path / "sub" / "map.txt").write_text("#####\n#SAS#\n#####\n")
        path = tmp_path / "sub" / "rel.ini"
        path.write_text(f"[world]\nmap = {tmp_path / 'sub' / 'map.txt'}\n"
                        "[events]\nschedule_file = events.txt\n")
        monkeypatch.chdir(tmp_path)
        config = parse_scenario_config("sub/rel.ini")
        assert config.map_text == "#####\n#SAS#\n#####\n"
        assert [e.trigger_tick for e in config.schedule] == [40]
        assert config.scenario_id == "rel"

    def test_values_are_literal(self, tmp_path):
        # A '%' once failed as an interpolation error, outside ConfigError.
        path = tmp_path / "pct.ini"
        path.write_text("[pipeline]\nscenario_id = run100%\nindicators = %(x)s\n")
        config = parse_scenario_config(path)
        assert (config.scenario_id, config.indicators) == ("run100%", ("%(x)s",))


class TestRunEpisode:
    def test_reference_run_fires_nothing(self):
        trace = run_episode(quick_config(), seed=5, with_events=False)
        assert trace.fired_triggers == ()
        assert trace.ledger_event_vanished[-1] == 0

    def test_horizon_matches_config(self):
        trace = run_episode(quick_config(episode_length=123), seed=5, with_events=False)
        assert trace.horizon == 123

    def test_trace_satisfies_invariants(self):
        trace = run_episode(quick_config(), seed=5, with_events=True)
        trace.validate()
        assert trace.fired_triggers == (60,)

    def test_paired_runs_agree_before_first_trigger(self):
        cfg = quick_config()
        ref = run_episode(cfg, seed=9, with_events=False)
        perf = run_episode(cfg, seed=9, with_events=True)
        t = 60  # trigger tick
        assert np.array_equal(ref.apples_per_tree[:t], perf.apples_per_tree[:t])
        assert np.array_equal(ref.consumed[:t], perf.consumed[:t])
        assert np.array_equal(ref.positions[:t], perf.positions[:t])
        assert not np.array_equal(ref.apples_per_tree[t:], perf.apples_per_tree[t:])

    def test_bot_episode_records_intruders(self):
        cfg = quick_config(episode_length=120, schedule=EventSchedule(events=[
            Event(kind=EventKind.BOT_INTRUSION, trigger_tick=40, duration=30,
                  bot_count=2)]))
        trace = run_episode(cfg, seed=4, with_events=True)
        present = [len(bots) for bots in trace.bot_records]
        assert present[39] == 0
        assert all(present[t] == 2 for t in range(40, 70))
        assert present[70] == 0
        # bots are not part of the welfare population
        assert trace.consumed.shape == (120, cfg.n_agents)


def assert_same_trace(a: EpisodeTrace, b: EpisodeTrace) -> None:
    assert a.n_agents == b.n_agents
    assert a.rows.dtype == b.rows.dtype and np.array_equal(a.rows, b.rows)
    assert a.bot_records == b.bot_records
    assert a.fired_triggers == b.fired_triggers


class TestForkAtFirstTrigger:
    """A performance episode continued from its reference's snapshot is the full episode."""

    EVENTS = {
        "vanish": lambda t, d: vanish(t, 0.6),
        "vanish_coin": lambda t, d: vanish(t, 0.6, p_s=0.5),
        "bots": lambda t, d: Event(kind=EventKind.BOT_INTRUSION, trigger_tick=t,
                                   duration=d, bot_count=2),
    }

    @given(seed=st.integers(0, 10_000), t=st.integers(0, 148),
           kind=st.sampled_from(sorted(EVENTS)), duration=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    @example(seed=3, t=0, kind="vanish", duration=1)
    @example(seed=3, t=0, kind="bots", duration=30)
    @example(seed=1, t=70, kind="vanish_coin", duration=1)  # the coin flip fails
    @example(seed=0, t=70, kind="vanish_coin", duration=1)  # the coin flip succeeds
    def test_fork_equals_full_episode(self, seed, t, kind, duration):
        cfg = quick_config(episode_length=150, schedule=EventSchedule(
            events=[self.EVENTS[kind](t, duration)]))
        snapshots = {t: None}
        run_episode(cfg, seed, with_events=False, snapshots=snapshots)
        forked = run_episode(cfg, seed, with_events=True, start=snapshots[t])
        assert_same_trace(forked, run_episode(cfg, seed, with_events=True))

    def test_examples_cover_both_coin_outcomes(self):
        cfg = quick_config(episode_length=150,
                           schedule=EventSchedule(events=[vanish(70, 0.6, p_s=0.5)]))
        fired = {seed: run_episode(cfg, seed, with_events=True).fired_triggers
                 for seed in (0, 1)}
        assert fired == {0: (70,), 1: ()}

    def test_two_forks_from_one_snapshot(self):
        base = quick_config(episode_length=150)
        cfgs = [replace(base, schedule=EventSchedule(events=[vanish(40, v)]))
                for v in (0.9, 0.2)]
        snapshots = {40: None}
        run_episode(base, 6, with_events=False, snapshots=snapshots)
        for cfg in cfgs:
            assert_same_trace(run_episode(cfg, 6, with_events=True, start=snapshots[40]),
                              run_episode(cfg, 6, with_events=True))

    @given(seed=st.integers(0, 10_000), t=st.integers(0, 80), gap=st.integers(2, 60),
           kind=st.sampled_from(sorted(EVENTS)), duration=st.integers(1, 60),
           second=st.sampled_from(["vanish", "vanish_coin"]))
    @settings(max_examples=40, deadline=None)
    @example(seed=0, t=50, gap=20, kind="vanish_coin", duration=1, second="vanish")
    @example(seed=1, t=50, gap=20, kind="vanish_coin", duration=1, second="vanish")
    @example(seed=3, t=20, gap=10, kind="bots", duration=30, second="vanish_coin")
    def test_fork_from_a_performance_episode(self, seed, t, gap, kind, duration, second):
        """A schedule continued from an episode that shares its first event is the full episode.

        The shared event fires or not by the same coin in both; a bot removal
        is still pending at the fork tick when ``duration > gap``.
        """
        shared = self.EVENTS[kind](t, duration)
        source = quick_config(episode_length=150, schedule=EventSchedule(events=[shared]))
        target = replace(source, schedule=EventSchedule(
            events=[shared, self.EVENTS[second](t + gap, duration)]))
        snapshots = {t + gap: None}
        run_episode(source, seed, with_events=True, snapshots=snapshots)
        assert_same_trace(run_episode(target, seed, with_events=True, start=snapshots[t + gap]),
                          run_episode(target, seed, with_events=True))

    def test_performance_examples_cover_the_coin_and_a_pending_removal(self):
        cfg = quick_config(episode_length=150,
                           schedule=EventSchedule(events=[vanish(50, 0.6, p_s=0.5)]))
        fired = {seed: run_episode(cfg, seed, with_events=True).fired_triggers
                 for seed in (0, 1)}
        assert sorted(fired.values()) == [(), (50,)]
        snapshots = {30: None}
        run_episode(replace(cfg, schedule=EventSchedule(events=[bots(20, 30, 2)])), 3,
                    with_events=True, snapshots=snapshots)
        assert snapshots[30].engine.removals == {50: [5, 6]}


def plain_episode(config, seed, with_events):
    """The episode stepped with nothing skipped: the reference for ``run_episode``.

    Events fire on every tick, every agent decides through ``build_view``
    and ``policy_action``, and ``step_world`` gets every agent's action.
    Returns the trace and, per tick, each welfare agent's hunger as a
    counter kept tick by tick: +1 per step, and 0 after a step in which it ate.
    """
    state = make_world(load_map(config.map_text), config.n_agents, config.regrowth_table)
    rng, event_rng = random.Random(seed), random.Random(f"coopres-events-{seed}")
    engine = EventEngine(config.schedule if with_events else EventSchedule())
    welfare = [state.agents[i] for i in range(config.n_agents)]
    rows, bot_records, hunger, counter = [], [], [], [0] * config.n_agents
    for t in range(config.episode_length):
        engine.fire_events(state, t, event_rng)
        stocks = state.stock.copy()
        row = list(stocks)
        for a in welfare:
            row += a.cumulative_consumed, *a.position
        rows.append(row + [state.total_consumed, state.total_regrown, state.total_event_vanished])
        # Bots are the agents from n_agents up.
        bot_records.append([(i, a.position, a.cumulative_consumed)
                            for i, a in state.agents.items() if i >= config.n_agents])
        hunger.append(counter)
        actions = {i: policy_action(config.policies[i] if i < config.n_agents
                                    else PolicyKind.UNSUSTAINABLE_BOT,
                                    state, i, build_view(state, i, stocks), rng)
                   for i in sorted(state.agents)}
        before = [a.cumulative_consumed for a in welfare]
        step_world(state, actions, rng)
        counter = [0 if a.cumulative_consumed > ate else c + 1
                   for a, ate, c in zip(welfare, before, counter)]
    trace = EpisodeTrace(n_agents=config.n_agents, rows=np.array(rows, dtype=np.int64),
                         fired_triggers=tuple(engine.fired), bot_records=bot_records)
    return trace, hunger


@st.composite
def idle_path_configs(draw):
    """Short episodes mixing all four policies under vanishes and bot intrusions.

    At most four agents and two bots per intrusion leave two of the default
    map's eight spawn cells free for an overlapping second intrusion.
    """
    length = draw(st.integers(80, 120))
    triggers = sorted(draw(st.sets(st.integers(0, length - 2), max_size=3)))
    events = [draw(st.sampled_from([
        vanish(t, draw(st.sampled_from([0.3, 0.7])), p_s=draw(st.sampled_from([0.5, 1.0]))),
        bots(t, draw(st.integers(1, 60)), draw(st.integers(1, 2)),
             p_s=draw(st.sampled_from([0.5, 1.0])))]))
        for t in triggers]
    return ScenarioConfig(
        policies=tuple(draw(st.lists(st.sampled_from(list(PolicyKind)), min_size=1,
                                     max_size=4))),
        episode_length=length, schedule=EventSchedule(events=events),
        regrowth_table=draw(st.sampled_from([DEFAULT_REGROWTH_TABLE, (0.0, 0.05, 0.1, 0.2)])))


class TestIdlePath:
    """Skipping idle decisions and idle ticks leaves every episode as the plain loop steps it."""

    MIX = ScenarioConfig(policies=(PolicyKind.RANDOM, PolicyKind.SUSTAINABLE, PolicyKind.GREEDY),
                         episode_length=100, schedule=EventSchedule(events=[bots(30, 40, 2)]))
    FORAGERS = ScenarioConfig(policies=(PolicyKind.SUSTAINABLE, PolicyKind.GREEDY),
                              episode_length=100, schedule=EventSchedule(events=[vanish(30, 0.7)]),
                              regrowth_table=(0.0, 0.05, 0.1, 0.2))
    ZAPS = ScenarioConfig(policies=(PolicyKind.RANDOM, PolicyKind.RANDOM, PolicyKind.GREEDY,
                                    PolicyKind.SUSTAINABLE),
                          episode_length=150, regrowth_table=(0.0, 0.05, 0.1, 0.2),
                          schedule=EventSchedule(events=[bots(40, 60, 2), vanish(110, 0.5)]))

    @given(config=idle_path_configs(), seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    @example(config=MIX, seed=2, data=None)  # the sustainable agent sees a target
    @example(config=MIX, seed=5, data=None)  # an all-NOOP tick while the random agent cools down
    @example(config=FORAGERS, seed=0, data=None)  # quiet ticks 38-39, then an apple revives
    @example(config=MIX, seed=0, data=None)  # quiet tick 5 while the random agent cools down
    @example(config=MIX, seed=94, data=None)  # snapshot at 30 after quiet ticks 29-30
    @example(config=ZAPS, seed=1, data=None)  # two random agents zap, bots raid, one agent eats
    def test_run_episode_equals_plain_loop(self, config, seed, data):
        performance, hunger = plain_episode(config, seed, with_events=True)
        first = config.schedule.events[0].trigger_tick if config.schedule.events else 0
        t = data.draw(st.integers(0, first)) if data is not None else first
        snapshots = {t: None}
        reference, reference_hunger = plain_episode(config, seed, with_events=False)
        for trace, plain, counted in (
                (run_episode(config, seed, with_events=True), performance, hunger),
                (run_episode(config, seed, with_events=False, snapshots=snapshots),
                 reference, reference_hunger),
                (run_episode(config, seed, with_events=True, start=snapshots[t]),
                 performance, hunger)):
            assert_same_trace(trace, plain)
            # The derived hunger equals the counter the plain loop kept.
            assert trace.hunger_ticks.tolist() == counted


def run_one(config, sink=None):
    """The result of ``config`` run as a one-cell grid."""
    return run_scenario(config, sink).results[(0, 0)]


class CollectTraces:
    """A trace sink that keeps each (performance, reference) pair under (cell, k)."""

    def __init__(self):
        self.traces = {}

    def __call__(self, cell, k, performance, reference):
        assert (cell, k) not in self.traces
        self.traces[cell, k] = (performance, reference)


class TestRunScenario:
    def test_zero_magnitude_events_score_one(self):
        cfg = quick_config(schedule=EventSchedule(events=[vanish(60, 0.0)]))
        result = run_one(cfg)
        assert result.report.assembled == pytest.approx(1.0, abs=0.02)

    def test_multi_event_report_shape(self):
        cfg = quick_config(
            episode_length=500,
            schedule=EventSchedule(events=[vanish(50, 0.7), vanish(250, 0.7),
                                           vanish(400, 0.7)]))
        result = run_one(cfg)
        assert result.report.event_count == 3
        assert result.report.variable_count == 4
        for vr in result.report.per_variable.values():
            assert len(vr.events) == 3
        assert len(result.per_episode_j) == cfg.episodes

    def test_single_episode_identity(self):
        cfg = quick_config(episodes=1)
        grid = run_scenario(cfg)
        result = grid.results[(0, 0)]
        for curves in (*result.performance.values(), *grid.reference.values()):
            assert curves.shape == (1, cfg.episode_length)
        # The mean of one episode is that episode, so both scores agree.
        assert result.per_episode_j == [result.report.assembled]

    def test_kept_traces_are_the_scored_episodes(self, monkeypatch):
        monkeypatch.setenv("COOPRES_THREADS", "1")
        cfg = quick_config(episode_length=150)
        sink = CollectTraces()
        result = run_one(cfg, sink)
        assert list(sink.traces) == [((0, 0), k) for k in range(cfg.episodes)]
        for ((_, k), (perf, ref)), j in zip(sink.traces.items(), result.per_episode_j):
            assert_same_trace(perf, run_episode(cfg, cfg.base_seed + k, with_events=True))
            assert_same_trace(ref, run_episode(cfg, cfg.base_seed + k, with_events=False))
            assert j == run_one(replace(cfg, base_seed=cfg.base_seed + k,
                                        episodes=1)).report.assembled

    def test_a_seed_returns_no_trace(self):
        # What a seed returns is all that crosses a worker pool: curves and
        # fired triggers, never an EpisodeTrace, whether or not a sink is given.
        cells = [((0, 0), quick_config(episode_length=150))]
        for sink in (None, CollectTraces()):
            returned = pickle.dumps(coopres.harness._run_seed(cells, 0, sink))
            assert EpisodeTrace.__name__.encode() not in returned
        assert list(sink.traces) == [((0, 0), 0)]

    def test_seed_discipline(self):
        cfg = quick_config()
        grid_a, grid_b = run_scenario(cfg), run_scenario(cfg)
        a, b = grid_a.results[(0, 0)], grid_b.results[(0, 0)]
        assert report_json_dict(a.report) == report_json_dict(b.report)
        assert a.per_episode_j == b.per_episode_j
        for curves_a, curves_b in ((a.performance, b.performance),
                                   (grid_a.reference, grid_b.reference)):
            assert curves_a.keys() == curves_b.keys()
            for name in curves_a:
                assert np.array_equal(curves_a[name], curves_b[name])


# A valid value of each setting other than quick_config's.
OTHER_SETTINGS = {
    "episode_length": 301,
    "episodes": 3,
    "regrowth_table": (0.0, 0.01, 0.02, 0.05),
    "h_max": 50,
    "indicators": ("apples_pc", "hunger_index"),
    "policies": (PolicyKind.GREEDY,) * 5,
    "map_text": "#########\n#1SSSSS.#\n#########\n",
}


class TestGrids:
    def test_table2_preset_layout(self):
        grid = table2_preset()
        assert len(grid.cells) == 9
        ids = [cfg.scenario_id for _, cfg in sorted(grid.cells.items())]
        assert ids == [f"E{i}" for i in range(1, 10)]
        e9 = grid.cells[(2, 2)]
        assert [e.trigger_tick for e in e9.schedule] == [50, 250, 400]
        assert all(e.v_s == 0.7 for e in e9.schedule)

    def test_bots_preset_layout(self):
        grid = bots_preset()
        assert len(grid.cells) == 3
        durations = [cfg.schedule.events[0].duration for _, cfg in sorted(grid.cells.items())]
        assert durations == [25, 50, 75]
        assert all(cfg.schedule.events[0].bot_count == 2 for _, cfg in sorted(grid.cells.items()))

    def test_grid_without_cells_refused(self):
        grid = ExperimentGrid(grid_id="empty", row_labels=[], col_labels=[], cells={})
        with pytest.raises(ConfigError, match="^experiment grid has no cells$"):
            grid.validate()

    def test_cells_must_share_world(self):
        base = quick_config()
        cells = {(0, 0): base, (0, 1): replace(base, base_seed=99)}
        grid = ExperimentGrid(grid_id="bad", row_labels=["r"],
                              col_labels=["a", "b"], cells=cells)
        with pytest.raises(ConfigError, match="share"):
            grid.validate()

    def test_cells_must_have_distinct_ids(self, monkeypatch):
        # Each cell's id names its output files: a second E1 would overwrite the first's.
        episodes = []
        monkeypatch.setattr(coopres.harness, "run_episode",
                            lambda *args, **kwargs: episodes.append(args))
        base = quick_config(scenario_id="E1")
        cells = {(0, 0): replace(base, schedule=EventSchedule(events=[vanish(30, 0.3)])),
                 (0, 1): replace(base, schedule=EventSchedule(events=[vanish(60, 0.9)]))}
        grid = ExperimentGrid(grid_id="twice", row_labels=["r"], col_labels=["a", "b"],
                              cells=cells)
        with pytest.raises(ConfigError, match=r"\(0, 0\) and \(0, 1\) .* 'E1'"):
            run_grid(grid)
        assert episodes == []

    @pytest.mark.parametrize("field", sorted(OTHER_SETTINGS))
    def test_cells_must_share_every_setting(self, field):
        base = quick_config()
        other = replace(base, scenario_id="other", **{field: OTHER_SETTINGS[field]})
        other.validate()
        grid = ExperimentGrid(grid_id="bad", row_labels=["r"], col_labels=["a", "b"],
                              cells={(0, 0): base, (0, 1): other})
        with pytest.raises(ConfigError, match="share"):
            grid.validate()

    def test_cells_may_differ_in_id_and_schedule(self):
        base = quick_config()
        cells = {(0, 0): base,
                 (0, 1): replace(base, scenario_id="quiet",
                                 schedule=EventSchedule(events=[vanish(120, 0.3)]))}
        ExperimentGrid(grid_id="ok", row_labels=["r"], col_labels=["a", "b"],
                       cells=cells).validate()

    def test_single_cell_grid(self):
        grid = ExperimentGrid(grid_id="solo", row_labels=["r"], col_labels=["c"],
                              cells={(0, 0): quick_config()})
        result = run_grid(grid)
        assert list(result.results) == [(0, 0)]
        assert 0.0 <= result.results[(0, 0)].report.assembled <= 1.0

    def test_results_and_reports_are_in_cell_order(self, tmp_path):
        # The grid lists (0, 1) before (0, 0); results and report.json follow the cell order.
        base = quick_config(episode_length=150, episodes=1)
        cells = {(0, 1): replace(base, scenario_id="B",
                                 schedule=EventSchedule(events=[vanish(90, 0.4)])),
                 (0, 0): replace(base, scenario_id="A")}
        result = run_grid(ExperimentGrid(grid_id="order", row_labels=["r"],
                                         col_labels=["a", "b"], cells=cells))
        assert list(result.results) == [(0, 0), (0, 1)]
        emit_report(result, tmp_path, ["json"])
        listed = json.loads((tmp_path / "report.json").read_text())["cells"]
        assert [(cell["row"], cell["col"], cell["scenario"]) for cell in listed] == [
            (0, 0, "A"), (0, 1, "B")]

    def test_cells_are_independent_of_execution_order(self):
        base = quick_config()
        cfg_a = replace(base, scenario_id="A")
        cfg_b = replace(base, scenario_id="B",
                        schedule=EventSchedule(events=[vanish(60, 0.3)]))
        grid = ExperimentGrid(grid_id="pair", row_labels=["r"],
                              col_labels=["a", "b"],
                              cells={(0, 0): cfg_a, (0, 1): cfg_b})
        together = run_grid(grid)
        alone_a = run_one(cfg_a)
        alone_b = run_one(cfg_b)
        assert (report_json_dict(together.results[(0, 0)].report)
                == report_json_dict(alone_a.report))
        assert (report_json_dict(together.results[(0, 1)].report)
                == report_json_dict(alone_b.report))

    def test_runtime_failure_carries_cell_coordinates(self, monkeypatch):
        monkeypatch.setattr(coopres.harness, "run_episode", _failing_episode_for("bad"))
        bad = quick_config(scenario_id="bad",
                           schedule=EventSchedule(events=[bots(10, 20, 2)]))
        grid = ExperimentGrid(grid_id="boom", row_labels=["r"], col_labels=["c"],
                              cells={(0, 0): bad})
        with pytest.raises(RuntimeError, match=r"\(0, 0\)"):
            run_grid(grid)

    def test_runtime_failure_in_a_worker_carries_cell_coordinates(self, monkeypatch):
        # Pool workers are forked, so they run the patched episode too.
        monkeypatch.setattr(coopres.harness, "run_episode", _failing_episode_for("bad"))
        base = quick_config(episode_length=150)
        bad = replace(base, scenario_id="bad",
                      schedule=EventSchedule(events=[bots(10, 20, 2)]))
        grid = ExperimentGrid(grid_id="boom", row_labels=["r"], col_labels=["a", "b"],
                              cells={(0, 0): base, (0, 1): bad})
        monkeypatch.setenv("COOPRES_THREADS", "2")
        with pytest.raises(RuntimeError, match=r"grid cell \(0, 1\) failed: bot intrusion"):
            run_grid(grid)

    def test_each_cell_traces_arrive_under_its_own_key(self, monkeypatch):
        # Two cells with different schedules and a third equal to the first:
        # each seed gives each cell its own performance trace and the one
        # reference that the cells share.
        monkeypatch.setenv("COOPRES_THREADS", "1")
        base = quick_config(episode_length=150)
        cells = {(0, 0): replace(base, scenario_id="A"),
                 (0, 1): replace(base, scenario_id="B",
                                 schedule=EventSchedule(events=[vanish(90, 0.4)])),
                 (1, 0): replace(base, scenario_id="C")}
        grid = ExperimentGrid(grid_id="keys", row_labels=["r", "s"], col_labels=["a", "b"],
                              cells=cells)
        sink = CollectTraces()
        run_grid(grid, sink)
        assert list(sink.traces) == [(cell, k) for k in range(base.episodes)
                                     for cell in sorted(cells)]
        for (cell, k), (perf, ref) in sink.traces.items():
            seed = base.base_seed + k
            assert_same_trace(perf, run_episode(cells[cell], seed, with_events=True))
            assert ref is sink.traces[(0, 0), k][1]
            assert_same_trace(ref, run_episode(base, seed, with_events=False))
        assert sink.traces[(0, 0), 1][0].fired_triggers == (60,)
        assert sink.traces[(0, 1), 1][0].fired_triggers == (90,)

    def test_parallel_workers_match_sequential(self, monkeypatch):
        base = quick_config(episode_length=150, episodes=1)
        cells = {(0, 0): replace(base, scenario_id="P1"),
                 (0, 1): replace(base, scenario_id="P2",
                                 schedule=EventSchedule(events=[vanish(60, 0.4)]))}
        grid = ExperimentGrid(grid_id="par", row_labels=["r"],
                              col_labels=["a", "b"], cells=cells)
        monkeypatch.setenv("COOPRES_THREADS", "1")
        sequential = run_grid(grid)
        monkeypatch.setenv("COOPRES_THREADS", "2")
        parallel = run_grid(grid)
        for cell in cells:
            assert (report_json_dict(parallel.results[cell].report)
                    == report_json_dict(sequential.results[cell].report))


@st.composite
def prefix_grids(draw):
    """Small grids whose cells' schedules are prefixes of one schedule, some with the
    last event swapped for another at its tick, and some equal to each other.

    Every schedule starts with an event that always fires, so every cell can be scored.
    """
    triggers = sorted(5 * t for t in draw(st.sets(st.integers(1, 16), min_size=1, max_size=3)))

    def event(k):
        t = triggers[k]
        return draw(st.sampled_from([vanish(t, 0.3), bots(t, draw(st.integers(1, 40)), 1)]
                                    + ([vanish(t, 0.7, p_s=0.5)] if k else [])))

    events = [event(k) for k in range(len(triggers))]
    schedules = []
    for _ in range(draw(st.integers(2, 4))):
        schedule = events[:draw(st.integers(1, len(events)))]
        if draw(st.booleans()):
            schedule = schedule[:-1] + [event(len(schedule) - 1)]
        schedules.append(schedule)
    base = ScenarioConfig(episode_length=100, episodes=2, base_seed=draw(st.integers(0, 1000)))
    return ExperimentGrid(
        grid_id="prefixes", row_labels=["r"], col_labels=[str(c) for c in range(len(schedules))],
        cells={(0, c): replace(base, scenario_id=f"S{c}", schedule=EventSchedule(events=s))
               for c, s in enumerate(schedules)})


class TestPrefixForks:
    @given(grid=prefix_grids())
    @settings(max_examples=20, deadline=None)
    def test_each_cell_scores_as_run_alone(self, grid):
        together = run_grid(grid)
        for cell, cfg in grid.cells.items():
            alone_grid = run_scenario(cfg)
            alone, forked = alone_grid.results[(0, 0)], together.results[cell]
            for name in cfg.indicators:
                assert np.array_equal(forked.performance[name], alone.performance[name])
                assert np.array_equal(together.reference[name], alone_grid.reference[name])
            assert report_json_dict(forked.report) == report_json_dict(alone.report)
            assert forked.per_episode_j == alone.per_episode_j


@pytest.fixture(scope="module")
def small_grid_result():
    base = quick_config()
    cells = {(0, 0): replace(base, scenario_id="S1"),
             (0, 1): replace(base, scenario_id="S2",
                             schedule=EventSchedule(events=[vanish(60, 0.2)]))}
    grid = ExperimentGrid(grid_id="small", row_labels=["row"],
                          col_labels=["hard", "soft"], cells=cells)
    return run_grid(grid)


class TestReports:
    def test_csv_layout(self, small_grid_result, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(small_grid_result, tmp_path, ["csv"])
        lines = path.read_text().splitlines()
        assert lines[0] == "scenario,variable,event,J_jl,F,G,J_j,J"
        # 2 scenarios x 4 variables x 1 event
        assert len(lines) == 1 + 8
        assert lines[1].startswith("S1,apples_pc,1,")

    def test_json_round_trip(self, small_grid_result, tmp_path):
        path = tmp_path / "report.json"
        emit_report(small_grid_result, tmp_path, ["json"])
        with open(path) as fh:
            parsed = json.load(fh)
        assert parsed == grid_json_dict(small_grid_result)
        assert parsed["cells"][0]["scenario"] == "S1"
        assert parsed["cells"][0]["per_episode_J"] == small_grid_result.results[(0, 0)].per_episode_j

    def test_svg_heatmap(self, small_grid_result, tmp_path):
        path = tmp_path / "heatmap.svg"
        emit_report(small_grid_result, tmp_path, ["svg"])
        svg = path.read_text()
        assert svg.count("<rect") == 1 + 2  # background + one per cell
        assert "S1" in svg and "S2" in svg

    def test_single_scenario_emit(self, tmp_path):
        result = run_scenario(quick_config(scenario_id="solo"))
        emit_report(result, tmp_path, ["json"])
        with open(tmp_path / "report.json") as fh:
            parsed = json.load(fh)
        assert parsed["cells"][0]["scenario"] == "solo"
        assert (parsed["grid_id"], parsed["row_labels"], parsed["col_labels"]) == (
            "solo", [""], [""])

    def test_indicator_export(self, tmp_path, monkeypatch):
        # Each CSV column must be the tick-wise mean (or population std) of
        # the episodes' curves, rebuilt here from the kept traces.
        monkeypatch.setenv("COOPRES_THREADS", "1")
        for episodes in (1, 3):
            cfg = quick_config(scenario_id=f"exp{episodes}", episodes=episodes,
                               episode_length=120)
            sink = CollectTraces()
            export_indicators(run_scenario(cfg, sink), tmp_path)
            for twin, k in (("performance", 0), ("reference", 1)):
                per_episode = [compute_indicators(pair[k], cfg.indicators, cfg.h_max)
                               for pair in sink.traces.values()]
                for suffix, reduce in (("", np.mean), ("_std", np.std)):
                    with open(tmp_path / f"exp{episodes}_{twin}{suffix}.csv",
                              newline="") as fh:
                        reader = csv.DictReader(fh)
                        assert reader.fieldnames == ["tick", *cfg.indicators]
                        rows = list(reader)
                    assert [int(row["tick"]) for row in rows] == list(range(120))
                    for name in cfg.indicators:
                        expected = reduce([curves[name] for curves in per_episode], axis=0)
                        assert [float(row[name]) for row in rows] == expected.tolist()

    def test_indicator_export_reference_files(self, small_grid_result, tmp_path):
        # Cells of a grid share one reference, so their reference files hold
        # the same bytes: those of the grid's reference stack.
        export_indicators(small_grid_result, tmp_path)
        for suffix, reduce in (("", np.mean), ("_std", np.std)):
            expected = tmp_path / "expected.csv"
            write_indicator_csv({name: reduce(a, axis=0)
                                 for name, a in small_grid_result.reference.items()}, expected)
            for sid in ("S1", "S2"):
                assert (tmp_path / f"{sid}_reference{suffix}.csv").read_bytes() == (
                    expected.read_bytes())
