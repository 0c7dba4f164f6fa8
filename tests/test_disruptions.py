from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopres.disruptions import (
    EVENT_FIELDS,
    Event,
    EventEngine,
    EventKind,
    EventSchedule,
    apply_apple_vanish,
    apply_bot_intrusion,
    parse_event,
    parse_schedule,
    schedule_lines,
)
from coopres.world import DEFAULT_MAP, PolicyKind, load_map, make_world, policy_action, step_world

SIX_APPLE_MAP = "########\n#AAAAAA#\n#S.S.S.#\n########"


def fresh_state(n_agents=0, map_text=SIX_APPLE_MAP):
    return make_world(load_map(map_text), n_agents, (0.0,))


class TestEventValidation:
    def test_vanish_probability_range(self):
        with pytest.raises(ValueError):
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=5, v_s=1.5)

    def test_bot_event_needs_duration(self):
        with pytest.raises(ValueError):
            Event(kind=EventKind.BOT_INTRUSION, trigger_tick=5, duration=0, bot_count=2)

    def test_schedule_triggers_strictly_increasing(self):
        events = [Event(kind=EventKind.APPLE_VANISH, trigger_tick=50, v_s=0.5),
                  Event(kind=EventKind.APPLE_VANISH, trigger_tick=50, v_s=0.5)]
        with pytest.raises(ValueError, match="strictly increasing"):
            EventSchedule(events=events)


class TestScheduleParsing:
    def test_full_format(self):
        text = """
        # two events, comments and blanks ignored
        apple_vanish 250 0.7
        bot_intrusion 400 25 2 0.5
        """
        schedule = parse_schedule(text)
        assert len(schedule) == 2
        first, second = schedule.events
        assert (first.kind, first.trigger_tick, first.v_s, first.p_s) == (
            EventKind.APPLE_VANISH, 250, 0.7, 1.0)
        assert (second.kind, second.duration, second.bot_count, second.p_s) == (
            EventKind.BOT_INTRUSION, 25, 2, 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_schedule("meteor 100 0.5")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="apple_vanish"):
            parse_schedule("apple_vanish 100")

    def test_every_kind_has_its_fields(self):
        assert set(EVENT_FIELDS) == set(EventKind)

    # The usage comes from EVENT_FIELDS; fields convert in line order.
    @pytest.mark.parametrize("line, message", [
        ("apple_vanish 100", "expected: apple_vanish <trigger> <v_s> [p_s]"),
        ("apple_vanish 1 0.5 1 1", "expected: apple_vanish <trigger> <v_s> [p_s]"),
        ("bot_intrusion 1 2", "expected: bot_intrusion <trigger> <duration> <bot_count> [p_s]"),
        ("meteor 1 2", "unknown event kind 'meteor'"),
        ("apple_vanish x y z", "invalid literal for int() with base 10: 'x'"),
        ("bot_intrusion 5 a b c", "invalid literal for int() with base 10: 'a'"),
        ("bot_intrusion 5 3 b c", "invalid literal for int() with base 10: 'b'"),
        ("apple_vanish 5 0.5 c", "could not convert string to float: 'c'"),
    ])
    def test_line_refused_with_its_message(self, line, message):
        with pytest.raises(ValueError) as info:
            parse_event(line)
        assert str(info.value) == message

    def test_schedule_lines_cut_comments_and_blanks(self):
        text = "# head\n\n  apple_vanish 5 0.5  # tail\n   \n12\n#\n"
        assert list(schedule_lines(text)) == [(3, "apple_vanish 5 0.5"), (5, "12")]


class TestAppleVanish:
    def test_zero_magnitude_is_identity(self):
        state = fresh_state()
        before = dict(state.live_apples)
        apply_apple_vanish(state, 0.0, random.Random(0))
        assert state.live_apples == before
        assert state.total_event_vanished == 0

    def test_full_magnitude_leaves_one_per_tree(self):
        state = fresh_state()
        apply_apple_vanish(state, 1.0, random.Random(0))
        assert state.stock == [1]

    def test_never_below_one_apple(self):
        rng = random.Random(42)
        for _ in range(500):
            state = fresh_state()
            apply_apple_vanish(state, 0.95, rng)
            assert all(live >= 1 for live in state.stock)

    def test_vanished_trees_untouched(self):
        state = fresh_state()
        for cell in state.grid.trees[0]:
            state.remove_apple(cell)
        apply_apple_vanish(state, 1.0, random.Random(0))
        assert state.stock == [0]
        assert state.total_event_vanished == 0

    def test_only_removes_apples(self):
        state = fresh_state(n_agents=2)
        positions = {i: a.position for i, a in state.agents.items()}
        before = set(state.live_apples)
        apply_apple_vanish(state, 0.6, random.Random(7))
        assert set(state.live_apples) <= before
        assert {i: a.position for i, a in state.agents.items()} == positions

    def test_mean_survivors_match_spared_binomial(self):
        # one guaranteed survivor, the other five independently kept at 1 - v_s
        v_s, trials = 0.7, 10_000
        rng = random.Random(2024)
        total = 0
        state = fresh_state()
        for _ in range(trials):
            for cell in state.grid.trees[0]:
                if cell not in state.live_apples:
                    state.revive_apple(cell)
            apply_apple_vanish(state, v_s, rng)
            total += state.stock[0]
        mean = total / trials
        expected = 1 + 5 * (1 - v_s)
        sigma_mean = (5 * v_s * (1 - v_s) / trials) ** 0.5
        assert abs(mean - expected) <= 3 * sigma_mean


class TestBotIntrusion:
    def test_bots_spawn_near_map_center(self):
        state = fresh_state(n_agents=0)
        event = Event(kind=EventKind.BOT_INTRUSION, trigger_tick=0, duration=10,
                      bot_count=2)
        apply_bot_intrusion(state, event)
        assert sorted(state.agents) == [0, 1]  # bots take the ids from n_agents up
        # centremost spawns first
        assert {b.position for b in state.agents.values()} == {(2, 3), (2, 5)}

    def test_zero_bots_is_noop(self):
        state = fresh_state()
        engine = EventEngine(EventSchedule(events=[
            Event(kind=EventKind.BOT_INTRUSION, trigger_tick=3, duration=5, bot_count=0)]))
        for tick in range(10):
            engine.fire_events(state, tick, random.Random(0))
        assert state.agents == {}  # no welfare agent, and no bot
        assert engine.fired == [3]  # fired, just with nobody arriving


class TestEventEngine:
    def test_bot_lifecycle_window(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.BOT_INTRUSION, trigger_tick=100, duration=25, bot_count=2)])
        engine = EventEngine(schedule)
        rng = random.Random(0)
        presence = {}
        for tick in range(140):
            engine.fire_events(state, tick, rng)
            presence[tick] = len(state.agents)  # no welfare agent: every agent is a bot
        assert all(presence[t] == 0 for t in range(100))
        assert all(presence[t] == 2 for t in range(100, 125))
        assert all(presence[t] == 0 for t in range(125, 140))

    def test_certain_event_fires_exactly_once(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=250, v_s=0.0, p_s=1.0)])
        engine = EventEngine(schedule)
        rng = random.Random(0)
        for tick in range(400):
            engine.fire_events(state, tick, rng)
        assert engine.fired == [250]

    def test_impossible_event_never_fires(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=5, v_s=0.5, p_s=0.0)])
        engine = EventEngine(schedule)
        for tick in range(10):
            engine.fire_events(state, tick, random.Random(0))
        assert engine.fired == []

    def test_fired_log_equals_schedule_when_certain(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=t, v_s=0.0) for t in (5, 15, 25)])
        engine = EventEngine(schedule)
        rng = random.Random(0)
        for tick in range(30):
            engine.fire_events(state, tick, rng)
        assert engine.fired == [5, 15, 25]

    def test_coin_flip_frequency(self):
        rng = random.Random(77)
        fired = 0
        trials = 10_000
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=0, v_s=0.0, p_s=0.5)])
        state = fresh_state()
        for _ in range(trials):
            engine = EventEngine(schedule)
            engine.fire_events(state, 0, rng)
            fired += len(engine.fired)
        sigma = (trials * 0.25) ** 0.5
        assert abs(fired - trials * 0.5) <= 3 * sigma


DUE_TICKS = 50
DEFAULT_GRID = load_map(DEFAULT_MAP)  # 8 spawn points: 2 agents and up to 4 bots always fit


@st.composite
def mixed_schedules(draw):
    """1-4 events before tick 41, at most two of them bot intrusions, p_s in {0.5, 1}."""
    events, intrusions = [], 0
    for t in sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=4))):
        p_s = draw(st.sampled_from([0.5, 1.0]))
        if intrusions < 2 and draw(st.booleans()):
            intrusions += 1
            events.append(Event(kind=EventKind.BOT_INTRUSION, trigger_tick=t, p_s=p_s,
                                duration=draw(st.integers(1, 60)),
                                bot_count=draw(st.integers(0, 2))))
        else:
            events.append(Event(kind=EventKind.APPLE_VANISH, trigger_tick=t, p_s=p_s,
                                v_s=draw(st.sampled_from([0.3, 0.7]))))
    return EventSchedule(events=events)


def stepped_world(schedule, seed, every_tick):
    """The world after each of ``DUE_TICKS`` ticks, and the ``fire_events`` call count.

    Random agents move and zap between ticks, so bots leave their spawn cells.
    """
    state = make_world(DEFAULT_GRID, 2, (0.0, 0.01, 0.05, 0.1))
    engine = EventEngine(schedule)
    event_rng, rng = random.Random(seed), random.Random(seed + 1)
    history, calls = [], 0
    for t in range(DUE_TICKS):
        if every_tick or t == engine.next_due:
            engine.fire_events(state, t, event_rng)
            calls += 1
        history.append((sorted((i, a.position) for i, a in state.agents.items()),
                        dict(state.occupied), dict(state.live_apples), list(engine.fired)))
        actions = {i: policy_action(PolicyKind.RANDOM, state, i, {}, rng) for i in state.agents}
        step_world(state, actions, rng)
    return history, calls


class TestDueTicks:
    @given(schedule=mixed_schedules(), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    # Trigger at tick 0, overlapping intrusions, the second removed after the last tick.
    @example(schedule=parse_schedule("bot_intrusion 0 30 2\nbot_intrusion 10 60 2 0.5\n"
                                     "apple_vanish 20 0.7"), seed=0)
    @example(schedule=parse_schedule("bot_intrusion 0 30 2\nbot_intrusion 10 60 2 0.5\n"
                                     "apple_vanish 20 0.7"), seed=4)
    def test_firing_on_due_ticks_equals_firing_every_tick(self, schedule, seed):
        every, _ = stepped_world(schedule, seed, every_tick=True)
        due, calls = stepped_world(schedule, seed, every_tick=False)
        assert due == every
        # Work is a trigger or a bot removal; nothing else is due.
        intrusions = sum(e.kind is EventKind.BOT_INTRUSION for e in schedule)
        assert calls <= len(schedule) + intrusions

    def test_examples_cover_both_coin_outcomes(self):
        schedule = parse_schedule("bot_intrusion 0 30 2\nbot_intrusion 10 60 2 0.5\n")
        fired = {seed: stepped_world(schedule, seed, every_tick=False)[0][-1][-1]
                 for seed in (0, 4)}
        assert sorted(map(len, fired.values())) == [1, 2]

    def test_nothing_due_without_events(self):
        engine = EventEngine(EventSchedule())
        assert engine.next_due is None
        engine.fire_events(fresh_state(), 0, random.Random(0))
        assert engine.next_due is None
