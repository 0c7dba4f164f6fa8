from __future__ import annotations

import random

import pytest

from coopres.disruptions import (
    Event,
    EventEngine,
    EventKind,
    EventSchedule,
    apply_apple_vanish,
    apply_bot_intrusion,
    parse_schedule,
)
from coopres.world import load_map, make_world

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
        for tree in state.trees:
            assert tree.live_count() == 1
            assert not tree.vanished

    def test_never_below_one_apple(self):
        rng = random.Random(42)
        for _ in range(500):
            state = fresh_state()
            apply_apple_vanish(state, 0.95, rng)
            assert all(t.live_count() >= 1 for t in state.trees)

    def test_vanished_trees_untouched(self):
        state = fresh_state()
        tree = state.trees[0]
        for cell in tree.apple_cells:
            state.remove_apple(cell)
        tree.vanished = True
        apply_apple_vanish(state, 1.0, random.Random(0))
        assert tree.live_count() == 0
        assert state.total_event_vanished == 0

    def test_only_removes_apples(self):
        state = fresh_state(n_agents=2)
        positions = {a.id: a.position for a in state.agents.values()}
        before = set(state.live_apples)
        apply_apple_vanish(state, 0.6, random.Random(7))
        assert set(state.live_apples) <= before
        assert {a.id: a.position for a in state.agents.values()} == positions

    def test_mean_survivors_match_spared_binomial(self):
        # one guaranteed survivor, the other five independently kept at 1 - v_s
        v_s, trials = 0.7, 10_000
        rng = random.Random(2024)
        total = 0
        state = fresh_state()
        tree = state.trees[0]
        for _ in range(trials):
            for i, cell in enumerate(tree.apple_cells):
                if not tree.alive[i]:
                    state.revive_apple(cell)
            apply_apple_vanish(state, v_s, rng)
            total += tree.live_count()
        mean = total / trials
        expected = 1 + 5 * (1 - v_s)
        sigma_mean = (5 * v_s * (1 - v_s) / trials) ** 0.5
        assert abs(mean - expected) <= 3 * sigma_mean


class TestBotIntrusion:
    def test_bots_spawn_near_map_center(self):
        state = fresh_state(n_agents=0)
        event = Event(kind=EventKind.BOT_INTRUSION, trigger_tick=0, duration=10,
                      bot_count=2)
        apply_bot_intrusion(state, event, random.Random(0))
        bots = state.bots()
        assert len(bots) == 2
        assert all(b.is_bot for b in bots)
        assert {b.position for b in bots} == {(2, 3), (2, 5)}  # centremost spawns first

    def test_no_free_spawns_rejected(self):
        state = fresh_state(n_agents=3)  # all three spawn cells taken
        event = Event(kind=EventKind.BOT_INTRUSION, trigger_tick=0, duration=10,
                      bot_count=1)
        with pytest.raises(ValueError, match="free spawn"):
            apply_bot_intrusion(state, event, random.Random(0))

    def test_zero_bots_is_noop(self):
        state = fresh_state()
        engine = EventEngine(EventSchedule(events=[
            Event(kind=EventKind.BOT_INTRUSION, trigger_tick=3, duration=5, bot_count=0)]))
        for tick in range(10):
            engine.fire_events(state, tick, random.Random(0))
        assert state.bots() == []
        assert engine.fired_triggers() == [3]  # fired, just with nobody arriving


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
            presence[tick] = len(state.bots())
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
        assert engine.fired_triggers() == [250]

    def test_impossible_event_never_fires(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=5, v_s=0.5, p_s=0.0)])
        engine = EventEngine(schedule)
        for tick in range(10):
            engine.fire_events(state, tick, random.Random(0))
        assert engine.fired_triggers() == []

    def test_fired_log_equals_schedule_when_certain(self):
        state = fresh_state()
        schedule = EventSchedule(events=[
            Event(kind=EventKind.APPLE_VANISH, trigger_tick=t, v_s=0.0) for t in (5, 15, 25)])
        engine = EventEngine(schedule)
        rng = random.Random(0)
        for tick in range(30):
            engine.fire_events(state, tick, rng)
        assert engine.fired_triggers() == [5, 15, 25]

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
