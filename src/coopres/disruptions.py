"""Disruptive events: probabilistic apple vanishing and bot intrusions.

Events live on a declarative schedule; an engine fires them against the
world as the tick counter reaches their triggers and keeps a log of what
actually fired, which the metric pipeline later uses as its event list.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from .world import AgentState, WorldState


class EventKind(Enum):
    APPLE_VANISH = "apple_vanish"
    BOT_INTRUSION = "bot_intrusion"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    trigger_tick: int
    v_s: float = 0.0        # apple_vanish: per-apple removal probability
    duration: int = 0       # bot_intrusion: ticks the bots stay
    bot_count: int = 0      # bot_intrusion: how many bots enter
    p_s: float = 1.0        # probability the event fires at its trigger

    def __post_init__(self):
        if self.trigger_tick < 0:
            raise ValueError("trigger tick must be >= 0")
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError("p_s must be in [0, 1]")
        if self.kind is EventKind.APPLE_VANISH:
            if not 0.0 <= self.v_s <= 1.0:
                raise ValueError("v_s must be in [0, 1]")
        else:
            if self.duration < 1:
                raise ValueError("bot intrusion duration must be >= 1")
            if self.bot_count < 0:
                raise ValueError("bot count must be >= 0")


@dataclass
class EventSchedule:
    events: list[Event] = field(default_factory=list)

    def __post_init__(self):
        triggers = [e.trigger_tick for e in self.events]
        for prev, cur in zip(triggers, triggers[1:]):
            if cur <= prev:
                raise ValueError("event triggers must be strictly increasing")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


# What follows the trigger tick on each kind's schedule line, then an optional p_s.
EVENT_FIELDS = {
    EventKind.APPLE_VANISH: (("v_s", float),),
    EventKind.BOT_INTRUSION: (("duration", int), ("bot_count", int)),
}


def parse_event(line: str) -> Event:
    """Parse one schedule line, stripped of its comment: ``<kind> <trigger> <fields> [p_s]``."""
    word, *values = line.split()
    kind = next((k for k in EventKind if k.value == word), None)
    if kind is None:
        raise ValueError(f"unknown event kind {word!r}")
    fields = EVENT_FIELDS[kind]
    if len(values) - len(fields) not in (1, 2):
        names = "".join(f"<{name}> " for name, _ in fields)
        raise ValueError(f"expected: {kind.value} <trigger> {names}[p_s]")
    # Converted in line order: trigger, fields, p_s.
    return Event(kind=kind, trigger_tick=int(values[0]),
                 **{name: read(v) for (name, read), v in zip(fields, values[1:])},
                 p_s=float(values[-1]) if len(values) > len(fields) + 1 else 1.0)


def schedule_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each line left once ``#`` comments are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_schedule(text: str) -> EventSchedule:
    """Parse the one-event-per-line schedule format (see ``parse_event``)."""
    events = []
    for lineno, line in schedule_lines(text):
        try:
            events.append(parse_event(line))
        except ValueError as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from None
    return EventSchedule(events=events)


def apply_apple_vanish(state: WorldState, v_s: float, rng: random.Random) -> None:
    """Remove each live apple with probability ``v_s``, sparing one per tree.

    Apples are visited in fixed cell order; the final live apple of each
    tree is exempt from the draw, so a tree never loses everything (and
    never vanishes) to this event.  ``v_s`` is in [0, 1], as ``Event`` checks.
    """
    live = state.live_apples
    for cells in state.grid.trees:
        live_cells = [cell for cell in cells if cell in live]
        for cell in live_cells[:-1]:  # the last live cell is always spared
            if rng.random() < v_s:
                state.remove_apple(cell)
                state.total_event_vanished += 1


def apply_bot_intrusion(state: WorldState, event: Event) -> None:
    """Spawn the event's bots, as the next agent ids, on the free spawn cells nearest the center.

    Enough are free: ``ScenarioConfig.validate`` checks the spawn points hold every agent and bot.
    """
    center = (state.grid.height / 2.0, state.grid.width / 2.0)
    free = [c for c in state.grid.spawn_points if c not in state.occupied]
    free.sort(key=lambda c: ((c[0] - center[0]) ** 2 + (c[1] - center[1]) ** 2, c))
    for cell in free[:event.bot_count]:
        state.agents[state.next_agent_id] = AgentState(position=cell)
        state.occupied[cell] = state.next_agent_id
        state.next_agent_id += 1


class EventEngine:
    """Executes a schedule against a world, one tick at a time.

    Keeps ``fired``, the trigger ticks of the events that fired (an event
    fires at its trigger with probability ``p_s``), and handles the delayed
    removal of intruding bots.  Bots exist exactly for ticks
    ``[trigger, trigger + duration)``.

    ``next_due`` is the next tick on which ``fire_events`` has work (a
    trigger or a bot removal), or None when none is left.  Calling
    ``fire_events`` only on that tick, then on the one it names next, and
    so on, leaves the world exactly as calling it on every tick would.

    An engine starts at ``tick`` with copies of ``fired`` and ``removals``
    (tick -> bot ids to remove): another engine's, to resume them.
    """

    def __init__(self, schedule: EventSchedule, fired=(), removals=None, tick: int = 0):
        self.schedule = schedule
        self.fired: list[int] = list(fired)
        self.removals = {t: list(ids) for t, ids in (removals or {}).items()}
        self.next_due = self._due_from(tick)

    def _due_from(self, tick: int) -> int | None:
        return min([e.trigger_tick for e in self.schedule if e.trigger_tick >= tick]
                   + list(self.removals), default=None)

    def fire_events(self, state: WorldState, tick: int, rng: random.Random) -> None:
        for removal_tick in [t for t in self.removals if t <= tick]:
            for bot_id in self.removals.pop(removal_tick):
                del state.occupied[state.agents.pop(bot_id).position]
        for event in self.schedule:
            if event.trigger_tick != tick:
                continue
            if rng.random() >= event.p_s:
                continue
            if event.kind is EventKind.APPLE_VANISH:
                apply_apple_vanish(state, event.v_s, rng)
            elif event.bot_count > 0:
                first_id = state.next_agent_id
                apply_bot_intrusion(state, event)
                self.removals.setdefault(tick + event.duration, []).extend(
                    range(first_id, state.next_agent_id))
            self.fired.append(tick)
        # Every removal left is after this tick.
        self.next_due = self._due_from(tick + 1)
