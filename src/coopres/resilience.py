"""Event-window resilience metrics and their assembly into a scalar score.

The pipeline takes a performance/reference curve pair per well-being
variable plus the trigger ticks of the disruptive events, scores each
(variable, event) window, folds the per-event scores over time, and
couples the per-variable scores with a harmonic mean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .timeseries import (
    DEFAULT_CAP,
    DEFAULT_EPS,
    TimeSeries,
    Window,
    guarded_ratio,
    trapezoid_integral,
)


@dataclass(frozen=True)
class Milestones:
    """Key ticks of one event window: incident, failure, recovery reference."""

    t_i: int
    t_f: int
    t_r: int
    window_start: int

    def __post_init__(self):
        if not self.window_start <= self.t_i <= self.t_f <= self.t_r:
            raise ValueError(
                f"milestones must be ordered: window_start={self.window_start} "
                f"t_i={self.t_i} t_f={self.t_f} t_r={self.t_r}")


@dataclass
class CurvePair:
    """A variable's trajectory with events (performance) and without (reference)."""

    performance: TimeSeries
    reference: TimeSeries

    def __post_init__(self):
        p, r = self.performance, self.reference
        if p.t0 != r.t0 or len(p) != len(r):
            raise ValueError("performance and reference curves must share the grid")
        if np.any(p.values < 0) or np.any(r.values < 0):
            raise ValueError("curves must be non-negative (positive-orientation indicators)")

    @property
    def horizon(self) -> int:
        return len(self.performance)


@dataclass
class EventResilience:
    """Score and profiles of a single (variable, event) window."""

    j_value: float
    f_profile: float
    g_profile: float
    milestones: Milestones

    def to_json_dict(self) -> dict:
        m = self.milestones
        return {"J_jl": self.j_value, "F": self.f_profile, "G": self.g_profile,
                "t_i": m.t_i, "t_f": m.t_f, "t_r": m.t_r,
                "window_start": m.window_start}


@dataclass
class VariableResilience:
    events: list[EventResilience]
    folded: float


@dataclass
class ResilienceReport:
    """Full output of the pipeline, intermediate values included."""

    per_variable: dict[str, VariableResilience]
    assembled: float
    event_count: int
    variable_count: int

    def to_json_dict(self) -> dict:
        return {
            "J": self.assembled,
            "L": self.event_count,
            "K": self.variable_count,
            "per_variable": {
                name: {"J_j": vr.folded,
                       "events": [e.to_json_dict() for e in vr.events]}
                for name, vr in self.per_variable.items()
            },
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def partition_windows(schedule: Iterable[int], horizon: int, t0: int = 0) -> list[Window]:
    """Split ``[t0, t0 + horizon)`` into one window per event.

    Window l runs from the previous window's end (``t0`` for the first) to
    the next event's trigger (the end of the range for the last), so each
    window contains exactly one trigger.
    """
    triggers = [int(t) for t in schedule]
    if not triggers:
        return []
    for prev, cur in zip(triggers, triggers[1:]):
        if cur == prev:
            raise ValueError(f"two events share trigger tick {cur}")
        if cur < prev:
            raise ValueError("schedule must be sorted by trigger tick")
    end = t0 + horizon
    if triggers[0] < t0 or triggers[-1] >= end:
        raise ValueError(f"triggers must lie in [{t0}, {end}), got {triggers}")
    bounds = [t0] + triggers[1:] + [end]
    return [Window(bounds[i], bounds[i + 1]) for i in range(len(triggers))]


def detect_milestones(pair: CurvePair, trigger: int, window: Window,
                      eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> Milestones:
    """Locate the failure point of one event window.

    The failure tick minimizes the per-tick performance/reference ratio
    between the trigger and the window's last tick (earliest tick on
    ties); the recovery reference is pinned to the window's last tick.
    """
    if window.length < 2:
        raise ValueError(f"window {window} is shorter than 2 ticks")
    if not window.start <= trigger < window.end:
        raise ValueError(f"trigger {trigger} outside window {window}")
    t_r = window.end - 1
    p = pair.performance.slice_values(trigger, t_r)
    r = pair.reference.slice_values(trigger, t_r)
    t_f = trigger + int(np.argmin(guarded_ratio(p, r, eps, cap)))
    return Milestones(t_i=trigger, t_f=t_f, t_r=t_r, window_start=window.start)


def failure_profile(pair: CurvePair, m: Milestones,
                    eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> float:
    """Ratio of performance to reference area between incident and failure.

    A zero-length interval yields 1.0 (both integrals vanish and the
    guard treats that as no observable deviation).
    """
    w = Window(m.t_i, m.t_f)
    return guarded_ratio(trapezoid_integral(pair.performance, w),
                         trapezoid_integral(pair.reference, w), eps, cap)


def recovery_profile(pair: CurvePair, m: Milestones,
                     eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> float:
    """Ratio of performance to reference area between failure and recovery."""
    w = Window(m.t_f, m.t_r)
    return guarded_ratio(trapezoid_integral(pair.performance, w),
                         trapezoid_integral(pair.reference, w), eps, cap)


def summary_metric(pair: CurvePair, m: Milestones,
                   eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> EventResilience:
    """Time-weighted event score.

    With times measured from the window start, the pre-incident span
    carries an implicit profile of 1, the failure span is weighted by the
    failure profile and the recovery span by the recovery profile:

        J = (t_i' + F * dt_f + G * dt_r) / (t_i' + dt_f + dt_r)
    """
    t_i_rel = m.t_i - m.window_start
    dt_f = m.t_f - m.t_i
    dt_r = m.t_r - m.t_f
    denom = t_i_rel + dt_f + dt_r
    if denom == 0:
        raise ValueError("degenerate window: incident, failure and recovery coincide "
                         "at the window start")
    f = failure_profile(pair, m, eps, cap)
    g = recovery_profile(pair, m, eps, cap)
    j = (t_i_rel + f * dt_f + g * dt_r) / denom
    return EventResilience(j_value=j, f_profile=f, g_profile=g, milestones=m)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def fold_events(j_values: Sequence[float]) -> float:
    """Combine per-event scores over time, rewarding improvement.

    Left fold of ``acc <- clamp(((acc + j)/2) * (1 + (j - acc)))``: a drop
    relative to the running score is penalized beyond the plain average, a
    rise is rewarded, and each step saturates into [0, 1].
    """
    if not j_values:
        raise ValueError("fold_events needs at least one event score")
    if any(v < 0 for v in j_values):
        raise ValueError("event scores must be non-negative")
    acc = float(j_values[0])
    if len(j_values) == 1:
        return _clamp01(acc)
    for nxt in j_values[1:]:
        nxt = float(nxt)
        acc = _clamp01(((acc + nxt) / 2.0) * (1.0 + (nxt - acc)))
    return acc


def assemble_variables(folded: Mapping[str, float]) -> float:
    """Harmonic mean across per-variable scores; any zero forces zero.

    The harmonic mean punishes a weak variable far more than the
    arithmetic mean would, which is the point: collapse of one well-being
    dimension should not be averaged away.
    """
    if not folded:
        raise ValueError("assemble_variables needs at least one variable")
    values = list(folded.values())
    for name, v in folded.items():
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"folded score for {name} must be in [0, 1], got {v}")
    if any(v == 0.0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def detect_triggers(pair: CurvePair, threshold: float = 0.95,
                    eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> list[int]:
    """Threshold-based incident detector for curves without a known schedule.

    Returns the ticks where the per-tick performance/reference ratio
    crosses from ``>= threshold`` to ``< threshold``, and the first tick
    if the ratio starts below it.
    """
    ratios = guarded_ratio(pair.performance.values, pair.reference.values, eps, cap)
    below = ratios < threshold
    crossings = np.flatnonzero(below[1:] & ~below[:-1]) + 1
    if below[0]:
        crossings = np.concatenate(([0], crossings))
    t0 = pair.performance.t0
    return [t0 + int(i) for i in crossings]


def resilience_pipeline(pairs: Mapping[str, CurvePair], schedule: Iterable[int],
                        eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> ResilienceReport:
    """Run window partitioning, event scoring, folding and assembly.

    ``schedule`` is the ordered trigger ticks of the events that actually
    occurred, on the curves' tick axis: the windows cover the ticks
    ``[t0, t0 + horizon)`` that the curves hold.
    """
    if not pairs:
        raise ValueError("resilience_pipeline needs at least one variable")
    spans = {(p.performance.t0, p.horizon) for p in pairs.values()}
    if len(spans) != 1:
        raise ValueError(f"curve pairs disagree on (t0, horizon): {sorted(spans)}")
    t0, horizon = spans.pop()
    triggers = [int(t) for t in schedule]
    if not triggers:
        raise ValueError("no disruptive events: the pipeline needs at least one trigger")
    windows = partition_windows(triggers, horizon, t0)
    per_variable: dict[str, VariableResilience] = {}
    folded_scores: dict[str, float] = {}
    for name, pair in pairs.items():
        events = []
        for trigger, window in zip(triggers, windows):
            m = detect_milestones(pair, trigger, window, eps, cap)
            events.append(summary_metric(pair, m, eps, cap))
        folded = fold_events([e.j_value for e in events])
        per_variable[name] = VariableResilience(events=events, folded=folded)
        folded_scores[name] = folded
    assembled = assemble_variables(folded_scores)
    return ResilienceReport(per_variable=per_variable, assembled=assembled,
                            event_count=len(triggers), variable_count=len(pairs))
