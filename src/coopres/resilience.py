"""Event-window resilience metrics and their assembly into a scalar score.

The pipeline takes a performance/reference curve pair per well-being
variable plus the trigger ticks of the disruptive events, scores each
(variable, event) window, folds the per-event scores over time, and
couples the per-variable scores with a harmonic mean.  The module holds
every step of it, with the ratio guard and the threshold trigger detector,
and scores the raw value arrays of the ``TimeSeries`` curves it is given.
It writes no file: ``report.py`` formats the ``ResilienceReport``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .timeseries import TimeSeries

EPS = 1e-9
CAP = 2.0
TRIGGER_THRESHOLD = 0.95


def guarded_ratio(num: float | np.ndarray, den: float | np.ndarray) -> float | np.ndarray:
    """Quotient ``num/den`` with defined behavior for a vanishing denominator.

    Elementwise over arrays; two scalars give a Python float.  Where the
    denominator falls below ``EPS``: both tiny -> 1.0 (no evidence of
    deviation); numerator alive -> ``CAP`` (bounded exceeding-expectation).
    Never NaN on finite inputs; a quotient past float64's range reads inf.
    """
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    live = den >= EPS
    with np.errstate(over="ignore"):
        out = np.where(live, num / np.where(live, den, 1.0), np.where(num < EPS, 1.0, CAP))
    return float(out) if out.ndim == 0 else out


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


@dataclass
class VariableResilience:
    events: list[EventResilience]
    folded: float


@dataclass
class ResilienceReport:
    """Full output of the pipeline, intermediate values included."""

    per_variable: dict[str, VariableResilience]
    assembled: float | None  # None, with no variable scored, when no event fired
    event_count: int
    variable_count: int


def partition_windows(schedule: Iterable[int], horizon: int,
                      t0: int = 0) -> list[tuple[int, int]]:
    """Split ``[t0, t0 + horizon)`` into one ``(start, end)`` window per event.

    Window l runs from the previous window's end (``t0`` for the first) to
    the next event's trigger (the end of the range for the last), so each
    window contains exactly one trigger.  A window shorter than 2 ticks
    has no failure-recovery span to score and is refused.
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
    for start, stop in zip(bounds, bounds[1:]):
        if stop - start < 2:
            raise ValueError(f"event window [{start}, {stop}) is shorter than 2 ticks; "
                             "space the triggers at least 2 ticks apart")
    return list(zip(bounds, bounds[1:]))


def _trapezoid(values: np.ndarray, a: int, b: int) -> float:
    """Trapezoidal-rule area of ``values`` over indices ``a..b``; 0 when ``a == b``.

    Exact for piecewise-linear series with breakpoints on the tick grid.
    An area past float64's range reads infinity.
    """
    span = values[a:b + 1]
    with np.errstate(over="ignore"):
        return float(np.sum((span[:-1] + span[1:]) * 0.5))


def _area_ratio(pair: CurvePair, start: int, end: int) -> float:
    """Performance over reference area between ticks ``start`` and ``end`` (1.0 if they meet)."""
    a, b = start - pair.performance.t0, end - pair.performance.t0
    den = _trapezoid(pair.reference.values, a, b)
    return (guarded_ratio(_trapezoid(pair.performance.values, a, b), den)
            if den < np.inf else np.nan)  # a finite area over an overflowed one would read 0


def summary_metric(pair: CurvePair, m: Milestones) -> EventResilience:
    """Time-weighted event score.

    With times measured from the window start, the pre-incident span
    carries an implicit profile of 1, the failure span is weighted by the
    failure profile F (the area ratio from incident to failure) and the
    recovery span by the recovery profile G (failure to recovery):

        J = (t_i' + F * dt_f + G * dt_r) / (t_i' + dt_f + dt_r)

    Refused: milestones outside the curves' ticks, and a score past float64's range.
    """
    first = pair.performance.t0
    last = first + pair.horizon - 1
    if m.window_start < first or m.t_r > last:
        raise ValueError(f"milestones [{m.window_start}, {m.t_r}] lie outside the "
                         f"curves' ticks [{first}, {last}]")
    t_i_rel = m.t_i - m.window_start
    dt_f = m.t_f - m.t_i
    dt_r = m.t_r - m.t_f
    denom = t_i_rel + dt_f + dt_r
    if denom == 0:
        raise ValueError("degenerate window: incident, failure and recovery coincide "
                         "at the window start")
    f = _area_ratio(pair, m.t_i, m.t_f)
    g = _area_ratio(pair, m.t_f, m.t_r)
    j = (t_i_rel + f * dt_f + g * dt_r) / denom
    if not np.isfinite((f, g, j)).all():
        raise ValueError(f"event score at tick {m.t_i} exceeds the float64 range "
                         f"(F = {f}, G = {g})")
    return EventResilience(j_value=j, f_profile=f, g_profile=g, milestones=m)


def fold_events(j_values: Sequence[float]) -> float:
    """Combine per-event scores over time, rewarding improvement.

    Each score is capped at 1 and the first is the start; then the left fold
    ``acc <- min(((acc + j)/2) * (1 + (j - acc)), 1)`` penalizes a drop below
    the running score beyond the plain average and rewards a rise.  Scores
    below 0 are refused, and a step of two values in [0, 1] is never below 0.
    """
    if not j_values:
        raise ValueError("fold_events needs at least one event score")
    if any(v < 0 for v in j_values):
        raise ValueError("event scores must be non-negative")
    acc, *rest = (min(float(v), 1.0) for v in j_values)
    for nxt in rest:
        acc = min(((acc + nxt) / 2.0) * (1.0 + (nxt - acc)), 1.0)
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


def detect_triggers(pair: CurvePair) -> list[int]:
    """Threshold-based incident detector for curves without a known schedule.

    Returns the ticks where the per-tick performance/reference ratio
    crosses from ``>= TRIGGER_THRESHOLD`` to ``< TRIGGER_THRESHOLD``, and
    the first tick if the ratio starts below it.
    """
    ratios = guarded_ratio(pair.performance.values, pair.reference.values)
    below = ratios < TRIGGER_THRESHOLD
    crossings = np.flatnonzero(below[1:] & ~below[:-1]) + 1
    if below[0]:
        crossings = np.concatenate(([0], crossings))
    t0 = pair.performance.t0
    return [t0 + int(i) for i in crossings]


def resilience_pipeline(pairs: Mapping[str, CurvePair],
                        schedule: Iterable[int]) -> ResilienceReport:
    """Run window partitioning, event scoring, folding and assembly.

    ``schedule`` is the ordered trigger ticks of the events that actually
    occurred, on the curves' tick axis: the windows cover the ticks
    ``[t0, t0 + horizon)`` that the curves hold.  In each window the
    failure tick minimizes the per-tick performance/reference ratio from
    the trigger to the window's last tick (the earliest tick on ties), and
    the recovery reference is pinned to that last tick.
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
    for name, pair in pairs.items():
        events = []
        for trigger, (start, end) in zip(triggers, windows):
            ratios = guarded_ratio(pair.performance.values[trigger - t0:end - t0],
                                   pair.reference.values[trigger - t0:end - t0])
            m = Milestones(t_i=trigger, t_f=trigger + int(np.argmin(ratios)), t_r=end - 1,
                           window_start=start)
            events.append(summary_metric(pair, m))
        per_variable[name] = VariableResilience(
            events=events, folded=fold_events([e.j_value for e in events]))
    assembled = assemble_variables({name: vr.folded for name, vr in per_variable.items()})
    return ResilienceReport(per_variable=per_variable, assembled=assembled,
                            event_count=len(triggers), variable_count=len(pairs))
