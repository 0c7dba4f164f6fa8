"""Well-being indicator curves computed from episode traces.

Each indicator is oriented so that higher values mean better collective
well-being, which the downstream metric pipeline relies on.  The curves
are computed here and written by ``report.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

DEFAULT_H_MAX = 100


@dataclass
class EpisodeTrace:
    """Per-tick record of one simulated episode: one int64 row per tick.

    A row holds the live apples per tree in map order, then consumed, row
    and column of each of the ``n_agents >= 1`` welfare agents in turn,
    then the cumulative ledgers of apples consumed, regrown and vanished
    by events.  ``apples_per_tree``, ``consumed``, ``positions`` and
    ``ledger_*`` are views of those columns.  ``hunger_ticks`` is derived
    from ``consumed``: each agent's ticks since the last row where its
    count rose, counted from tick 0 before its first meal.  ``consumed``
    and ``hunger_ticks`` cover the welfare population only (bots
    excluded); the ledgers count the whole world and include bot
    consumption.
    """

    n_agents: int
    rows: np.ndarray  # (horizon, n_trees + 3 * n_agents + 3)
    fired_triggers: tuple[int, ...] = ()
    bot_records: list = field(default_factory=list)  # per tick: [(id, (r, c), consumed)]

    def __post_init__(self) -> None:
        n, rows = self.n_agents, self.rows
        if n < 1:
            raise ValueError(f"n_agents = {n}: a trace needs at least one welfare agent")
        if rows.ndim != 2 or rows.shape[1] < 3 * n + 3:
            raise ValueError(f"rows shape {rows.shape} leaves no room for {n} agents and 3 ledgers")
        per_agent = rows[:, -3 * n - 3:-3].reshape(len(rows), n, 3)
        self.apples_per_tree = rows[:, :-3 * n - 3]
        self.consumed, self.positions = per_agent[:, :, 0], per_agent[:, :, 1:]
        self.ledger_consumed, self.ledger_regrown, self.ledger_event_vanished = rows[:, -3:].T
        ticks = np.arange(len(rows))[:, None]
        ate = np.diff(self.consumed, axis=0, prepend=self.consumed[:1]) > 0
        self.hunger_ticks = ticks - np.maximum.accumulate(np.where(ate, ticks, 0), axis=0)

    @property
    def horizon(self) -> int:
        return len(self.rows)

    def live_tree_count(self) -> np.ndarray:
        return (self.apples_per_tree > 0).sum(axis=1)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        h = self.horizon
        if len(self.bot_records) not in (0, h):
            raise ValueError(f"bot_records has {len(self.bot_records)} entries, not 0 or {h}")
        if np.any(np.diff(self.consumed, axis=0) < 0):
            raise ValueError("cumulative consumption must be non-decreasing")
        trees = self.live_tree_count()
        if np.any(np.diff(trees) > 0):
            raise ValueError("live tree count must be non-increasing")


def gini(values: Sequence[float] | np.ndarray) -> np.ndarray | float:
    """Gini index over the last axis, by the sorted-rank form.

    G = sum_ij |x_i - x_j| / (2 n^2 mu), where
    sum_ij |x_i - x_j| = 2 sum_i (2i - n - 1) x_(i) over the ascending
    order statistics x_(1..n); the rank form is exact on integer inputs.
    Zero-total rows give 0 by convention (nothing to distribute is
    trivially equal).  A 1-D input gives a scalar, a matrix one value
    per row.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("gini of an empty sequence is undefined")
    if np.any(x < 0):
        raise ValueError("gini requires non-negative values")
    n = x.shape[-1]
    ranks = 2 * np.arange(1, n + 1) - n - 1
    # Rounding can leave a tiny negative sum where all values are equal.
    rank_sum = np.maximum((np.sort(x, axis=-1) * ranks).sum(axis=-1), 0.0)
    total = x.sum(axis=-1)
    return np.where(total > 0, rank_sum / (n * np.where(total > 0, total, 1.0)), 0.0)[()]


INDICATORS: dict[str, Callable[[EpisodeTrace, int], np.ndarray]] = {
    # Live apples on the map per welfare agent.
    "apples_pc": lambda trace, h_max: trace.apples_per_tree.sum(axis=1) / trace.n_agents,
    # Trees holding at least one live apple, per welfare agent.
    "trees_pc": lambda trace, h_max: trace.live_tree_count() / trace.n_agents,
    # 1 - Gini of the welfare agents' cumulative consumption.
    "gini_equality": lambda trace, h_max: 1.0 - gini(trace.consumed),
    # 1 - mean over agents of min(1, ticks since the last meal / h_max): 1 when
    # everyone just ate, 0 when nobody has eaten for h_max ticks.
    "hunger_index": lambda trace, h_max: (
        1.0 - np.minimum(1.0, trace.hunger_ticks / h_max).mean(axis=1)),
}
"""Indicator name -> its curve for one trace and ``h_max``, in canonical order."""

INDICATOR_NAMES = tuple(INDICATORS)


def compute_indicators(trace: EpisodeTrace, names: Sequence[str] = INDICATOR_NAMES,
                       h_max: int = DEFAULT_H_MAX) -> dict[str, np.ndarray]:
    """The named indicator curves of one trace, one value per tick, in canonical order."""
    if h_max < 1:
        raise ValueError("h_max must be >= 1")
    return {name: fn(trace, h_max) for name, fn in INDICATORS.items() if name in names}


def stack_episodes(per_episode: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """One ``(episodes, horizon)`` array per indicator, in the episodes' key order."""
    if not per_episode:
        raise ValueError("need at least one episode")
    return {name: np.stack([curves[name] for curves in per_episode])
            for name in per_episode[0]}
