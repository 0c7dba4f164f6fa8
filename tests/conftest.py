from __future__ import annotations

import numpy as np
import pytest

from coopres.indicators import EpisodeTrace


def build_trace(apples_per_tree, consumed, hunger_ticks=None, **kwargs) -> EpisodeTrace:
    """Assemble a structurally valid trace, its rows built from per-tick arrays.

    When ``hunger_ticks`` is omitted it is derived from the consumption
    matrix (reset on every increase, +1 otherwise, starting at 0).
    Positions and ledgers are 0.
    """
    apples = np.asarray(apples_per_tree, dtype=np.int64)
    eaten = np.asarray(consumed, dtype=np.int64)
    h, n = eaten.shape
    if hunger_ticks is None:
        hunger = np.zeros((h, n), dtype=np.int64)
        for t in range(1, h):
            ate = eaten[t] > eaten[t - 1]
            hunger[t] = np.where(ate, 0, hunger[t - 1] + 1)
    else:
        hunger = np.asarray(hunger_ticks, dtype=np.int64)
    per_agent = np.zeros((h, n, 4), dtype=np.int64)
    per_agent[:, :, 0], per_agent[:, :, 1] = eaten, hunger
    rows = np.concatenate([apples, per_agent.reshape(h, 4 * n), np.zeros((h, 3), np.int64)],
                          axis=1)
    return EpisodeTrace(n_agents=n, rows=rows, **kwargs)


def write_raw_curve(path, values, t0=0):
    """Write ``tick,value`` rows from tick ``t0``, each value as ``str`` gives it."""
    path.write_text("tick,value\n"
                    + "".join(f"{t0 + i},{v}\n" for i, v in enumerate(values)))
    return path


@pytest.fixture
def flat_trace():
    """Five agents, two trees holding 30 apples total, nobody ever eats."""
    h = 20
    apples = np.tile([24, 6], (h, 1))
    consumed = np.zeros((h, 5), dtype=np.int64)
    return build_trace(apples, consumed)
