from __future__ import annotations

import numpy as np
import pytest

from coopres.indicators import EpisodeTrace


def build_trace(apples_per_tree, consumed, **kwargs) -> EpisodeTrace:
    """Assemble a trace, its rows built from per-tick arrays.

    Positions and ledgers are 0; ``hunger_ticks`` is derived from ``consumed``.
    """
    apples = np.asarray(apples_per_tree, dtype=np.int64)
    eaten = np.asarray(consumed, dtype=np.int64)
    h, n = eaten.shape
    per_agent = np.zeros((h, n, 3), dtype=np.int64)
    per_agent[:, :, 0] = eaten
    rows = np.concatenate([apples, per_agent.reshape(h, 3 * n), np.zeros((h, 3), np.int64)],
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
