"""Seeded input generators for the benchmark workloads.

Every input file the program reads is written here from the workload seed,
so the same seed always gives byte-identical inputs and the program sees
only ordinary CLI inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# Ratio below which ``coopres measure`` detects an incident when no schedule
# is given (the default threshold of ``resilience.detect_triggers``).
DETECT_THRESHOLD = 0.95


def write_late_scenario(path: Path, seed: int, tiny: bool = False) -> int:
    """Write the ``run-late-traces`` scenario INI; return its episode count.

    Both events come late (first trigger at 60% of the episode), so most of
    each performance episode is identical to its reference twin.  The seed
    only moves the base seed: the schedule is fixed so that the share of
    ticks before the first trigger stays the same for every seed.
    """
    if tiny:
        length, episodes, vanish, bots, duration = 300, 1, 180, 220, 10
    else:
        length, episodes, vanish, bots, duration = 1500, 5, 900, 1100, 50
    path.write_text(
        "[events]\n"
        "schedule =\n"
        f"    apple_vanish {vanish} 0.5\n"
        f"    bot_intrusion {bots} {duration} 2\n"
        "\n"
        "[pipeline]\n"
        "scenario_id = late\n"
        f"episode_length = {length}\n"
        f"episodes = {episodes}\n"
        f"base_seed = {seed}\n")
    return episodes


def long_curves(seed: int, ticks: int, events: int) -> tuple[np.ndarray, np.ndarray]:
    """A reference curve and a performance curve with ``events`` dips.

    The reference wanders around 1.  The performance curve is the reference
    times a factor that is exactly 1 outside the dips; each dip ramps down to
    a seeded depth and ramps back up to 1 well before the next dip starts.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(ticks)
    period = rng.uniform(2_000, 20_000)
    reference = 1.0 + 0.3 * np.sin(2 * np.pi * t / period) + rng.uniform(0, 0.05, ticks)
    factor = np.ones(ticks)
    segment = ticks // events
    for k in range(events):
        start = k * segment + int(rng.integers(segment // 10, segment // 4))
        fall = int(rng.integers(segment // 50, segment // 10))
        rise = int(rng.integers(segment // 10, segment // 3))
        depth = rng.uniform(0.3, 0.8)
        factor[start:start + fall] = np.linspace(1.0, depth, fall, endpoint=False)
        factor[start + fall:start + fall + rise] = np.linspace(depth, 1.0, rise,
                                                               endpoint=False)
    # Six decimals keep the CSVs short; the triggers to expect are computed
    # from these rounded values, exactly as the program will read them.
    return np.round(reference * factor, 6), np.round(reference, 6)


def expected_triggers(performance: np.ndarray, reference: np.ndarray) -> list[int]:
    """Ticks where the ratio first drops below the detection threshold.

    An independent numpy statement of what ``coopres measure`` must detect;
    the reference never comes near the ratio guard's epsilon, so the guard
    reduces to a plain division.
    """
    below = performance / reference < DETECT_THRESHOLD
    crossings = np.flatnonzero(below[1:] & ~below[:-1]) + 1
    return ([0] if below[0] else []) + crossings.tolist()


def write_curve_csv(path: Path, values: np.ndarray) -> None:
    """Write ``tick,value`` rows with values as plain Python floats.

    ``tolist()`` matters: on numpy 2 ``repr(np.float64(x))`` reads
    ``np.float64(x)``, which ``TimeSeries.from_csv`` cannot parse.
    """
    rows = [f"{t},{v!r}" for t, v in enumerate(values.tolist())]
    path.write_text("tick,value\n" + "\n".join(rows) + "\n")


def write_long_curves(directory: Path, seed: int, tiny: bool = False) -> list[int]:
    """Write the ``measure-long`` curve pair; return the triggers to expect."""
    ticks, events = (5_000, 3) if tiny else (1_000_000, 40)
    performance, reference = long_curves(seed, ticks, events)
    write_curve_csv(directory / "performance.csv", performance)
    write_curve_csv(directory / "reference.csv", reference)
    return expected_triggers(performance, reference)
