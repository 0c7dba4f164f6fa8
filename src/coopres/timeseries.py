"""Uniform-grid scalar time series and the numeric primitives built on them."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

# Defaults for the ratio guard used throughout the metric pipeline.
DEFAULT_EPS = 1e-9
DEFAULT_CAP = 2.0

_CSV_ROW = np.dtype([("tick", np.int64), ("value", np.float64)])


class TimeSeries:
    """Scalar curve sampled once per tick on a gap-free integer grid.

    The tick spacing is always 1; ``t0`` is the tick index of the first
    sample.  Values are held as a float64 numpy array and treated as
    immutable after construction.
    """

    __slots__ = ("t0", "values")

    def __init__(self, values: Iterable[float], t0: int = 0):
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                         dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("time series needs a non-empty 1-D value sequence")
        if t0 < 0:
            raise ValueError(f"t0 must be >= 0, got {t0}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"time series values must be finite, got {arr[bad[0]]} "
                             f"at tick {t0 + bad[0]}")
        self.t0 = int(t0)
        self.values = arr

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_tick(self) -> int:
        """Tick index of the last sample."""
        return self.t0 + self.values.size - 1

    def slice_values(self, start_tick: int, end_tick: int) -> np.ndarray:
        """Values for ticks ``start_tick..end_tick`` inclusive."""
        if not (self.t0 <= start_tick <= end_tick <= self.end_tick):
            raise ValueError(
                f"tick range [{start_tick}, {end_tick}] outside series "
                f"range [{self.t0}, {self.end_tick}]")
        return self.values[start_tick - self.t0:end_tick - self.t0 + 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.t0 == other.t0 and np.array_equal(self.values, other.values)

    def __hash__(self):  # pragma: no cover - mutable payload
        raise TypeError("TimeSeries is not hashable")

    def __repr__(self) -> str:
        return f"TimeSeries(t0={self.t0}, n={len(self)})"

    @classmethod
    def from_csv(cls, path: str | Path) -> "TimeSeries":
        """Read a ``tick,value`` CSV; ticks must be consecutive integers.

        Columns after the second are ignored.  Every refusal raises
        ``ValueError`` with the path as its prefix.
        """
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]))
            if [h.strip() for h in header[:2]] != ["tick", "value"]:
                raise ValueError(f"{path}: expected header 'tick,value'")
            try:
                with warnings.catch_warnings():
                    # An empty body is refused below, not warned about.
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", usecols=(0, 1), ndmin=1,
                                      comments=None, dtype=_CSV_ROW)
            except ValueError as exc:
                # numpy counts data rows, not file lines: name the line instead.
                raise ValueError(f"{path}: {_first_bad_line(path) or exc}") from None
        if rows.size == 0:
            raise ValueError(f"{path}: no data rows")
        ticks = rows["tick"]
        gaps = np.flatnonzero(np.diff(ticks) != 1)
        if gaps.size:
            i = gaps[0]
            raise ValueError(f"{path}: ticks must be consecutive, "
                             f"got {ticks[i]} then {ticks[i + 1]}")
        try:
            return cls(np.ascontiguousarray(rows["value"]), t0=int(ticks[0]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _first_bad_line(path: str | Path) -> str | None:
    """The first data line that ``np.loadtxt`` refuses, described; blank lines are skipped."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            if lineno == 1 or fields == [""]:
                continue
            if len(fields) < 2:
                return f"line {lineno}: expected 2 columns, got {len(fields)}"
            for field, dtype in ((fields[0], np.int64), (fields[1], np.float64)):
                try:
                    dtype(field.replace("_", " "))  # the scalar reads 1_0 as 10, loadtxt refuses it
                except (ValueError, OverflowError):
                    return (f"line {lineno}: could not convert string {field!r} "
                            f"to {dtype.__name__}")
    return None


@dataclass(frozen=True)
class Window:
    """Tick interval ``[start, end)`` used to isolate one disruptive event.

    A degenerate window (start == end) is tolerated so that zero-length
    integrals are well defined; producers of windows never emit one.
    """

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"window start {self.start} > end {self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start


def trapezoid_integral(ts: TimeSeries, w: Window) -> float:
    """Trapezoidal-rule integral of ``ts`` over ticks ``[w.start, w.end]``.

    Exact for piecewise-linear series with breakpoints on the tick grid.
    A zero-length window integrates to 0.
    """
    if w.start == w.end:
        return 0.0
    vals = ts.slice_values(w.start, w.end)
    return float(np.sum((vals[:-1] + vals[1:]) * 0.5))


def guarded_ratio(num: float | np.ndarray, den: float | np.ndarray,
                  eps: float = DEFAULT_EPS, cap: float = DEFAULT_CAP) -> float | np.ndarray:
    """Quotient ``num/den`` with defined behavior for a vanishing denominator.

    Elementwise over arrays; two scalars give a Python float.  Where the
    denominator falls below ``eps``: both tiny -> 1.0 (no evidence of
    deviation); numerator alive -> ``cap`` (bounded exceeding-expectation).
    Total on all finite inputs; never returns NaN or infinity.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    live = den >= eps
    out = np.where(live, num / np.where(live, den, 1.0), np.where(num < eps, 1.0, cap))
    return float(out) if out.ndim == 0 else out
