"""Uniform-grid scalar time series and their ``tick,value`` CSV reader."""

from __future__ import annotations

import csv
import os
import stat
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

_CSV_ROW = np.dtype([("tick", np.int64), ("value", np.float64)])
# Suffixes that make np.loadtxt open a path through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


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

    def __repr__(self) -> str:
        return f"TimeSeries(t0={self.t0}, n={len(self)})"

    @classmethod
    def from_csv(cls, path: str | Path) -> "TimeSeries":
        """Read a ``tick,value`` CSV; ticks must be consecutive integers.

        Columns after the second are ignored.  Every refusal raises
        ``ValueError`` with the path as its prefix.  ``np.loadtxt`` gets the
        path, not the open file: a file object it reads line by line in
        Python, a path in chunks through its C reader.
        """
        try:
            if (suffix := os.path.splitext(path)[1]) in _COMPRESSED_SUFFIXES:
                raise ValueError(f"suffix {suffix!r} marks a compressed file; use plain text")
            with open(path) as fh:
                if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    raise ValueError("not a regular file (it is opened twice)")
                header = next(csv.reader([fh.readline()]))
            if [h.strip() for h in header[:2]] != ["tick", "value"]:
                raise ValueError("expected header 'tick,value'")
            try:
                with warnings.catch_warnings():
                    # An empty body is refused below, not warned about.
                    warnings.simplefilter("ignore", UserWarning)
                    # An absolute path keeps numpy from taking the name for a URL.
                    rows = np.loadtxt(os.path.abspath(path), delimiter=",", usecols=(0, 1),
                                      skiprows=1, ndmin=1, comments=None, dtype=_CSV_ROW)
            except ValueError as exc:
                # numpy counts data rows, not file lines: name the line instead.
                # A decode error is raised again by the second read.
                raise ValueError(_first_bad_line(path) or exc) from None
            if rows.size == 0:
                raise ValueError("no data rows")
            ticks = rows["tick"]
            gaps = np.flatnonzero(np.diff(ticks) != 1)
            if gaps.size:
                i = gaps[0]
                raise ValueError(f"ticks must be consecutive, got {ticks[i]} then {ticks[i + 1]}")
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
