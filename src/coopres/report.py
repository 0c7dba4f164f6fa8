"""Every report format but the trace JSONL (``world.write_trace_jsonl``).

A scored grid writes ``report.csv`` (long format), ``report.json`` (nested),
``heatmap.svg`` and each scenario's indicator CSVs; ``measure`` writes one
cell's scores as its JSON.  A single scenario is a one-cell grid, so every
command writes through the same functions.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import asdict
from html import escape
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .harness import GridResult
from .resilience import ResilienceReport
from .world import BLOCK_TICKS, join_rows


def _write_csv(result: GridResult, path: Path) -> None:
    """One row per (scenario, variable, event), with the variable's and the scenario's score."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "variable", "event", "J_jl", "F", "G", "J_j", "J"])
        for res in result.results.values():
            for name, vr in res.report.per_variable.items():
                for l, ev in enumerate(vr.events, start=1):
                    writer.writerow([res.scenario_id, name, l, repr(ev.j_value),
                                     repr(ev.f_profile), repr(ev.g_profile),
                                     repr(vr.folded), repr(res.report.assembled)])


def report_json_dict(report: ResilienceReport) -> dict:
    """A scored scenario's ``J``, ``L``, ``K`` and each variable's folded and per-event scores."""
    return {
        "J": report.assembled,
        "L": report.event_count,
        "K": report.variable_count,
        "per_variable": {
            name: {"J_j": vr.folded,
                   "events": [{"J_jl": e.j_value, "F": e.f_profile, "G": e.g_profile,
                               **asdict(e.milestones)} for e in vr.events]}
            for name, vr in report.per_variable.items()
        },
    }


def grid_json_dict(result: GridResult) -> dict:
    return {
        "grid_id": result.grid.grid_id,
        "row_labels": list(result.grid.row_labels),
        "col_labels": list(result.grid.col_labels),
        "cells": [
            {"row": r, "col": c, **report_json_dict(res.report),
             "scenario": res.scenario_id, "per_episode_J": res.per_episode_j}
            for (r, c), res in result.results.items()
        ],
    }


def write_json(data: dict, path: str | Path) -> None:
    """``data`` as indented JSON plus a newline: ``report.json`` and ``measure``'s output."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _heat_color(j: float | None) -> tuple[str, str]:
    """Fill and text color for a score: darker cell = lower resilience; grey for none.

    ``assemble_variables`` keeps every score in [0, 1].
    """
    if j is None:
        return "#d9d9d9", "#000000"
    dark = (8, 48, 107)
    light = (222, 235, 247)
    rgb = tuple(round(d + (l - d) * j) for d, l in zip(dark, light))
    text = "#000000" if j > 0.55 else "#ffffff"
    return "#{:02x}{:02x}{:02x}".format(*rgb), text


def _heatmap_svg(result: GridResult) -> str:
    grid = result.grid
    cell_w, cell_h = 96, 64
    left, top = 110, 56
    rows, cols = len(grid.row_labels), len(grid.col_labels)
    width = left + cols * cell_w + 20
    height = top + rows * cell_h + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left + cols * cell_w / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(grid.grid_id)} resilience</text>',
    ]
    for c, label in enumerate(grid.col_labels):
        parts.append(
            f'<text x="{left + c * cell_w + cell_w / 2}" y="{top - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f'{escape(label)}</text>')
    for r, label in enumerate(grid.row_labels):
        parts.append(
            f'<text x="{left - 8}" y="{top + r * cell_h + cell_h / 2 + 4}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12">{escape(label)}</text>')
    for (r, c), res in result.results.items():
        x, y = left + c * cell_w, top + r * cell_h
        j = res.report.assembled
        fill, text = _heat_color(j)
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                     f'fill="{fill}" stroke="#ffffff"/>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="{text}">'
            f'{"n/a" if j is None else f"{j:.2f}"}</text>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="{text}">'
            f'{escape(res.scenario_id)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


REPORTS = {
    "csv": ("report.csv", _write_csv),
    "json": ("report.json", lambda result, path: write_json(grid_json_dict(result), path)),
    "svg": ("heatmap.svg", lambda result, path: path.write_text(_heatmap_svg(result))),
}
"""Report format name -> (file name under the output directory, writer)."""


def emit_report(result: GridResult, out_dir: str | Path, formats: Sequence[str]) -> None:
    """Write ``run_grid``'s result into ``out_dir``, in the formats ``cli._formats`` checked."""
    for name in formats:
        filename, write = REPORTS[name]
        write(result, Path(out_dir) / filename)


def _repr_strings(column: np.ndarray) -> np.ndarray:
    """``repr`` of each float of a 1-D column, taken once per distinct bit pattern."""
    bits, inverse = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    return np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)[inverse]


def write_indicator_csv(curves: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write equal-length curves as a ``tick`` column plus one column per indicator.

    Bytes as ``csv.writer`` writes them, each value by its ``repr``: no field
    needs quoting, since names come from ``INDICATORS`` and a float's
    ``repr`` holds no comma or quote.
    """
    h = len(next(iter(curves.values()), ()))
    fields = np.stack([np.array([str(t) for t in range(h)], dtype=object),
                       *map(_repr_strings, curves.values())], axis=1)
    pieces = ["", *[","] * len(curves), "\r\n"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["tick", *curves]) + "\r\n")
        for start in range(0, h, BLOCK_TICKS):
            fh.write(join_rows(pieces, fields[start:start + BLOCK_TICKS]))


def export_indicators(result: GridResult, out_dir: str | Path) -> None:
    """Indicator CSVs of every cell: tick-wise mean and std over episodes, per twin.

    Each cell writes ``<id>_performance.csv``, ``<id>_reference.csv`` and
    their ``_std`` twins.  Cells of one grid share their reference episodes,
    so the first cell's reference files are written and the others copied.
    """
    out = Path(out_dir)
    scenarios = list(result.results.values())
    first = scenarios[0].scenario_id
    for stem, episodes in [(f"{first}_reference", result.reference),
                           *((f"{s.scenario_id}_performance", s.performance) for s in scenarios)]:
        for suffix, reduce in (("", np.mean), ("_std", np.std)):
            write_indicator_csv({name: reduce(a, axis=0) for name, a in episodes.items()},
                                out / f"{stem}{suffix}.csv")
    for scenario in scenarios[1:]:
        for suffix in ("", "_std"):
            shutil.copyfile(out / f"{first}_reference{suffix}.csv",
                            out / f"{scenario.scenario_id}_reference{suffix}.csv")
