"""Report files of a scored grid: long-format CSV, nested JSON, SVG heatmap.

A single scenario is a one-cell grid, so every command writes through
the same functions.
"""

from __future__ import annotations

import csv
import json
import shutil
from html import escape
from pathlib import Path
from typing import Sequence

from .harness import ConfigError, GridResult, ScenarioResult
from .indicators import write_indicator_csv


def _long_rows(results: list[ScenarioResult]) -> list[list]:
    rows = []
    for res in results:
        rep = res.report
        for name, vr in rep.per_variable.items():
            for l, ev in enumerate(vr.events, start=1):
                rows.append([res.scenario_id, name, l,
                             repr(ev.j_value), repr(ev.f_profile), repr(ev.g_profile),
                             repr(vr.folded), repr(rep.assembled)])
    return rows


def _write_csv(result: GridResult, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "variable", "event", "J_jl", "F", "G", "J_j", "J"])
        writer.writerows(_long_rows(result.scenario_results()))


def grid_json_dict(result: GridResult) -> dict:
    return {
        "grid_id": result.grid_id,
        "row_labels": list(result.row_labels),
        "col_labels": list(result.col_labels),
        "cells": [
            {"row": r, "col": c, **result.results[(r, c)].to_json_dict()}
            for (r, c) in sorted(result.results)
        ],
    }


def _write_json(result: GridResult, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(grid_json_dict(result), fh, indent=2)
        fh.write("\n")


def _heat_color(j: float) -> tuple[str, str]:
    """Fill and text color for a score: darker cell = lower resilience."""
    j = min(max(j, 0.0), 1.0)
    dark = (8, 48, 107)
    light = (222, 235, 247)
    rgb = tuple(round(d + (l - d) * j) for d, l in zip(dark, light))
    text = "#000000" if j > 0.55 else "#ffffff"
    return "#{:02x}{:02x}{:02x}".format(*rgb), text


def _heatmap_svg(result: GridResult) -> str:
    cell_w, cell_h = 96, 64
    left, top = 110, 56
    rows, cols = len(result.row_labels), len(result.col_labels)
    width = left + cols * cell_w + 20
    height = top + rows * cell_h + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left + cols * cell_w / 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(result.grid_id)} resilience</text>',
    ]
    for c, label in enumerate(result.col_labels):
        parts.append(
            f'<text x="{left + c * cell_w + cell_w / 2}" y="{top - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f'{escape(label)}</text>')
    for r, label in enumerate(result.row_labels):
        parts.append(
            f'<text x="{left - 8}" y="{top + r * cell_h + cell_h / 2 + 4}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12">{escape(label)}</text>')
    for (r, c), res in sorted(result.results.items()):
        x, y = left + c * cell_w, top + r * cell_h
        fill, text = _heat_color(res.report.assembled)
        parts.append(f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                     f'fill="{fill}" stroke="#ffffff"/>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 - 4}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16" fill="{text}">'
            f'{res.report.assembled:.2f}</text>')
        parts.append(
            f'<text x="{x + cell_w / 2}" y="{y + cell_h / 2 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="{text}">'
            f'{escape(res.scenario_id)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


REPORTS = {
    "csv": ("report.csv", _write_csv),
    "json": ("report.json", _write_json),
    "svg": ("heatmap.svg", lambda result, path: path.write_text(_heatmap_svg(result))),
}
"""Report format name -> (file name under the output directory, writer)."""


def check_formats(formats: Sequence[str]) -> None:
    """Refuse any name that is not a key of ``REPORTS``."""
    for name in formats:
        if name not in REPORTS:
            raise ConfigError(
                f"unknown report format {name!r} (choose from {', '.join(REPORTS)})")


def emit_report(result: GridResult, out_dir: str | Path,
                formats: Sequence[str] = tuple(REPORTS)) -> None:
    """Write the named report formats of a grid into ``out_dir``."""
    check_formats(formats)
    if not result.results:
        raise ValueError("no results to emit")
    for name in formats:
        filename, write = REPORTS[name]
        write(result, Path(out_dir) / filename)


def export_indicators(result: GridResult, out_dir: str | Path) -> None:
    """Indicator CSVs of every cell: tick-wise mean and std over episodes, per twin.

    Each cell writes ``<id>_performance.csv``, ``<id>_reference.csv`` and
    their ``_std`` twins.  Cells of one grid share their reference episodes,
    so a reference file repeats the first cell's and is copied from it.
    """
    out = Path(out_dir)
    first = None
    for scenario in result.scenario_results():
        twins = [("performance", scenario.performance)]
        if first is None or scenario.reference is not first.reference:
            twins.append(("reference", scenario.reference))
        else:
            for suffix in ("", "_std"):
                shutil.copyfile(out / f"{first.scenario_id}_reference{suffix}.csv",
                                out / f"{scenario.scenario_id}_reference{suffix}.csv")
        for label, episodes in twins:
            stem = out / f"{scenario.scenario_id}_{label}"
            write_indicator_csv({name: a.mean(axis=0) for name, a in episodes.items()},
                                f"{stem}.csv")
            write_indicator_csv({name: a.std(axis=0) for name, a in episodes.items()},
                                f"{stem}_std.csv")
        if first is None:
            first = scenario
