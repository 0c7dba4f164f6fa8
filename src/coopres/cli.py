"""Command-line entry point: run / measure / grid / preset / validate."""

from __future__ import annotations

import os

# numpy's bundled OpenBLAS starts one thread per core as it loads, and
# coopres calls no BLAS routine: default to one before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import world
from .disruptions import EventKind, parse_event, schedule_lines
from .harness import (
    DEFAULT_SEED,
    PRESETS,
    ConfigError,
    ExperimentGrid,
    GridResult,
    ScenarioConfig,
    ScenarioResult,
    parse_scenario_config,
    run_grid,
    run_scenario,
)
from .report import REPORTS, emit_report, export_indicators, report_json_dict, write_json
from .resilience import CurvePair, detect_triggers, resilience_pipeline
from .timeseries import TimeSeries

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

FORMATS = ",".join(REPORTS)
FORMAT_HELP = f"comma-separated report formats, from {FORMATS} (default: all)"


class _Parser(argparse.ArgumentParser):
    # Argument problems are validation failures: report and exit 1.
    def error(self, message):
        print(f"error:cli: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coopres",
                     description="Cooperative-resilience measurement toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's base seed (default: keep config value)")
    run.add_argument("--format", default=FORMATS, help=FORMAT_HELP)
    run.add_argument("--traces", action="store_true",
                     help="also dump per-episode JSONL world traces")

    measure = sub.add_parser("measure",
                             help="score externally supplied performance/reference curves")
    measure.add_argument("--performance", required=True)
    measure.add_argument("--reference", required=True)
    measure.add_argument("--schedule", default=None,
                         help="trigger ticks, one per line (optional; detected from the "
                              "curves when omitted)")
    measure.add_argument("--out", required=True, help="output JSON file")

    grid = sub.add_parser("grid", help="run a named experiment grid")
    grid.add_argument("--preset", required=True, choices=sorted(PRESETS))
    grid.add_argument("--out", required=True)
    grid.add_argument("--seed", type=int, default=None,
                      help=f"base seed of the preset's episodes (default: {DEFAULT_SEED})")
    grid.add_argument("--format", default=FORMATS, help=FORMAT_HELP)

    preset = sub.add_parser("preset", help="list presets or show one")
    preset.add_argument("name", nargs="?", default=None)

    validate = sub.add_parser("validate", help="check a scenario config file")
    validate.add_argument("--config", required=True)
    return parser


def _parse_trigger_file(path: str) -> list[int]:
    """Trigger ticks: a line holds one tick, or a full schedule line whose trigger is taken."""
    triggers = []
    for lineno, line in schedule_lines(Path(path).read_text()):
        try:
            triggers.append(int(line) if len(line.split()) == 1
                            else parse_event(line).trigger_tick)
        except ValueError as exc:
            raise ValueError(f"{path}: schedule line {lineno}: {exc}") from None
    if not triggers:
        raise ValueError(f"{path}: no trigger ticks")
    return triggers


def _formats(args) -> list[str]:
    formats = [name.strip() for name in args.format.split(",")]
    for name in formats:
        if name not in REPORTS:
            raise ConfigError(f"unknown report format {name!r} (choose from {', '.join(REPORTS)})")
    repeated = sorted({name for name in formats if formats.count(name) > 1})
    if repeated:
        raise ConfigError(f"repeated report formats: {repeated}")
    return formats


def _check_out(out: str, kind: str) -> Path:
    """``--out`` as a path, refused when it cannot be a ``kind`` ("directory" or "file")."""
    if not out:
        raise ValueError("--out is empty")
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path and path.is_dir() != (kind == "directory"):
        raise ValueError(f"--out {out} exists and is not a {kind}")
    if existing != path and not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")
    return path


def _write_outputs(result: GridResult, out: Path, formats: list[str]) -> None:
    """Reports and indicator CSVs of a grid, under ``out``; traces are written as they run."""
    out.mkdir(parents=True, exist_ok=True)
    emit_report(result, out, formats)
    export_indicators(result, out)


def _write_traces(out: Path, cell, k: int, performance, reference) -> None:
    """``run``'s trace sink: episode ``k``'s two traces, under ``out``, made if need be."""
    out.mkdir(parents=True, exist_ok=True)
    for label, trace in (("performance", performance), ("reference", reference)):
        # Looked up per call, so that a wrapper set on the module attribute applies.
        world.write_trace_jsonl(trace, out / f"trace_{label}_ep{k}.jsonl")


def _unscored(res: ScenarioResult) -> str:
    """Stdout's ``J`` of a scenario in which no event fired."""
    n = len(res.per_episode_j)
    return f"J = n/a (no event fired in {n} episode{'s' if n != 1 else ''})"


def _cmd_run(args) -> int:
    formats = _formats(args)
    out = _check_out(args.out, "directory")
    config = parse_scenario_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    result = run_scenario(config, functools.partial(_write_traces, out) if args.traces else None)
    _write_outputs(result, out, formats)
    res = result.results[(0, 0)]
    report = res.report
    print(_unscored(res) if report.assembled is None else
          f"J = {report.assembled:.6f} (L={report.event_count}, K={report.variable_count})")
    return EXIT_OK


def _cmd_measure(args) -> int:
    out = _check_out(args.out, "file")
    performance = TimeSeries.from_csv(args.performance)
    reference = TimeSeries.from_csv(args.reference)
    pair = CurvePair(performance=performance, reference=reference)
    if args.schedule is not None:
        triggers = _parse_trigger_file(args.schedule)
    else:
        triggers = detect_triggers(pair)
        if not triggers:
            raise ValueError("no disruption detected in the curves and no schedule given")
    report = resilience_pipeline({"value": pair}, triggers)  # named as the files' column
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(report_json_dict(report), out)
    print(f"J = {report.assembled:.6f} (L={report.event_count})")
    return EXIT_OK


def _cmd_grid(args) -> int:
    formats = _formats(args)
    out = _check_out(args.out, "directory")
    base = None if args.seed is None else ScenarioConfig(base_seed=args.seed)
    result = run_grid(PRESETS[args.preset](base))
    _write_outputs(result, out, formats)
    for res in result.results.values():
        j = res.report.assembled
        print(f"{res.scenario_id}: " + (_unscored(res) if j is None else f"J = {j:.6f}"))
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.name is None:
        for name in sorted(PRESETS):
            grid = PRESETS[name]()
            print(f"{name}: {len(grid.cells)} scenarios "
                  f"({len(grid.row_labels)}x{len(grid.col_labels)})")
        return EXIT_OK
    if args.name not in PRESETS:
        raise ConfigError(f"unknown preset {args.name!r} (choose from {sorted(PRESETS)})")
    grid = PRESETS[args.name]()
    for (r, c), cfg in grid.cells.items():
        descr = []
        for event in cfg.schedule:
            if event.kind is EventKind.APPLE_VANISH:
                descr.append(f"apple_vanish@{event.trigger_tick} v_s={event.v_s}")
            else:
                descr.append(f"bots@{event.trigger_tick} x{event.bot_count} "
                             f"for {event.duration}")
        print(f"{cfg.scenario_id} [{grid.row_labels[r]} | {grid.col_labels[c]}]: "
              + "; ".join(descr))
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = parse_scenario_config(args.config)
    ExperimentGrid.single(config).validate()
    print(f"{args.config}: ok ({config.n_agents} agents, "
          f"{len(config.schedule)} events, {config.episodes} episodes)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    handlers = {"run": _cmd_run, "measure": _cmd_measure, "grid": _cmd_grid,
                "preset": _cmd_preset, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error:input: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"error:runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
