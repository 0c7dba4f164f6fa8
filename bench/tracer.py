"""Spans and counters around calls into the coopres modules.

The traced run installs wrappers from here, never from inside
``src/coopres``.  Each wrapper replaces a function at the name its caller
resolves: the harness calls ``coopres.harness.build_view``, so that module
attribute is replaced, not ``coopres.world.build_view``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out once, when the traced command has returned.  Functions called
millions of times per run (``line_of_sight``, ``guarded_ratio``) only count
calls, which keeps the tracing overhead low.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

clock = time.perf_counter_ns

# (module, attribute path, span name).  A name appears twice where two
# callers resolve the same function through different modules.
SPANS = [
    ("coopres.cli", "run_grid", "harness.run_grid"),
    ("coopres.cli", "run_scenario", "harness.run_scenario"),
    ("coopres.harness", "run_scenario", "harness.run_scenario"),
    ("coopres.harness", "load_map", "world.load_map"),
    ("coopres.world", "GridMap._build_distance_table", "world.distance_table"),
    ("coopres.harness", "build_view", "world.build_view"),
    ("coopres.harness", "step_world", "world.step_world"),
    ("coopres.world", "regrow", "world.regrow"),
    ("coopres.world", "write_trace_jsonl", "world.write_trace_jsonl"),
    ("coopres.harness", "compute_indicators", "indicators.compute_indicators"),
    ("coopres.harness", "resilience_pipeline", "resilience.resilience_pipeline"),
    ("coopres.cli", "resilience_pipeline", "resilience.resilience_pipeline"),
    ("coopres.cli", "detect_triggers", "resilience.detect_triggers"),
    ("coopres.cli", "emit_report", "harness.emit_report"),
    ("coopres.cli", "export_indicators", "harness.export_indicators"),
    ("coopres.cli", "TimeSeries.from_csv", "timeseries.from_csv"),
]

COUNTERS = [
    ("coopres.world", "line_of_sight", "world.line_of_sight"),
    ("coopres.disruptions", "EventEngine.fire_events", "disruptions.fire_events"),
    ("coopres.disruptions", "apply_apple_vanish", "disruptions.apply_apple_vanish"),
    ("coopres.disruptions", "apply_bot_intrusion", "disruptions.apply_bot_intrusion"),
    ("coopres.resilience", "guarded_ratio", "resilience.guarded_ratio"),
]

POLICY_SPAN = ("coopres.harness", "policy_action", "world.policy_action")
EPISODE_SPAN = ("coopres.harness", "run_episode", "harness.run_episode")
POLICIES = ("greedy", "sustainable", "unsustainable_bot")

# Percentile of episode durations reported as the tail, the same on every
# workload and commit so that two commits' values compare.
TAIL_PCT = 90


class Recorder:
    """In-memory spans, call counts and per-episode notes of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.episodes: list[dict] = []
        self.unwrapped: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, fn, name: str, variant=None):
        """Wrap ``fn`` so each call records a span.

        ``variant`` maps the call's positional arguments to a suffix of the
        span name, as for the policy a ``policy_action`` call runs.
        """
        col, start, end, parent, stack = (self.name, self.start, self.end,
                                          self.parent, self._stack)
        fixed = self.name_id(name)
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            nid = fixed if variant is None else name_id(f"{name}.{variant(args)}")
            i = len(col)
            col.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def noted_episode(self, fn):
        """Record which episode each ``run_episode`` call simulates."""
        signature = inspect.signature(fn)
        episodes = self.episodes

        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            call = signature.bind(*args, **kwargs).arguments
            config = call["config"]
            with_events = call["with_events"] and len(config.schedule) > 0
            episodes.append({
                # Distinct (seed, schedule or none) keys; the schedule is
                # hashed by its repr, which lists every event field.
                "key": [call["seed"], repr(config.schedule.events) if with_events else None],
                "ticks": config.episode_length,
                "first_trigger": (trace.fired_triggers[0]
                                  if with_events and trace.fired_triggers else None),
            })
            return trace
        return wrapper

    def dump(self, path: Path, **extra) -> None:
        """Write spans to ``<path>.npz`` and everything else to ``<path>.json``."""
        np.savez(path.with_suffix(".npz"),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int32))
        meta = {"names": self.names, "counts": dict(self.counts),
                "episodes": self.episodes, "unwrapped": self.unwrapped, **extra}
        path.with_suffix(".json").write_text(json.dumps(meta))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _replace(rec: Recorder, module: str, attr: str, make) -> None:
    """Replace ``module.attr`` by ``make(original)``, keeping method kinds."""
    try:
        owner, leaf = _resolve(module, attr)
        raw = inspect.getattr_static(owner, leaf)
    except (ImportError, AttributeError):
        rec.unwrapped.append(f"{module}.{attr}")
        return
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, leaf, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, leaf, make(raw))


def install(rec: Recorder) -> None:
    """Wrap every traced boundary; names that no longer exist are reported."""
    for module, attr, name in SPANS:
        _replace(rec, module, attr, lambda fn, name=name: rec.spanned(fn, name))
    for module, attr, name in COUNTERS:
        _replace(rec, module, attr, lambda fn, name=name: rec.counted(fn, name))
    module, attr, name = POLICY_SPAN
    _replace(rec, module, attr,
             lambda fn: rec.spanned(fn, name, variant=lambda args: args[0].value))
    module, attr, name = EPISODE_SPAN
    _replace(rec, module, attr, lambda fn: rec.spanned(rec.noted_episode(fn), name))
    if rec.unwrapped:
        print(f"tracer: not found, left unwrapped: {', '.join(rec.unwrapped)}",
              file=sys.stderr)


def load(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path.with_suffix(".npz")) as npz:
        spans = {key: npz[key] for key in npz.files}
    return spans, json.loads(path.with_suffix(".json").read_text())


def span_totals(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, dict]:
    """Calls, total seconds and self seconds per span name.

    A span's self time is its duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.
    """
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_time = dur - covered[:dur.size]
    n = len(names)
    calls = np.bincount(spans["name"], minlength=n)
    total = np.bincount(spans["name"], weights=dur, minlength=n)
    own = np.bincount(spans["name"], weights=self_time, minlength=n)
    return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(names)}


def layer_metrics(spans: dict[str, np.ndarray], meta: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    totals = span_totals(spans, meta["names"])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return totals.get(name, zero)

    counts = meta["counts"]
    episodes = meta["episodes"]
    episode_ms = np.zeros(0)
    if "harness.run_episode" in meta["names"]:
        mask = spans["name"] == meta["names"].index("harness.run_episode")
        episode_ms = (spans["end"][mask] - spans["start"][mask]) / 1e6
    first = [e["first_trigger"] / e["ticks"] for e in episodes
             if e["first_trigger"] is not None]
    distinct = len({tuple(e["key"]) for e in episodes})
    policy_calls = sum(span(f"world.policy_action.{p}")["calls"] for p in POLICIES)

    return {
        "harness.run_episode.calls": (len(episodes), "count"),
        "harness.run_episode.ticks": (sum(e["ticks"] for e in episodes), "count"),
        "harness.run_episode.p50_ms": (
            float(np.percentile(episode_ms, 50)) if episode_ms.size else 0.0, "ms"),
        f"harness.run_episode.p{TAIL_PCT}_ms": (
            float(np.percentile(episode_ms, TAIL_PCT)) if episode_ms.size else 0.0, "ms"),
        "harness.distinct_episode_share": (
            distinct / len(episodes) if episodes else 0.0, "ratio"),
        "harness.prefix_share": (float(np.mean(first)) if first else 0.0, "ratio"),
        "harness.emit_report.s": (span("harness.emit_report")["s"], "s"),
        "harness.export_indicators.s": (span("harness.export_indicators")["s"], "s"),
        "harness.out_bytes": (meta["out_bytes"], "bytes"),
        "world.build_view.calls": (span("world.build_view")["calls"], "count"),
        "world.build_view.self_s": (span("world.build_view")["self_s"], "s"),
        "world.line_of_sight.calls": (counts.get("world.line_of_sight", 0), "count"),
        "world.policy_action.calls": (policy_calls, "count"),
        **{f"world.policy_action.{p}.s": (span(f"world.policy_action.{p}")["s"], "s")
           for p in POLICIES},
        "world.step_world.calls": (span("world.step_world")["calls"], "count"),
        "world.step_world.self_s": (span("world.step_world")["self_s"], "s"),
        "world.regrow.s": (span("world.regrow")["s"], "s"),
        "world.map_setup_s": (
            span("world.load_map")["s"] + span("world.distance_table")["s"], "s"),
        "world.write_trace_jsonl.s": (span("world.write_trace_jsonl")["s"], "s"),
        **{f"disruptions.{f}.calls": (counts.get(f"disruptions.{f}", 0), "count")
           for f in ("fire_events", "apply_apple_vanish", "apply_bot_intrusion")},
        "indicators.compute_indicators.s": (span("indicators.compute_indicators")["s"], "s"),
        "resilience.resilience_pipeline.s": (
            span("resilience.resilience_pipeline")["s"], "s"),
        "resilience.detect_triggers.s": (span("resilience.detect_triggers")["s"], "s"),
        "resilience.guarded_ratio.calls": (
            counts.get("resilience.guarded_ratio", 0), "count"),
        "timeseries.from_csv.s": (span("timeseries.from_csv")["s"], "s"),
    }
