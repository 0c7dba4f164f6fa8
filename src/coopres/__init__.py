"""Cooperative-resilience measurement for multi-agent systems.

Quantifies how well a collective of agents withstands and recovers from
disruptive events: well-being indicator curves are compared between a
disrupted run and an undisrupted twin, scored per event window, folded
across successive events, and coupled across indicators into a single
score in [0, 1].  Ships with a self-contained commons-harvest grid-world
simulator and two families of disruptive events for end-to-end studies.
"""

from .indicators import EpisodeTrace, compute_indicators
from .resilience import (
    CurvePair,
    EventResilience,
    Milestones,
    ResilienceReport,
    assemble_variables,
    fold_events,
    guarded_ratio,
    resilience_pipeline,
    summary_metric,
)
from .timeseries import TimeSeries

__version__ = "0.1.0"

__all__ = [
    "CurvePair",
    "EpisodeTrace",
    "EventResilience",
    "Milestones",
    "ResilienceReport",
    "TimeSeries",
    "assemble_variables",
    "compute_indicators",
    "fold_events",
    "guarded_ratio",
    "resilience_pipeline",
    "summary_metric",
    "__version__",
]
