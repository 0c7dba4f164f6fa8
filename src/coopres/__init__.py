"""Cooperative-resilience measurement for multi-agent systems.

Quantifies how well a collective of agents withstands and recovers from
disruptive events: well-being indicator curves are compared between a
disrupted run and an undisrupted twin, scored per event window, folded
across successive events, and coupled across indicators into a single
score in [0, 1].  Ships with a self-contained commons-harvest grid-world
simulator and two families of disruptive events for end-to-end studies.
"""

from importlib import import_module

# Re-exports load on first use (PEP 562), so that importing the package
# loads no numpy: ``coopres.cli`` sets numpy's thread default first.
_EXPORTS = {name: module for module, names in {
    "indicators": ("EpisodeTrace", "compute_indicators"),
    "resilience": ("CurvePair", "EventResilience", "Milestones", "ResilienceReport",
                   "assemble_variables", "fold_events", "guarded_ratio",
                   "resilience_pipeline", "summary_metric"),
    "timeseries": ("TimeSeries",),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
