from __future__ import annotations

import coopres


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition was deleted breaks
    # ``from coopres import *`` for every user.
    missing = [name for name in coopres.__all__ if not hasattr(coopres, name)]
    assert missing == []


def test_exported_names_are_pinned():
    # Removing a public name must edit this list, so that the removal is seen.
    assert coopres.__all__ == [
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
