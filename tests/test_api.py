from __future__ import annotations

import coopres


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition was deleted breaks
    # ``from coopres import *`` for every user.
    missing = [name for name in coopres.__all__ if not hasattr(coopres, name)]
    assert missing == []
