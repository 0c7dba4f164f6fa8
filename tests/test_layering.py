"""Module boundaries that no other test states.

Report formats live in ``report.py``: the metric and curve modules touch no
file.  The row layout of a trace is read through ``EpisodeTrace`` alone:
only ``indicators.py``, which defines it, and ``harness.py``, which fills
the rows, read an attribute named ``rows``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import coopres

SOURCES = Path(coopres.__file__).parent
FILE_MODULES = {"json", "csv", "pathlib"}


@pytest.mark.parametrize("module", ["resilience.py", "indicators.py"])
def test_module_does_no_file_io(module):
    tree = ast.parse((SOURCES / module).read_text())
    imported = set()
    opens = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                opens.append(node.lineno)
    assert imported & FILE_MODULES == set()
    assert opens == []


@pytest.mark.parametrize("module", sorted({path.name for path in SOURCES.glob("*.py")}
                                          - {"indicators.py", "harness.py"}))
def test_module_reads_no_trace_rows(module):
    tree = ast.parse((SOURCES / module).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "rows"] == []
