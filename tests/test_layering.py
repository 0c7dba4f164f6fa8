"""Module boundaries that no other test states.

Report formats live in ``report.py``: the metric and curve modules touch no
file.  The row layout of a trace is read through ``EpisodeTrace`` alone:
only ``indicators.py``, which defines it, and ``harness.py``, which fills
the rows, read an attribute named ``rows``.  Modules import only from the
modules before them in ``LAYERS``, so no import cycle can form.  Outside the
package they import only the standard library and numpy, the one runtime
dependency.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import coopres

SOURCES = Path(coopres.__file__).parent
FILE_MODULES = {"json", "csv", "pathlib"}
LAYERS = ["timeseries", "indicators", "resilience", "world", "disruptions", "harness",
          "report", "cli"]


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


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(path.stem for path in SOURCES.glob("*.py")
                                    if path.stem not in ("__init__", "__main__"))


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_earlier_layers(module):
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from .x import y`` names x; ``from . import x`` names x itself.
            targets |= ({node.module.split(".")[0]} if node.module
                        else {alias.name for alias in node.names})
    assert targets <= set(LAYERS[:LAYERS.index(module)])


@pytest.mark.parametrize("module", sorted(path.name for path in SOURCES.glob("*.py")))
def test_module_imports_only_stdlib_and_numpy(module):
    tree = ast.parse((SOURCES / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    assert names - sys.stdlib_module_names <= {"numpy"}
