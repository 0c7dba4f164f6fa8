"""Report formats live in ``report.py``: the metric and curve modules touch no file."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import coopres

FILE_MODULES = {"json", "csv", "pathlib"}


@pytest.mark.parametrize("module", ["resilience.py", "indicators.py"])
def test_module_does_no_file_io(module):
    tree = ast.parse((Path(coopres.__file__).parent / module).read_text())
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
