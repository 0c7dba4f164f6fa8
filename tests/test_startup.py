"""What importing coopres does to a fresh interpreter.

The CLI defaults numpy's OpenBLAS to one thread before numpy loads, and the
package itself loads its re-exports only on first use.  Each check runs in
a new interpreter, because this one has numpy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopres

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _probe(code: str, **env: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child_env.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(done.stdout)


_AFTER_CLI = """
import json, os, sys
import coopres.cli
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"blas": os.environ.get("OPENBLAS_NUM_THREADS"), "tasks": tasks,
                  "futures": "concurrent.futures" in sys.modules}))
"""


class TestCliStartup:
    def test_defaults_openblas_to_one_thread(self):
        seen = _probe(_AFTER_CLI)
        assert seen["blas"] == "1"
        if seen["tasks"] is None:
            pytest.skip("no /proc/self/task to count threads on this platform")
        assert seen["tasks"] == 1

    def test_keeps_a_value_the_user_set(self):
        assert _probe(_AFTER_CLI, OPENBLAS_NUM_THREADS="3")["blas"] == "3"

    def test_loads_no_process_pool(self):
        # One-worker commands never use it, and it pulls in logging.
        assert _probe(_AFTER_CLI)["futures"] is False

    def test_plain_package_import_loads_no_numpy(self):
        seen = _probe("""
import json, os, sys
import coopres
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS")}))
""")
        assert seen == {"numpy": False, "blas": None}


class TestLazyExports:
    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from coopres import *", namespace)
        assert [name for name in coopres.__all__ if name not in namespace] == []

    def test_dir_lists_every_exported_name(self):
        assert set(coopres.__all__) <= set(dir(coopres))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            coopres.no_such_name
        assert not hasattr(coopres, "no_such_name")

    def test_export_is_the_submodule_object(self):
        from coopres.resilience import fold_events
        assert coopres.fold_events is fold_events
